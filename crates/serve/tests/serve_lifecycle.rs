//! Request deadlines, the bounded admission queue, and graceful shutdown.

use mjoin_serve::{Client, ServeConfig, Server, Value};

fn chain_tsv(a: &str, b: &str, rows: u32) -> String {
    let mut t = format!("{a}\t{b}\n");
    for i in 0..rows {
        t.push_str(&format!("{i}\t{}\n", i + 1));
    }
    t
}

fn load_pair(c: &mut Client, catalog: &str) {
    for (name, tsv) in [
        ("ab", chain_tsv("A", "B", 10)),
        ("bc", chain_tsv("B", "C", 10)),
    ] {
        let resp = c
            .cmd(
                "load",
                &[
                    ("catalog", Value::str(catalog)),
                    ("name", Value::str(name)),
                    ("tsv", Value::str(tsv)),
                ],
            )
            .unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }
}

fn spawn(
    cfg: ServeConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

#[test]
fn expired_deadline_cancels_at_a_statement_boundary() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    // A zero deadline is already expired when execution starts: the
    // cooperative check fires before statement 0 — a structured error, not
    // a hung request.
    let resp = c
        .cmd(
            "query",
            &[("catalog", Value::str("c")), ("deadline_ms", Value::u64(0))],
        )
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let e = resp.get("error").expect("error payload");
    assert_eq!(e.get("kind").and_then(Value::as_str), Some("deadline"));
    assert_eq!(e.get("at_stmt").and_then(Value::as_u64), Some(0));

    // Without a deadline the same query succeeds.
    let resp = c.cmd("query", &[("catalog", Value::str("c"))]).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        resp.render()
    );

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn zero_depth_queue_reports_queue_full() {
    // A zero-depth queue admits nothing once the gate is active: the
    // degenerate configuration makes the overload path deterministic.
    let (addr, server_thread) = spawn(ServeConfig {
        max_cost: Some(1_000_000),
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).unwrap();
    load_pair(&mut c, "c");
    let resp = c.cmd("query", &[("catalog", Value::str("c"))]).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let e = resp.get("error").expect("error payload");
    assert_eq!(e.get("kind").and_then(Value::as_str), Some("queue_full"));
    assert_eq!(e.get("queue_depth").and_then(Value::as_u64), Some(0));

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_and_stops_the_listener() {
    let (addr, server_thread) = spawn(ServeConfig::default());
    let mut a = Client::connect(addr).unwrap();
    load_pair(&mut a, "c");
    let resp = a.cmd("query", &[("catalog", Value::str("c"))]).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    let mut b = Client::connect(addr).unwrap();
    let bye = b.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();

    // The listener is gone: a fresh connection either fails outright or
    // dies on first use.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.cmd("ping", &[]).is_err(),
    };
    assert!(refused, "server must stop accepting after shutdown");
}

/// The accept loop blocks in `accept`; `shutdown` wakes it with a loopback
/// connect even when the listener is bound to every interface.
#[test]
fn shutdown_wakes_a_listener_bound_to_every_interface() {
    let (addr, server_thread) = spawn(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(("127.0.0.1", addr.port())).unwrap();
    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}
