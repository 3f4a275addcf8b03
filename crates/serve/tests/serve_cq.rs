//! The server's `query` command with a `cq` field renders its answer with
//! the shared TSV writer: string cells are escaped so the reply parses back
//! to the loaded values, and integer-only replies keep the plain layout
//! (header of head variables, sorted rows, cells joined by tabs).

use mjoin_cq::{execute_query, parse_query, NamedDatabase, PlanStrategy};
use mjoin_relation::{tsv, Catalog};
use mjoin_serve::{Client, ServeConfig, Server, Value};

/// Escaped cells: an embedded tab, a string that reads as an integer
/// without its `\s` marker, a leading space, and a backslash.
const STRINGS: &str = "k\tv\n1\ta\\tb\n2\t\\s42\n3\t\\s lead\n4\tback\\\\slash\n5\tplain\n";
const EDGES: &str = "s\td\n1\t2\n2\t3\n3\t1\n2\t5\n";

fn load(c: &mut Client, name: &str, text: &str) {
    let resp = c
        .cmd(
            "load",
            &[
                ("catalog", Value::str("c")),
                ("name", Value::str(name)),
                ("tsv", Value::str(text)),
            ],
        )
        .unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "load failed: {}",
        resp.render()
    );
}

fn cq_tsv(c: &mut Client, cq: &str) -> String {
    let resp = c
        .cmd(
            "query",
            &[("catalog", Value::str("c")), ("cq", Value::str(cq))],
        )
        .unwrap();
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "query `{cq}` failed: {}",
        resp.render()
    );
    resp.get("tsv").and_then(Value::as_str).unwrap().to_string()
}

#[test]
fn cq_replies_escape_strings_and_keep_integer_layout() {
    let server = Server::bind(ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let mut c = Client::connect(addr).unwrap();
    load(&mut c, "strs", STRINGS);
    load(&mut c, "e", EDGES);

    // String cells round-trip: the reply parses back to the loaded values.
    let reply = cq_tsv(&mut c, "Q(k, v) :- strs(k, v)");
    for line in reply.lines() {
        assert_eq!(line.matches('\t').count(), 1, "corrupt line {line:?}");
    }
    let mut cat = Catalog::new();
    let loaded = tsv::relation_from_tsv(&mut cat, STRINGS).unwrap();
    let back = tsv::relation_from_tsv(&mut cat, &reply).unwrap();
    assert_eq!(back, loaded, "reply:\n{reply}");

    // A repeated head variable repeats its (escaped) column.
    let reply = cq_tsv(&mut c, "Q(v, v) :- strs(k, v)");
    let mut lines = reply.lines();
    assert_eq!(lines.next(), Some("v\tv"));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 5);
    for row in &rows {
        let (a, b) = row.split_once('\t').unwrap();
        assert_eq!(a, b, "row {row:?}");
    }
    assert!(rows.contains(&"\\s42\t\\s42"), "{rows:?}");

    // Integer-only replies: byte-identical to rendering the sorted
    // head-order rows with `Display`, cells joined by tabs.
    let mut ndb = NamedDatabase::new();
    ndb.add_tsv("e", EDGES).unwrap();
    for cq in [
        "Q(x, z) :- e(x, y), e(y, z)",
        "Q(z, x) :- e(x, y), e(y, z)",
        "Q(x, x) :- e(x, y)",
        "Q() :- e(x, y), e(y, x)",
    ] {
        let res = execute_query(&ndb, &parse_query(cq).unwrap(), PlanStrategy::Greedy).unwrap();
        let mut expect = res
            .head_attrs
            .iter()
            .map(|&a| res.catalog.name(a))
            .collect::<Vec<_>>()
            .join("\t");
        expect.push('\n');
        for row in res.rows_in_head_order() {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            expect.push_str(&cells.join("\t"));
            expect.push('\n');
        }
        assert_eq!(cq_tsv(&mut c, cq), expect, "query `{cq}`");
    }

    let bye = c.cmd("shutdown", &[]).unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
}
