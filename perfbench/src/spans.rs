//! The traced replay's span recorder.
//!
//! The replay wraps each call into a layer in a span: a name, a start and an
//! end (nanoseconds since the recorder's epoch), the span that was open when
//! it began, and the id of the request it belongs to. Spans are kept in
//! memory and written out as JSON lines when the run ends. A layer's self
//! time is its span's duration minus the durations of its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Recorder::exit
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open the root span of request `request`.
    pub fn begin_request(&mut self, request: u64, name: &'static str) -> usize {
        assert!(self.open.is_empty(), "requests do not nest");
        self.request = request;
        self.enter(name)
    }

    /// Self time in nanoseconds of every span, by index.
    fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per request: the summed self time of the spans named `name`.
    pub fn self_by_request(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name {
                *out.entry(s.request).or_insert(0) += t;
            }
        }
        out
    }

    /// Per request: the summed duration of the spans named `name`.
    pub fn total_by_request(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Names of the direct children of spans named `parent`, in order of
    /// first appearance.
    pub fn child_names(&self, parent: &str) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            let under = s.parent.is_some_and(|p| self.spans[p].name == parent);
            if under && !out.contains(&s.name) {
                out.push(s.name);
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        let root = rec.begin_request(7, "request");
        rec.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit(root);
        let total = rec.total_by_request("request")[&7];
        let own = rec.self_by_request("request")[&7];
        let child = rec.self_by_request("child")[&7];
        assert_eq!(own + child, total);
        assert!(child >= 2_000_000);
        assert_eq!(rec.child_names("request"), vec!["child"]);
    }
}
