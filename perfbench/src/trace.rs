//! In-memory span recorder for the traced run.
//!
//! The benchmark's driver opens one span around every call it makes into
//! a layer's public entry point (`tick`, `feed`, `finish`, a daemon
//! request, a decode step). Spans are kept in memory while the stream
//! runs and written out once at the end, so recording costs two clock
//! reads and one `Vec` push per call. A layer's *self time* is its span's
//! duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start, end and the span that caused it.
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of one traced stream.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per stream");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one. Returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total self time per span name, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `id parent name start_ns end_ns` (`parent` is `-` at top level).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{id}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let root = t.enter("root");
        t.span("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        let total = t.exit(root);
        let selfs = t.self_seconds();
        let child = selfs["child"];
        assert!(child >= 0.005);
        let root_self = selfs["root"];
        assert!((root_self + child - total as f64 * 1e-9).abs() < 1e-9);
        assert!(root_self < child);
    }
}
