//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer and call), a start and an end relative to
//! a shared epoch, the span that caused it, and the request it belongs
//! to. Spans stay in memory while a run measures and are written out
//! when it ends. A layer's self time is its span's duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span buffer owned by one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Calls and summed self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            layer.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Writes one tab-separated line per span.
    ///
    /// # Errors
    ///
    /// Any error writing `out`.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    pub self_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", None, 7);
        t.time("leaf", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close(root);
        let layers = t.layers();
        let root_total = t.durations("root")[0];
        let leaf = layers["leaf"].self_s;
        assert!(leaf >= 0.02);
        assert!((layers["root"].self_s - (root_total - leaf)).abs() < 1e-6);
        assert_eq!(t.spans()[1].request, 7);
    }

    #[test]
    fn absorbing_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.time("x", None, 1, || ());
        let mut b = Tracer::new(epoch);
        let r = b.open("root", None, 2);
        b.time("child", Some(r), 2, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].name, "root");
    }
}
