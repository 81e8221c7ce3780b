//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls
//! into each layer, kept in memory and written as JSONL when the run
//! ends. Every per-layer timing in the report is read back out of the
//! trace, so the file on disk and the printed numbers cannot disagree.

use std::fmt::Write as _;
use std::time::Instant;

/// A named work count carried on a span (messages, bytes, flows,
/// rebuilds, …).
pub type Count = (&'static str, u64);

/// Counts one span can carry; kept inline so closing a span never
/// allocates. An empty name is an unused slot.
const MAX_COUNTS: usize = 3;

/// One timed call. `parent` is the span that caused it; spans of one
/// 60-s step share `step`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the causing span, `None` for a root.
    pub parent: Option<u32>,
    /// The measured-window step this span belongs to.
    pub step: u32,
    /// Layer-metric name the span feeds.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Work counted at this boundary.
    pub counts: [Count; MAX_COUNTS],
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. A span's id is its index.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its id for [`Trace::close`].
    pub fn open(&mut self, parent: Option<u32>, step: u32, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            step,
            name,
            start_ns,
            end_ns: start_ns,
            counts: [("", 0); MAX_COUNTS],
        });
        (self.spans.len() - 1) as u32
    }

    /// End span `id`, attaching the work it counted (at most
    /// `MAX_COUNTS` entries).
    pub fn close(&mut self, id: u32, counts: &[Count]) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.counts[..counts.len()].copy_from_slice(counts);
    }

    /// Self time per span: its duration minus its children's. The
    /// driver is single-threaded, so siblings never overlap and a
    /// plain sum is the covered interval.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self times, ms, of every span called `name`, in call order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Σ of count `key` over every span called `name`.
    pub fn count(&self, name: &str, key: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts)
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Σ self time, ms, of spans called `name` per step, indexed by
    /// step.
    pub fn self_ms_per_step(&self, name: &str, steps: usize) -> Vec<f64> {
        let own = self.self_ns();
        let mut out = vec![0.0; steps];
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                out[s.step as usize] += ns as f64 / 1e6;
            }
        }
        out
    }

    /// One JSON object per line: `{id, parent, step, name, start_ns,
    /// end_ns}` plus the span's counts under their own names.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 112);
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\": {id}, \"parent\": ");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            // Span and count names are identifiers from this crate's
            // source, never outside input, so they need no escaping.
            let _ = write!(
                out,
                ", \"step\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                s.step, s.name, s.start_ns, s.end_ns
            );
            for (k, v) in s.counts.iter().filter(|(k, _)| !k.is_empty()) {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_scenario::json::{parse, Json};

    /// A hand-built trace: root [0, 100) with children [10, 40) and
    /// [50, 70); the first child has a grandchild [20, 25).
    fn sample() -> Trace {
        let span = |parent, name, start_ns, end_ns, counts: &[Count]| {
            let mut padded = [("", 0); MAX_COUNTS];
            padded[..counts.len()].copy_from_slice(counts);
            Span {
                parent,
                step: 0,
                name,
                start_ns,
                end_ns,
                counts: padded,
            }
        };
        Trace {
            epoch: Instant::now(),
            spans: vec![
                span(None, "step", 0, 100, &[]),
                span(Some(0), "a", 10, 40, &[("msgs", 7)]),
                span(Some(1), "b", 20, 25, &[]),
                span(Some(0), "a", 50, 70, &[("msgs", 5), ("bytes", 9)]),
            ],
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = sample();
        // root: 100 − (30 + 20); first a: 30 − 5; b: 5; second a: 20.
        assert_eq!(t.self_ns(), vec![50, 25, 5, 20]);
        // Self times partition the root's duration exactly.
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
        assert_eq!(t.self_ms("a"), vec![25e-6, 20e-6]);
        assert_eq!(t.self_ms_per_step("a", 1), vec![45e-6]);
    }

    #[test]
    fn counts_sum_by_span_name_and_key() {
        let t = sample();
        assert_eq!(t.count("a", "msgs"), 12);
        assert_eq!(t.count("a", "bytes"), 9);
        assert_eq!(t.count("b", "msgs"), 0);
    }

    #[test]
    fn live_spans_nest_and_close() {
        let mut t = Trace::new();
        let root = t.open(None, 3, "step");
        let child = t.open(Some(root), 3, "x");
        t.close(child, &[("n", 1)]);
        t.close(root, &[]);
        let (r, c) = (&t.spans[0], &t.spans[1]);
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(c.parent, Some(0));
    }

    #[test]
    fn jsonl_lines_parse_under_the_strict_reader() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let mut last = parse(lines[3]).unwrap().into_obj("span").unwrap();
        assert_eq!(last.take("id").unwrap(), Json::U64(3));
        assert_eq!(last.take("parent").unwrap(), Json::U64(0));
        assert_eq!(last.take("step").unwrap(), Json::U64(0));
        assert_eq!(last.take("name").unwrap(), Json::Str("a".into()));
        assert_eq!(last.take("start_ns").unwrap(), Json::U64(50));
        assert_eq!(last.take("end_ns").unwrap(), Json::U64(70));
        assert_eq!(last.take("msgs").unwrap(), Json::U64(5));
        assert_eq!(last.take("bytes").unwrap(), Json::U64(9));
        last.finish().unwrap();
        let mut root = parse(lines[0]).unwrap().into_obj("span").unwrap();
        assert_eq!(root.take("parent").unwrap(), Json::Null);
    }
}
