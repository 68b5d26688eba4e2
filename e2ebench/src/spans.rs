//! In-memory span recorder for the traced run.
//!
//! Every span has a name, a start, an end and (except roots) the span
//! that caused it. Spans are kept in memory while the benchmark runs and
//! written out once at exit. A span's self time is its duration minus the
//! part of its interval that its children cover; children may run
//! concurrently on different workers, so the covered part is the union
//! of their intervals, not their sum.

use parcache_core::metrics::json_escape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// What ran: a layer's public function, or a benchmark phase.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id so it can open child spans.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        // A plain counter: ids only need to be unique, they publish no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span finished so far, ordered by start time.
    pub fn finished(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking worker")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// The spans as a JSON document: every span with its self time, plus
/// per-name totals (count, wall, self), with `provenance` embedded.
pub fn to_json(spans: &[Span], provenance: &str) -> String {
    let selfs = self_times(spans);
    let mut by_name: Vec<(&str, u64, u64, u64)> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut rows = Vec::with_capacity(spans.len());
    for s in spans {
        let own = selfs[&s.id];
        let i = *index.entry(s.name.as_str()).or_insert_with(|| {
            by_name.push((s.name.as_str(), 0, 0, 0));
            by_name.len() - 1
        });
        by_name[i].1 += 1;
        by_name[i].2 += s.duration_ns();
        by_name[i].3 += own;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        rows.push(format!(
            r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id,
            parent,
            json_escape(&s.name),
            s.start_ns,
            s.end_ns,
            own
        ));
    }
    let names: Vec<String> = by_name
        .iter()
        .map(|(name, count, total, own)| {
            format!(
                r#"{{"name":"{}","count":{count},"total_ns":{total},"self_ns":{own}}}"#,
                json_escape(name)
            )
        })
        .collect();
    format!(
        "{{\"provenance\":{provenance},\"by_name\":[{}],\"spans\":[{}]}}\n",
        names.join(","),
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two children overlap on [20, 30): covered = [10, 40) = 30.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(1), 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 70);
        assert_eq!(selfs[&1], 18);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 2);
    }

    #[test]
    fn recorder_keeps_parents_and_order() {
        let t = Tracer::new();
        t.span("outer", None, |id| {
            t.span("inner", Some(id), |_| std::hint::black_box(1 + 1));
        });
        let spans = t.finished();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans, "{}").contains(r#""name":"inner""#));
    }
}
