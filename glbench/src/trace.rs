//! Spans and counts of a traced run, kept in memory and written out once
//! at the end. All of them are recorded from the benchmark's own files,
//! around the calls into each layer; nothing inside the engines is
//! instrumented.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    /// Counts and ratios measured inside this span, by metric name.
    counts: Vec<(String, f64)>,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced closure panicked")
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent its
    /// children and attach counts. Safe to call from several threads.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns: 0,
                end_ns: 0,
                counts: Vec::new(),
            });
            spans.len() - 1
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.spans();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// As [`Tracer::span`], and records the span's duration in seconds as
    /// the count `metric` on it.
    pub fn timed<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        metric: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let mut own = 0;
        let out = self.span(name, parent, |id| {
            own = id;
            f(id)
        });
        self.count(own, metric, self.seconds(own));
        out
    }

    pub fn count(&self, span: SpanId, metric: &str, value: f64) {
        self.spans()[span].counts.push((metric.to_string(), value));
    }

    /// Duration of a finished span.
    pub fn seconds(&self, span: SpanId) -> f64 {
        let spans = self.spans();
        (spans[span].end_ns - spans[span].start_ns) as f64 / 1e9
    }

    /// A metric's value: the largest count recorded under its name (a
    /// per-machine span records one each; the slowest machine is the one
    /// a run waits for). `None` if no span measured it.
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.spans()
            .iter()
            .flat_map(|s| &s.counts)
            .filter(|(name, _)| name == metric)
            .map(|(_, v)| *v)
            .reduce(f64::max)
    }

    /// Span duration minus the part of it its children cover (children on
    /// parallel threads overlap, so the union of their intervals counts).
    fn self_ns(spans: &[Span], id: SpanId) -> u64 {
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = spans[id].start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (spans[id].end_ns - spans[id].start_ns).saturating_sub(covered)
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        Json::Arr(
            (0..spans.len())
                .map(|id| {
                    let s = &spans[id];
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(Self::self_ns(&spans, id) as f64)),
                        (
                            "counts",
                            Json::Obj(
                                s.counts
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name: &str, parent, start_ns, end_ns| Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        };
        let spans = vec![
            span("setup", None, 0, 100),
            span("load[0]", Some(0), 10, 50),
            span("load[1]", Some(0), 30, 70), // overlaps load[0]
            span("placement", Some(0), 80, 90),
            span("inner", Some(3), 82, 85), // grandchild: not setup's
        ];
        assert_eq!(Tracer::self_ns(&spans, 0), 100 - (60 + 10));
        assert_eq!(Tracer::self_ns(&spans, 3), 10 - 3);
        assert_eq!(Tracer::self_ns(&spans, 1), 40);
    }

    #[test]
    fn nested_spans_counts_and_max_over_machines() {
        let t = Tracer::new();
        let total = t.timed("setup", None, "setup_s", |setup| {
            std::thread::scope(|s| {
                for m in 0..2 {
                    let t = &t;
                    s.spawn(move || {
                        t.span(&format!("load[{m}]"), Some(setup), |id| {
                            t.count(id, "load_s", 1.0 + m as f64)
                        })
                    });
                }
            });
            7
        });
        assert_eq!(total, 7);
        assert_eq!(t.value("load_s"), Some(2.0));
        assert!(t.value("setup_s").unwrap() > 0.0);
        assert_eq!(t.value("absent"), None);
        let json = t.to_json();
        assert_eq!(json.items().len(), 3);
        assert_eq!(json.items()[1].get("parent"), Some(&Json::Num(0.0)));
    }
}
