//! The traced run's span recorder.
//!
//! Spans are recorded in memory at every boundary the benchmark calls
//! across — name, start, end, parent, and the job or request id — and
//! written as JSONL when the run ends. Solver calls additionally graft in
//! the `ldc_sim::Tracer` span tree they produced. A layer's time is the
//! *self* time of its spans: duration minus the time covered by child
//! spans.

use ldc_sim::json::json_string;
use ldc_sim::SpanNode;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub job: u64,
    pub start: u64,
    pub end: u64,
    /// Laid out from a `Tracer` tree: the tree keeps per-span durations
    /// but not start times, so grafted children are placed back to back
    /// from their parent's start.
    pub grafted: bool,
}

/// A started span; [`Recorder::close`] turns it into a [`Span`].
pub struct Open {
    pub id: u64,
    pub start: u64,
}

pub struct Recorder {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the recorder started at `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn open(&self) -> Open {
        Open {
            id: self.next_id(),
            start: self.now(),
        }
    }

    fn next_id(&self) -> u64 {
        // A statistic-like counter: it publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Close `open` now; returns the span's duration in nanoseconds.
    pub fn close(&self, open: Open, name: &str, parent: Option<u64>, job: u64) -> u64 {
        let end = self.now();
        self.push(Span {
            id: open.id,
            parent,
            name: name.to_string(),
            job,
            start: open.start,
            end,
            grafted: false,
        });
        end - open.start
    }

    /// Record an already-timed interval.
    pub fn record(&self, name: &str, parent: Option<u64>, job: u64, start: u64, end: u64) -> u64 {
        let id = self.next_id();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            job,
            start,
            end: end.max(start),
            grafted: false,
        });
        id
    }

    /// Time `f` as a span.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, job: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, job);
        out
    }

    /// Graft the children of a `Tracer` report under span `parent`,
    /// which started at `start`.
    pub fn graft(&self, tree: &SpanNode, parent: u64, job: u64, start: u64) {
        let mut at = start;
        for child in &tree.children {
            let id = self.next_id();
            let end = at + child.wall_nanos as u64;
            self.push(Span {
                id,
                parent: Some(parent),
                name: child.name.clone(),
                job,
                start: at,
                end,
                grafted: true,
            });
            self.graft(child, id, job, at);
            at = end;
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Self time (ns) summed per layer, over every recorded span.
    pub fn layer_self_times(&self) -> BTreeMap<String, u64> {
        let spans = self.spans();
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.end - s.start;
            }
        }
        // Grafted spans are pushed parent-first, so one pass resolves the
        // inherited layer of every unmapped Tracer span.
        let mut layer_of: BTreeMap<u64, String> = BTreeMap::new();
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for s in &spans {
            let layer = if s.grafted {
                match tracer_layer(&s.name) {
                    Some(l) => l.to_string(),
                    None => s
                        .parent
                        .and_then(|p| layer_of.get(&p).cloned())
                        .unwrap_or_else(|| "core.solve_other".to_string()),
                }
            } else {
                s.name.clone()
            };
            let own = (s.end - s.start).saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
            *out.entry(layer.clone()).or_default() += own;
            layer_of.insert(s.id, layer);
        }
        out
    }

    /// Write every span to `path` as JSONL.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// All spans as JSONL, one object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{},\"grafted\":{}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(&s.name),
                s.job,
                s.start,
                s.end,
                s.grafted
            ));
        }
        out
    }
}

/// The layer a `Tracer` span's self time belongs to; `None` means "same
/// as the enclosing span" (selection, decision and laggard sub-phases are
/// charged to the phase that runs them). Theorem 1.3's stage loop and
/// announce rounds, and Theorem 1.4's own glue, are one layer.
fn tracer_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "thm1.1" => "core.thm11",
        "phaseII" => "core.phaseII",
        "census" => "core.census",
        "aux-classes" => "core.aux_classes",
        "thm1.4" | "thm1.3" | "announce" => "core.thm13_stage",
        "bucket-oldc" => "core.bucket_oldc",
        "substrate" => "core.substrate",
        "linial-init" => "classic.linial_init",
        "seq-arbdefective" => "classic.seq_arbdefective",
        n if n.starts_with("phaseI[") => "core.phaseI",
        n if n.starts_with("stage[") => "core.thm13_stage",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_grafts_inherit_layers() {
        let rec = Recorder::new();
        let parent = rec.record("core.solve", None, 1, 0, 100);
        let t = ldc_sim::Tracer::new();
        {
            let _a = t.span("thm1.1");
            let _b = t.span("p2-selection");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let tree = t.report();
        rec.graft(&tree, parent, 1, 0);
        let times = rec.layer_self_times();
        let thm11 = tree.find("thm1.1").unwrap().wall_nanos as u64;
        // p2-selection has no layer of its own: charged to thm1.1, so the
        // layer holds thm1.1's whole duration.
        assert_eq!(times["core.thm11"], thm11);
        assert_eq!(times["core.solve"], 100u64.saturating_sub(thm11));
        assert_eq!(rec.to_jsonl().lines().count(), 3);
    }
}
