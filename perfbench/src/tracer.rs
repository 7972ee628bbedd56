//! In-memory span tracer for the traced run.
//!
//! A span is a named `Instant` interval around one call into a crate's
//! public API, made from the benchmark's own code (the program itself
//! carries no spans). Spans nest on the calling thread; each records
//! its name, start, end, parent and the run id, and all stay in memory
//! until the run writes them out.
//!
//! Names are `<layer>.<what>[#<qualifier>]`: the layer is the crate
//! (`machine.timing` for the timing backends, the first dot-separated
//! segment otherwise) and the qualifier distinguishes variants of one
//! operation, e.g. `machine.replay#pipeline`. A span covering a loop of
//! `ops` repetitions reports per-op figures.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Full name, qualifier included.
    pub name: String,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the run the span belongs to.
    pub run: u64,
    /// Operations the span covers (1 for a single call).
    pub ops: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The name without its qualifier.
    pub fn base(&self) -> &str {
        self.name.split_once('#').map_or(&self.name, |(b, _)| b)
    }
}

/// The layer (crate) a span name belongs to; `harness` for the
/// benchmark's own grouping spans, whose names have no dot.
pub fn layer_of(name: &str) -> &str {
    let base = name.split_once('#').map_or(name, |(b, _)| b);
    if base.starts_with("machine.timing") {
        return "machine.timing";
    }
    match base.split_once('.') {
        Some((layer, _)) => layer,
        None => "harness",
    }
}

/// A handle to an open span (inert when tracing is off).
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// The tracer: a span stack plus every closed span.
pub struct Tracer {
    enabled: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for run `run`; a disabled one records nothing and
    /// reads no clock.
    pub fn new(enabled: bool, run: u64) -> Self {
        Tracer { enabled, run, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span covering one operation.
    pub fn begin(&mut self, name: impl Into<String>) -> Open {
        self.begin_ops(name, 1)
    }

    /// Opens a span covering `ops` repetitions of one operation.
    pub fn begin_ops(&mut self, name: impl Into<String>, ops: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
            ops: ops.max(1),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (which must be the innermost open span), returning
    /// its duration in ns (0 when tracing is off).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else { return 0 };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children of one thread never overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Self time summed per layer over `root` and the spans inside it.
    /// The layers partition the root's duration.
    pub fn layer_self_ns(&self, root: usize) -> BTreeMap<String, u64> {
        let own = self.self_ns();
        let mut layers = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if i == root || self.within(i, root) {
                *layers.entry(layer_of(&span.name).to_string()).or_insert(0) += own[i];
            }
        }
        layers
    }

    /// Whether span `i` lies (transitively) inside span `root`.
    pub fn within(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Index of the first span named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Every span as one JSON line: name, start, end, parent, run, ops.
    pub fn to_jsonl(&self) -> String {
        use regwin_sweep::json::{obj, Value};
        let mut out = String::new();
        for s in &self.spans {
            let row = obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("start_ns", Value::Int(s.start_ns)),
                ("end_ns", Value::Int(s.end_ns)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Int(p as u64))),
                ("run", Value::Int(s.run)),
                ("ops", Value::Int(s.ops)),
            ]);
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut tr = Tracer::new(true, 7);
        let root = tr.begin("run");
        let a = tr.begin("spell.corpus");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = tr.begin("machine.replay#s20");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(b);
        tr.end(a);
        tr.span("machine.timing.replay", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let wall = tr.end(root);
        let layers = tr.layer_self_ns(0);
        assert_eq!(layers.values().sum::<u64>(), wall);
        assert!(layers["spell"] >= 2_000_000 && layers["machine"] >= 2_000_000);
        assert!(layers["machine.timing"] >= 1_000_000);
        assert!(tr.spans().iter().all(|s| s.run == 7));
        assert_eq!(tr.spans()[2].base(), "machine.replay");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 0);
        let open = tr.begin("rt.direct");
        assert_eq!(tr.end(open), 0);
        assert!(tr.spans().is_empty());
    }
}
