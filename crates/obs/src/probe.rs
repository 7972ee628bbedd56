//! The `Probe` trait and its built-in sinks.

use crate::metric::{Metric, MetricSet};
use std::fmt;
use std::sync::Mutex;

/// The level of the span hierarchy an event belongs to. Spans nest
/// `Job → Simulation → Trap`; `Switch` spans are siblings of `Trap`
/// inside a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One sweep job (a single (behaviour, scheme, windows) cell).
    Job,
    /// One simulation run inside a job.
    Simulation,
    /// One window trap (overflow or underflow) handled by a scheme.
    Trap,
    /// One context switch performed by the scheduler.
    Switch,
    /// One window-state audit pass (integrity verification and repair)
    /// run by the machine's window auditor.
    Audit,
}

impl SpanKind {
    /// The span kind's stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Simulation => "simulation",
            SpanKind::Trap => "trap",
            SpanKind::Switch => "switch",
            SpanKind::Audit => "audit",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One instrumentation event, passed by reference so emitting costs
/// nothing beyond the values it carries. Names are borrowed to keep the
/// hot path allocation-free; sinks that retain events own-copy them
/// (see [`OwnedProbeEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent<'a> {
    /// A span opened (e.g. a trap handler was entered).
    SpanStart {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name (e.g. `"overflow"`, a job key).
        name: &'a str,
    },
    /// A span closed, with the simulated cycles it covered.
    SpanEnd {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name, matching its `SpanStart`.
        name: &'a str,
        /// Simulated cycles elapsed inside the span (0 where the layer
        /// has no cycle notion, e.g. sweep jobs).
        cycles: u64,
    },
    /// A typed counter increment.
    Counter {
        /// Which counter.
        metric: Metric,
        /// How much to add.
        delta: u64,
    },
    /// An instantaneous level sample (e.g. ready-queue depth at
    /// dispatch).
    Gauge {
        /// The gauge's name.
        name: &'a str,
        /// The sampled value.
        value: u64,
    },
}

/// An owned copy of a [`ProbeEvent`], for sinks that retain events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedProbeEvent {
    /// See [`ProbeEvent::SpanStart`].
    SpanStart {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name.
        name: String,
    },
    /// See [`ProbeEvent::SpanEnd`].
    SpanEnd {
        /// The span's level in the hierarchy.
        kind: SpanKind,
        /// The span's name.
        name: String,
        /// Simulated cycles elapsed inside the span.
        cycles: u64,
    },
    /// See [`ProbeEvent::Counter`].
    Counter {
        /// Which counter.
        metric: Metric,
        /// How much was added.
        delta: u64,
    },
    /// See [`ProbeEvent::Gauge`].
    Gauge {
        /// The gauge's name.
        name: String,
        /// The sampled value.
        value: u64,
    },
}

impl From<&ProbeEvent<'_>> for OwnedProbeEvent {
    fn from(ev: &ProbeEvent<'_>) -> Self {
        match *ev {
            ProbeEvent::SpanStart { kind, name } => {
                OwnedProbeEvent::SpanStart { kind, name: name.to_string() }
            }
            ProbeEvent::SpanEnd { kind, name, cycles } => {
                OwnedProbeEvent::SpanEnd { kind, name: name.to_string(), cycles }
            }
            ProbeEvent::Counter { metric, delta } => OwnedProbeEvent::Counter { metric, delta },
            ProbeEvent::Gauge { name, value } => {
                OwnedProbeEvent::Gauge { name: name.to_string(), value }
            }
        }
    }
}

/// A sink for instrumentation events.
///
/// Probes are shared across threads behind an `Arc` and record through
/// `&self` (interior mutability): the machine, the runtime and the
/// sweep engine all forward to the same instance. Implementations must
/// be cheap — `record` is called on the simulation hot path when a
/// probe is installed.
pub trait Probe: Send + Sync + fmt::Debug {
    /// Consumes one event.
    fn record(&self, event: &ProbeEvent<'_>);

    /// Whether this probe actually observes anything. Instrumented code
    /// may skip building expensive event payloads when `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-cost default probe: drops every event.
///
/// Instrumented layers hold `Option<Arc<dyn Probe>>` defaulting to
/// `None`, so the usual configuration never even reaches this type; it
/// exists for call sites that require *some* probe value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn record(&self, _event: &ProbeEvent<'_>) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory event log: retains every event in arrival order.
/// Intended for tests and diagnostics, not for full-scale sweeps.
#[derive(Debug, Default)]
pub struct RecordingProbe {
    events: Mutex<Vec<OwnedProbeEvent>>,
}

impl RecordingProbe {
    /// An empty recording probe.
    pub fn new() -> Self {
        RecordingProbe::default()
    }

    /// A copy of every event recorded so far.
    pub fn events(&self) -> Vec<OwnedProbeEvent> {
        self.events.lock().expect("probe log poisoned").clone()
    }

    /// The summed deltas recorded for `metric`.
    pub fn counter_total(&self, metric: Metric) -> u64 {
        self.events
            .lock()
            .expect("probe log poisoned")
            .iter()
            .map(|e| match e {
                OwnedProbeEvent::Counter { metric: m, delta } if *m == metric => *delta,
                _ => 0,
            })
            .sum()
    }

    /// How many spans of `kind` were closed.
    pub fn span_count(&self, kind: SpanKind) -> usize {
        self.events
            .lock()
            .expect("probe log poisoned")
            .iter()
            .filter(|e| matches!(e, OwnedProbeEvent::SpanEnd { kind: k, .. } if *k == kind))
            .count()
    }
}

impl Probe for RecordingProbe {
    fn record(&self, event: &ProbeEvent<'_>) {
        self.events.lock().expect("probe log poisoned").push(event.into());
    }
}

/// A thread-safe counter aggregator: folds every [`ProbeEvent::Counter`]
/// into a [`MetricSet`] and ignores spans and gauges. The cheap
/// always-on sink for live runs.
#[derive(Debug, Default)]
pub struct MetricProbe {
    set: Mutex<MetricSet>,
}

impl MetricProbe {
    /// An empty aggregator.
    pub fn new() -> Self {
        MetricProbe::default()
    }

    /// A copy of the current totals.
    pub fn snapshot(&self) -> MetricSet {
        self.set.lock().expect("metric set poisoned").clone()
    }
}

impl Probe for MetricProbe {
    fn record(&self, event: &ProbeEvent<'_>) {
        if let ProbeEvent::Counter { metric, delta } = event {
            self.set.lock().expect("metric set poisoned").add(*metric, *delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled_and_silent() {
        let p = NoopProbe;
        assert!(!p.enabled());
        p.record(&ProbeEvent::Counter { metric: Metric::SavesExecuted, delta: 1 });
    }

    #[test]
    fn recording_probe_retains_events_in_order() {
        let p = RecordingProbe::new();
        p.record(&ProbeEvent::SpanStart { kind: SpanKind::Trap, name: "overflow" });
        p.record(&ProbeEvent::Counter { metric: Metric::OverflowTraps, delta: 1 });
        p.record(&ProbeEvent::SpanEnd { kind: SpanKind::Trap, name: "overflow", cycles: 93 });
        p.record(&ProbeEvent::Gauge { name: "ready_queue_depth", value: 3 });
        let events = p.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            OwnedProbeEvent::SpanStart { kind: SpanKind::Trap, name: "overflow".into() }
        );
        assert_eq!(p.counter_total(Metric::OverflowTraps), 1);
        assert_eq!(p.span_count(SpanKind::Trap), 1);
        assert!(p.enabled());
    }

    #[test]
    fn metric_probe_aggregates_counters_only() {
        let p = MetricProbe::new();
        p.record(&ProbeEvent::Counter { metric: Metric::CyclesApp, delta: 10 });
        p.record(&ProbeEvent::Counter { metric: Metric::CyclesApp, delta: 5 });
        p.record(&ProbeEvent::SpanEnd { kind: SpanKind::Simulation, name: "x", cycles: 99 });
        let snap = p.snapshot();
        assert_eq!(snap.get(Metric::CyclesApp), 15);
        assert_eq!(snap.iter_nonzero().count(), 1);
    }

    #[test]
    fn probes_are_object_safe_and_shareable() {
        let inner = std::sync::Arc::new(MetricProbe::new());
        let probe: std::sync::Arc<dyn Probe> = inner.clone();
        let clones: Vec<_> = (0..4).map(|_| std::sync::Arc::clone(&probe)).collect();
        std::thread::scope(|s| {
            for p in &clones {
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record(&ProbeEvent::Counter { metric: Metric::Dispatches, delta: 1 });
                    }
                });
            }
        });
        assert_eq!(inner.snapshot().get(Metric::Dispatches), 400);
    }
}
