//! The traced run's recorder: host time and work counts accumulated around
//! calls into each layer's public functions, from the benchmark's own code.
//!
//! Nothing here reaches into the program: a span is the wall time of one
//! call the benchmark makes, so per-layer numbers need no change to the
//! crates they measure.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a per-layer metric is made, which fixes its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host seconds in calls the benchmark timed. The spans and
    /// `bench.other_s` add up to the traced wall time.
    Span,
    /// A work count; it repeats exactly in every traced round.
    Count,
    /// Mean host microseconds per call over a fixed sample.
    Micros,
    /// Host seconds derived from the traced and untraced round walls.
    Wall,
}

impl Kind {
    /// The unit's label in the result line and in BENCHMARK.json.
    pub fn unit(self) -> &'static str {
        match self {
            Kind::Span | Kind::Wall => "s",
            Kind::Micros => "us",
            Kind::Count => "count",
        }
    }
}

/// Every per-layer metric the traced run reports, in report order, with
/// its direction. BENCHMARK.json lists the same metrics in the same order
/// (a test holds the two together). A workload that never calls a layer
/// reports 0 for it.
pub const PER_LAYER: &[(&str, Kind, &str)] = &[
    ("isa.busy_s", Kind::Span, "lower"),
    ("isa.runs", Kind::Count, "lower"),
    ("isa.instructions", Kind::Count, "lower"),
    ("buscode.train_s", Kind::Span, "lower"),
    ("buscode.eval_s", Kind::Span, "lower"),
    ("buscode.fetches", Kind::Count, "lower"),
    ("buscode.distinct_deltas", Kind::Count, "lower"),
    ("compress.busy_s", Kind::Span, "lower"),
    ("compress.lines", Kind::Count, "lower"),
    ("partition.busy_s", Kind::Span, "lower"),
    ("partition.blocks", Kind::Count, "lower"),
    ("sched.busy_s", Kind::Span, "lower"),
    ("fault.exposure_s", Kind::Span, "lower"),
    ("fault.campaign_s", Kind::Span, "lower"),
    ("fault.words", Kind::Count, "lower"),
    ("fault.bits_drawn", Kind::Count, "lower"),
    ("fault.injected", Kind::Count, "lower"),
    ("trace.busy_s", Kind::Span, "lower"),
    ("trace.events", Kind::Count, "lower"),
    ("explore.setup_s", Kind::Span, "lower"),
    ("explore.search_s", Kind::Span, "lower"),
    ("explore.evaluations", Kind::Count, "higher"),
    ("explore.eval_miss_us", Kind::Micros, "lower"),
    ("explore.eval_hit_us", Kind::Micros, "lower"),
    ("explore.frontier", Kind::Count, "higher"),
    ("tracing.probe_s", Kind::Span, "lower"),
    ("bench.other_s", Kind::Wall, "lower"),
    ("bench.traced_wall_s", Kind::Wall, "lower"),
    ("tracing.overhead_s", Kind::Wall, "lower"),
];

/// Whether `name` is a span of `PER_LAYER`.
pub fn is_span(name: &str) -> bool {
    PER_LAYER.iter().any(|&(n, k, _)| n == name && k == Kind::Span)
}

/// Accumulated spans and counts of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    spans: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, u64>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, adding its wall time to the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        debug_assert!(is_span(name), "{name} is not a span");
        let t0 = Instant::now();
        let out = f();
        *self.spans.entry(name).or_default() += t0.elapsed();
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Sets a derived value (a mean, not a sum over the pass).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value of one per-layer metric over this pass (spans in seconds,
    /// counts as counts, derived values as set).
    pub fn value(&self, name: &str) -> f64 {
        if let Some(v) = self.values.get(name) {
            return *v;
        }
        if let Some(d) = self.spans.get(name) {
            return d.as_secs_f64();
        }
        self.counts.get(name).map_or(0.0, |&c| c as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_missing_metrics_read_zero() {
        let mut l = Layers::default();
        let x = l.time("isa.busy_s", || 3);
        l.time("isa.busy_s", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        l.count("isa.runs", 2);
        l.count("isa.runs", 1);
        l.set("explore.eval_hit_us", 1.5);
        assert_eq!(x, 3);
        assert!(l.value("isa.busy_s") >= 0.002);
        assert_eq!(l.value("isa.runs"), 3.0);
        assert_eq!(l.value("explore.eval_hit_us"), 1.5);
        assert_eq!(l.value("fault.words"), 0.0);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = json[json.find("\"per_layer\"").unwrap()..]
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\""))
            .collect();
        let expected: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, kind, better)| {
                format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                    kind.unit()
                )
            })
            .collect();
        assert_eq!(listed, expected);
    }
}
