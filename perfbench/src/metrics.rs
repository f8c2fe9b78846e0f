//! The metric catalogue, latency statistics and the result line.

use crate::{Args, DEFAULT_SEED};
use warden_coherence::ProtocolId;
use warden_pbbs::Bench;
use warden_sim::SimStats;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run prints: the op tally, the metrics, and human-readable notes
/// (sample counts, percentiles) printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            correct: true,
            ..Report::default()
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Count one op; `err` is why it failed, if it did.
    pub fn tally(&mut self, err: Option<&String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.correct = false;
            if self.failed == 1 {
                self.notes.push(format!("first failed op: {e}"));
                eprintln!("failed op: {e}");
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Add every per-layer name this workload does not exercise with the
    /// value 0, so each traced run prints the whole catalogue, then order
    /// the metrics as the catalogue does.
    pub fn fill_per_layer(&mut self) {
        let catalogue = per_layer_catalogue();
        let mut ordered = Vec::with_capacity(catalogue.len());
        for (name, unit, _) in catalogue {
            let value = self.get(&name).unwrap_or(0.0);
            ordered.push(Metric::new(name, value, unit));
        }
        self.metrics = ordered;
    }

    /// Print the notes, a metric table and the final JSON result line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("# {:<40} {:>18} {}", m.name, fmt_num(m.value), m.unit);
        }
        println!(
            "# {}: attempted {} failed {} correct {}",
            self.workload, self.attempted, self.failed, self.correct
        );
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Latency samples summarised as the median and the highest standard
/// percentile that has at least ten samples beyond it among the first
/// `MIN_OPS`: every run measures at least that many ops, so runs of one
/// workload report the same percentile however many ops a faster host
/// fits into a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` below forty samples.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    pub fn of(mut ms: Vec<f64>) -> Latency {
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        let p50 = crate::median(ms.clone());
        let basis = n.min(crate::MIN_OPS);
        let tail = [99.9, 99.0, 90.0, 75.0]
            .into_iter()
            .find(|p| basis as f64 * (100.0 - p) / 100.0 >= 10.0)
            .map(|p| {
                // Nearest rank.
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                (p, ms[rank.clamp(1, n) - 1])
            });
        Latency {
            samples: n,
            p50,
            tail,
        }
    }

    /// The two latency metrics plus a note with the sample count.
    pub fn report(&self, r: &mut Report) {
        r.push(Metric::new("op_ms_p50", self.p50, "ms"));
        match self.tail {
            Some((p, v)) => {
                r.push(Metric::new("op_ms_tail", v, "ms"));
                r.notes.push(format!(
                    "op latency: {} samples, p50 {:.4} ms, p{p} {:.4} ms (op_ms_tail)",
                    self.samples, self.p50, v
                ));
            }
            None => r.notes.push(format!(
                "op latency: {} samples (< 40), p50 {:.4} ms only",
                self.samples, self.p50
            )),
        }
    }
}

/// The coherence counters reported per protocol.
const COHERENCE_COUNTERS: [&str; 16] = [
    "l1_hits",
    "l2_hits",
    "llc_hits",
    "llc_misses",
    "dir_lookups",
    "invalidations",
    "downgrades",
    "fwd_gets",
    "fwd_getm",
    "ward_serves",
    "recon_blocks",
    "region_adds",
    "region_overflows",
    "writebacks",
    "dram_reads",
    "dram_writes",
];

/// The scheduler's and the coherence layer's work over a set of replays,
/// each given as `(protocol, statistics, scheduler steps)`; `events` is
/// the number of trace events they replayed.
pub fn work_counts(
    replays: &[(ProtocolId, &SimStats, u64)],
    events: u64,
    protocols: &[ProtocolId],
) -> Vec<Metric> {
    let total = |f: &dyn Fn(&SimStats) -> u64| replays.iter().map(|r| f(r.1)).sum::<u64>() as f64;
    let steps = replays.iter().map(|r| r.2).sum::<u64>() as f64;
    let mut c = vec![
        Metric::new("sim.steps", steps, "count"),
        Metric::new("sim.steps_per_event", steps / events.max(1) as f64, "ratio"),
        Metric::new("sim.steals", total(&|s| s.steals), "count"),
        Metric::new("sim.steal_attempts", total(&|s| s.steal_attempts), "count"),
        Metric::new("sim.idle_cycles", total(&|s| s.idle_cycles), "cycles"),
        Metric::new(
            "sim.store_stall_cycles",
            total(&|s| s.store_stall_cycles),
            "cycles",
        ),
    ];
    for &p in protocols {
        let of_p: Vec<&SimStats> = replays.iter().filter(|r| r.0 == p).map(|r| r.1).collect();
        let cycles: u64 = of_p.iter().map(|s| s.cycles).sum();
        c.push(Metric::new(
            format!("sim.cycles.{}", p.name()),
            cycles as f64,
            "cycles",
        ));
        for name in COHERENCE_COUNTERS {
            let v: u64 = of_p.iter().map(|s| coherence_field(s, name)).sum();
            c.push(Metric::new(
                format!("coherence.{name}.{}", p.name()),
                v as f64,
                "count",
            ));
        }
    }
    c
}

fn coherence_field(s: &SimStats, name: &str) -> u64 {
    s.coherence
        .fields()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("no coherence counter {name}"), |(_, v)| v)
}

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut c: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| c.push((name, unit, better));
    add("rt.capture_ms".into(), "ms", "lower");
    add("rt.events".into(), "count", "lower");
    add("rt.tasks".into(), "count", "lower");
    add("rt.encode_ms".into(), "ms", "lower");
    add("rt.decode_ms".into(), "ms", "lower");
    add("rt.trace_bytes".into(), "bytes", "lower");
    add("rt.bytes_per_event".into(), "bytes", "lower");
    for p in ProtocolId::ALL {
        add(format!("sim.replay_ms.{}", p.name()), "ms", "lower");
    }
    add("sim.ns_per_event".into(), "ns", "lower");
    add("sim.ns_per_step".into(), "ns", "lower");
    add("sim.steps".into(), "count", "lower");
    add("sim.steps_per_event".into(), "ratio", "lower");
    add("sim.steals".into(), "count", "lower");
    add("sim.steal_attempts".into(), "count", "lower");
    add("sim.idle_cycles".into(), "cycles", "lower");
    add("sim.store_stall_cycles".into(), "cycles", "lower");
    for c in COHERENCE_COUNTERS {
        let better = if c.ends_with("_hits") || c == "ward_serves" {
            "higher"
        } else {
            "lower"
        };
        for p in ProtocolId::ALL {
            add(format!("coherence.{c}.{}", p.name()), "count", better);
        }
    }
    add("coherence.access_ns".into(), "ns", "lower");
    add("coherence.reconcile_ns".into(), "ns", "lower");
    add("mem.compare_ms".into(), "ms", "lower");
    for p in ProtocolId::ALL {
        add(format!("sim.cycles.{}", p.name()), "cycles", "lower");
    }
    for b in Bench::ALL {
        add(format!("sim.warden_speedup.{}", b.name()), "x", "higher");
    }
    add("trace.overhead_pct".into(), "%", "lower");
    c
}

/// The committed reference counts (`reference-counts.txt`, written by
/// `regen-counts.sh` for the default seed).
const REFERENCE: &str = include_str!("../reference-counts.txt");

/// Report on standard error how the counted run's counts differ from the
/// committed reference. Informational: the outputs are checked against
/// the logical execution, never against stored numbers, so a change that
/// alters the work done shows here as a reviewed difference.
pub fn compare_reference(args: &Args, report: &Report) {
    if args.seed != DEFAULT_SEED {
        return;
    }
    let mut diffs = 0;
    let mut seen = 0;
    for line in REFERENCE.lines() {
        let mut f = line.split_whitespace();
        let (Some(w), Some(name), Some(v)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if w != args.workload {
            continue;
        }
        seen += 1;
        let want: f64 = v.parse().unwrap_or(f64::NAN);
        match report.get(name) {
            Some(got) if got == want => {}
            got => {
                diffs += 1;
                eprintln!("count {name}: reference {v}, this run {got:?}");
            }
        }
    }
    if seen == 0 {
        eprintln!("no reference counts for {}", args.workload);
    } else {
        eprintln!(
            "{} of {seen} counts differ from reference-counts.txt",
            diffs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_fits_the_benchmark_limits() {
        let c = per_layer_catalogue();
        assert_eq!(c.len(), 123);
        let mut names: Vec<&String> = c.iter().map(|(n, _, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), c.len(), "names are unique");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(ms);
        assert_eq!(l.p50, 50.5);
        assert_eq!(l.tail, Some((90.0, 90.0)));
        assert_eq!(Latency::of((1..=39).map(f64::from).collect()).tail, None);
        assert_eq!(
            Latency::of((1..=40).map(f64::from).collect()).tail,
            Some((75.0, 30.0))
        );
        // Past `MIN_OPS` samples the percentile stays put.
        let l = Latency::of((1..=1000).map(f64::from).collect());
        assert_eq!(l.tail, Some((90.0, 900.0)));
    }
}
