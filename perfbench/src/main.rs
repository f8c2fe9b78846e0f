//! End-to-end and per-layer benchmark of the WARDen simulator.
//!
//! ```text
//! warden-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! warden-perfbench --workload <name> [--seed <n>] --counts
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (deterministic work counts from two counted passes, host self
//! time per layer from a traced round, and the tracing overhead), and
//! `--counts` only the counts. Every mode checks the outputs of every op
//! and ends its standard output with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for the workloads and the metric catalogue.

mod batch;
mod checks;
mod metrics;
mod spans;

use metrics::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workload seed used when `--seed` is not given (and by the
/// reference counts file). The PBBS inputs are fixed by the suite; the
/// seed orders the replays within each round.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["pbbs-dual", "pbbs-wide"];

/// The fewest ops a run measures. Every run then reports a tail
/// percentile, and this count, not the number of ops a run happened to
/// measure, picks it (p90), so the tail does not switch percentile from
/// run to run: in 45 s a run measures 300-1050 ops, depending on the
/// host's speed.
pub const MIN_OPS: usize = 100;

/// What one invocation asked for.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, tracing off.
    EndToEnd,
    /// Per-layer metrics: counted passes plus a traced round.
    Traced,
    /// Counted passes only.
    Counts,
}

const USAGE: &str = "usage: warden-perfbench --workload <pbbs-dual|pbbs-wide> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--counts]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 45.0;
    let mut mode = Mode::EndToEnd;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                mode = match value("--trace")?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--counts" => mode = Mode::Counts,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        mode,
    })
}

/// Where traced runs leave their span traces:
/// `out/` beside this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// SplitMix64 of `seed` and a stream index: the one source of every
/// seeded choice the benchmark makes.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Run a set-up at least three times, and until a second of set-ups has
/// passed (at most twenty times), dropping each result before the next
/// run. Returns the last result and every set-up's wall time in seconds;
/// `setup_s` is their median.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 20) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("the set-up ran"), times)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = batch::run(&args);
    if args.mode == Mode::EndToEnd {
        report.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"));
    }
    if matches!(args.mode, Mode::Traced | Mode::Counts) {
        metrics::compare_reference(&args, &report);
        if args.mode == Mode::Traced {
            report.fill_per_layer();
        }
    }
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload pbbs-wide --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.mode),
            ("pbbs-wide", 7, 3.0, Mode::Traced)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload pbbs-wide --trace 2").is_err());
        assert!(parse("--workload pbbs-wide --bogus").is_err());
        assert!(parse("--seed 3").is_err());
    }
}
