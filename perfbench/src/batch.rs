//! The workloads: `pbbs-dual` and `pbbs-wide`.
//!
//! An op is one trace replayed on the workload's machine under one
//! protocol, followed by its output checks. A round replays every trace
//! under every protocol of the workload, in an order drawn from the seed;
//! runs measure whole rounds.

use crate::checks;
use crate::metrics::{work_counts, Latency, Metric, Report};
use crate::spans::{Open, Tracer};
use crate::{median, mix, repeated_setup, Args, Mode, MIN_OPS};
use std::time::Instant;
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_rt::{trace_io, TraceProgram};
use warden_sim::{simulate_with_options, MachineConfig, SimEngine, SimOptions, SimStats};

/// One workload: its machine, protocols and kernels.
struct Workload {
    machine: MachineConfig,
    protocols: Vec<ProtocolId>,
    kernels: Vec<Bench>,
    /// Round-trip every trace through the codec in the timed set-up.
    codec_in_setup: bool,
}

impl Workload {
    fn named(name: &str) -> Workload {
        match name {
            "pbbs-dual" => Workload {
                machine: MachineConfig::dual_socket(),
                protocols: ProtocolId::ALL.to_vec(),
                kernels: Bench::ALL.to_vec(),
                codec_in_setup: true,
            },
            "pbbs-wide" => Workload {
                machine: MachineConfig::many_socket(4),
                protocols: vec![ProtocolId::Mesi, ProtocolId::Warden],
                kernels: vec![
                    Bench::Quickhull,
                    Bench::Nqueens,
                    Bench::SuffixArray,
                    Bench::Dedup,
                    Bench::Fib,
                ],
                codec_in_setup: false,
            },
            other => unreachable!("not a workload: {other}"),
        }
    }

    /// The `(trace, protocol)` cells of one round in the order the seed
    /// gives round `r`: every cell once, shuffled.
    fn order(&self, seed: u64, r: u64) -> Vec<(usize, ProtocolId)> {
        let mut cells: Vec<(usize, ProtocolId)> = (0..self.kernels.len())
            .flat_map(|t| self.protocols.iter().map(move |&p| (t, p)))
            .collect();
        for i in (1..cells.len()).rev() {
            let j = (mix(seed, r * cells.len() as u64 + i as u64) % (i as u64 + 1)) as usize;
            cells.swap(i, j);
        }
        cells
    }
}

/// A trace ready to replay.
struct Prepared {
    kernel: Bench,
    program: TraceProgram,
    events: u64,
    /// Encoded size, when the set-up ran the codec.
    bytes: u64,
    /// A failed set-up check fails every op on this trace.
    setup_err: Option<String>,
}

/// Capture every trace (`Bench::build` checks the kernel's answer against
/// its sequential reference), and with `codec` encode and decode it,
/// checking the decoded fingerprint; the decoded trace is the one
/// replayed.
fn setup(w: &Workload, codec: bool, tracer: &mut Tracer) -> Vec<Prepared> {
    let root = tracer.begin("setup", u64::MAX, Open::NONE);
    let prepared = w
        .kernels
        .iter()
        .map(|&kernel| {
            let s = tracer.begin("capture", u64::MAX, root);
            let captured = kernel.build(Scale::Paper);
            tracer.end(s);
            let mut p = Prepared {
                kernel,
                events: captured.total_events(),
                program: captured,
                bytes: 0,
                setup_err: None,
            };
            if codec {
                let s = tracer.begin("encode", u64::MAX, root);
                let mut bytes = Vec::new();
                trace_io::write_trace(&mut bytes, &p.program)
                    .expect("encoding into memory cannot fail");
                tracer.end(s);
                p.bytes = bytes.len() as u64;
                let s = tracer.begin("decode", u64::MAX, root);
                let decoded = checks::decode(&bytes, p.program.fingerprint(), kernel.name());
                tracer.end(s);
                match decoded {
                    Ok(d) => p.program = d,
                    Err(e) => p.setup_err = Some(e),
                }
            }
            p
        })
        .collect();
    tracer.end(root);
    prepared
}

/// What one op delivered.
struct OpOut {
    protocol: ProtocolId,
    trace: usize,
    ms: f64,
    replay_ns: u64,
    compare_ns: u64,
    events: u64,
    steps: u64,
    stats: SimStats,
    err: Option<String>,
}

/// Replay every trace under every protocol once, in `order`. `counted`
/// drives the engine one step at a time to count scheduler steps; a tracer
/// that is on records spans and turns on the engine's own host spans
/// (`SimOptions::obs`).
fn round(
    traces: &[Prepared],
    machine: &MachineConfig,
    order: &[(usize, ProtocolId)],
    tracer: &mut Tracer,
    counted: bool,
    next_op: &mut u64,
) -> Vec<OpOut> {
    let opts = SimOptions {
        obs: tracer.is_on(),
        ..SimOptions::default()
    };
    let mut digests = vec![None; traces.len()];
    let mut outs = Vec::with_capacity(order.len());
    for &(ti, proto) in order {
        let t = &traces[ti];
        let id = *next_op;
        *next_op += 1;
        let op = tracer.begin("op", id, Open::NONE);
        let t0 = Instant::now();
        let rs = tracer.begin("replay", id, op);
        let (out, steps) = if counted {
            let mut eng = SimEngine::new(&t.program, machine, proto, &opts);
            while eng.step() {}
            let steps = eng.steps();
            (eng.finish(), steps)
        } else {
            (simulate_with_options(&t.program, machine, proto, &opts), 0)
        };
        tracer.end(rs);
        if let Some(obs) = &out.obs {
            tracer.attach_engine_spans(rs, &obs.spans);
        }
        let t1 = Instant::now();
        let cs = tracer.begin("compare", id, op);
        let image = checks::image(&t.program, &out);
        tracer.end(cs);
        let t2 = Instant::now();
        let verdict = match &t.setup_err {
            Some(e) => Err(e.clone()),
            None => image
                .and_then(|()| checks::outcome(&t.program, &out))
                .and_then(|()| {
                    checks::digest_agrees(
                        &mut digests[ti],
                        out.memory_image_digest,
                        t.kernel.name(),
                    )
                }),
        };
        let t3 = Instant::now();
        tracer.end(op);
        outs.push(OpOut {
            protocol: proto,
            trace: ti,
            ms: (t3 - t0).as_secs_f64() * 1e3,
            replay_ns: (t1 - t0).as_nanos() as u64,
            compare_ns: (t2 - t1).as_nanos() as u64,
            events: t.events,
            steps,
            stats: out.stats,
            err: verdict.err(),
        });
    }
    outs
}

fn tally(report: &mut Report, ops: &[OpOut]) {
    for o in ops {
        report.tally(o.err.as_ref());
    }
}

/// One counted pass: set up with the codec and replay one round step by
/// step. Every count is a pure function of the workload.
fn counted_pass(w: &Workload, seed: u64, report: &mut Report) -> Vec<Metric> {
    let mut off = Tracer::new(false);
    let traces = setup(w, true, &mut off);
    let ops = round(
        &traces,
        &w.machine,
        &w.order(seed, 0),
        &mut off,
        true,
        &mut 0,
    );
    tally(report, &ops);
    let sum = |f: &dyn Fn(&Prepared) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    let mut c = vec![Metric::new("rt.events", sum(&|t| t.events), "count")];
    c.push(Metric::new(
        "rt.tasks",
        sum(&|t| t.program.tasks.len() as u64),
        "count",
    ));
    c.push(Metric::new("rt.trace_bytes", sum(&|t| t.bytes), "bytes"));
    c.push(Metric::new(
        "rt.bytes_per_event",
        sum(&|t| t.bytes) / sum(&|t| t.events),
        "bytes",
    ));
    let replays: Vec<_> = ops
        .iter()
        .map(|o| (o.protocol, &o.stats, o.steps))
        .collect();
    let events = ops.iter().map(|o| o.events).sum();
    c.extend(work_counts(&replays, events, &w.protocols));
    for (ti, t) in traces.iter().enumerate() {
        let cycles = |p| {
            ops.iter()
                .find(|o| o.trace == ti && o.protocol == p)
                .map(|o| o.stats.cycles as f64)
        };
        if let (Some(mesi), Some(warden)) = (cycles(ProtocolId::Mesi), cycles(ProtocolId::Warden)) {
            c.push(Metric::new(
                format!("sim.warden_speedup.{}", t.kernel.name()),
                mesi / warden,
                "x",
            ));
        }
    }
    c
}

/// Two counted passes whose counts must match exactly.
fn counted_twice(
    report: &mut Report,
    mut pass: impl FnMut(&mut Report) -> Vec<Metric>,
) -> Vec<Metric> {
    let first = pass(report);
    let second = pass(report);
    if first != second {
        report.correct = false;
        for (a, b) in first.iter().zip(&second) {
            if a != b {
                report
                    .notes
                    .push(format!("counted runs differ: {a:?} vs {b:?}"));
            }
        }
    }
    first
}

pub fn run(args: &Args) -> Report {
    let w = Workload::named(&args.workload);
    let mut report = Report::new(&args.workload);
    match args.mode {
        Mode::EndToEnd => end_to_end(args, &w, &mut report),
        Mode::Counts => {
            let counts = counted_twice(&mut report, |r| counted_pass(&w, args.seed, r));
            report.metrics = counts;
        }
        Mode::Traced => {
            let counts = counted_twice(&mut report, |r| counted_pass(&w, args.seed, r));
            report.metrics = counts;
            traced(args, &w, &mut report);
        }
    }
    report
}

fn end_to_end(args: &Args, w: &Workload, report: &mut Report) {
    let mut off = Tracer::new(false);
    let (traces, setups) = repeated_setup(|| setup(w, w.codec_in_setup, &mut off));
    let mut ops = Vec::new();
    let mut round_s = Vec::new();
    let mut next_op = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || ops.len() < MIN_OPS {
        let order = w.order(args.seed, round_s.len() as u64);
        let t = Instant::now();
        ops.extend(round(
            &traces,
            &w.machine,
            &order,
            &mut off,
            false,
            &mut next_op,
        ));
        round_s.push(t.elapsed().as_secs_f64());
    }
    let secs = start.elapsed().as_secs_f64();
    tally(report, &ops);
    let delivered: Vec<&OpOut> = ops.iter().filter(|o| o.err.is_none()).collect();
    let events: u64 = delivered.iter().map(|o| o.events).sum();
    report.push(Metric::new("setup_s", median(setups.clone()), "s"));
    report.push(Metric::new("events_per_s", events as f64 / secs, "1/s"));
    report.push(Metric::new(
        "ops_per_s",
        delivered.len() as f64 / secs,
        "1/s",
    ));
    Latency::of(delivered.iter().map(|o| o.ms).collect()).report(report);
    report.notes.push(format!(
        "{} rounds of {} ops in {secs:.3} s; rounds {round_s:.3?} s; set-ups {setups:.3?} s",
        round_s.len(),
        traces.len() * w.protocols.len()
    ));
}

/// Alternate untraced and traced rounds: host time per layer comes from
/// the traced rounds (benchmark spans plus the engine's `obs` spans),
/// per-protocol replay and compare time from the untraced ones, and the
/// gap between the two is the tracing overhead.
fn traced(args: &Args, w: &Workload, report: &mut Report) {
    let mut tracer = Tracer::new(true);
    let traces = setup(w, true, &mut tracer);
    let sizes: Vec<String> = traces
        .iter()
        .map(|t| format!("{} {}", t.kernel.name(), t.events))
        .collect();
    report
        .notes
        .push(format!("trace events: {}", sizes.join(", ")));
    let mut off = Tracer::new(false);
    let (mut plain_s, mut traced_s, mut rounds) = (0.0, 0.0, 0u32);
    let mut plain_ops = Vec::new();
    let mut next_op = 0;
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let order = w.order(args.seed, u64::from(rounds));
        let t = Instant::now();
        let ops = round(&traces, &w.machine, &order, &mut off, false, &mut next_op);
        plain_s += t.elapsed().as_secs_f64();
        tally(report, &ops);
        plain_ops.extend(ops);
        let t = Instant::now();
        let ops = round(
            &traces,
            &w.machine,
            &order,
            &mut tracer,
            false,
            &mut next_op,
        );
        traced_s += t.elapsed().as_secs_f64();
        tally(report, &ops);
        rounds += 1;
    }
    let per_round = f64::from(rounds);
    tracer.finish(args, plain_s, traced_s, report);
    let st = tracer.self_times();
    for &p in &w.protocols {
        let ns: u64 = plain_ops
            .iter()
            .filter(|o| o.protocol == p)
            .map(|o| o.replay_ns)
            .sum();
        report.push(Metric::new(
            format!("sim.replay_ms.{}", p.name()),
            ns as f64 / 1e6 / per_round,
            "ms",
        ));
    }
    let compare_ns: u64 = plain_ops.iter().map(|o| o.compare_ns).sum();
    report.push(Metric::new(
        "mem.compare_ms",
        compare_ns as f64 / 1e6 / per_round,
        "ms",
    ));
    let events: u64 = plain_ops.iter().map(|o| o.events).sum();
    let replay_ns = st.get("replay").map_or(0, |&(ns, _)| ns);
    report.push(Metric::new(
        "sim.ns_per_event",
        replay_ns as f64 / events as f64,
        "ns",
    ));
    let steps = report.get("sim.steps").unwrap_or(0.0) * per_round;
    report.push(Metric::new(
        "sim.ns_per_step",
        replay_ns as f64 / steps.max(1.0),
        "ns",
    ));
    let (access_ns, accesses) = ["access.load", "access.store", "access.rmw"]
        .iter()
        .filter_map(|n| st.get(*n))
        .fold((0, 0), |(a, b), &(ns, n)| (a + ns, b + n));
    report.push(Metric::new(
        "coherence.access_ns",
        access_ns as f64 / accesses.max(1) as f64,
        "ns",
    ));
    let (recon_ns, recons) = st.get("reconcile-walk").copied().unwrap_or((0, 0));
    report.push(Metric::new(
        "coherence.reconcile_ns",
        recon_ns as f64 / recons.max(1) as f64,
        "ns",
    ));
    report.notes.push(format!(
        "{rounds} untraced + {rounds} traced rounds: {plain_s:.3} s vs {traced_s:.3} s"
    ));
}
