//! In-memory spans around each layer call, written out when the run ends.
//!
//! A span holds a name, a start, an end, the span that caused it and the
//! op it belongs to. A layer's self time is its span minus the part its
//! children cover. The engine's own host spans (`SimOptions::obs`) are
//! aggregates, not intervals: they are kept as `(name, total ns)` children
//! of the replay span they were measured in.

use crate::metrics::{Metric, Report};
use crate::{out_dir, Args};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use warden_obs::{ArgVal, SpanSet, TraceBuilder};

#[derive(Clone, Debug)]
struct Span {
    name: String,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Aggregated child time measured inside the program (engine spans).
    inner: Vec<(String, u64, u64)>,
}

/// A span recorder; when off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// A span that has begun (index into the recorder), or nothing when off.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Open {
    /// No parent: a root span.
    pub const NONE: Open = Open(None);
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, op: u64, parent: Open) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
            inner: Vec::new(),
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, s: Open) {
        if let Some(i) = s.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Attach the engine's host spans to the replay span they ran in.
    pub fn attach_engine_spans(&mut self, s: Open, set: &SpanSet) {
        if let Some(i) = s.0 {
            for agg in set.iter() {
                self.spans[i]
                    .inner
                    .push((agg.name.clone(), agg.count, agg.total_ns));
            }
        }
    }

    /// Self time and call count per span name. Engine spans appear under
    /// their own names.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let inner: u64 = s.inner.iter().map(|(_, _, ns)| ns).sum();
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += dur.saturating_sub(child_ns[i] + inner);
            e.1 += 1;
            for (name, count, ns) in &s.inner {
                let e = out.entry(name.clone()).or_default();
                e.0 += ns;
                e.1 += count;
            }
        }
        out
    }

    /// Report the set-up layers' self times (`rt.*_ms`) and the tracing
    /// overhead, and write the spans to `out/<workload>-seed<n>.trace.json`.
    pub fn finish(&self, args: &Args, plain_s: f64, traced_s: f64, report: &mut Report) {
        let st = self.self_times();
        for (metric, span) in [
            ("rt.capture_ms", "capture"),
            ("rt.encode_ms", "encode"),
            ("rt.decode_ms", "decode"),
        ] {
            let ns = st.get(span).map_or(0, |&(ns, _)| ns);
            report.push(Metric::new(metric, ns as f64 / 1e6, "ms"));
        }
        report.push(Metric::new(
            "trace.overhead_pct",
            (traced_s / plain_s - 1.0) * 100.0,
            "%",
        ));
        let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match self.write(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    /// Write the spans as Chrome trace-event JSON.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    fn to_json(&self) -> String {
        let mut t = TraceBuilder::new();
        t.process_name(1, "warden-perfbench");
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("op".to_string(), ArgVal::U64(s.op)),
                ("span".to_string(), ArgVal::U64(i as u64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), ArgVal::U64(p as u64)));
            }
            for (name, _, ns) in &s.inner {
                args.push((format!("{name}_ns"), ArgVal::U64(*ns)));
            }
            t.complete(
                &s.name,
                s.start_ns / 1000,
                ((s.end_ns - s.start_ns) / 1000).max(1),
                1,
                1,
                args,
            );
        }
        t.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_engine_spans() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", 0, Open::NONE);
        let child = t.begin("replay", 0, op);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(op);
        let mut set = SpanSet::new();
        set.add("access.load", 1_000);
        t.attach_engine_spans(child, &set);
        let st = t.self_times();
        let replay = t.spans[1].end_ns - t.spans[1].start_ns;
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(st["replay"], (replay - 1_000, 1));
        assert_eq!(st["op"], (total - replay, 1));
        assert_eq!(st["access.load"], (1_000, 1));
        warden_obs::validate_trace(&t.to_json()).expect("a valid trace-event file");
        let off = Tracer::new(false);
        assert!(off.self_times().is_empty());
    }
}
