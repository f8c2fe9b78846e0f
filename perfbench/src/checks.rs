//! Output checks run on every op. Each compares a result with the logical
//! execution or with a conservation law, never with stored output.

use warden_rt::{trace_io, TraceProgram};
use warden_sim::{SimOutcome, SimStats};

/// The final memory equals the logical (phase-1) image over the trace's
/// address range.
pub fn image(program: &TraceProgram, out: &SimOutcome) -> Result<(), String> {
    let (lo, hi) = program.address_range;
    match out
        .final_memory
        .first_difference(&program.memory, lo, hi.0 - lo.0)
    {
        None => Ok(()),
        Some(a) => Err(format!(
            "{} under {}: final image differs from the logical image at {a}",
            program.name,
            out.protocol.name()
        )),
    }
}

/// Conservation laws on one replay's statistics: the cache levels
/// partition the accesses, the cycle breakdown sums to the cores' clocks,
/// and every captured memory access was replayed.
pub fn stats(program: &TraceProgram, s: &SimStats) -> Result<(), String> {
    let c = &s.coherence;
    let levels = c.l1_hits + c.l2_hits + c.llc_hits + c.llc_misses;
    if levels != c.accesses() + c.ward_stale_retries {
        return Err(format!(
            "{}: cache levels count {levels} accesses, expected {} + {} stale retries",
            program.name,
            c.accesses(),
            c.ward_stale_retries
        ));
    }
    let breakdown: u64 = s.cycle_breakdown().iter().map(|(_, v)| v).sum();
    if breakdown != s.core_cycles_total {
        return Err(format!(
            "{}: cycle breakdown sums to {breakdown}, cores ran {}",
            program.name, s.core_cycles_total
        ));
    }
    if s.memory_accesses != program.stats.memory_accesses {
        return Err(format!(
            "{}: replayed {} memory accesses, captured {}",
            program.name, s.memory_accesses, program.stats.memory_accesses
        ));
    }
    Ok(())
}

/// Everything checkable on one replay outcome, besides the image.
pub fn outcome(program: &TraceProgram, out: &SimOutcome) -> Result<(), String> {
    if let Some(v) = out.violations.first() {
        return Err(format!("{}: invariant violation: {v}", program.name));
    }
    stats(program, &out.stats)
}

/// Image digests agree across the protocols replaying one trace: the
/// first digest seen becomes the expected one.
pub fn digest_agrees(expected: &mut Option<u64>, got: u64, what: &str) -> Result<(), String> {
    match *expected {
        None => {
            *expected = Some(got);
            Ok(())
        }
        Some(e) if e == got => Ok(()),
        Some(e) => Err(format!(
            "{what}: image digest {got:#x} differs from {e:#x} under another protocol"
        )),
    }
}

/// Decode an encoded trace and require the captured fingerprint.
pub fn decode(bytes: &[u8], fingerprint: u64, name: &str) -> Result<TraceProgram, String> {
    let decoded = trace_io::read_trace(&mut &bytes[..])
        .map_err(|e| format!("{name}: decoding the encoded trace failed: {e}"))?;
    if decoded.fingerprint() != fingerprint {
        return Err(format!(
            "{name}: decoded trace fingerprint {:#x} differs from the captured {fingerprint:#x}",
            decoded.fingerprint()
        ));
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_coherence::{ProtocolId, ProtocolMutation};
    use warden_mem::Addr;
    use warden_pbbs::{Bench, Scale};
    use warden_sim::{simulate_with_options, FaultPlan, MachineConfig, SimOptions};

    fn machine() -> MachineConfig {
        MachineConfig::dual_socket().with_cores(2)
    }

    fn replay(p: &TraceProgram, proto: ProtocolId, opts: &SimOptions) -> SimOutcome {
        simulate_with_options(p, &machine(), proto, opts)
    }

    #[test]
    fn clean_replays_pass_every_check() {
        let p = Bench::Msort.build(Scale::Tiny);
        let mut expected = None;
        for proto in ProtocolId::ALL {
            let out = replay(&p, proto, &SimOptions::default());
            image(&p, &out).unwrap();
            outcome(&p, &out).unwrap();
            digest_agrees(&mut expected, out.memory_image_digest, "msort").unwrap();
        }
    }

    #[test]
    fn image_check_fires_on_a_flipped_byte() {
        let p = Bench::Fib.build(Scale::Tiny);
        let mut out = replay(&p, ProtocolId::Warden, &SimOptions::default());
        let addr = Addr(p.address_range.1 .0 - 1);
        let b = out.final_memory.read_u8(addr);
        out.final_memory.write_u8(addr, b ^ 0x40);
        assert!(image(&p, &out).is_err());
    }

    #[test]
    fn image_check_fires_on_a_seeded_protocol_mutation() {
        // Skipping the reconciliation write-back loses WARD-region writes.
        let mut caught = Vec::new();
        for b in Bench::ALL {
            let p = b.build(Scale::Tiny);
            let opts = SimOptions {
                faults: Some(FaultPlan::mutation_only(
                    7,
                    ProtocolMutation::SkipReconciliationWriteback,
                )),
                ..SimOptions::default()
            };
            let out = replay(&p, ProtocolId::Warden, &opts);
            if image(&p, &out).is_err() {
                caught.push(b.name());
            }
        }
        assert!(!caught.is_empty(), "the mutation went unnoticed everywhere");
    }

    #[test]
    fn digest_check_fires_on_disagreement() {
        let mut e = None;
        digest_agrees(&mut e, 1, "x").unwrap();
        digest_agrees(&mut e, 1, "x").unwrap();
        assert!(digest_agrees(&mut e, 2, "x").is_err());
    }

    #[test]
    fn stats_checks_fire_on_planted_miscounts() {
        let p = Bench::Dedup.build(Scale::Tiny);
        let out = replay(&p, ProtocolId::Mesi, &SimOptions::default());
        stats(&p, &out.stats).unwrap();
        let mut s = out.stats.clone();
        s.coherence.l1_hits += 1;
        assert!(stats(&p, &s).unwrap_err().contains("cache levels"));
        let mut s = out.stats.clone();
        s.compute_cycles += 1;
        assert!(stats(&p, &s).unwrap_err().contains("breakdown"));
        let mut s = out.stats.clone();
        s.memory_accesses -= 1;
        assert!(stats(&p, &s).unwrap_err().contains("memory accesses"));
    }

    #[test]
    fn violation_check_fires_under_the_invariant_checker() {
        let p = Bench::Dedup.build(Scale::Tiny);
        let opts = SimOptions {
            check: true,
            faults: Some(FaultPlan::mutation_only(
                3,
                ProtocolMutation::DlsDirtyPrivate,
            )),
            ..SimOptions::default()
        };
        let out = replay(&p, ProtocolId::Dls, &opts);
        assert!(outcome(&p, &out).is_err());
    }

    #[test]
    fn codec_check_fires_on_a_flipped_byte() {
        let p = Bench::Primes.build(Scale::Tiny);
        let mut bytes = Vec::new();
        trace_io::write_trace(&mut bytes, &p).unwrap();
        decode(&bytes, p.fingerprint(), "primes").unwrap();
        // A byte inside the first task's first event (magic, name, task
        // count, parent, depth and event count come before it). The
        // fingerprint covers events, not the derived phase-1 image.
        let at = 8 + 4 + p.name.len() + 4 + 8 + 4 + 4 + 2;
        bytes[at] ^= 1;
        assert!(decode(&bytes, p.fingerprint(), "primes").is_err());
    }
}
