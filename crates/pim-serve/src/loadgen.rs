//! Deterministic load generator for the daemon.
//!
//! [`generate`] expands a seed into a mixed multi-tenant request trace:
//! a few cheap models across every [`SystemPreset`], occasional fault plans,
//! permuted tie-breaks, and multi-model partitioned sweeps, with a
//! `stats` barrier inserted every [`BARRIER_EVERY`] lines. The barrier
//! cadence is chosen so the default [`crate::daemon::ServeConfig`]
//! never rejects a trace job (at most `BARRIER_EVERY` admission slots
//! can be held between barriers, and `BARRIER_EVERY` ≤ the per-tenant
//! quota ≤ the capacity), which is what lets `repro serve --load` and
//! the CI smoke demand zero failed jobs. Same seed, same trace, byte
//! for byte — replaying a trace twice through a cold daemon must
//! byte-diff clean.

use pim_common::rng::XorshiftStar;
use pim_runtime::SystemPreset;
use std::fmt::Write as _;

/// Lines between `stats` barriers (also the bound on admission slots a
/// trace can hold at once).
pub const BARRIER_EVERY: usize = 64;

/// Models the generator draws from — the cheap end of the evaluation
/// set, so thousand-job traces stay fast.
pub const MODELS: [&str; 3] = ["alex", "dcgan", "lstm"];

/// Generates a deterministic trace of `jobs` run requests spread over
/// `tenants` tenants, with a `stats` barrier every [`BARRIER_EVERY`]
/// lines and a final one, as protocol request lines.
pub fn generate(jobs: usize, seed: u64, tenants: usize) -> Vec<String> {
    let tenants = tenants.max(1);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    // Avoid the xorshift fixed point at zero.
    if state == 0 {
        state = 0x853C_49E6_748F_EA9B;
    }
    let mut rng = XorshiftStar::from_state(state);
    let mut lines = Vec::with_capacity(jobs + jobs / BARRIER_EVERY + 1);
    let mut barriers = 0usize;
    for j in 0..jobs {
        if j > 0 && j % BARRIER_EVERY == 0 {
            lines.push(format!("{{\"id\":\"b{barriers}\",\"op\":\"stats\"}}"));
            barriers += 1;
        }
        let mut line = String::from("{");
        let _ = write!(
            line,
            "\"id\":\"j{j}\",\"tenant\":\"t{}\",\"preset\":\"{}\",\"steps\":{}",
            rng.below(tenants),
            SystemPreset::ALL[rng.below(SystemPreset::ALL.len())].key(),
            1 + rng.below(2),
        );
        // ~15% of jobs are two-model sweeps, half of them partitioned.
        if rng.below(100) < 15 {
            let a = rng.below(MODELS.len());
            let b = rng.below(MODELS.len());
            let _ = write!(line, ",\"models\":[\"{}\",\"{}\"]", MODELS[a], MODELS[b]);
            if rng.below(2) == 1 {
                line.push_str(",\"partitioned\":true");
            }
        } else {
            let _ = write!(line, ",\"model\":\"{}\"", MODELS[rng.below(MODELS.len())]);
        }
        let _ = write!(line, ",\"priority\":{}", rng.below(10));
        // ~10% run under a seeded fault plan.
        if rng.below(100) < 10 {
            let _ = write!(
                line,
                ",\"faults\":{{\"seed\":{},\"rate\":{}}}",
                rng.below(4),
                [0.5, 1.0][rng.below(2)],
            );
        }
        // ~10% use a permuted tie-break order.
        if rng.below(100) < 10 {
            let _ = write!(line, ",\"tie\":{{\"permuted\":{}}}", rng.below(3));
        }
        line.push('}');
        lines.push(line);
    }
    lines.push(format!("{{\"id\":\"b{barriers}\",\"op\":\"stats\"}}"));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Op};

    #[test]
    fn traces_are_deterministic_and_parse() {
        let a = generate(300, 42, 3);
        let b = generate(300, 42, 3);
        assert_eq!(a, b);
        assert_ne!(a, generate(300, 43, 3));
        let mut runs = 0;
        let mut barriers = 0;
        for line in &a {
            let req = parse_request(line).expect("trace lines parse");
            match req.op {
                Op::Run => runs += 1,
                Op::Stats => barriers += 1,
                Op::Shutdown => panic!("loadgen never emits control lines"),
            }
        }
        assert_eq!(runs, 300);
        assert_eq!(barriers, 300 / BARRIER_EVERY + 1);
        assert!(a.last().unwrap().contains("stats"));
    }

    /// Jobs draw presets from `SystemPreset::ALL` by index, so its key
    /// order is part of every generated trace.
    #[test]
    fn presets_are_drawn_in_the_trace_key_order() {
        assert_eq!(
            SystemPreset::ALL.map(SystemPreset::key),
            ["cpu", "progr", "fixed", "hetero", "bare", "rc"]
        );
    }

    #[test]
    fn barrier_cadence_never_overruns_default_quota() {
        let cfg = crate::daemon::ServeConfig::default();
        assert!(BARRIER_EVERY <= cfg.tenant_quota);
        assert!(BARRIER_EVERY <= cfg.capacity);
    }

    #[test]
    fn traces_mix_tenants_and_features() {
        let text = generate(400, 7, 3).join("\n");
        for needle in [
            "\"tenant\":\"t0\"",
            "\"tenant\":\"t2\"",
            "\"faults\":",
            "\"tie\":{\"permuted\":",
            "\"models\":[",
            "\"partitioned\":true",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
