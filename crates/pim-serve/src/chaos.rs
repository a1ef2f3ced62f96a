//! The seeded chaos/soak harness behind `repro chaos`.
//!
//! One [`run_chaos`] call drives a full adversarial schedule against an
//! in-process daemon and checks the resilience invariants end to end:
//!
//! 1. **Exactly-once terminal responses** — every admitted request id
//!    appears exactly once in the output; every malformed, oversized,
//!    or non-UTF-8 line yields exactly one null-id error.
//! 2. **Worker-count unobservability** — the same stream byte-replays
//!    under 1, 2, and 4 workers (and whatever `PIM_RUN_THREADS` says).
//! 3. **Breaker fidelity** — an independently-replayed reference
//!    breaker state machine must agree with every `breaker_open`
//!    rejection and every admission the daemon made.
//! 4. **Crash-safe recovery** — the journaled session is truncated at
//!    seeded record boundaries (and once mid-record, a torn tail);
//!    stitching the already-delivered responses to the recovered
//!    session's output must reproduce the uncrashed stream byte for
//!    byte.
//! 5. **Mid-line disconnect** — a stream cut inside a line still
//!    terminates cleanly and deterministically.
//!
//! Everything is a pure function of `(seed, ops)`: the schedule comes
//! from a [`pim_common::rng::XorshiftStar`] stream, the synthetic runner
//! fails by model name rather than by timing, and deadlines are request
//! fields, never wall clock — so the summary (and the whole response
//! stream) can be byte-diffed across runs, machines, and thread counts.

use crate::breaker::{Admission, BreakerConfig, BreakerSet};
use crate::daemon::{serve_lines, JobError, JobRunner, MemStore, ServeConfig, StoredResult};
use crate::journal;
use crate::protocol::Request;
use pim_common::rng::XorshiftStar;
use pim_common::units::Seconds;
use pim_runtime::stats::ReportBuilder;
use std::collections::HashMap;
use std::fmt;

/// Models the chaos runner accepts. `boom` panics in the runner (the
/// worker's `catch_unwind` turns that into `execution_failed`); `slow`
/// blows any `deadline_ms` budget it is given but succeeds without one;
/// the rest succeed.
const GOOD_MODELS: [&str; 3] = ["alex", "dcgan", "lstm"];
const TENANTS: [&str; 3] = ["acme", "bolt", "carl"];

/// Chaos breaker tuning: tight enough that `boom`-heavy tenants
/// actually trip, open, probe, and close within a few hundred ops.
const CHAOS_BREAKER: BreakerConfig = BreakerConfig {
    threshold: 3,
    cooldown: 4,
};
/// Small line cap so oversized-line handling is cheap to exercise.
const CHAOS_LINE_CAP: usize = 512;

/// The deterministic synthetic [`JobRunner`] the harness serves with.
pub struct ChaosRunner;

impl JobRunner for ChaosRunner {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        for m in &req.models {
            if !GOOD_MODELS.contains(&m.as_str()) && m != "boom" && m != "slow" {
                return Err(JobError::bad_request(format!("unknown model `{m}`")));
            }
        }
        // Like the engine runner: identity excludes id and tenant,
        // includes the deadline (a deadlined cell must not coalesce
        // with an undeadlined one).
        Ok(pim_common::fingerprint::debug_hash(&(
            &req.models,
            &req.preset,
            req.steps,
            req.batch,
            req.deadline_ms,
        )))
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        assert!(
            !req.models.iter().any(|m| m == "boom"),
            "chaos: injected runner panic"
        );
        if req.models.iter().any(|m| m == "slow") {
            if let Some(ms) = req.deadline_ms {
                return Err(JobError::deadline(format!(
                    "run exceeded its deadline of {ms} ms"
                )));
            }
        }
        let reports = req
            .models
            .iter()
            .map(|m| {
                ReportBuilder::new(format!("{}/{m}", req.preset), req.steps)
                    .makespan(Seconds::new(1e-3 * (1 + m.len()) as f64 * req.steps as f64))
                    .build()
            })
            .collect();
        Ok(StoredResult {
            reports,
            degraded: None,
        })
    }
}

/// What one generated line is, for the invariant checks.
enum LineMeta {
    /// A run request with a unique id, accounted to `tenant`.
    Run { id: String, tenant: String },
    /// A `stats` barrier line with a unique id.
    Stats { id: String },
    /// Malformed / oversized / non-UTF-8: exactly one null-id error.
    Invalid,
    /// Blank: no response at all.
    Empty,
}

struct GeneratedStream {
    /// The raw connection bytes, newline-terminated lines.
    bytes: Vec<u8>,
    /// One meta entry per line, in order.
    meta: Vec<LineMeta>,
    /// The non-empty lines in order — exactly what the daemon journals,
    /// so recovery cycles can index "remaining live input" by journaled
    /// input count.
    nonempty: Vec<Vec<u8>>,
    counts: LineCounts,
}

#[derive(Default)]
struct LineCounts {
    runs: usize,
    dups: usize,
    stats: usize,
    malformed: usize,
    oversize: usize,
    notutf8: usize,
    empty: usize,
}

/// Fields a run line is built from, kept so duplicates can re-render
/// the same cell under a fresh id (and possibly another tenant).
#[derive(Clone)]
struct RunFields {
    model: String,
    steps: usize,
    priority: u64,
    deadline_ms: Option<u64>,
    /// Failing lines carry a unique batch so their cells never collide:
    /// a failed cell is forgotten, and whether a colliding later line
    /// coalesces with it or recomputes would depend on worker timing.
    batch: Option<usize>,
}

fn render_run(id: &str, tenant: &str, f: &RunFields) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "{{\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"model\":\"{}\",\"steps\":{},\"priority\":{}",
        f.model, f.steps, f.priority
    );
    if let Some(ms) = f.deadline_ms {
        let _ = write!(s, ",\"deadline_ms\":{ms}");
    }
    if let Some(b) = f.batch {
        let _ = write!(s, ",\"batch\":{b}");
    }
    s.push('}');
    s
}

fn generate(seed: u64, ops: usize) -> GeneratedStream {
    let mut rng = XorshiftStar::from_state(seed.max(1));
    let mut out = GeneratedStream {
        bytes: Vec::new(),
        meta: Vec::new(),
        nonempty: Vec::new(),
        counts: LineCounts::default(),
    };
    // Good (always-succeeding) run lines, for cache-hitting duplicates.
    let mut good: Vec<RunFields> = Vec::new();
    let malformed_pool: [&[u8]; 4] = [
        b"not json at all",
        b"[\"x\",2]",
        b"{\"id\":",
        b"{\"id\":\"zz\",\"steps\":}",
    ];

    for i in 0..ops {
        let roll = rng.below(100);
        let (line, meta): (Vec<u8>, LineMeta) = if roll < 55 {
            // A fresh run request; model mix drives failures and
            // therefore the breakers.
            let id = format!("r{i}");
            let tenant = (*rng.pick(&TENANTS)).to_string();
            let kind = rng.below(100);
            let fields = if kind < 20 {
                RunFields {
                    model: "boom".to_string(),
                    steps: 1 + rng.below(4),
                    priority: rng.below(10) as u64,
                    deadline_ms: None,
                    batch: Some(1 + i),
                }
            } else if kind < 35 {
                RunFields {
                    model: "slow".to_string(),
                    steps: 1 + rng.below(4),
                    priority: rng.below(10) as u64,
                    deadline_ms: Some(1 + rng.below(50) as u64),
                    batch: Some(1 + i),
                }
            } else {
                RunFields {
                    model: (*rng.pick(&GOOD_MODELS)).to_string(),
                    steps: 1 + rng.below(4),
                    priority: rng.below(10) as u64,
                    deadline_ms: (rng.below(100) < 30).then(|| 1 + rng.below(50) as u64),
                    batch: None,
                }
            };
            if fields.model != "boom" && !(fields.model == "slow" && fields.deadline_ms.is_some()) {
                good.push(fields.clone());
            }
            out.counts.runs += 1;
            (
                render_run(&id, &tenant, &fields).into_bytes(),
                LineMeta::Run { id, tenant },
            )
        } else if roll < 65 && !good.is_empty() {
            // A duplicate of a known-good earlier cell under a fresh id
            // (and possibly another tenant): exercises coalescing and
            // cross-tenant cache hits. Only good cells are duplicated —
            // a failed cell is forgotten, so whether its duplicate
            // coalesces or recomputes would depend on worker timing.
            let id = format!("d{i}");
            let tenant = (*rng.pick(&TENANTS)).to_string();
            let fields = rng.pick(&good).clone();
            out.counts.dups += 1;
            (
                render_run(&id, &tenant, &fields).into_bytes(),
                LineMeta::Run { id, tenant },
            )
        } else if roll < 75 {
            let id = format!("s{i}");
            out.counts.stats += 1;
            (
                format!("{{\"id\":\"{id}\",\"op\":\"stats\"}}").into_bytes(),
                LineMeta::Stats { id },
            )
        } else if roll < 84 {
            out.counts.malformed += 1;
            ((*rng.pick(&malformed_pool)).to_vec(), LineMeta::Invalid)
        } else if roll < 89 {
            out.counts.oversize += 1;
            (vec![b'x'; CHAOS_LINE_CAP + 88], LineMeta::Invalid)
        } else if roll < 95 {
            out.counts.notutf8 += 1;
            (vec![0xff, 0xfe, 0x80, b'{', b'x'], LineMeta::Invalid)
        } else {
            out.counts.empty += 1;
            (b"   ".to_vec(), LineMeta::Empty)
        };
        if !matches!(meta, LineMeta::Empty) {
            out.nonempty.push(line.clone());
        }
        out.bytes.extend_from_slice(&line);
        out.bytes.push(b'\n');
        out.meta.push(meta);
    }

    // Always end on a stats barrier so the final counters land in the
    // stream (EOF would drain anyway, but this pins the counter bytes).
    let id = format!("s{ops}");
    let line = format!("{{\"id\":\"{id}\",\"op\":\"stats\"}}").into_bytes();
    out.counts.stats += 1;
    out.nonempty.push(line.clone());
    out.bytes.extend_from_slice(&line);
    out.bytes.push(b'\n');
    out.meta.push(LineMeta::Stats { id });
    out
}

fn chaos_cfg(workers: usize, journal: Option<std::path::PathBuf>) -> ServeConfig {
    ServeConfig {
        capacity: 1 << 16,
        tenant_quota: 1 << 16,
        workers,
        max_steps: 8,
        max_line_bytes: CHAOS_LINE_CAP,
        breaker: CHAOS_BREAKER,
        journal,
    }
}

/// One full daemon session over `input` with a fresh store.
fn serve_bytes(cfg: &ServeConfig, input: &[u8]) -> Result<String, String> {
    let store = MemStore::default();
    let mut out = Vec::new();
    serve_lines(cfg, &ChaosRunner, &store, input, &mut out)
        .map_err(|e| format!("daemon I/O failed: {e}"))?;
    String::from_utf8(out).map_err(|_| "daemon emitted non-UTF-8 output".to_string())
}

/// Extracts the echoed id of a rendered response (`None` for `null`).
fn response_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    rest.strip_prefix('"')?.split('"').next()
}

/// Extracts the error kind of a rendered error response.
fn error_kind(line: &str) -> Option<&str> {
    line.split("\"error\":\"").nth(1)?.split('"').next()
}

/// Invariant 1: every id exactly once, every invalid line one null-id
/// error, nothing extra.
fn check_exactly_once(gen: &GeneratedStream, output: &str) -> Result<(), String> {
    let mut id_counts: HashMap<&str, usize> = HashMap::new();
    let mut nulls = 0usize;
    let mut total = 0usize;
    for line in output.lines() {
        total += 1;
        match response_id(line) {
            Some(id) => *id_counts.entry(id).or_insert(0) += 1,
            None => nulls += 1,
        }
    }
    let mut expected_nulls = 0usize;
    let mut expected_total = 0usize;
    for meta in &gen.meta {
        match meta {
            LineMeta::Run { id, .. } | LineMeta::Stats { id } => {
                expected_total += 1;
                if id_counts.get(id.as_str()) != Some(&1) {
                    return Err(format!(
                        "id `{id}` got {} responses, expected exactly 1",
                        id_counts.get(id.as_str()).copied().unwrap_or(0)
                    ));
                }
            }
            LineMeta::Invalid => {
                expected_total += 1;
                expected_nulls += 1;
            }
            LineMeta::Empty => {}
        }
    }
    if nulls != expected_nulls {
        return Err(format!(
            "{nulls} null-id responses, expected {expected_nulls}"
        ));
    }
    if total != expected_total {
        return Err(format!("{total} responses, expected {expected_total}"));
    }
    Ok(())
}

/// Invariant 3: replay the response stream through a reference breaker
/// and confirm every admission/rejection the daemon made. Works because
/// responses are emitted in submission order with `stats` responses
/// marking the drain barriers where outcomes are observed.
fn check_breaker_reference(gen: &GeneratedStream, output: &str) -> Result<(), String> {
    let tenant_of: HashMap<&str, &str> = gen
        .meta
        .iter()
        .filter_map(|m| match m {
            LineMeta::Run { id, tenant } => Some((id.as_str(), tenant.as_str())),
            _ => None,
        })
        .collect();
    let mut reference = BreakerSet::new(CHAOS_BREAKER);
    // Outcomes awaiting the next barrier: (tenant, ok, probe).
    let mut pending: Vec<(String, bool, bool)> = Vec::new();
    for line in output.lines() {
        if line.contains("\"stats\":{") {
            for (t, ok, probe) in pending.drain(..) {
                reference.observe(&t, ok, probe);
            }
            continue;
        }
        let Some(id) = response_id(line) else {
            continue; // null-id protocol errors never reach the breaker
        };
        let Some(&tenant) = tenant_of.get(id) else {
            return Err(format!("response for unknown id `{id}`"));
        };
        if line.contains("\"status\":\"ok\"") {
            if line.contains("\"cache\":\"hit\"") {
                continue; // hits and coalescers bypass the breaker
            }
            match reference.admit(tenant) {
                Admission::Reject => {
                    return Err(format!(
                        "daemon computed `{id}` but the reference breaker rejects"
                    ))
                }
                adm => pending.push((tenant.to_string(), true, adm == Admission::AdmitProbe)),
            }
            continue;
        }
        match error_kind(line) {
            Some("breaker_open") => {
                if reference.admit(tenant) != Admission::Reject {
                    return Err(format!(
                        "daemon rejected `{id}` with breaker_open but the reference admits"
                    ));
                }
            }
            Some("execution_failed" | "deadline_exceeded") => match reference.admit(tenant) {
                Admission::Reject => {
                    return Err(format!(
                        "daemon ran `{id}` to failure but the reference breaker rejects"
                    ))
                }
                adm => pending.push((tenant.to_string(), false, adm == Admission::AdmitProbe)),
            },
            Some("bad_request" | "malformed" | "unknown_field") => {}
            Some("over_capacity" | "over_quota") => {
                // Chaos capacity is unbounded; reaching here means the
                // schedule changed — still mirror the daemon faithfully.
                match reference.admit(tenant) {
                    Admission::Reject => {
                        return Err(format!(
                            "daemon queue-rejected `{id}` but the reference breaker rejects"
                        ))
                    }
                    Admission::AdmitProbe => reference.probe_aborted(tenant),
                    Admission::Admit => {}
                }
            }
            other => return Err(format!("unclassifiable response for `{id}`: {other:?}")),
        }
    }
    for (t, ok, probe) in pending {
        reference.observe(&t, ok, probe);
    }
    Ok(())
}

/// Byte offsets of complete journal-record boundaries, in order.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 || bytes.len() - pos - 8 < len {
            break;
        }
        pos += 8 + len;
        offs.push(pos);
    }
    offs
}

/// Invariant 4, one cycle: truncate the full journal at `cut` bytes
/// (simulating a crash at that write), recover, serve the remaining
/// live input, and demand `delivered ++ recovered-output` equals the
/// uncrashed stream.
fn recovery_cycle(
    full_journal: &[u8],
    cut: usize,
    gen: &GeneratedStream,
    expect: &str,
    tag: &str,
    seed: u64,
) -> Result<(), String> {
    let path = journal::scratch_path(tag, seed);
    let result = (|| {
        std::fs::write(&path, &full_journal[..cut])
            .map_err(|e| format!("writing truncated journal: {e}"))?;
        let rec =
            journal::recover(&path).map_err(|e| format!("recovering truncated journal: {e}"))?;
        let consumed = rec.inputs.len();
        let mut live = Vec::new();
        for line in &gen.nonempty[consumed..] {
            live.extend_from_slice(line);
            live.push(b'\n');
        }
        let out2 = serve_bytes(&chaos_cfg(0, Some(path.clone())), &live)?;
        let mut stitched = String::new();
        for r in &rec.responses {
            stitched.push_str(r);
            stitched.push('\n');
        }
        stitched.push_str(&out2);
        if stitched != expect {
            return Err(format!(
                "cycle {tag} (cut {cut}): delivered ++ recovered output diverges from the \
                 uncrashed stream"
            ));
        }
        // After recovery the journal is complete again: it must replay
        // the whole session on its own.
        let full = journal::recover(&path).map_err(|e| format!("re-reading journal: {e}"))?;
        let replayed: String = full
            .responses
            .iter()
            .flat_map(|r| [r.as_str(), "\n"])
            .collect();
        if replayed != expect {
            return Err(format!(
                "cycle {tag}: completed journal does not replay the uncrashed stream"
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    result
}

/// Everything one chaos run measured; [`fmt::Display`] renders the
/// deterministic summary `repro chaos` prints (and CI byte-diffs).
pub struct ChaosSummary {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// Requested op count (lines before the closing stats barrier).
    pub ops: usize,
    /// Generated lines: fresh runs / duplicates / stats barriers.
    pub runs: usize,
    /// Duplicated run lines (cache-hit / coalescing pressure).
    pub dups: usize,
    /// Stats barrier lines (including the closing one).
    pub stats: usize,
    /// Malformed, oversized, and non-UTF-8 lines.
    pub invalid: usize,
    /// Blank lines (no response expected).
    pub empty: usize,
    /// Total response lines in the uncrashed stream.
    pub responses: usize,
    /// Successful run responses / cache hits among them.
    pub ok: usize,
    /// Cache-hit responses.
    pub cache_hits: usize,
    /// `execution_failed` responses (runner panics).
    pub execution_failed: usize,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: usize,
    /// `breaker_open` rejections.
    pub breaker_open: usize,
    /// Kill-restart recovery cycles verified (last one torn mid-record).
    pub recovery_cycles: usize,
}

impl fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos seed={} ops={}", self.seed, self.ops)?;
        writeln!(
            f,
            "lines: runs={} dups={} stats={} invalid={} empty={}",
            self.runs, self.dups, self.stats, self.invalid, self.empty
        )?;
        writeln!(
            f,
            "responses: total={} ok={} cache_hits={} execution_failed={} deadline_exceeded={} \
             breaker_open={}",
            self.responses,
            self.ok,
            self.cache_hits,
            self.execution_failed,
            self.deadline_exceeded,
            self.breaker_open
        )?;
        writeln!(
            f,
            "verified: exactly-once, breaker-reference, workers 1/2/4 byte-identical, \
             {} recovery cycles (1 torn), mid-line disconnect",
            self.recovery_cycles
        )?;
        write!(f, "chaos ok")
    }
}

/// Runs the whole harness for `(seed, ops)`.
///
/// # Errors
///
/// A description of the first invariant violation found.
pub fn run_chaos(seed: u64, ops: usize) -> Result<ChaosSummary, String> {
    let gen = generate(seed, ops.max(1));
    let mut rng = XorshiftStar::from_state((seed ^ 0x9e37_79b9_7f4a_7c15).max(1));

    // Baseline (workers from the environment, like production).
    let baseline = serve_bytes(&chaos_cfg(0, None), &gen.bytes)?;
    check_exactly_once(&gen, &baseline)?;
    check_breaker_reference(&gen, &baseline)?;

    // Invariant 2: explicit worker counts must not show through.
    for workers in [1usize, 2, 4] {
        let out = serve_bytes(&chaos_cfg(workers, None), &gen.bytes)?;
        if out != baseline {
            return Err(format!(
                "output under {workers} workers diverges from the baseline"
            ));
        }
    }

    // Uncrashed journaled session: same bytes out, full journal on disk.
    let full_path = journal::scratch_path("chaos-full", seed);
    let _ = std::fs::remove_file(&full_path);
    let journaled = serve_bytes(&chaos_cfg(0, Some(full_path.clone())), &gen.bytes)?;
    let full_journal = std::fs::read(&full_path).map_err(|e| format!("reading journal: {e}"));
    let _ = std::fs::remove_file(&full_path);
    let full_journal = full_journal?;
    if journaled != baseline {
        return Err("journaling changed the response stream".to_string());
    }

    // Invariant 4: kill-restart at seeded record boundaries, plus one
    // torn (mid-record) tail.
    let boundaries = record_boundaries(&full_journal);
    if boundaries.is_empty() {
        return Err("journal recorded nothing".to_string());
    }
    let mut cycles = 0usize;
    for c in 0..3usize {
        let cut = boundaries[rng.below(boundaries.len())];
        recovery_cycle(
            &full_journal,
            cut,
            &gen,
            &baseline,
            &format!("cut{c}"),
            seed,
        )?;
        cycles += 1;
    }
    let torn_base = boundaries[rng.below(boundaries.len())];
    let torn_cut = (torn_base + 1 + rng.below(6)).min(full_journal.len());
    recovery_cycle(&full_journal, torn_cut, &gen, &baseline, "torn", seed)?;
    cycles += 1;

    // Invariant 5: a connection dying mid-line still drains cleanly and
    // deterministically.
    let cut = 1 + rng.below(gen.bytes.len() - 1);
    let partial_a = serve_bytes(&chaos_cfg(0, None), &gen.bytes[..cut])?;
    let partial_b = serve_bytes(&chaos_cfg(0, None), &gen.bytes[..cut])?;
    if partial_a != partial_b {
        return Err("mid-line disconnect replay diverged".to_string());
    }

    // Deterministic tallies for the printed summary.
    let mut summary = ChaosSummary {
        seed,
        ops: ops.max(1),
        runs: gen.counts.runs,
        dups: gen.counts.dups,
        stats: gen.counts.stats,
        invalid: gen.counts.malformed + gen.counts.oversize + gen.counts.notutf8,
        empty: gen.counts.empty,
        responses: baseline.lines().count(),
        ok: 0,
        cache_hits: 0,
        execution_failed: 0,
        deadline_exceeded: 0,
        breaker_open: 0,
        recovery_cycles: cycles,
    };
    for line in baseline.lines() {
        if line.contains("\"status\":\"ok\"") && !line.contains("\"stats\":{") {
            summary.ok += 1;
            if line.contains("\"cache\":\"hit\"") {
                summary.cache_hits += 1;
            }
        }
        match error_kind(line) {
            Some("execution_failed") => summary.execution_failed += 1,
            Some("deadline_exceeded") => summary.deadline_exceeded += 1,
            Some("breaker_open") => summary.breaker_open += 1,
            _ => {}
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_chaos_run_upholds_every_invariant() {
        let summary = run_chaos(7, 80).expect("chaos invariants");
        assert!(summary.responses > 0);
        assert!(
            summary.execution_failed > 0,
            "schedule should panic runners"
        );
        assert!(summary.recovery_cycles == 4);
    }

    #[test]
    fn chaos_summaries_are_deterministic() {
        let a = run_chaos(3, 60).expect("chaos a").to_string();
        let b = run_chaos(3, 60).expect("chaos b").to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_schedules_trip_breakers_given_enough_ops() {
        // With threshold 3 and a 20% panic mix, a few hundred ops are
        // plenty to open a breaker; this pins that `breaker_open`
        // rejections actually occur and still satisfy the reference.
        let summary = run_chaos(1, 400).expect("chaos invariants");
        assert!(summary.breaker_open > 0, "no breaker ever opened");
        assert!(summary.deadline_exceeded > 0, "no deadline ever tripped");
    }
}
