//! Service determinism: a report served by the daemon is byte-identical
//! to the report a direct `Engine::execute` call produces — with a
//! cold private store, with the warm process-wide shared store, and
//! across repeated replays of a generated load trace.

use pim_models::ModelKind;
use pim_runtime::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use pim_serve::{loadgen, serve_lines, JobRunner, MemStore, ServeConfig};
use pim_sim::cache::SharedStore;
use pim_sim::serve::{render_reports, verify_samples, SimRunner};

fn serve(store: &dyn pim_serve::ResultStore, input: &str) -> Vec<String> {
    serve_with(&ServeConfig::default(), store, input)
}

fn serve_with(cfg: &ServeConfig, store: &dyn pim_serve::ResultStore, input: &str) -> Vec<String> {
    let mut out = Vec::new();
    serve_lines(cfg, &SimRunner, store, input.as_bytes(), &mut out).expect("daemon I/O");
    String::from_utf8(out)
        .expect("utf8 responses")
        .lines()
        .map(str::to_string)
        .collect()
}

fn reports_payload(line: &str) -> &str {
    line.split("\"reports\":")
        .nth(1)
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("no reports payload in {line}"))
}

#[test]
fn daemon_report_is_byte_identical_to_direct_execute() {
    let trace = "{\"id\":\"d1\",\"model\":\"dcgan\",\"preset\":\"hetero\",\"steps\":2}\n";
    let lines = serve(&MemStore::default(), trace);
    assert!(lines[0].contains("\"status\":\"ok\""), "{}", lines[0]);

    let model = pim_sim::cache::model(ModelKind::Dcgan).unwrap();
    let direct = Engine::new(EngineConfig::preset(SystemPreset::Hetero))
        .execute(&RunRequest::new(&[WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        }]))
        .unwrap();
    let want = render_reports(&pim_serve::StoredResult {
        reports: direct.reports,
        degraded: None,
    });
    assert_eq!(reports_payload(&lines[0]), want);
}

#[test]
fn every_job_of_a_cold_trace_matches_the_direct_engine() {
    let trace = loadgen::generate(60, 7, 3);
    let input = trace.join("\n") + "\n";
    let responses = serve(&MemStore::default(), &input);
    let checked = verify_samples(&trace, &responses, 1).unwrap();
    // Every run line was byte-checked (barriers are skipped).
    assert!(
        checked >= 55,
        "only {checked} of {} lines checked",
        trace.len()
    );
}

#[test]
fn warm_shared_store_flips_hit_flags_but_never_report_bytes() {
    // batch 6 keeps this cell out of every other test's way: SharedStore
    // is process-wide by design.
    let trace = "{\"id\":\"w1\",\"tenant\":\"t0\",\"model\":\"dcgan\",\"batch\":6}\n";
    let first = serve(&SharedStore, trace);
    let second = serve(&SharedStore, trace);
    assert!(first[0].contains("\"cache\":\"miss\""), "{}", first[0]);
    assert!(second[0].contains("\"cache\":\"hit\""), "{}", second[0]);
    assert_eq!(reports_payload(&first[0]), reports_payload(&second[0]));
    // The warm hit still equals a direct engine run.
    let direct = SimRunner
        .execute(&pim_serve::parse_request(trace.trim()).unwrap())
        .unwrap();
    assert_eq!(reports_payload(&second[0]), render_reports(&direct));
}

#[test]
fn runaway_deadline_is_cut_off_without_touching_other_tenants() {
    // A greedy tenant submits a heavyweight run under a 1 ms fuel budget
    // (it would run orders of magnitude longer); a bystander tenant's
    // job in the same window must be completely unaffected, and the
    // whole exchange must replay byte-identically.
    let trace = "\
{\"id\":\"greedy\",\"tenant\":\"hog\",\"model\":\"resnet\",\"steps\":3,\"deadline_ms\":1}\n\
{\"id\":\"calm\",\"tenant\":\"bystander\",\"model\":\"dcgan\",\"preset\":\"hetero\",\"steps\":2}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n";
    let lines = serve(&MemStore::default(), trace);
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"status\":\"error\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"error\":\"deadline_exceeded\""),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"status\":\"ok\""), "{}", lines[1]);

    // The bystander's report is byte-identical to the direct engine run.
    let direct = SimRunner
        .execute(&pim_serve::parse_request(trace.lines().nth(1).unwrap()).unwrap())
        .unwrap();
    assert_eq!(reports_payload(&lines[1]), render_reports(&direct));

    let replay = serve(&MemStore::default(), trace);
    assert_eq!(lines, replay);
}

#[test]
fn load_trace_replays_byte_identically_with_and_without_warm_store() {
    let trace = loadgen::generate(40, 3, 2).join("\n") + "\n";
    let cold_a = serve(&MemStore::default(), &trace);
    let cold_b = serve(&MemStore::default(), &trace);
    assert_eq!(cold_a, cold_b);
    // A warm shared store may flip cache flags but the report bytes and
    // response order are pinned.
    let warm = serve(&SharedStore, &trace);
    assert_eq!(warm.len(), cold_a.len());
    for (w, c) in warm.iter().zip(&cold_a) {
        if w.contains("\"reports\":") {
            assert_eq!(reports_payload(w), reports_payload(c));
        }
    }
}

/// Two workers share each preset's engine, and with it the engine's table
/// of uncontended plans: every serialized-preset job, restricted or not,
/// run cold or warm, must match a fresh engine's report.
#[test]
fn two_workers_sharing_preset_engines_match_fresh_engines() {
    let presets = [
        ("cpu", SystemPreset::CpuOnly),
        ("progr", SystemPreset::ProgrOnly),
        ("fixed", SystemPreset::FixedHost),
        ("bare", SystemPreset::HeteroBare),
        ("rc", SystemPreset::HeteroRc),
    ];
    let models = [("lstm", ModelKind::Lstm), ("alex", ModelKind::AlexNet)];
    let mut jobs = Vec::new();
    for steps in [1, 2] {
        for (preset, p) in presets {
            for (model, kind) in models {
                for restricted in [false, true] {
                    jobs.push((
                        format!(
                            "{{\"id\":\"j{}\",\"tenant\":\"t{}\",\"model\":\"{model}\",\
                             \"preset\":\"{preset}\",\"steps\":{steps},\
                             \"cpu_progr_only\":{restricted}}}",
                            jobs.len(),
                            jobs.len() % 4
                        ),
                        (p, kind, steps, restricted),
                    ));
                }
            }
        }
    }
    let lines: Vec<&str> = jobs.iter().map(|(line, _)| line.as_str()).collect();
    let input = lines.join("\n") + "\n";
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let responses = serve_with(&cfg, &MemStore::default(), &input);
    assert_eq!(responses.len(), jobs.len());
    for (response, (line, (preset, kind, steps, restricted))) in responses.iter().zip(&jobs) {
        assert!(response.contains("\"status\":\"ok\""), "{line}: {response}");
        let model = pim_sim::cache::model(*kind).unwrap();
        let direct = Engine::new(EngineConfig::preset(*preset))
            .execute(&RunRequest::new(&[WorkloadSpec {
                graph: model.graph(),
                steps: *steps,
                cpu_progr_only: *restricted,
            }]))
            .unwrap();
        let want = render_reports(&pim_serve::StoredResult {
            reports: direct.reports,
            degraded: None,
        });
        assert_eq!(reports_payload(response), want, "{line}");
    }
}
