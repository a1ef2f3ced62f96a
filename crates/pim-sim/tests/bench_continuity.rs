//! Bench continuity across PRs: each checked-in `BENCH_pr*.json` must be
//! a valid, full-grid successor to its predecessor.
//!
//! Absolute milliseconds in the checked-in files were recorded under
//! different machine load, so they are compared only through the
//! same-machine comparison path (`repro bench --compare`). An interleaved
//! A/B of the pre-/post-change release binaries over the full grid
//! measured a 0.99x sum-of-medians ratio at the time pr5 was recorded;
//! the pr6 component-core refactor recorded a 7.76x `repro all` speedup
//! (its `repro_all` block), driven by the linear-time dependency
//! expansion in `pim_graph`.

use pim_sim::bench::validate_bench_json;

fn repo_file(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string() + "/" + name;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The (model, preset) key set of a bench document.
fn cell_keys(text: &str) -> Vec<(String, String)> {
    let doc = pim_common::trace::parse_json(text).expect("bench json parses");
    doc.field("cells")
        .and_then(|c| c.as_arr())
        .expect("cells array")
        .iter()
        .map(|cell| {
            (
                cell.field("model")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string(),
                cell.field("preset")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn checked_in_bench_files_are_valid_and_cover_the_same_grid() {
    let pr4 = repo_file("BENCH_pr4.json");
    let pr5 = repo_file("BENCH_pr5.json");
    let pr6 = repo_file("BENCH_pr6.json");
    validate_bench_json(&pr4).expect("BENCH_pr4.json validates");
    validate_bench_json(&pr5).expect("BENCH_pr5.json validates");
    validate_bench_json(&pr6).expect("BENCH_pr6.json validates");
    let (k4, k5, k6) = (cell_keys(&pr4), cell_keys(&pr5), cell_keys(&pr6));
    assert_eq!(k4.len(), 42, "pr4 grid is not 7 models x 6 presets");
    assert_eq!(
        k4, k5,
        "pr5 must cover exactly the pr4 (model, preset) grid"
    );
    assert_eq!(
        k5, k6,
        "pr6 must cover exactly the pr5 (model, preset) grid"
    );
}

#[test]
fn pr6_records_the_component_core_speedup() {
    let pr6 = repo_file("BENCH_pr6.json");
    let doc = pim_common::trace::parse_json(&pr6).expect("bench json parses");
    let repro_all = doc
        .field("repro_all")
        .expect("pr6 must carry the repro_all A/B record");
    let speedup = repro_all
        .field("speedup")
        .and_then(pim_common::trace::Json::as_num)
        .expect("repro_all.speedup");
    assert!(
        speedup >= 1.5,
        "pr6 repro-all speedup gate (>=1.5x) not met: {speedup}"
    );
    // The two checked-in bench files must also diff cleanly through the
    // comparison path `repro bench --compare` uses.
    let pr5 = repo_file("BENCH_pr5.json");
    let table = pim_sim::bench::compare_bench_json(&pr5, &pr6).expect("pr5 vs pr6 compares");
    assert!(
        table.contains("geomean speedup over 42 matched cells"),
        "{table}"
    );
}
