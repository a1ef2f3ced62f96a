//! CLI contract tests for the `repro` binary: bad arguments are
//! structured usage errors with exit code 2, runtime failures exit 1,
//! and the fault sweep is deterministic across invocations.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_section_is_a_usage_error() {
    let out = repro(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown section `bogus`"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_model_is_a_usage_error() {
    for args in [
        &["schedule", "nope"][..],
        &["faults", "--models", "alex,nope"][..],
        &["bench", "--models", "nope"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("unknown model `nope`"), "{args:?}");
    }
}

#[test]
fn malformed_fault_flags_are_usage_errors() {
    for args in [
        &["faults", "--rate", "2.0"][..],
        &["faults", "--rate", "abc"][..],
        &["faults", "--seed", "x"][..],
        &["faults", "--steps", "0"][..],
        &["faults", "--frobnicate"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn malformed_bench_flags_are_usage_errors() {
    for args in [
        &["bench", "--iters", "abc"][..],
        &["bench", "--baseline", "12"][..],
        &["bench", "--frobnicate"][..],
        &["bench", "--steps", "0"][..],
        &["bench", "--iters", "0"][..],
        &["bench", "--baseline", "1200,1100"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn fuzz_search_serve_and_chaos_reject_bad_flags_before_running() {
    for (sub, zero_count) in [
        ("fuzz", "--seeds"),
        ("search", "--beam"),
        ("serve", "--tenants"),
        ("serve", "--conns"),
        ("chaos", "--ops"),
    ] {
        for args in [
            &[sub, "--frobnicate"][..],
            &[sub, "--seed"][..],
            &[sub, zero_count, "0"][..],
        ] {
            let out = repro(args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(err.contains("usage:"), "{args:?}: {err}");
            assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        }
    }
}

#[test]
fn missing_trace_operands_are_usage_errors() {
    assert_eq!(repro(&["--trace"]).status.code(), Some(2));
    assert_eq!(repro(&["tracecheck"]).status.code(), Some(2));
}

#[test]
fn tracecheck_on_a_missing_file_is_a_runtime_error() {
    let out = repro(&["tracecheck", "/nonexistent/trace.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("tracecheck failed reading"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn config_section_still_renders() {
    let out = repro(&["config"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table IV"));
}

#[test]
fn fault_sweep_is_deterministic_across_processes() {
    let args = &[
        "faults", "--seed", "3", "--rate", "0.1", "--models", "alex", "--steps", "1",
    ];
    let a = repro(args);
    let b = repro(args);
    assert_eq!(a.status.code(), Some(0), "{}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "fault table must be byte-identical");
    let table = String::from_utf8_lossy(&a.stdout).into_owned();
    assert!(table.contains("== AlexNet @ Hetero PIM =="), "{table}");
    assert!(table.contains("degradation"), "{table}");
}

#[test]
fn isa_bad_flags_are_usage_errors() {
    for args in [
        &["isa", "--frobnicate"][..],
        &["isa", "--models", "nope"][..],
        &["isa", "--steps", "0"][..],
        &["isa", "--steps", "abc"][..],
        &["isa", "--models"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}

#[test]
fn isa_table_is_deterministic_across_processes() {
    let args = &["isa", "--models", "alex,dcgan", "--steps", "1"];
    let a = repro(args);
    let b = repro(args);
    assert_eq!(a.status.code(), Some(0), "{}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "isa table must be byte-identical");
    let table = String::from_utf8_lossy(&a.stdout).into_owned();
    assert!(table.contains("analytic vs interpreted"), "{table}");
    assert!(table.contains("AlexNet"), "{table}");
    assert!(table.contains("DCGAN"), "{table}");
    assert!(table.contains("within bound"), "{table}");
    assert!(!table.contains("OUT OF BOUND"), "{table}");
}
