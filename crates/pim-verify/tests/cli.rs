//! CLI contract tests for the `pim-verify` binary: malformed arguments
//! fail with a structured message on the shared usage-error exit code
//! (2, reserving 1 for error-severity findings), and the fault-replay
//! and order-fuzz flags work end-to-end.

use std::process::{Command, Output};

fn pim_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pim-verify"))
        .args(args)
        .output()
        .expect("pim-verify spawns")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_fault_flags_fail_with_structured_messages() {
    let cases: [(&[&str], &str); 4] = [
        (&["--faults", "1"], "expects SEED,RATE"),
        (&["--faults", "x,0.1"], "expects SEED,RATE"),
        (&["--faults", "1,abc"], "expects SEED,RATE"),
        (&["--faults", "1,5.0"], "must be in [0, 1]"),
    ];
    for (args, needle) in cases {
        let out = pim_verify(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn malformed_order_flags_fail_with_structured_messages() {
    let cases: [(&[&str], &str); 3] = [
        (&["--orders", "4"], "expects N,SEED"),
        (&["--orders", "x,1"], "expects N,SEED"),
        (&["--orders", "0,1"], "at least one permutation"),
    ];
    for (args, needle) in cases {
        let out = pim_verify(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_model_and_argument_fail() {
    let out = pim_verify(&["--model", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown model `nope`"));

    let out = pim_verify(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown argument `--frobnicate`"));
}

#[test]
fn faulted_replay_of_one_model_is_clean() {
    let out = pim_verify(&["--model", "alexnet", "--steps", "1", "--faults", "3,0.1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("0 error(s)"));
}

#[test]
fn order_fuzz_of_one_model_is_clean() {
    let out = pim_verify(&["--model", "alexnet", "--steps", "1", "--orders", "2,1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("0 error(s)"));
}

#[test]
fn isa_flag_rejects_an_operand_like_any_unknown_argument() {
    // `--isa` takes no operand; a stray value is an unknown argument on
    // the shared usage-error exit code.
    let out = pim_verify(&["--isa", "whole"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown argument `whole`"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn isa_pass_on_one_model_is_clean_and_stable() {
    let args = &["--model", "alexnet", "--steps", "1", "--isa"];
    let a = pim_verify(args);
    assert_eq!(a.status.code(), Some(0), "{}", stderr(&a));
    assert!(stderr(&a).contains("0 error(s)"));
    let b = pim_verify(args);
    assert_eq!(a.stdout, b.stdout, "isa pass output must be stable");
}

#[test]
fn nan_fault_rate_is_outside_the_range() {
    let out = pim_verify(&["--faults", "1,NaN"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("must be in [0, 1], got NaN"), "{err}");
    assert!(out.stdout.is_empty());
}
