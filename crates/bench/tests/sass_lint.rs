//! End-to-end test of the `sass-lint` binary: a usage error prints the
//! usage line and exits 2, without a panic.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use std::path::PathBuf;
use std::process::{Command, Output};

fn sass_lint(kernel: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sass-lint")).arg(kernel).args(args).output().unwrap()
}

#[test]
fn usage_errors_exit_2_with_the_usage_line() {
    let kernel = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint_usage.sass");
    std::fs::write(&kernel, ".kernel clean\n    EXIT\n").unwrap();
    assert!(sass_lint(&kernel, &["--grid", "2"]).status.success());
    for args in [&["--grid", "x"][..], &["--param", "zz"], &["--grid"]] {
        let out = sass_lint(&kernel, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sass-lint"), "{args:?}: {stderr}");
    }
}
