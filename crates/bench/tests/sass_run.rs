//! End-to-end tests of the `sass-run` binary: the `--trace N` listing
//! format, and clean non-zero exits on bad input.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write `source` to a kernel file under the test scratch directory.
fn kernel_file(name: &str, source: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, source).unwrap();
    path
}

fn sass_run(kernel: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sass-run")).arg(kernel).args(args).output().unwrap()
}

const SHFL_KERNEL: &str = "\
.kernel traced
    S2R.LaneId R0
    MOV R2, 0x7
    SHFL.IDX R1, R0, 0x0
    EXIT
";

#[test]
fn trace_lists_the_first_n_retired_instructions() {
    let kernel = kernel_file("traced.sass", SHFL_KERNEL);
    let out = sass_run(&kernel, &["--grid", "2", "--trace", "163"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listing: Vec<&str> = stdout.lines().filter(|l| l.starts_with('[')).collect();
    assert_eq!(listing.len(), 163, "{stdout}");
    // Scalar instructions name block, thread and pc; warp-wide ones (SHFL)
    // name the global warp. Lanes take turns, one instruction each.
    assert_eq!(listing[0], "[     0] b0 t0   /*0000*/ S2R.LaneId R0");
    assert_eq!(listing[33], "[    33] b0 t1   /*0001*/ MOV R2, 0x7");
    assert_eq!(listing[64], "[    64] warp0   SHFL.IDX R1, R0, 0x0");
    assert_eq!(listing[65], "[    65] b0 t0   /*0003*/ EXIT");
    assert_eq!(listing[161], "[   161] warp1   SHFL.IDX R1, R0, 0x0");
    assert_eq!(listing[162], "[   162] b1 t0   /*0003*/ EXIT");
    assert!(stdout.contains("completed: 194 dynamic instructions"), "{stdout}");

    let quiet = sass_run(&kernel, &["--grid", "2"]);
    let quiet = String::from_utf8(quiet.stdout).unwrap();
    assert!(!quiet.lines().any(|l| l.starts_with('[')), "{quiet}");
}

#[test]
fn bad_input_exits_with_status_two_without_panicking() {
    let traced = kernel_file("exits.sass", SHFL_KERNEL);
    let mma = kernel_file("mma.sass", ".kernel mma\n    HMMA R8, R0, R4, R8\n    EXIT\n");
    let cases: [(&PathBuf, &[&str]); 9] = [
        (&traced, &["--block", "0"]),
        (&traced, &["--grid"]),
        (&traced, &["--grid", "two"]),
        (&traced, &["--trace", "-1"]),
        (&traced, &["--dump", "0"]),
        (&traced, &["--dump", "0", "8192"]),
        (&traced, &["--param", "0xZZ"]),
        (&traced, &["--bogus"]),
        (&mma, &["--block", "16"]),
    ];
    for (kernel, args) in cases {
        let out = sass_run(kernel, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("sass-run: "), "{args:?}: {stderr}");
    }
    // A whole warp runs the same MMA kernel to completion.
    assert!(sass_run(&mma, &["--block", "32"]).status.success());
    // The usage line names every flag.
    let usage = Command::new(env!("CARGO_BIN_EXE_sass-run")).output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&usage.stderr);
    for flag in
        ["--device", "--grid", "--block", "--mem", "--param", "--dump", "--trace", "--trace-out"]
    {
        assert!(usage.contains(flag), "{usage}");
    }
}
