//! The benchmark's own test: `perfbench --smoke` runs every workload
//! once at a tiny scale, untraced and traced, and fails unless every
//! metric is present with its unit and no operation failed.

use std::process::Command;

#[test]
fn smoke_mode_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nosuch"][..], &["--seconds", "1"], &["--workload"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
