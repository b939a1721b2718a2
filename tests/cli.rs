//! The `hermes` CLI reports a bad flag value as an `error:` line and
//! exit code 1 instead of panicking in the library assert behind it.
//! Every case below is rejected where the binary reads its flags, before
//! any corpus is generated.

use std::process::Command;

/// Flag sets that name a zero count or a non-finite or non-positive rate.
const BAD_FLAGS: &[&[&str]] = &[
    &["eval", "--docs", "0"],
    &["eval", "--dim", "0"],
    &["eval", "--topics", "0"],
    &["stats", "--queries", "0"],
    &["stats", "--cache", "--requests", "0"],
    &["report", "--requests", "0"],
    &["report", "--qps", "nan"],
    &["report", "--qps", "inf"],
    &["report", "--qps", "0"],
    &["report", "--max-batch", "0"],
    &["report", "--capacity", "0"],
    &["loadgen", "--requests", "0"],
    &["loadgen", "--users", "0"],
    &["plan", "--tokens", "1000000", "--batch", "0"],
    &["plan", "--tokens", "1000000", "--nprobe", "0"],
];

#[test]
fn bad_flag_values_exit_1_with_an_error_line() {
    for args in BAD_FLAGS {
        let out = Command::new(env!("CARGO_BIN_EXE_hermes"))
            .args(*args)
            .output()
            .expect("the hermes binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    }
}
