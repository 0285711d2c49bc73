//! The bench binaries take one flag, `--smoke`; anything else is
//! refused before any work starts.

use std::process::Command;

#[test]
fn bench_binaries_refuse_any_argument_but_smoke() {
    for args in [&["--quick"][..], &["--smoke", "--quick"], &["smoke"]] {
        let status = Command::new(env!("CARGO_BIN_EXE_bench_batch"))
            .args(args)
            .output()
            .expect("bench_batch runs")
            .status;
        assert_eq!(status.code(), Some(2), "bench_batch {args:?}");
    }
}
