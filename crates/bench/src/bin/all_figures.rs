//! Runs every table/figure reproduction in sequence and collects the
//! reports under `bench_results/`.
//!
//! ```text
//! cargo run -p hermes-bench --release --bin all_figures
//! ```

use std::process::Command;

const BINS: &[&str] = &[
    "table1",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "ext_tail_latency",
    "ext_intra_query",
    "ext_serving",
    "ext_persist",
    "ext_adaptive",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in BINS {
        println!("\n=============== {bin} ===============");
        let path = dir.join(bin);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo when siblings weren't built yet.
            Command::new("cargo")
                .args([
                    "run",
                    "-p",
                    "hermes-bench",
                    "--release",
                    "--quiet",
                    "--bin",
                    bin,
                ])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failed.push(*bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to launch: {e}");
                failed.push(*bin);
            }
        }
    }
    if failed.is_empty() {
        println!("\nall figures reproduced; reports in bench_results/");
    } else {
        eprintln!("\nfailed: {failed:?}");
        std::process::exit(1);
    }
}
