#!/usr/bin/env bash
# Contract check for the benchmark: unit tests, then all four workloads
# in --smoke, plain and traced, with the final JSON line and the trace
# file re-parsed (hermes_trace::json) and every BENCHMARK.json name
# required to be printed with its unit. Run from anywhere; seconds-scale
# after the first build.
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo test --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- --self-check
