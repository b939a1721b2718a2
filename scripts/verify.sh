#!/usr/bin/env bash
# CI entrypoint: full offline build + test sweep.
#
# The workspace has a zero-dependency policy (see DESIGN.md): everything
# must build from a clean checkout with an empty cargo registry cache and
# no network. `--offline` makes any accidental crates.io dependency a
# hard failure here, and tests/hermetic.rs makes it a test failure too.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace is rustfmt-clean: a change that is not fails here, before
# anything is built. (`benchmark/` is its own workspace and is not
# covered by `--all`.)
echo "== cargo fmt --check =="
cargo fmt --all --check

# The workspace is clippy-clean on every target (libraries, binaries,
# tests, examples): a warning anywhere fails here.
echo "== cargo clippy (warnings denied) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

cargo build --release --offline
cargo test -q --offline

# Doc comments link to the names they describe; a refactor that deletes
# or renames one must not leave the link dangling, and a link spells its
# target out only where the label alone would not resolve.
echo "== rustdoc intra-doc links (every workspace crate) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::redundant_explicit_links" cargo doc --offline --no-deps -q --workspace

# Re-run, at both extremes of the hermes-pool width — fully
# inline/sequential and heavily oversubscribed (the CI box has few
# cores) — the suites whose behaviour depends on the width: the pool
# itself, the engine and serving crates that fan out on it, and the
# root suites that pin pooled paths bit-identical to sequential ones;
# the index crate, whose scan keeps its scratch per thread (the
# row-plan suites: plans across list boundaries, queries scanned back to
# back on one scratch, a scan without the thread's scratch); the core
# crate's route, which keeps its coarse keys and cut per thread too (a
# thread running calls of every shape answers as a fresh thread does,
# and `alloc_budget` pins what a request allocates at `threads = 1`);
# and k-means, whose sweep fans out over row
# blocks (the full-sweep oracle suites, and the published store image
# pinned in `determinism`). Both sweeps must pass with no goldens
# re-tuned.
for threads in 1 16; do
    echo "== re-running width-dependent suites with HERMES_THREADS=${threads} =="
    HERMES_THREADS="${threads}" cargo test -q --offline \
        -p hermes-pool -p hermes-kmeans -p hermes-index -p hermes-core -p hermes-serve
    HERMES_THREADS="${threads}" cargo test -q --offline -p hermes \
        --test engine_equivalence --test serving_equivalence \
        --test adaptive_cache_equivalence --test mutation_equivalence \
        --test determinism --test trace_validation --test alloc_budget
done

# Re-run, at both ends of the SIMD dispatch ladder — whatever the host
# CPU supports (auto) and the portable scalar reference — the suites
# that depend on the dispatch level: the kernels, the codecs and indices
# built on them, and the root suites that pin the two-tier equivalence
# contract (DESIGN.md): quantized scoring to identical bits at every
# level and segmentation (the segment-kernel grids in hermes-math /
# hermes-quant / simd_differential and the row-plan oracles in
# hermes-index), f32 scoring to a 256-ULP envelope, engine and serving
# paths to each other (coalesced batches included); the SQ8 scan
# filter, whose survivor masks come from a per-level kernel that
# compares each row's integer sum with the floor where it makes it (the
# bound proptests in hermes-quant, the filtered row plans in
# hermes-index, `properties`, the no-bound row of `edge_cases`, and
# `mutation_equivalence`, whose churned lists take the filtered walk);
# the coarse pass, whose kernel writes the probe keys itself; and
# k-means, whose sweep kernel dispatches on the level (incremental
# trainer vs full-sweep oracle, bit for bit). No re-tuning at either
# level.
for simd in auto scalar; do
    echo "== re-running dispatch-dependent suites with HERMES_SIMD=${simd} =="
    HERMES_SIMD="${simd}" cargo test -q --offline \
        -p hermes-math -p hermes-kmeans -p hermes-quant -p hermes-index
    HERMES_SIMD="${simd}" cargo test -q --offline -p hermes \
        --test simd_differential --test properties --test engine_equivalence \
        --test serving_equivalence --test edge_cases --test mutation_equivalence
done

# The repo benchmark compiles against the public API from outside the
# workspace; its own contract check (unit tests, then all four
# workloads in --smoke, plain and traced) makes API drift fail here
# rather than in the benchmark pipeline.
echo "== benchmark/check.sh =="
benchmark/check.sh

# The kernel suites again under the real optimizer flags: the two-tier
# contract (blocked vs scalar kernels, per-code vs segment scoring, the
# cross-level ULP bound) must hold in release builds too, where the
# suites above only run at test opt levels. `hermes-index` rides along:
# its scans consume the per-level survivor-mask kernel, and a floored
# scan gates every chunk with it. Once at the host dispatch level and
# once pinned to scalar, to cover both sides of the dispatch.
for simd in auto scalar; do
    echo "== kernel suites (release, HERMES_SIMD=${simd}) =="
    HERMES_SIMD="${simd}" cargo test --release -q --offline -p hermes-math -p hermes-quant \
        -p hermes-index
    HERMES_SIMD="${simd}" cargo test --release -q --offline -p hermes \
        --test simd_differential --test properties
done

# Table 1 and every deterministic figure pinned to the byte: `table1`
# builds an IVF index per codec over a fixed-seed corpus; `fig04` builds
# an IVF-SQ8 and an HNSW index over one, picks each one's operating
# point and projects both to 10B tokens; `fig11` runs the paper's routing
# ablation (document sampling, centroid ranking, unranked) over
# fixed-seed stores, and `fig12`, `fig13` and `fig18` run document
# sampling over other sample and deep depths, splits and deep-cluster
# counts. Figures 5–8, 14, 16, 17 and 19–21 (the pipeline, energy, DVFS
# and platform projections) and Figure 10 (the k-means seed sweep and
# the pipeline gap) are pinned the same way.
# None of their outputs depends on the pool width or the dispatch level,
# so every file each binary writes must be exactly the committed one in
# bench_results/ — once at the host defaults, once at width 1 on the
# scalar kernels — except `fig04_measured.md`, whose latency and QPS are
# wall-clock readings.
# `fig04` adds ≈ 30 s and ≈ 60 s to the two passes, the projection
# figures ≈ 1 s together: each of their twenty-two runs, `cargo run`
# included, takes 33–101 ms (2-vCPU VM).
for bin in table1 fig04 fig05 fig06 fig07 fig08 fig10 fig11 fig12 fig13 fig14 fig16 fig17 \
    fig18 fig19 fig20 fig21; do
    echo "== ${bin} matches its bench_results/ files (release) =="
    for env in "" "HERMES_THREADS=1 HERMES_SIMD=scalar"; do
        bin_out="$(mktemp -d)"
        # shellcheck disable=SC2086
        env ${env} HERMES_BENCH_OUT="${bin_out}" \
            cargo run -p hermes-bench --release --offline --quiet --bin "${bin}" >/dev/null
        for out in "${bin_out}"/*; do
            name="$(basename "${out}")"
            [[ "${name}" == fig04_measured.md ]] && continue
            diff "bench_results/${name}" "${out}"
        done
        rm -rf "${bin_out}"
    done
done

# Traced-workload smoke: `hermes trace` runs a batch hierarchical search
# with telemetry off then on, errors out unless the results are
# bit-identical, and re-parses its own Chrome trace JSON before writing
# it. A second pass at width 1 pins the inline (no-worker) path.
echo "== hermes trace smoke (release) =="
trace_out="$(mktemp -d)"
trap 'rm -rf "${trace_out}"' EXIT
cargo run -p hermes --release --offline --quiet --bin hermes -- \
    trace --docs 4000 --dim 32 --queries 16 --out "${trace_out}/trace.json"
test -s "${trace_out}/trace.json"
HERMES_THREADS=1 cargo run -p hermes --release --offline --quiet --bin hermes -- \
    trace --docs 4000 --dim 32 --queries 16 --out "${trace_out}/trace_w1.json"
test -s "${trace_out}/trace_w1.json"

# Registry smoke: plain `hermes stats` runs the same workload as
# coalesced batches, folds its trace snapshot into the metrics registry
# and prints the registry's tables; the greps pin the span-duration fold
# (an `engine.execute` distribution row) and the shard-scan arg sums (the
# deep stage's scanned codes). A second pass at width 1 pins the inline
# path.
echo "== hermes stats smoke (release) =="
stats_smoke() {
    local out
    out="$(env "$@" cargo run -p hermes --release --offline --quiet --bin hermes -- \
        stats --docs 4000 --dim 32 --queries 16)"
    grep -q '^span\.engine\.execute_ns ' <<<"${out}"
    grep -q '^span\.shard\.deep\.scanned_codes ' <<<"${out}"
}
stats_smoke
stats_smoke HERMES_THREADS=1

# Serving smoke: `hermes loadgen --smoke` drives the serving layer with
# a closed-loop then an open-loop workload and errors out unless every
# batched/coalesced completion is bit-identical to a standalone
# `Engine::execute` of the same query. A second pass at width 1 pins the
# inline path.
echo "== hermes loadgen smoke (release) =="
cargo run -p hermes --release --offline --quiet --bin hermes -- loadgen --smoke
HERMES_THREADS=1 cargo run -p hermes --release --offline --quiet --bin hermes -- loadgen --smoke

# Churn smoke: `hermes loadgen --smoke --churn` drives a live store
# through inserts/removes/queries while the incremental rebalancer swaps
# generations underneath the server, and errors out unless the live
# store is bit-identical (paged image bytes) to an offline stop-the-world
# twin at every generation boundary. A second pass at width 1 pins the
# inline dispatch path.
echo "== hermes loadgen churn smoke (release) =="
cargo run -p hermes --release --offline --quiet --bin hermes -- loadgen --smoke --churn
HERMES_THREADS=1 cargo run -p hermes --release --offline --quiet --bin hermes -- \
    loadgen --smoke --churn

# Persistence round trip through the CLI: build writes a paged (HPGS)
# snapshot via the atomic tmp+rename path, info/search cold-load it in a
# separate process. `search` failing to find anything would exit nonzero.
echo "== hermes build/info/search round trip (release) =="
store_out="$(mktemp -d)"
cargo run -p hermes --release --offline --quiet --bin hermes -- \
    build --docs 4000 --dim 32 --clusters 6 --out "${store_out}/store.hpgs"
cargo run -p hermes --release --offline --quiet --bin hermes -- \
    info --store "${store_out}/store.hpgs"
cargo run -p hermes --release --offline --quiet --bin hermes -- \
    search --store "${store_out}/store.hpgs" --query "paged store smoke" --k 3
rm -rf "${store_out}"

# The adaptive-depth and semantic-cache contracts through the CLI,
# cache/adaptive on and off: `stats
# --cache/--adaptive` replays a Zipf-repeated stream and errors out
# unless completions match standalone execution (up to accounted
# semantic hits). Width 1 pins the inline dispatch path.
echo "== hermes stats cache/adaptive smoke (release) =="
cargo run -p hermes --release --offline --quiet --bin hermes -- \
    stats --cache --adaptive --docs 4000 --dim 32 --clusters 6 --queries 12 --requests 120
HERMES_THREADS=1 cargo run -p hermes --release --offline --quiet --bin hermes -- \
    stats --adaptive --docs 4000 --dim 32 --clusters 6 --queries 12 --requests 60
HERMES_THREADS=1 cargo run -p hermes --release --offline --quiet --bin hermes -- \
    stats --cache --docs 4000 --dim 32 --clusters 6 --queries 12 --requests 60

# Request-observability smoke: `hermes report` attaches a per-request
# observer to an open-loop session and errors out unless (a) every
# served result is bit-identical to standalone engine execution with the
# observer on, (b) every timeline is balanced (phases sum to sojourn),
# and (c) the flight-recorder dump and the Prometheus-style text
# exposition both re-parse cleanly before being written. The file checks
# below re-assert the artifacts landed; the second `report` re-runs the
# same bars with an explicit SLO target at pool width 1.
echo "== hermes report obs smoke (release) =="
obs_out="$(mktemp -d)"
cargo run -p hermes --release --offline --quiet --bin hermes -- \
    report --docs 4000 --dim 32 --clusters 6 --requests 120 --qps 4000 \
    --metrics-path "${obs_out}/metrics.txt" --recorder-path "${obs_out}/flight.txt"
test -s "${obs_out}/metrics.txt"
test -s "${obs_out}/flight.txt"
grep -q '^hermes_obs_requests_completed_total' "${obs_out}/metrics.txt"
grep -q '^hermes_slo_burn_rate' "${obs_out}/metrics.txt"
grep -q '^# hermes flight recorder' "${obs_out}/flight.txt"
grep -q 'phases queue_wait=' "${obs_out}/flight.txt"
HERMES_THREADS=1 cargo run -p hermes --release --offline --quiet --bin hermes -- \
    report --docs 4000 --dim 32 --clusters 6 --requests 60 --qps 4000 --slo-us 500
rm -rf "${obs_out}"
