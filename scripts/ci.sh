#!/usr/bin/env bash
# The repo's CI gate: everything here must pass before merging.
# Runs fully offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --all-targets"
# Benches, examples, and every bin — the figure binaries must never rot.
cargo build --release --all-targets

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> determinism smoke: run --quick --trials 6 at --jobs 1 vs --jobs 4"
# The parallel runner's core contract: worker count must not change a
# single output byte. Compare per-trial CSV rows and merged telemetry.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
run_bin=target/release/run
"$run_bin" --quick --trials 6 --jobs 1 --quiet --csv \
    --telemetry-out "$tmpdir/t1.jsonl" > "$tmpdir/out1.csv"
"$run_bin" --quick --trials 6 --jobs 4 --quiet --csv \
    --telemetry-out "$tmpdir/t4.jsonl" > "$tmpdir/out4.csv"
diff -u "$tmpdir/out1.csv" "$tmpdir/out4.csv"
diff -u "$tmpdir/t1.jsonl" "$tmpdir/t4.jsonl"

echo "==> epoch-len-zero regression: run --quick --epoch-len 0 must be rejected"
# A zero epoch length used to silently drop every telemetry event; the
# harness must refuse it up front (usage error, exit 2) instead.
if "$run_bin" --quick --epoch-len 0 --quiet > /dev/null 2>&1; then
    echo "run accepted --epoch-len 0" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "run rejected --epoch-len 0 with the wrong exit code" >&2
    exit 1
fi

echo "==> machine-equivalence smoke: repeatability across envs and job counts"
# The unified Machine driver must be stable run-to-run and across worker
# counts for every environment family (native, nested, direct modes,
# shadow). The full byte-identical proof against the pre-refactor fixture
# lives in tests/tests/machine_equiv.rs; this smoke re-checks the live
# binary end to end.
for env in native ds 4k+2m vd dd shadow; do
    "$run_bin" --quick --env "$env" --trials 2 --jobs 1 --quiet --csv \
        > "$tmpdir/env1.csv"
    "$run_bin" --quick --env "$env" --trials 2 --jobs 1 --quiet --csv \
        > "$tmpdir/env1b.csv"
    "$run_bin" --quick --env "$env" --trials 2 --jobs 4 --quiet --csv \
        > "$tmpdir/env4.csv"
    diff -u "$tmpdir/env1.csv" "$tmpdir/env1b.csv"
    diff -u "$tmpdir/env1.csv" "$tmpdir/env4.csv"
done

echo "==> L2 smoke: 3-level stack determinism, gups --quick at --jobs 1/4"
# The nested-nested machine walks a 3-deep layer stack; the 3D walker
# must be exactly as deterministic as the 2-level machines it grew from.
for env in l2; do
    "$run_bin" --quick --env "$env" --workload gups --trials 2 --jobs 1 \
        --quiet --csv > "$tmpdir/env1.csv"
    "$run_bin" --quick --env "$env" --workload gups --trials 2 --jobs 1 \
        --quiet --csv > "$tmpdir/env1b.csv"
    "$run_bin" --quick --env "$env" --workload gups --trials 2 --jobs 4 \
        --quiet --csv > "$tmpdir/env4.csv"
    diff -u "$tmpdir/env1.csv" "$tmpdir/env1b.csv"
    diff -u "$tmpdir/env1.csv" "$tmpdir/env4.csv"
done

echo "==> hotpath smoke: digests diffed across --jobs 1/4"
# The perf harness must report the same counter digests no matter how the
# grid stage is parallelized; --quiet suppresses all wall-clock lines so
# the outputs are byte-comparable.
hotpath_bin=target/release/hotpath
"$hotpath_bin" --smoke --jobs 1 --quiet > "$tmpdir/hot1.txt"
"$hotpath_bin" --smoke --jobs 4 --quiet > "$tmpdir/hot4.txt"
diff -u "$tmpdir/hot1.txt" "$tmpdir/hot4.txt"

echo "==> profiler-overhead leg: hotpath --quick --profile-overhead"
# Asserts every profiled run reproduces its detached digest. Digests are
# keyed by catalog index: the PAPER_10 catalog has two envs labelled
# 4K+shadow, and a label-keyed lookup compared the wrong pair.
"$hotpath_bin" --quick --profile-overhead --repeats 1 --quiet > /dev/null

echo "==> profiler smoke: run --quick --profile, two seeds, diffed across --jobs 1/4"
# Attribution profiles merge associatively, so worker count must not
# change a byte of the profile JSONL — and attaching the profiler must
# not perturb the simulation (profiled CSV rows must match unprofiled).
prof_bin=target/release/mv-prof
for seed in 7 42; do
    "$run_bin" --quick --seed "$seed" --trials 3 --jobs 1 --quiet --csv \
        --profile --telemetry-out "$tmpdir/p_${seed}_j1.jsonl" \
        > "$tmpdir/p_${seed}_j1.csv"
    "$run_bin" --quick --seed "$seed" --trials 3 --jobs 4 --quiet --csv \
        --profile --telemetry-out "$tmpdir/p_${seed}_j4.jsonl" \
        > "$tmpdir/p_${seed}_j4.csv"
    diff -u "$tmpdir/p_${seed}_j1.jsonl" "$tmpdir/p_${seed}_j4.jsonl"
    diff -u "$tmpdir/p_${seed}_j1.csv" "$tmpdir/p_${seed}_j4.csv"
    "$run_bin" --quick --seed "$seed" --trials 3 --jobs 4 --quiet --csv \
        > "$tmpdir/p_${seed}_plain.csv"
    diff -u "$tmpdir/p_${seed}_plain.csv" "$tmpdir/p_${seed}_j1.csv"
done
if cmp -s "$tmpdir/p_7_j1.jsonl" "$tmpdir/p_42_j1.jsonl"; then
    echo "profiles for seeds 7 and 42 are identical" >&2
    exit 1
fi
# mv-prof must round-trip its own exports.
"$prof_bin" show "$tmpdir/p_7_j1.jsonl" > /dev/null
"$prof_bin" fold "$tmpdir/p_7_j1.jsonl" > /dev/null
"$prof_bin" diff "$tmpdir/p_7_j1.jsonl" "$tmpdir/p_42_j1.jsonl" > /dev/null

echo "==> bench regression gate: hotpath --smoke --gate vs results/bench_history.jsonl"
# Tolerance-gated wall-clock check against the last accepted smoke-scale
# trajectory entry. The default bar is generous (CI machines vary);
# tighten or loosen with BENCH_TOL_PCT, or accept a known regression with
# BENCH_ALLOW_REGRESSION=1. A passing run appends its own entry.
"$hotpath_bin" --smoke --repeats 3 --quiet \
    --gate --gate-tol-pct "${BENCH_TOL_PCT:-30}" \
    --history results/bench_history.jsonl > /dev/null

echo "==> sampled-mode error gate: hotpath --sample, estimates within 2%"
# The sampled fast-forward leg runs every PAPER_10 env full-fidelity and
# sampled at a fixed steady-state sizing and exits 1 if any scaled
# estimate lands more than 2% from the full-fidelity counter (the bound
# EXPERIMENTS.md documents). Wall speedup is reported but not gated —
# this leg is about estimate fidelity, not CI hardware speed.
"$hotpath_bin" --smoke --repeats 2 --quiet --sample > /dev/null

echo "==> chaos smoke: two seeds x --quick, diffed across --jobs 1/4/8"
# The fault plan is a pure function of (chaos seed, access index), so the
# degradation study must be byte-identical at any worker count — and
# different seeds must actually change the injection stream. The chaos
# grid is the most irregular one the harness runs (degraded cells take
# several times longer than healthy ones), so the jobs-8 diff is the
# steal-determinism check for the work-stealing deque: with 8 workers on
# this grid, idle workers must steal, and stolen cells must still land
# in their own result slots.
chaos_bin=target/release/chaos_study
for seed in 11 42; do
    "$chaos_bin" --quick --quiet --chaos-seed "$seed" --jobs 1 \
        > "$tmpdir/chaos_${seed}_j1.txt"
    "$chaos_bin" --quick --quiet --chaos-seed "$seed" --jobs 4 \
        > "$tmpdir/chaos_${seed}_j4.txt"
    "$chaos_bin" --quick --quiet --chaos-seed "$seed" --jobs 8 \
        > "$tmpdir/chaos_${seed}_j8.txt"
    diff -u "$tmpdir/chaos_${seed}_j1.txt" "$tmpdir/chaos_${seed}_j4.txt"
    diff -u "$tmpdir/chaos_${seed}_j1.txt" "$tmpdir/chaos_${seed}_j8.txt"
done
if cmp -s "$tmpdir/chaos_11_j1.txt" "$tmpdir/chaos_42_j1.txt"; then
    echo "chaos seeds 11 and 42 produced identical output" >&2
    exit 1
fi

echo "==> adapt smoke: two seeds x --quick, diffed across --jobs 1/4, plus thrash backoff cap"
# Controller decisions are pure functions of the epoch-snapshot sequence,
# so the adaptive study (and its transition accounting) must be
# byte-identical at any worker count. The binary itself asserts the
# storm-mode headline (adaptive beats every static cell, recovery to
# Direct) and exits nonzero otherwise. The thrash leg paces sustained
# faults to keep tempting promotions into balloon denials; seed 42 is a
# forced-thrash seed (6 rollbacks) and the binary asserts the rollback
# backoff never exceeds its cap and the window budget holds.
adapt_bin=target/release/adapt_study
for seed in 11 42; do
    "$adapt_bin" --quick --quiet --chaos-seed "$seed" --jobs 1 \
        > "$tmpdir/adapt_${seed}_j1.txt"
    "$adapt_bin" --quick --quiet --chaos-seed "$seed" --jobs 4 \
        > "$tmpdir/adapt_${seed}_j4.txt"
    diff -u "$tmpdir/adapt_${seed}_j1.txt" "$tmpdir/adapt_${seed}_j4.txt"
done
if cmp -s "$tmpdir/adapt_11_j1.txt" "$tmpdir/adapt_42_j1.txt"; then
    echo "adapt seeds 11 and 42 produced identical output" >&2
    exit 1
fi
"$adapt_bin" --quick --quiet --thrash --chaos-seed 42 --jobs 4 > /dev/null

echo "==> trace smoke: record --quick, replay, diff output vs the live run"
# Record/replay fidelity end to end through the real binaries: a replay
# of a recording must reproduce the live run byte for byte (CSV and
# telemetry), at any worker count. The format itself is pinned by the
# golden fixture in tests/fixtures/trace_small.mvtr.
trace_bin=target/release/mv-trace
"$run_bin" --quick --workload gups --env 4k+4k --quiet --csv \
    --record-trace "$tmpdir/gups.mvtr" \
    --telemetry-out "$tmpdir/tr_live.jsonl" > "$tmpdir/tr_live.csv"
"$run_bin" --quick --env 4k+4k --quiet --csv \
    --replay-trace "$tmpdir/gups.mvtr" \
    --telemetry-out "$tmpdir/tr_replay.jsonl" > "$tmpdir/tr_replay.csv"
diff -u "$tmpdir/tr_live.csv" "$tmpdir/tr_replay.csv"
diff -u "$tmpdir/tr_live.jsonl" "$tmpdir/tr_replay.jsonl"
# Replayed grids keep the --jobs contract.
"$run_bin" --quick --env dd --quiet --csv --trials 3 --jobs 1 \
    --replay-trace "$tmpdir/gups.mvtr" > "$tmpdir/tr_j1.csv"
"$run_bin" --quick --env dd --quiet --csv --trials 3 --jobs 4 \
    --replay-trace "$tmpdir/gups.mvtr" > "$tmpdir/tr_j4.csv"
diff -u "$tmpdir/tr_j1.csv" "$tmpdir/tr_j4.csv"
# Sampling composes with record/replay: a trace recorded during a
# sampled run, replayed with the same spec, reproduces the live sampled
# run.
"$run_bin" --quick --workload memcached --env 4k+4k --quiet --csv \
    --sample 2000:10000:500 \
    --record-trace "$tmpdir/sampled.mvtr" > "$tmpdir/tr_s_live.csv"
"$run_bin" --quick --env 4k+4k --quiet --csv --sample 2000:10000:500 \
    --replay-trace "$tmpdir/sampled.mvtr" > "$tmpdir/tr_s_replay.csv"
diff -u "$tmpdir/tr_s_live.csv" "$tmpdir/tr_s_replay.csv"
# The trace tool validates recordings, the pinned fixture, and its own
# synthesizers.
"$trace_bin" info "$tmpdir/gups.mvtr" > /dev/null
"$trace_bin" info tests/fixtures/trace_small.mvtr > /dev/null
"$trace_bin" dump tests/fixtures/trace_small.mvtr --limit 3 > /dev/null
"$trace_bin" synth-gc "$tmpdir/gc.mvtr" --footprint 16M --records 50000 > /dev/null
"$trace_bin" synth-serving "$tmpdir/sv.mvtr" --footprint 16M --records 50000 > /dev/null
"$run_bin" --quiet --env 4k+4k --replay-trace "$tmpdir/gc.mvtr" --csv > /dev/null
"$run_bin" --quiet --env 4k+4k --replay-trace "$tmpdir/sv.mvtr" --csv > /dev/null

echo "==> markdown link check over docs"
# Every relative link in the markdown docs must resolve to a real file;
# the docs index can't rot. Offline, no tooling beyond grep/sed.
for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md; do
    dir="$(dirname "$doc")"
    # Extract ](target) link destinations; keep only relative paths.
    # (|| true: a doc with no links at all is fine.)
    { grep -o '](\([^)]*\))' "$doc" || true; } | sed 's/^](//; s/)$//' | \
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "broken link in $doc: $target" >&2
            echo broken >> "$tmpdir/link_failures"
        fi
    done
done
if [ -s "$tmpdir/link_failures" ]; then
    echo "markdown link check failed" >&2
    exit 1
fi

echo "CI OK"
