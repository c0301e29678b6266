#!/bin/sh
# Tier-1 verify, fully offline. The workspace has zero external
# dependencies (tests/hermetic.rs enforces it), so `--offline` must
# succeed from a clean checkout with no registry and no network.
set -eux

# Mutation net, needles only (no build): every mutant in mutants/list.txt
# must still apply, so code that moves a needle fails here instead of
# silently disarming its mutant. The full run (`mutants/run.sh`, every
# mutant built and tested) is on demand.
sh mutants/run.sh --check

cargo build --release --offline
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
# Every workspace crate's docs, not only the root package's.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

# Scenario/Engine smoke: a 4-core lock-step co-simulation must complete
# end to end and agree with the event-driven engine (ext_lockstep hands
# the same Scenario to both engines at 1/2/4 cores and asserts identical
# makespans, classifications and counters).
NCPU_TRACE=off cargo run --release --offline -p ncpu-bench --bin paper ext_lockstep

# Paper byte gate: the whole `paper` run (all 25 experiments, every
# trained model included) must print exactly the committed
# paper_output.txt. Unpinned on a shared 2-CPU host it took 39-49 s.
PAPER_DIR=target/paper-ci
rm -rf "$PAPER_DIR"
mkdir -p "$PAPER_DIR"
NCPU_TRACE=off cargo run --release --offline -p ncpu-bench --bin paper > "$PAPER_DIR/actual.txt"
cmp paper_output.txt "$PAPER_DIR/actual.txt"

# Observability smoke: a fully traced end-to-end run must emit RUN_/TRACE_
# artifacts that the in-tree checker accepts (unknown event kinds and
# out-of-order lane timestamps fail).
OBS_DIR=target/obs-ci
rm -rf "$OBS_DIR"
NCPU_TRACE=full NCPU_TRACE_DIR="$OBS_DIR" \
    cargo run --release --offline --example image_classification 2
cargo run --release --offline -p ncpu-obs --bin trace_check -- \
    --summary "$OBS_DIR"/RUN_image.json "$OBS_DIR"/TRACE_image.json

# Fault-injection smoke: a seeded four-core faulty image scenario runs
# through both SoC engines; the example itself asserts nonzero
# injection/detection/recovery counters and byte-identical lockstep and
# event reports, then reruns the batch under a 3,000-cycle watchdog
# that aborts items mid-flight and asserts identical reports and
# counters on both engines; its traced artifacts (fault instants
# included) must pass the checker. The FaultPlan::none() byte-neutrality gate is
# tests/golden_equivalence.rs in the workspace suite above.
FAULT_DIR=target/obs-fault-ci
rm -rf "$FAULT_DIR"
NCPU_TRACE=full NCPU_TRACE_DIR="$FAULT_DIR" \
    cargo run --release --offline --example fault_injection
cargo run --release --offline -p ncpu-obs --bin trace_check -- \
    --summary "$FAULT_DIR"/RUN_fault.json "$FAULT_DIR"/TRACE_fault.json

# Self-profile smoke: with NCPU_SELFPROF=1 the paper binary must emit a
# non-empty collapsed-stack profile whose visits weighting (a pure
# function of the workload) is byte-identical across two runs.
PROF_DIR_A=target/selfprof-ci-a
PROF_DIR_B=target/selfprof-ci-b
rm -rf "$PROF_DIR_A" "$PROF_DIR_B"
NCPU_SELFPROF=1 NCPU_THREADS=1 NCPU_TRACE=off NCPU_TRACE_DIR="$PROF_DIR_A" \
    cargo run --release --offline -p ncpu-bench --bin paper ext_lockstep > /dev/null
NCPU_SELFPROF=1 NCPU_THREADS=1 NCPU_TRACE=off NCPU_TRACE_DIR="$PROF_DIR_B" \
    cargo run --release --offline -p ncpu-bench --bin paper ext_lockstep > /dev/null
test -s "$PROF_DIR_A"/PROF_paper.folded
test -s "$PROF_DIR_A"/PROF_paper.visits.folded
cmp "$PROF_DIR_A"/PROF_paper.visits.folded "$PROF_DIR_B"/PROF_paper.visits.folded

# Determinism under the parallel execution layer: the full determinism
# suite must pass serially and with a 4-worker pool.
NCPU_THREADS=1 cargo test -q --offline --test determinism
NCPU_THREADS=4 cargo test -q --offline --test determinism

# Engine equivalence: the event-driven engine must be byte-identical to
# the lock-step reference on the fuzzed Scenario matrix (256 seeded,
# shrinking cases), serially and under a 4-worker pool.
NCPU_THREADS=1 cargo test -q --offline --test engine_differential
NCPU_THREADS=4 cargo test -q --offline --test engine_differential

# Event-driven 4-core smoke: the fast engine end to end at the widest
# core count, traced, against the lock-step makespan.
NCPU_TRACE=off cargo run --release --offline --example engine_matrix 4

# Heterogeneous-fabric smoke: a mixed-role 4-core fleet (reconfigurable
# + undervolted + fixed BNN + CPU-only, asymmetric L2 banks) through the
# lockstep/event twins (byte-equality asserted in-example) and a deep
# model on the event engine (segment placement asserted).
NCPU_TRACE=off cargo run --release --offline --example topology_matrix

# Fleet-service smoke: 10 scenario requests over stdin, of which 5 are
# content-addressed duplicates (field order, nesting, an explicit
# engine pin inside the byte-identical lockstep/event pair, and a
# "topology" block of two default cores in place of "cores":2 all
# canonicalize away), plus one request that must fail with a typed
# error (a topology on the hetero baseline). A per-core operating point
# is semantic, so that topology request is a miss. The stats line must
# show exactly 5 hits, 5 misses and 1 error; the duplicated reports
# must be byte-identical to their fresh twins; every artifact the
# service wrote must satisfy trace_check; and the same lines served
# again without --artifacts must give a byte-identical transcript (the
# artifact sink never changes served bytes).
SERVE_DIR=target/serve-ci
rm -rf "$SERVE_DIR"
SERVE_IN="$SERVE_DIR/requests.jsonl"
SERVE_OUT="$SERVE_DIR/transcript.jsonl"
mkdir -p "$SERVE_DIR"
cat > "$SERVE_IN" <<'EOF'
{"cpu_fraction":0.25,"batch":2,"cores":1}
{"cpu_fraction":0.75,"batch":4,"cores":2}
{"scenario":{"batch":2,"cores":1,"cpu_fraction":0.25}}
{"workload":"image","batch":4,"train_per_class":2,"epochs":1}
{"cpu_fraction":0.75,"batch":4,"cores":2,"engine":"lockstep"}
{"system":"hetero","cpu_fraction":0.5,"batch":2}
{"workload":"image","batch":4,"train_per_class":2,"epochs":1}
{"system":"hetero","cpu_fraction":0.5,"batch":2,"engine":"analytic"}
{"cpu_fraction":0.75,"batch":4,"topology":{"cores":[{},{}]}}
{"cpu_fraction":0.75,"batch":4,"topology":{"cores":[{},{"operating_point":0.7}]}}
{"system":"hetero","topology":{"cores":[{}]}}
{"op":"stats"}
{"op":"shutdown"}
EOF
cargo run --release --offline --bin ncpu -- serve --artifacts "$SERVE_DIR/artifacts" \
    < "$SERVE_IN" > "$SERVE_OUT"
cargo run --release --offline --bin ncpu -- serve < "$SERVE_IN" > "$SERVE_DIR/transcript_plain.jsonl"
cmp "$SERVE_OUT" "$SERVE_DIR/transcript_plain.jsonl"
grep -q '"serve.cache.hits":5' "$SERVE_OUT"
grep -q '"serve.cache.misses":5' "$SERVE_OUT"
grep -q '"serve.cache.evictions":0' "$SERVE_OUT"
grep -q '"serve.errors":1' "$SERVE_OUT"
# Lines 4 and 7 are one image training config: the fleet trains once.
grep -q '"serve.models_trained":1' "$SERVE_OUT"
# Every NCPU request without an engine pin routes to the event engine,
# trained image batches included (line 4 is the auto-routed image miss).
sed -n 4p "$SERVE_OUT" | grep -q '"engine":"event"'
# Duplicate pairs (1,3), (2,5), (4,7), (6,8), (2,9) must serve identical
# report bytes.
for pair in "1 3" "2 5" "4 7" "6 8" "2 9"; do
    fresh=$(echo "$pair" | cut -d' ' -f1)
    dup=$(echo "$pair" | cut -d' ' -f2)
    sed -n "${fresh}p" "$SERVE_OUT" | sed 's/.*"report"://' > "$SERVE_DIR/fresh.json"
    sed -n "${dup}p" "$SERVE_OUT" | sed 's/.*"report"://' > "$SERVE_DIR/dup.json"
    cmp "$SERVE_DIR/fresh.json" "$SERVE_DIR/dup.json"
done
cargo run --release --offline -p ncpu-obs --bin trace_check -- \
    --summary "$SERVE_DIR"/artifacts/RUN_serve_*.json

# End-to-end benchmark: servebench is a package of its own (outside the
# workspace, so the workspace build, tests and clippy above skip it).
# Build, lint and test it, then serve a 2 s stream of each workload and
# require each summary (the last line) to report zero failed requests.
cargo build --release --offline --manifest-path servebench/Cargo.toml
cargo clippy --offline --manifest-path servebench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path servebench/Cargo.toml
for workload in trained_cold steady_sweep repeat_mix; do
    cargo run --quiet --release --offline --manifest-path servebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 \
        > "$SERVE_DIR/servebench_$workload.txt"
    tail -n 1 "$SERVE_DIR/servebench_$workload.txt" | grep -q '"failed": 0'
done

# Benchmark artifacts: short samples keep CI fast; the JSON schema and
# the parallel byte-identity assertion are what this gate checks, not
# the absolute timings. The harness writes into the package dir (cargo
# bench cwd); surface the reports at the repo root so runs can be diffed.
# The wall-clock suites run pinned to one CPU where taskset exists: every
# baseline in baselines/ was recorded at host_parallelism 1, and a report
# from a wider host shape is one bench_diff refuses to compare (rc 4).
# The bench binaries are built unpinned first, so pinning slows only the
# measured runs.
PIN=""
if command -v taskset > /dev/null; then
    PIN="taskset -c 0"
fi
cargo bench --offline -p ncpu-bench --no-run
NCPU_BENCH_SAMPLES=3 NCPU_BENCH_SAMPLE_MS=5 \
    $PIN cargo bench --offline -p ncpu-bench --bench micro
NCPU_BENCH_SAMPLES=3 NCPU_BENCH_SAMPLE_MS=5 \
    $PIN cargo bench --offline -p ncpu-bench --bench parallel
NCPU_BENCH_SAMPLES=3 NCPU_BENCH_SAMPLE_MS=5 \
    $PIN cargo bench --offline -p ncpu-bench --bench event
NCPU_BENCH_SAMPLES=3 NCPU_BENCH_SAMPLE_MS=5 \
    $PIN cargo bench --offline -p ncpu-bench --bench serve
NCPU_BENCH_SAMPLES=3 NCPU_BENCH_SAMPLE_MS=5 \
    cargo bench --offline -p ncpu-bench --bench topology
mv crates/bench/BENCH_micro.json crates/bench/BENCH_parallel.json \
    crates/bench/BENCH_event.json crates/bench/BENCH_serve.json \
    crates/bench/BENCH_topology.json .

# Perf regression gate: fresh wall-clock medians against the committed
# baselines in baselines/, every wall-clock suite in ONE bench_diff
# invocation so a run that regresses several suites reports all of them
# at once. The loose tolerance absorbs the wall-clock noise of tiny
# sample counts on a loaded shared host — the gate exists to catch
# order-of-magnitude regressions, not percent drift; the self-test below
# proves it still bites at 20% on clean data. Exit code 4 (some pair
# refused to compare because the host shape differs from the baseline
# machine, and no pair that did compare regressed) is tolerated: there
# the comparison would be meaningless. With the suites pinned above it
# arises only on a host without taskset.
rc=0
cargo run --release --offline -p ncpu-obs --bin bench_diff -- \
    --tolerance 2.0 \
    baselines/BENCH_micro.json BENCH_micro.json \
    baselines/BENCH_parallel.json BENCH_parallel.json \
    baselines/BENCH_event.json BENCH_event.json \
    baselines/BENCH_serve.json BENCH_serve.json || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
    echo "bench_diff: perf regression gate failed (rc=$rc)" >&2
    exit "$rc"
fi
# The topology suite's rows are deterministic model metrics (cycles, nJ,
# um2), not wall time: no row may grow at all, on any host shape.
cargo run --release --offline -p ncpu-obs --bin bench_diff -- \
    --tolerance 0 --allow-host-mismatch \
    baselines/BENCH_topology.json BENCH_topology.json
# The gate must demonstrably fail on an injected 20% regression.
for suite in micro parallel event serve topology; do
    cargo run --release --offline -p ncpu-obs --bin bench_diff -- \
        --self-test "BENCH_$suite.json"
done
