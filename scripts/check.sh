#!/usr/bin/env bash
# Repo health gate: formatting, lints, and the tier-1 build+test suite.
#
# Usage: scripts/check.sh [--quick]
#   --quick  skip the release build (debug tests only)
#
# fmt and clippy are skipped with a warning when the components are not
# installed (offline/minimal toolchains); the tier-1 suite always runs.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

status=0

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check || status=1
else
    echo "==> rustfmt not installed; skipping format check" >&2
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings || status=1
else
    echo "==> clippy not installed; skipping lints" >&2
fi

# The public pre-Simulation run shims (Engine::run/run_nodes,
# CliqueEngine::run, run_reliable) are GONE, not deprecated: nothing in the
# tree — the engine crate included — may mention them, and no new
# `#[deprecated]` shim may appear anywhere. The raw engine constructors remain legal in exactly one
# place, the Simulation builder inside crates/congest.
echo "==> checking the removed run shims are absent everywhere"
shims='\.run_nodes\(|run_reliable\(|#\[deprecated'
if grep -rnE "$shims" \
    src tests examples crates \
    --include='*.rs' --exclude-dir=vendor --exclude-dir=target \
    2>/dev/null; then
    echo "error: a removed run shim (or a new deprecated attribute) was" \
         "reintroduced; the congest::Simulation builder is the only way in" >&2
    status=1
else
    echo "    removed run shims fully absent (no deprecated attributes either)"
fi

echo "==> checking the raw engine constructors stay inside the builder"
ctors='Engine::new\(|CliqueEngine::new\('
if grep -rnE "$ctors" \
    src tests examples \
    crates/core/src crates/commlb/src crates/lowerbounds/src \
    crates/bench/src crates/graphlib/src crates/infotheory/src \
    crates/tracetools/src \
    2>/dev/null; then
    echo "error: raw engine constructor used outside congest::Simulation;" \
         "build runs through the builder" >&2
    status=1
else
    echo "    no raw engine constructors outside congest's builder"
fi

# One run path: a run is configured only through congest::Simulation (with
# Prepared and Overrides), returns only congest::Outcome, fails only with
# congest::SimError, and reports only in the SimEvent schema. The engines
# are crate-private and read the builder's config directly, so the legacy
# result/error/trace types, the clique-only bandwidth sugar, and any public
# method (or public struct) on Engine or CliqueEngine must stay gone.
echo "==> checking the removed duplicate run surfaces are absent everywhere"
dupes='\b(TraceBuffer|TraceEvent|TraceKind|RunOutcome|CongestError|CliqueError|CliqueOutcome)\b|bandwidth_bits\(|pub struct (Clique)?Engine\b'
if grep -rnE "$dupes" src tests examples crates \
    --exclude-dir=target 2>/dev/null; then
    echo "error: a removed duplicate run surface reappeared; configure runs" \
         "through Simulation, return Outcome, fail with SimError, trace SimEvent" >&2
    status=1
elif awk '
    /^impl(<[^>]*>)? (Clique)?Engine[<[:space:]{]/ { inside = 1 }
    inside && /^}/ { inside = 0 }
    inside && /^[[:space:]]*pub fn/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }
' crates/congest/src/engine.rs crates/congest/src/cliquemodel.rs; then
    echo "error: a pub fn reappeared on Engine or CliqueEngine; the engines" \
         "take their configuration from the Simulation builder only" >&2
    status=1
else
    echo "    one configuration, result, error and event surface (no engine setters)"
fi

# One send path, one referee: the engine's three-pass reference send path
# (account_shard + stage_shard behind a `fused` knob, with its `stage`
# profiler section) and the Ullmann matcher are gone. The naive engine in
# crates/congest/tests/naive/ referees the sharded engine; a brute-force
# injection search referees VF2.
echo "==> checking the removed reference send path and Ullmann matcher are absent"
referees='\.fused\(|\bfused:|account_shard|stage_shard|Section::Stage|ullmann'
if grep -rnE "$referees" src tests examples crates \
    --exclude-dir=target 2>/dev/null; then
    echo "error: a removed referee reappeared; the fused sweep is the only" \
         "send path and crates/congest/tests/naive/ the engine's referee" >&2
    status=1
else
    echo "    one send path (the fused sweep) and one engine referee (tests/naive)"
fi

# One bench harness: wall-clock timing lives in perfbench/ only. The
# `perf` binary, its BENCH_*.json baselines, bench.sh and the criterion
# shim with its benches are gone and must stay gone.
echo "==> checking the removed bench harnesses are absent"
harness='bench::perf|criterion|BENCH_|--bin perf|scripts/bench\.sh'
if grep -rnE "$harness" src tests examples crates scripts Cargo.toml Cargo.lock \
    --exclude-dir=target --exclude=check.sh 2>/dev/null \
    || { ls -d BENCH_*.json crates/bench/benches vendor/criterion 2>/dev/null || true; } | grep .; then
    echo "error: a removed bench harness reappeared; time runs with" \
         "perfbench/ and keep check.sh's timing gates in crates/bench/tests/gates.rs" >&2
    status=1
else
    echo "    one bench harness (perfbench/); no perf binary, BENCH files or criterion"
fi

# One JSON reader: congest::json parses every document the repo reads back
# (run reports, JSONL event dumps, flight records, serve requests) and
# escapes every string the writers emit. The trace toolkit's substring
# scanners and brace counting, obsv's duplicate escaper and serve's own
# json.rs are gone and must stay gone.
echo "==> checking the removed JSON scanners and duplicate escaper are absent"
scanners="raw_field|obj_array|u64_array|json_escape|matches\\('\\{'\\)"
if grep -rnE "$scanners" src tests examples crates \
    --exclude-dir=target 2>/dev/null \
    || { ls crates/serve/src/json.rs 2>/dev/null || true; } | grep .; then
    echo "error: a removed JSON scanner, brace count or escaper reappeared;" \
         "read documents with congest::json::parse and escape with json::escape" >&2
    status=1
else
    echo "    one JSON reader and escaper (congest::json)"
fi

# One clock in the engines: no engine event carries a wall-clock value, so
# a run's event stream is a pure function of (graph, config, seed). The
# per-node compute spans (the NodeCompute event, the ComputeTimer
# collector, the collectors' opt-in hooks, Simulation::timed and its
# compute.node_nanos histogram) are gone; compute time is measured per
# section by the Profiler only.
echo "==> checking the removed per-node compute spans are absent"
spans='NodeCompute|ComputeTimer|wants_compute_spans|with_compute_spans|\.timed\(|node_nanos|span_start|span_nanos'
if grep -rnE "$spans" src tests examples crates \
    --exclude-dir=target 2>/dev/null; then
    echo "error: a removed per-node compute span reappeared; time engine" \
         "sections with the Profiler, and keep wall-clock values out of events" >&2
    status=1
else
    echo "    one clock in the engines (the Profiler); every event deterministic"
fi

# Borrowed inboxes: a delivered message is a reference into the engine's
# arenas, valid for one on_round call, so no delivery clones a message or
# touches a reference count. The Arc-per-broadcast payload type (Payload,
# its Shared/Owned variants and as_shared) is gone and must stay gone.
# A bare `into_owned` is not matched: Cow::into_owned is legitimate.
echo "==> checking the removed Arc payload path is absent"
payloads='congest::Payload|Payload::(Shared|Owned)|as_shared\('
if grep -rnE "$payloads" src tests examples crates \
    --exclude-dir=target 2>/dev/null; then
    echo "error: the removed Arc payload path reappeared; inboxes lend" \
         "each message by reference (congest::Inbox)" >&2
    status=1
else
    echo "    borrowed inboxes only (no Arc payload type)"
fi

# The CSR routing arena replaced the per-receiver scan of a per-node wire
# list; no non-test code may reintroduce that pattern.
echo "==> checking for the removed per-receiver wire-scan pattern"
wirescan='Wire<|wires\['
if grep -rnE "$wirescan" \
    src examples \
    crates/congest/src crates/core/src crates/commlb/src \
    crates/lowerbounds/src crates/bench/src crates/graphlib/src \
    crates/infotheory/src crates/tracetools/src \
    2>/dev/null; then
    echo "error: per-receiver wire-scan pattern reintroduced;" \
         "route messages through the RoundRouter arena instead" >&2
    status=1
else
    echo "    no per-receiver wire scans in non-test code"
fi

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet || status=1

if [[ "$quick" -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
fi

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The pool must give byte-identical results on any thread count; gate both
# the sequential and a genuinely parallel schedule explicitly (the runs
# above use the host default).
echo "==> cargo test -q --workspace (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q --workspace (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q --workspace

# The routing property test (engine delivery vs the naive engine, inbox
# order included) must hold on sequential and parallel schedules alike.
echo "==> routing property test (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q -p congest --test routing

echo "==> routing property test (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q -p congest --test routing

# The engine referee: every observable of a run (inbox contents AND
# order, the raw event stream, fault tallies, traffic stats, the first
# send error) must be byte-identical to the naive engine at shard counts
# {1, 2, 7, ...} — and that must hold on sequential and parallel pools
# alike, so the matrix covers shards x threads.
echo "==> sharding referee (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q -p congest --test sharding

echo "==> sharding referee (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q -p congest --test sharding

# The fork-join pool's own tests (lane affinity, no lost wake-ups across
# park/unpark, a caller's panic re-thrown only after its queued chunks,
# an idle pool parking every worker) and the ARQ receive-window referee
# (the VecDeque window against a BTreeMap reference model) must hold on
# one, two and four lanes.
for lanes in 1 2 4; do
    echo "==> pool tests + receive-window referee (RAYON_NUM_THREADS=$lanes)"
    RAYON_NUM_THREADS=$lanes cargo test -q -p rayon
    RAYON_NUM_THREADS=$lanes cargo test -q -p congest --lib reliable::window_referee
done

# The ARQ receive path is a sequence-indexed VecDeque window holding the
# sender's Arc bundles; the BTreeMap buffer/delivered maps it replaced
# (and their per-arrival bundle copies) must not come back.
echo "==> checking the BTreeMap receive path stays out of the ARQ"
if grep -n 'BTreeMap' crates/congest/src/reliable.rs; then
    echo "error: BTreeMap reintroduced in crates/congest/src/reliable.rs;" \
         "the receive window is a VecDeque indexed by sequence number" >&2
    status=1
else
    echo "    no BTreeMap in the ARQ transport"
fi

# The u32 id space is a hot-path invariant, not an assumption: builders
# must refuse graphs whose vertex or directed-edge-slot counts would
# overflow the packed ids the sharded engine routes on.
echo "==> u32 id-space overflow gate"
cargo test -q -p graphlib try_new_rejects_oversized_vertex_counts

# FaultStack composition is order-sensitive first-fault-wins and a pure
# function of (spec, seed); the property suite must hold on sequential and
# parallel schedules alike.
echo "==> fault-stack composition property test (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q -p congest --test fault_stack

echo "==> fault-stack composition property test (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q -p congest --test fault_stack

# Chaos-schedule smoke budget: the deterministic fuzzer sweep (seeded
# schedules across the loss x burstiness x crash x outage x corruption
# space, even-cycle oracle behind the ARQ transport) must report zero
# soundness violations -- and, to prove the harness has teeth, the
# deliberately-broken invariant must be found AND shrunk to a minimal
# reproducer.
echo "==> chaos fuzzer smoke budget (zero violations over seeded schedules)"
cargo test -q --test chaos chaos_fuzzer_finds_no_soundness_violations

echo "==> chaos fuzzer teeth gate (injected violation found and shrunk)"
cargo test -q --test chaos chaos_fuzzer_catches_and_shrinks_a_broken_invariant

# The serve layer's determinism contract: the golden 100-query session
# (one cached planted-C4 graph, 25 seeds x {even-cycle, triangle} x fault
# on/off) must match its checked-in golden byte-for-byte on sequential and
# parallel pools alike.
echo "==> congest-serve golden session (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q -p serve --test golden_session

echo "==> congest-serve golden session (RAYON_NUM_THREADS=4)"
RAYON_NUM_THREADS=4 cargo test -q -p serve --test golden_session

# The staged-Simulation API migration is structural, not advisory: the
# even-cycle drivers must run their amplification loops through a staged
# Prepared topology, and the serve layer must never fall back to the
# one-shot Simulation::run* entry points (its whole point is reuse).
echo "==> checking run-API call sites are migrated to Prepared"
if ! grep -q '\.prepare()' crates/core/src/even_cycle.rs; then
    echo "error: crates/core/src/even_cycle.rs no longer stages its" \
         "topology with Simulation::prepare()" >&2
    status=1
elif grep -nE '\.run\(|\.run_with_nodes\(|\.run_clique\(' \
    crates/serve/src --include='*.rs' -r \
    2>/dev/null; then
    echo "error: crates/serve uses a one-shot Simulation run entry point;" \
         "serve executes through Prepared::run_with" >&2
    status=1
else
    echo "    even-cycle drivers stage via prepare(); serve runs through Prepared"
fi

# Release-mode timing gates (crates/bench/tests/gates.rs, #[ignore]d so
# debug runs skip them): the flight recorder may add at most +5% to the E1
# row at n = 512 (median of 21 interleaved per-pair ratios, 0.5 ms floor),
# and the E3-scale driver must complete at n = 10^4. One test thread, so
# the e3 run cannot overlap the A/B.
if [[ "$quick" -eq 0 ]]; then
    echo "==> release timing gates (recorder overhead A/B, e3_scale smoke)"
    cargo test --release -q -p bench --test gates -- --ignored --test-threads=1 || status=1
fi

# Trace-toolkit gates: the committed golden run reports must satisfy the
# structural invariant checker, and the critical-path analysis of the
# canonical traced run (causal provenance -> happens-before DAG -> longest
# weighted chain) must be byte-identical across thread counts.
if [[ "$quick" -eq 0 ]]; then
    echo "==> congest-trace check over committed golden run reports"
    cargo build --release -p tracetools --bin congest-trace
    for golden in tests/golden/run_report_*.json; do
        ./target/release/congest-trace check "$golden" || status=1
    done

    # Fusion trace gate: the fused engine's canonical trace must be
    # byte-identical to the committed PRE-fusion golden — the strongest
    # cross-checkable statement that the fused single-sweep send pass
    # changed nothing observable.
    echo "==> fused-engine trace diff against the pre-fusion golden"
    fused_trace="$(mktemp)"
    ./target/release/congest-trace dump --canonical > "$fused_trace"
    if ./target/release/congest-trace diff "$fused_trace" \
        tests/golden/prefusion_canonical_trace.jsonl; then
        echo "    fused canonical trace byte-identical to the pre-fusion golden"
    else
        echo "error: fused engine trace drifted from the pre-fusion golden" >&2
        status=1
    fi
    rm -f "$fused_trace"

    echo "==> critical-path determinism gate (RAYON_NUM_THREADS=1 vs 4)"
    cp1="$(mktemp)" cp4="$(mktemp)"
    RAYON_NUM_THREADS=1 ./target/release/congest-trace critical-path --canonical > "$cp1"
    RAYON_NUM_THREADS=4 ./target/release/congest-trace critical-path --canonical > "$cp4"
    if diff -q "$cp1" "$cp4" >/dev/null; then
        echo "    critical-path summary byte-identical at 1 and 4 threads"
    else
        echo "error: critical-path summary differs across thread counts" >&2
        diff "$cp1" "$cp4" >&2 || true
        status=1
    fi
    rm -f "$cp1" "$cp4"

    # Flight-recorder gates: the committed golden flight record must pass
    # the windowed-dump checker and render through `tail`, and the
    # canonical dump (generated fresh, ring + sketches + reservoir) must
    # be byte-identical across thread counts.
    echo "==> congest-trace check over the committed flight-record golden"
    ./target/release/congest-trace check tests/golden/flight_record.jsonl || status=1

    echo "==> congest-trace tail renders the flight-record golden"
    if ./target/release/congest-trace tail tests/golden/flight_record.jsonl > /dev/null; then
        echo "    flight tail rendered"
    else
        echo "error: congest-trace tail failed on the flight golden" >&2
        status=1
    fi

    echo "==> flight-record determinism gate (RAYON_NUM_THREADS=1 vs 4)"
    fl1="$(mktemp)" fl4="$(mktemp)"
    RAYON_NUM_THREADS=1 ./target/release/congest-trace dump --flight-canonical > "$fl1"
    RAYON_NUM_THREADS=4 ./target/release/congest-trace dump --flight-canonical > "$fl4"
    if diff -q "$fl1" "$fl4" >/dev/null; then
        echo "    canonical flight record byte-identical at 1 and 4 threads"
    else
        echo "error: canonical flight record differs across thread counts" >&2
        diff "$fl1" "$fl4" >&2 || true
        status=1
    fi
    rm -f "$fl1" "$fl4"

    # Serve telemetry determinism: a fixed session's output — responses,
    # batch summary, telemetry line, Prometheus stats — must be
    # byte-identical across thread counts once the wall-clock-only bytes
    # are stripped (the p99_ms/mean_ms fields and the latency histogram
    # series; everything else is counters, which are deterministic).
    echo "==> serve telemetry determinism gate (RAYON_NUM_THREADS=1 vs 4)"
    cargo build --release -p serve --bin congest-serve
    tele_req="$(mktemp)" tele1="$(mktemp)" tele4="$(mktemp)"
    {
        for i in 0 1 2 3 4 5 6 7; do
            printf '{"schema":"congest.serve","version":1,"op":"query","id":"q%s","graph":{"generator":"planted_c2k","n":64,"d":3,"k":2,"seed":5},"scenario":{"kind":"triangle","seed":%s}}\n' "$i" "$i"
        done
        printf '{"schema":"congest.serve","version":1,"op":"flush"}\n'
        printf '{"schema":"congest.serve","version":1,"op":"telemetry"}\n'
        printf '{"schema":"congest.serve","version":1,"op":"stats"}\n'
    } > "$tele_req"
    strip_wallclock() {
        sed -E 's/"(p99_ms|mean_ms)":[0-9.]+/"\1":0/g' | sed '/serve_latency_us/d'
    }
    RAYON_NUM_THREADS=1 ./target/release/congest-serve < "$tele_req" \
        | strip_wallclock > "$tele1"
    RAYON_NUM_THREADS=4 ./target/release/congest-serve < "$tele_req" \
        | strip_wallclock > "$tele4"
    if [[ -s "$tele1" ]] && diff -q "$tele1" "$tele4" >/dev/null; then
        echo "    serve telemetry byte-identical at 1 and 4 threads (wall-clock stripped)"
    else
        echo "error: serve telemetry differs across thread counts" >&2
        diff "$tele1" "$tele4" >&2 || true
        status=1
    fi
    rm -f "$tele_req" "$tele1" "$tele4"
fi

exit "$status"
