#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, and the full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps

# Prose is part of the contract too: every relative link and #anchor in
# README.md and docs/*.md must resolve (plain shell + grep, no deps).
echo "==> doc link check"
./scripts/check_docs.sh

# The parent/change pairs driver is a tool for perf changes, not a
# gate; only its syntax is checked here.
echo "==> scripts/bench_pairs.sh parses"
bash -n scripts/bench_pairs.sh

# The committed code inventory is the script's output.
echo "==> code inventory is fresh (docs/LOC.md)"
./scripts/loc_report.sh | diff - docs/LOC.md

# Root tests traverse the way users do: on a session from the shared
# harness (`Scenario::load` in tests/common), checked by `common::run`.
# Only three files build partitions by hand: heuristic_equivalence's
# lane goldens (their `sim` column was captured with the rank clocks
# where a build leaves them), pipeline's social graph (not R-MAT, so no
# session builds it) and mutation_equivalence's fresh-build oracle for
# compaction (it must not be the session's).
echo "==> root tests build no partition of their own"
OWN_LOOPS=$(grep -l build_1p5d tests/*.rs \
    | grep -vxE 'tests/(heuristic_equivalence|pipeline|mutation_equivalence)\.rs' || true)
if [ -n "$OWN_LOOPS" ]; then
    echo "build_1p5d in" $OWN_LOOPS "- take the session from Scenario::load (tests/common)"
    exit 1
fi

# A session has one launch path: the build, compactions, roots and
# batches all run on the cluster's resident rank threads, so no job
# spawns threads of its own. `Cluster::run`/`run_fallible` stay in
# crates/net for the frozen benchmark's probes and the net tests.
echo "==> the serving crate launches only on resident threads"
SPAWNING=$(grep -rl run_fallible crates/serve/src || true)
if [ -n "$SPAWNING" ]; then
    echo "run_fallible in" $SPAWNING "- launch through Cluster::run_resident"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

# The frozen benchmark (BENCHMARK.json, sunbfs_bench/) is a package of
# its own compiled against this crate's public API: build and unit-test
# it here so API drift fails CI, not the benchmark pipeline. Its frozen
# Cargo.lock still lists a workspace crate that has since been deleted;
# without --locked cargo prunes that entry in the working tree, so put
# the committed file back (the next benchmark PR refreshes it).
echo "==> frozen benchmark builds and tests against the crate (offline)"
cargo build --release --offline --manifest-path sunbfs_bench/Cargo.toml
(cd sunbfs_bench && cargo test -q --offline)
git checkout -- sunbfs_bench/Cargo.lock

# The differential sweep: every execution path (per-root loop, served
# batches of width 1/8/64, store round-trip, overlay repair and
# compaction, straggler/bitflip/panic-and-resume faults) over every mesh,
# threshold regime and worker count, each root against one oracle built
# from the edge list alone, and byte-identical to its serial, built,
# fault-free twin — the contract that makes the parallel kernels, the
# store, the update path and the recovery path trustworthy.
echo "==> differential sweep (release, hard timeout)"
timeout 600 cargo test -q --release --test differential

# Worker-pool determinism: SUNBFS_WORKERS must never change an output
# byte — the differential harness's scenarios pinned at SCALE 12 on 2x2
# and 2x3, single-source and a 64-root batch at 2, 4 and 7 workers,
# each byte-identical to its serial twin, which the oracle checks.
echo "==> worker-pool equivalence sweep (hard timeout)"
timeout 600 cargo test -q --release --test parallel_equivalence

# Direction-heuristic equivalence: `fixed` must stay byte-identical to
# the pre-vectorization golden fingerprint, both lanes to their goldens,
# `measured` must validate with identical depths across meshes and
# identical bytes across worker counts, a width-1 batch must be the
# single-source traversal, and the wide-word primitives must match their
# scalar reference on ragged tails (property-tested).
echo "==> heuristic equivalence suite (hard timeout)"
timeout 600 cargo test -q --release --test heuristic_equivalence

# Partition build reference: generate_chunk + build_1p5d pinned per
# rank (arrays, prep.* collectives, simulated build seconds) at SCALE 12
# over two meshes and three threshold regimes, and the integer R-MAT
# draw against its f64 definition, 300 k edges per parameter set. In
# release, the build the benchmark times.
echo "==> partition build reference (release, hard timeout)"
timeout 300 cargo test -q --release -p sunbfs-part --test build_reference
timeout 300 cargo test -q --release -p sunbfs-rmat integer_cut_points_equal_the_f64_definition

# Partition build memory: loading a SCALE-16 session may raise the
# process's peak resident set by at most 1.85x the partition it leaves
# resident, counted at eight bytes a CSR entry — each routed edge held
# about once, in send lists counted before they are filled — and the
# CSRs themselves may hold at most 0.6x that, each target in four bytes
# (docs/PERF.md, "Rule 8, measured", "Rule 12, measured" and "Rule 14,
# measured"). A binary of its own, so no other test moves the peak.
echo "==> partition build memory gate (release, hard timeout)"
timeout 300 cargo test -q --release --test build_memory

# Mutation reference: the pinned commit schedule (delta entry weights,
# when a promotion or the size threshold compacts, repair statistics and
# result fingerprints) over two meshes and three threshold regimes,
# compaction byte-identical to a fresh build of the union, union-view
# equivalence across meshes and workers, the all-or-nothing commit when its compaction loses a rank, and the
# delta's own adjacency and promotion tests. In release, the build the
# benchmark times.
echo "==> mutation reference (release, hard timeout)"
timeout 300 cargo test -q --release --test mutation_equivalence
timeout 300 cargo test -q --release -p sunbfs-serve --lib a_commit_whose_compaction_loses_a_rank_rolls_back
timeout 300 cargo test -q --release -p sunbfs-mutate --test overlay

# Validator reference: validate_parents, component_edges,
# levels_from_parents and reference_bfs against their first-written
# definitions (HashSet membership, sort + dedup, Vec<Vec<_>> adjacency)
# kept in the test, value for value and first error included, and the
# per-graph census against component_edges for every root of two
# SCALE-10 graphs. In release, the build the benchmark times.
echo "==> validator reference (release, hard timeout)"
timeout 300 cargo test -q --release -p sunbfs-core --test validate_reference

# OCS-RMA oracle: the shipped routing replay must equal the literal
# producer-buffer / consumer-drain pass in bucket order and RMA counters
# over 448 shapes. In release — the 10^6-item shapes are slow in debug.
echo "==> OCS-RMA routing oracle (release, hard timeout)"
timeout 300 cargo test -q --release -p sunbfs-sunway --test ocs_reference

# The fault suites prove every injected failure terminates in a typed
# outcome instead of a hung barrier — so they run under a hard wall
# timeout: a hang is a regression, not a slow test.
echo "==> fault containment suite (hard timeout)"
timeout 300 cargo test -q -p sunbfs-net --test fault_matrix
timeout 300 cargo test -q --test fault_e2e --test fault_env

# The rendezvous itself: the spin-then-sleep barrier (200 k generations
# on the shipped poll count and on the forced sleep path, poison landing
# on a poller and on a sleeper) and the one-barrier double-buffered
# exchange (20 k back-to-back collectives that must only ever see their
# own deposits). In release, where the races are tightest; a lost
# wake-up or an early release is a hang, so it must fail this gate, not
# stall it.
echo "==> barrier and slot-reuse stress (release, hard timeout)"
timeout 120 cargo test -q --release -p sunbfs-net barrier

# Self-healing: exchange-layer retransmission heals corruption below
# the retry loop, and checkpoint/resume salvages completed iterations.
# Same hard-timeout rule — the heal protocol's barriers must never hang.
echo "==> recovery suite (hard timeout)"
timeout 600 cargo test -q --test checkpoint_resume --test recovery_env

# Smoke: an injected bitflip on a live runner invocation must be healed
# at the exchange layer and surface as a retransmit in the JSON report.
# The campaign addresses traversal collectives (docs/FAULTS.md): op 0 is
# the engine's setup allreduce (`heur.totals`), which always carries a
# payload — whatever the root, scale or direction heuristic.
echo "==> fault-plan smoke and refusals (graph500_runner)"
SMOKE_JSON="$(mktemp)"
SUNBFS_FAULT_PLAN="corrupt@1:0:bitflip" timeout 300 \
    cargo run -q --release --example graph500_runner -- 9 4 256 64 1 --json "$SMOKE_JSON" \
    > /dev/null
grep -Eq '"retransmits": *[1-9]' "$SMOKE_JSON"
grep -Eq '"op": *"heur.totals"' "$SMOKE_JSON"
grep -Eq '"schema_version": *12' "$SMOKE_JSON"
rm -f "$SMOKE_JSON"

# Plans that parse but could not act as written are refused before the
# load, naming the variable on stderr: a negative straggler delay (it
# panicked the straggling rank) and an event on a rank outside the 2x2
# mesh (its pending panic stopped every root). bfs_server refuses the
# same two further down.
must_refuse_plan() {
    local plan="$1" err rc=0
    shift
    err="$(SUNBFS_FAULT_PLAN="$plan" timeout 300 "$@" 2>&1 > /dev/null)" || rc=$?
    if [ "$rc" -eq 0 ] || ! grep -Fq SUNBFS_FAULT_PLAN <<< "$err"; then
        echo "SUNBFS_FAULT_PLAN='$plan' $*: wanted a refusal naming the variable, got exit $rc: $err"
        exit 1
    fi
}
cargo build -q --release --example graph500_runner
RUNNER=./target/release/examples/graph500_runner
for PLAN in "straggle@0:0:-1" "panic@9:0"; do
    must_refuse_plan "$PLAN" "$RUNNER" 9 4 256 64 1
done

# Run a command: it must exit 2 and say $1.
must_refuse() {
    local needle="$1" err rc=0
    shift
    err="$(timeout 60 "$@" 2>&1 > /dev/null)" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -Fq -- "$needle" <<< "$err"; then
        echo "$*: wanted exit 2 and '$needle', got exit $rc: $err"
        exit 1
    fi
}

# Positional knobs the shared knob reader (`sunbfs::cli`) refuses (or
# zero roots) are refused by name, never a panic or a silently
# different run.
echo "==> graph500_runner knob refusals"
must_refuse 'knob "h_threshold"' "$RUNNER" 9 4 16 64 1
must_refuse 'knob "ranks"' "$RUNNER" 9 0 256 64 1
must_refuse 'knob "scale"' "$RUNNER" 70 4 256 64 1
must_refuse 'knob "scale" must be in 1..=32' "$RUNNER" 33 4 256 64 1
must_refuse 'knob "scale"' "$RUNNER" 4294967305 4 256 64 1
must_refuse 'knob "num_roots"' "$RUNNER" 9 4 256 64 0
must_refuse 'unexpected positional argument "7"' "$RUNNER" 9 4 256 64 1 7
must_refuse 'unknown flag --batch' "$RUNNER" 9 4 256 64 1 --batch

# The two exploration examples refuse their knobs the same way: a
# non-integer or out-of-range knob is exit 2 naming it, never a panic,
# an abort on a huge allocation or a silently different run.
echo "==> partition_explorer and chip_playground knob refusals"
cargo build -q --release --example partition_explorer --example chip_playground
EXPLORER=./target/release/examples/partition_explorer
CHIP=./target/release/examples/chip_playground
must_refuse 'knob "ranks"' "$EXPLORER" 9 0
must_refuse 'knob "scale"' "$EXPLORER" 70 4
must_refuse 'knob "scale"' "$EXPLORER" x 4
must_refuse 'knob "mib"' "$CHIP" x
must_refuse 'knob "mib"' "$CHIP" 0

# Smoke: a spec-count validated run. All 64 roots of a SCALE-16 graph
# are traversed *and* validated inside a minute — validation is one
# pass over the edge list per root (docs/PERF.md, rule 6); a validator
# that hashes or sorts the edge list per root does not fit — and the
# report says where the wall seconds went.
echo "==> spec-count validated run (release, hard timeout)"
SPEC_JSON="$(mktemp)"
timeout 60 cargo run -q --release --example graph500_runner -- 16 4 256 64 64 \
    --json "$SPEC_JSON" > /dev/null
grep -Eq '"validated": *true' "$SPEC_JSON"
grep -Eq '"validate_root_seconds":' "$SPEC_JSON"
SPEC_ROOTS=$(grep -c '"engine_traversed_edges":' "$SPEC_JSON")
if [ "$SPEC_ROOTS" -ne 64 ]; then
    echo "spec-count smoke: $SPEC_ROOTS entries in roots, wanted 64"
    exit 1
fi
rm -f "$SPEC_JSON"

# Smoke: the SUNBFS_DIRECTION runner override — both heuristic families
# run (and stamp the config they used into the report); a mistyped
# value must be a typed refusal with exit code 2, never a silent
# fallback to a default schedule.
echo "==> direction-heuristic override smoke (graph500_runner)"
DIR_JSON="$(mktemp)"
SUNBFS_DIRECTION=fixed timeout 300 \
    cargo run -q --release --example graph500_runner -- 9 4 256 64 1 --json "$DIR_JSON" \
    > /dev/null
grep -Eq '"direction_heuristic": *"fixed"' "$DIR_JSON"
SUNBFS_DIRECTION=measured timeout 300 \
    cargo run -q --release --example graph500_runner -- 9 4 256 64 1 --json "$DIR_JSON" \
    > /dev/null
grep -Eq '"direction_heuristic": *"measured"' "$DIR_JSON"
rm -f "$DIR_JSON"
set +e
SUNBFS_DIRECTION=sideways timeout 300 \
    cargo run -q --release --example graph500_runner -- 9 4 256 64 1 > /dev/null 2>&1
DIR_RC=$?
set -e
if [ "$DIR_RC" -ne 2 ]; then
    echo "direction smoke: unknown SUNBFS_DIRECTION must exit 2 (got $DIR_RC)"
    exit 1
fi

# Serve suite: admission control, batch formation, fault containment,
# batch-vs-sequential equivalence (the differential harness's scenarios
# pinned per mesh and threshold regime: one batch and the per-root loop,
# both through the oracle, and batches of width 1, 2 and 64 over a
# resident delta), and the >=2x roots/sec acceptance bar. Hard timeout
# for the same reason as the fault suites — a stuck queue or hung batch
# is a regression.
echo "==> serve suite (hard timeout)"
timeout 300 cargo test -q -p sunbfs-serve
timeout 600 cargo test -q --test serve_equivalence --test serve_perf
# Burst writes keep line framing: 300 pipelined round trips, in release
# (slow in debug on a loaded box).
timeout 300 cargo test -q --release -p sunbfs-serve --test tcp_serve pipelined_replies

# Store suite: the paged codec round-trips byte-identically, every
# flipped byte is a typed refusal, a session opened from a file serves
# the same parents/depths as the session that built it, and the driver
# reports what it saved and opened.
echo "==> store suite (hard timeout)"
timeout 300 cargo test -q -p sunbfs-store
timeout 600 cargo test -q --release --test store_session

# Smoke: SCALE 14 save -> load through the runner. The warm run must
# open the saved file (never rebuild), its open wall time must beat the
# cold run's build wall time, and where the partition came from must
# not show in the headline: the plain, cold and warm harmonic means are
# the same string.
echo "==> store save/load smoke (graph500_runner)"
STORE_FILE="$(mktemp -u).sbfs"
PLAIN_JSON="$(mktemp)"
COLD_JSON="$(mktemp)"
WARM_JSON="$(mktemp)"
timeout 600 cargo run -q --release --example graph500_runner -- 14 16 256 64 2 \
    --json "$PLAIN_JSON" > /dev/null
timeout 600 cargo run -q --release --example graph500_runner -- 14 16 256 64 2 \
    --json "$COLD_JSON" --save-graph "$STORE_FILE" > /dev/null
timeout 600 cargo run -q --release --example graph500_runner -- 14 16 256 64 2 \
    --json "$WARM_JSON" --load-graph "$STORE_FILE" > /dev/null
grep -Eq '"saved": *true' "$COLD_JSON"
grep -Eq '"opened": *true' "$WARM_JSON"
grep -Eq '"schema_version": *12' "$WARM_JSON"
COLD_S=$(grep -o '"cold_build_wall_seconds": *[0-9.e-]*' "$COLD_JSON" | grep -o '[0-9.e-]*$')
WARM_S=$(grep -o '"warm_open_wall_seconds": *[0-9.e-]*' "$WARM_JSON" | grep -o '[0-9.e-]*$')
awk -v cold="$COLD_S" -v warm="$WARM_S" \
    'BEGIN { if (!(warm + 0 < cold + 0)) { print "warm open (" warm "s) not faster than cold build (" cold "s)"; exit 1 } }'
PLAIN_HMEAN=$(grep -o '"harmonic_mean_gteps": *[0-9.eE+-]*' "$PLAIN_JSON")
COLD_HMEAN=$(grep -o '"harmonic_mean_gteps": *[0-9.eE+-]*' "$COLD_JSON")
WARM_HMEAN=$(grep -o '"harmonic_mean_gteps": *[0-9.eE+-]*' "$WARM_JSON")
if [ -z "$PLAIN_HMEAN" ] || [ "$COLD_HMEAN" != "$PLAIN_HMEAN" ] || [ "$WARM_HMEAN" != "$PLAIN_HMEAN" ]; then
    echo "store smoke: harmonic means differ (plain '$PLAIN_HMEAN', cold '$COLD_HMEAN', warm '$WARM_HMEAN')"
    exit 1
fi
rm -f "$STORE_FILE" "$PLAIN_JSON" "$COLD_JSON" "$WARM_JSON"

# bfs_server and soak are prebuilt once — for every server smoke and
# soak below — so two processes never race for the cargo target-dir
# lock.
cargo build -q --release --example bfs_server --example soak
BFS_SERVER=./target/release/examples/bfs_server

# Launch bfs_server on an ephemeral port with the given flags, stdout to
# $1; wait for its `listening` line and set SERVER_PID / SERVER_ADDR.
start_server() {
    local log="$1"
    shift
    # Empty a reused log before the launch, so the poll below cannot
    # read the previous server's line.
    : > "$log"
    timeout 600 "$BFS_SERVER" --tcp 127.0.0.1:0 "$@" > "$log" &
    SERVER_PID=$!
    for _ in $(seq 1 300); do
        grep -q '"event":"listening"' "$log" 2> /dev/null && break
        sleep 0.2
    done
    grep -q '"event":"listening"' "$log"
    SERVER_ADDR=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$log" | head -1)
}

# One conversation with the server at $1 over bash's /dev/tcp (no nc
# dependency): send the request lines, print every reply until the
# server closes the connection — so the last request is a `shutdown`.
tcp_talk() {
    local addr="$1"
    shift
    exec 3<> "/dev/tcp/${addr%:*}/${addr##*:}"
    printf '%s\n' "$@" >&3
    timeout 120 cat <&3
    exec 3>&-
}

# Smoke: mistyped or out-of-range knobs are the shared knob reader's
# refusals (never a silent default-config build), no arguments is the
# usage, and soak refuses an out-of-range size from the same check.
# Zero socket timeouts (every connection closed unanswered), a zero
# tick (a spinning service loop) and soak knobs it used to clamp are
# refused the same way, at parse time: no socket, session or thread
# exists yet.
echo "==> bfs_server flag and fault-plan refusals"
must_refuse 'knob "scale" must be an unsigned integer' "$BFS_SERVER" --tcp 127.0.0.1:0 --scale x
must_refuse 'knob "scale" must be in 1..=32' "$BFS_SERVER" --tcp 127.0.0.1:0 --scale 33
must_refuse 'knob "h_threshold"' "$BFS_SERVER" --tcp 127.0.0.1:0 --scale 9 --ranks 4 --h-threshold 512
must_refuse 'knob "batch_max"' "$BFS_SERVER" --tcp 127.0.0.1:0 --batch-max 65
must_refuse 'knob "read_timeout_ms"' "$BFS_SERVER" --tcp 127.0.0.1:0 --read-timeout-ms 0
must_refuse 'knob "write_timeout_ms"' "$BFS_SERVER" --tcp 127.0.0.1:0 --write-timeout-ms 0
must_refuse 'knob "tick_ms"' "$BFS_SERVER" --tcp 127.0.0.1:0 --tick-ms 0
must_refuse 'usage: bfs_server --tcp ADDR' "$BFS_SERVER"
must_refuse 'unknown flag "--baseline"' "$BFS_SERVER" --tcp 127.0.0.1:0 --baseline
must_refuse 'knob "scale"' ./target/release/examples/soak load --scale 70
must_refuse 'knob "conns" must be in 1..=64, got 0' ./target/release/examples/soak load --conns 0
must_refuse 'knob "conns" must be in 1..=64, got 65' ./target/release/examples/soak load --conns 65
must_refuse 'knob "qps"' ./target/release/examples/soak load --qps 0
for PLAN in "straggle@0:0:-1" "panic@9:0"; do
    must_refuse_plan "$PLAN" "$BFS_SERVER" --tcp 127.0.0.1:0 --scale 9 --ranks 4
done

# Smoke: the wire protocol answers with well-formed JSON — per-query
# results and a stats reply carrying the serve section.
echo "==> bfs_server protocol smoke"
SERVE_LOG="$(mktemp)"
SERVE_OUT="$(mktemp)"
start_server "$SERVE_LOG" --scale 9 --ranks 4
tcp_talk "$SERVER_ADDR" \
    '{"cmd":"batch","roots":[1,2,3]}' \
    '{"cmd":"stats"}' \
    '{"cmd":"shutdown"}' > "$SERVE_OUT"
wait "$SERVER_PID"
grep -Eq '"reply":"result".*"status":"served".*"parents_len":[1-9]' "$SERVE_OUT"
grep -Eq '"reply":"stats".*"batch_roots_per_sec"' "$SERVE_OUT"
rm -f "$SERVE_LOG" "$SERVE_OUT"

# Smoke: the farewell line survives process exit. The service thread
# joins every connection's writer before it returns, so a client that
# asks one query and then `shutdown` must read the final
# `{"reply":"shutdown",...}` line every time — twelve fresh processes,
# because the race this guards (a detached writer losing to `exit`)
# showed in 2-5 of 12.
echo "==> bfs_server farewell smoke (12 processes)"
BYE_LOG="$(mktemp)"
BYE_OUT="$(mktemp)"
for i in $(seq 1 12); do
    start_server "$BYE_LOG" --scale 9 --ranks 4
    tcp_talk "$SERVER_ADDR" '{"cmd":"query","root":1}' '{"cmd":"shutdown"}' > "$BYE_OUT"
    wait "$SERVER_PID"
    if ! grep -q '"reply":"shutdown"' "$BYE_OUT"; then
        echo "farewell smoke: conversation $i ended without the shutdown line:"
        cat "$BYE_OUT"
        exit 1
    fi
done
rm -f "$BYE_LOG" "$BYE_OUT"

# Smoke: the server's `--path` knob — the first launch builds and
# saves, the second opens the same file instead of rebuilding, and the
# `listening` line says which.
echo "==> bfs_server store-path smoke"
SERVER_STORE="$(mktemp -u).sbfs"
FIRST_LOG="$(mktemp)"
SECOND_LOG="$(mktemp)"
SECOND_OUT="$(mktemp)"
start_server "$FIRST_LOG" --scale 9 --ranks 4 --path "$SERVER_STORE"
tcp_talk "$SERVER_ADDR" '{"cmd":"shutdown"}' > /dev/null
wait "$SERVER_PID"
start_server "$SECOND_LOG" --scale 9 --ranks 4 --path "$SERVER_STORE"
tcp_talk "$SERVER_ADDR" '{"cmd":"query","root":1}' '{"cmd":"shutdown"}' > "$SECOND_OUT"
wait "$SERVER_PID"
grep -Eq '"event":"listening".*"saved":true' "$FIRST_LOG"
grep -Eq '"event":"listening".*"opened":true' "$SECOND_LOG"
grep -Eq '"reply":"result".*"status":"served"' "$SECOND_OUT"
rm -f "$SERVER_STORE" "$FIRST_LOG" "$SECOND_LOG" "$SECOND_OUT"

# Smoke: sustained overload against the real TCP server. `soak load`
# offers well beyond what a capacity-16 queue admits at SCALE 14, so the
# run must produce queue-full rejections while keeping every accounting
# invariant (soak exits nonzero on any lost/duplicated/unacked/
# malformed reply), emit the committed schema-v12 serve_load artifact,
# and the server must drain cleanly on shutdown with zero dropped
# results.
echo "==> TCP sustained-load smoke (bfs_server --tcp + soak load --addr)"
TCP_LOG="$(mktemp)"
start_server "$TCP_LOG" \
    --scale 14 --ranks 4 --queue-capacity 16 --batch-max 64 --flush-deadline 128
timeout 300 ./target/release/examples/soak load --addr "$SERVER_ADDR" \
    --conns 4 --qps 400 --duration 4 --root-max 16384 --seed 42 \
    --json SERVE_LOAD_14.json > /dev/null
wait "$SERVER_PID"
grep -Eq '"schema_version": *12' SERVE_LOAD_14.json
grep -Eq '"protocol_errors": *0' SERVE_LOAD_14.json
grep -Eq '"lost_replies": *0' SERVE_LOAD_14.json
grep -Eq '"duplicate_replies": *0' SERVE_LOAD_14.json
grep -Eq '"unacked": *0' SERVE_LOAD_14.json
grep -Eq '"rejected_full": *[1-9]' SERVE_LOAD_14.json
grep -Eq '"event":"shutdown"' "$TCP_LOG"
grep -Eq '"results_dropped":0' "$TCP_LOG"
rm -f "$TCP_LOG"

# Chaos soak: live fault injection against the SCALE-14 serving path.
# A seeded schedule arms rank panics / stragglers / payload corruption
# into the batched traversal while paced clients (deadline budgets,
# hint-honoring retries) stay connected; a side connection polls the
# `health` state machine. The soak must end with zero protocol losses,
# availability at or above the gate, the service recovered to healthy
# within the tick budget, and the committed schema-v12 serve_chaos
# artifact well-formed (soak exits nonzero on any gate failure).
echo "==> chaos soak smoke (SCALE 14, hard timeout)"
timeout 600 ./target/release/examples/soak chaos \
    --scale 14 --ranks 8 --conns 4 --qps 300 --duration 4 --seed 42 \
    --chaos-every 48 --chaos-max-events 4 --deadline-ticks 400 --retry-max 3 \
    --availability-gate 0.90 --json SERVE_CHAOS_14.json > /dev/null
grep -Eq '"schema_version": *12' SERVE_CHAOS_14.json
grep -Eq '"passed": *true' SERVE_CHAOS_14.json
grep -Eq '"recovered": *true' SERVE_CHAOS_14.json
grep -Eq '"final_health": *"healthy"' SERVE_CHAOS_14.json
grep -Eq '"protocol_errors": *0' SERVE_CHAOS_14.json
grep -Eq '"lost_replies": *0' SERVE_CHAOS_14.json
grep -Eq '"chaos_injected": *[1-9]' SERVE_CHAOS_14.json

# Update soak: live graph mutations against the SCALE-14 serving path.
# First seeded edge-insert batches are committed and incremental BFS
# repair is proven depth-identical to — and at least as fast as — a
# full recompute over the same union adjacency; then wire `update`
# batches are interleaved into paced TCP load with a seeded update plan
# armed, and the epoch stamped on every reply must never regress on a
# connection (the torn-read proxy) through a clean drain. soak exits
# nonzero on any gate failure and regenerates the committed schema-v12
# UPDATE_14.json artifact.
echo "==> update soak smoke (SCALE 14, hard timeout)"
timeout 600 ./target/release/examples/soak update \
    --scale 14 --ranks 4 --rounds 6 --batch 64 --seed 42 \
    --json UPDATE_14.json > /dev/null
grep -Eq '"schema_version": *12' UPDATE_14.json
grep -Eq '"passed": *true' UPDATE_14.json
grep -Eq '"equivalence_violations": *0' UPDATE_14.json
grep -Eq '"torn_reads": *0' UPDATE_14.json
grep -Eq '"clean_drain": *true' UPDATE_14.json
grep -Eq '"updates_committed": *[1-9]' UPDATE_14.json

# Perf trajectory: regenerate the committed GTEPS curve — one
# BENCH_<scale>_<rows>x<cols>.json per scale in the 14/16/18 sweep —
# gate the fresh SCALE-14 harmonic mean against the committed baseline,
# and smoke-check the schema-v12 wall-clock section plus the
# parallel-vs-serial throughput bound (strict only on >= 4 cores; see
# the script header and docs/PERF.md).
echo "==> bench trajectory (hard timeout inside)"
./scripts/bench_trajectory.sh

echo "CI green."
