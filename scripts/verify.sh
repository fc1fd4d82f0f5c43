#!/usr/bin/env bash
# Hermetic-build gate: the workspace must build and test entirely offline,
# with every dependency an in-tree path dependency. Run from anywhere:
#
#   scripts/verify.sh
#
# Fails if any Cargo.toml reacquires a registry (non-path) dependency, or if
# the offline build/test fails.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
# Scan every dependency section of every manifest. A dependency line is
# acceptable only if it is a path dependency ({ path = ... }) or a reference
# to one ({ workspace = true } resolving to a path entry in the root
# manifest, which this same scan covers).
for manifest in Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; do
    bad=$(awk '
        /^\[/ {
            in_deps = ($0 ~ /dependencies\]$/ || $0 ~ /^\[workspace\.dependencies\]/)
            next
        }
        in_deps && NF && $0 !~ /^[[:space:]]*#/ {
            if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/) {
                print
            }
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "error: $manifest declares a non-path dependency:" >&2
        echo "$bad" | sed 's/^/    /' >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "The workspace must stay hermetic: vendor the code into crates/util" >&2
    echo "(see DESIGN.md, 'Dependencies') instead of adding registry crates." >&2
    exit 1
fi
echo "manifest scan: ok (all dependencies are in-tree path dependencies)"

# Warnings gate: the release build must be clean under -D warnings.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
# Lint gate: every target clean under clippy's defaults, plus
# `or_fun_call`, so that a value built eagerly for an error path nobody
# takes (a `format!` inside `ok_or`, a `to_string` inside `map_or`) cannot
# come back.
cargo clippy --offline --workspace --all-targets -- -D warnings -W clippy::or_fun_call
# Format gate: every workspace file in the layout of the root rustfmt.toml.
cargo fmt --all --check
cargo test -q --offline --workspace
# Rustdoc gate for every crate: a broken or private intra-doc link (say,
# to a deleted type) fails the script.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
# The audit kernel against its oracle (the brute-force definitions) once
# more, from a second fixed base seed: each gate run checks twice the cases.
CNET_PROPTEST_SEED=2718281828 \
    cargo test -q --release --offline -p cnet-bench --test streaming_equivalence
# The client's byte-split harness at depth: a release build plays 1000
# seeded scripts (the debug run in `cargo test` plays 8) of pipelined
# `Value` bursts cut inside length words, seqs and values, and of runs
# broken by an error, a stale version and a bad length word, from the
# same second base seed.
CNET_PROPTEST_SEED=2718281828 \
    cargo test -q --release --offline -p cnet-net --lib -- \
    client::tests::pipelined_bursts_survive_any_byte_split_and_broken_runs_tear_down

# Benchmark gate: `benchmark/` is a package of its own that measures the
# crates through their public functions, so a crate API change can break
# it without the workspace noticing. The build is the hard gate. The
# one-second runs (exit code nonzero when a check fails) need two CPUs to
# pin their roles apart, so a host with fewer skips them with a notice
# instead of failing the whole script: `audit_replay`, the shortest
# workload, for its verdict checks; `tcp_pipeline` because its
# `values_are_0_to_n` and `served_equals_received` checks cover some ten
# million operations counted as coalesced runs; and `cluster2_batch`
# because `values_are_0_to_n` and `tail_ops_equal_head_ops` cover a few
# million tokens crossing the partition cut, every batch as one
# `ForwardBatch` frame of per-wire counts; and `mem_token` because its
# `values_are_0_to_n` and `step_property_at_quiescence` checks are the only
# exercise, through the public API, of two threads on two CPUs racing on
# the fused terminal words (the last balancer of a path is its counter) —
# every other run here counts from one thread at a time; and `tcp_token`
# because it is the only workload that sends single `Next` frames, one per
# round trip, with full recording and a live audit: each is counted as a
# run of one, and `values_are_0_to_n`, `audit_saw_every_served_op` and
# `audit_verdict_clean` check what that path hands out and records.
# `audit_replay` also gates its memory: the simulator stores each fact of
# a timed execution once (a 24-byte step, no schedule copy in a token's
# record), which keeps the set-up peak near 98 MB. The script fails when
# the `rss_peak_mb` of the run's JSON result line exceeds 110 MB, so the
# saving cannot regress unnoticed.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
if [ "$(nproc)" -ge 2 ]; then
    for workload in audit_replay tcp_pipeline cluster2_batch mem_token tcp_token; do
        bench_out=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
            run --workload "$workload" --seconds 1)
        echo "$bench_out" | tail -n 8
        if [ "$workload" = audit_replay ]; then
            rss=$(echo "$bench_out" | tail -n 1 \
                | grep -o '"rss_peak_mb":{"value":[0-9.e+-]*' | grep -o '[0-9.e+-]*$' || true)
            if ! awk -v rss="$rss" 'BEGIN { exit !(rss != "" && rss + 0 <= 110) }'; then
                echo "error: audit_replay rss_peak_mb is ${rss:-missing}, over the 110 MB gate" >&2
                exit 1
            fi
            echo "audit_replay rss_peak_mb gate: ${rss} MB <= 110 MB"
        fi
    done
else
    echo "benchmark gate: built; run skipped (needs 2 CPUs, this host offers $(nproc))"
fi

# Model-check gate: exhaustively enumerate every bounded interleaving of
# the lock-free core under the shim-atomic scheduler (crates/util/src/
# model.rs; see DESIGN.md, "Model checking the lock-free core"). The
# scenario suite asserts >= 10,000 distinct schedules total, that every
# explored run of the compiled traversal is a Section 2.2 execution
# `cnet_sim::validate` accepts (the refinement check), and that two seeded
# bugs are caught with a replay string. `timeout` bounds the wall
# clock — the suite runs in seconds, so hitting the budget means a
# state-space regression (an unbounded spin loop, a fairness bug), which
# should fail fast rather than hang the gate.
RUSTFLAGS="-D warnings" timeout 300 \
    cargo test -q --release --offline -p cnet-util --features model-check
RUSTFLAGS="-D warnings" timeout 600 \
    cargo test -q --release --offline -p cnet-bench --features model-check \
    --test model_check

# Audit smoke: a single-threaded run against the compiled backend, streamed
# through the online monitors, must come back with zero violations (one
# sequential process drains the network between ops, so the step property
# makes its values strictly increase; any violation here is a recorder or
# monitor bug). Multi-threaded audits are *expected* to catch genuine SC
# violations on preemption-induced overtaking — see EXPERIMENTS.md — so
# they are not a pass/fail gate.
audit_out=$(cargo run -q --release --offline -p cnet-cli -- audit 8 --backend compiled)
echo "$audit_out" | tail -n 3
if ! echo "$audit_out" | grep -q "audit verdict: clean"; then
    echo "error: cnet audit reported violations on the compiled backend" >&2
    exit 1
fi

# Idle-memory smoke: an audited server sized for its default connection
# count reserves one trace ring per slot, but each ring comes from one
# zeroed allocation, so the kernel commits a page only when a shard first
# writes it. Idle, the server must hold under 10 MB resident; rings
# built element by element would commit all 36 MB of them. The binary
# runs directly, not through `cargo run`, so the pid read is the server's.
cargo build -q --release --offline -p cnet-cli
cnet_bin="${CARGO_TARGET_DIR:-target}/release/cnet"
port_file=$(mktemp)
rm -f "$port_file"
"$cnet_bin" serve 8 --audit 1 --port-file "$port_file" > /dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: cnet serve (idle-memory smoke) exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$port_file" ]; then
    echo "error: cnet serve (idle-memory smoke) never wrote its port file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
idle_kb=$(awk '/^VmRSS:/ {print $2}' "/proc/$serve_pid/status")
"$cnet_bin" loadgen --addr "$(cat "$port_file")" --ops 0 --shutdown 1 > /dev/null
wait "$serve_pid"
rm -f "$port_file"
if [ -z "$idle_kb" ] || [ "$idle_kb" -gt 10240 ]; then
    echo "error: an idle 'cnet serve 8 --audit 1' holds ${idle_kb:-?} kB resident, over 10 MB" >&2
    exit 1
fi
echo "idle-memory smoke: ok (idle audited server holds ${idle_kb} kB resident)"

# Service smoke: boot `cnet serve` on an ephemeral loopback port, discover
# the port through --port-file, drive it with `cnet loadgen --check`
# (values must be an exact permutation of 0..n), ask for a remote
# shutdown, and require the server to drain within a bounded deadline.
# The server's own audit must then have seen all 20000 operations and
# read clean: fetch_add is linearizable, and a ring overflow would read
# `incomplete` instead.
port_file=$(mktemp); serve_log=$(mktemp)
rm -f "$port_file"
cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --backend fetch_add --audit 1 --max-conns 8 --port-file "$port_file" \
    > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: cnet serve exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$port_file" ]; then
    echo "error: cnet serve never wrote its port file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
addr=$(cat "$port_file")
# Batched smoke: each burst is one NextBatch frame served by the batched
# traversal (one atomic per balancer per batch, one widened recorder
# interval) — the values must still be an exact permutation.
loadgen_out=$(cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --threads 4 --ops 20000 --batch 64 --mode batch \
    --check 1 --shutdown 1)
echo "$loadgen_out"
if ! echo "$loadgen_out" | grep -q "permutation 0..20000: true"; then
    echo "error: batched networked values were not a permutation of 0..n" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Bounded drain: the server must exit cleanly shortly after the Shutdown
# frame was acknowledged.
drained=0
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
if [ "$drained" -ne 1 ]; then
    echo "error: cnet serve failed to drain after a shutdown request" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid"
cat "$serve_log"
if ! grep -q "^audit coverage: 20000 served, 20000 audited," "$serve_log"; then
    echo "error: the served audit did not cover all 20000 operations" >&2
    exit 1
fi
if ! grep -qx "audit verdict: clean" "$serve_log"; then
    echo "error: the served audit verdict was not clean" >&2
    exit 1
fi
rm -f "$port_file" "$serve_log"

# Parallel-audit smoke: a served run with `--audit-threads 2` steals ring
# shards into per-shard monitors *while traffic runs*, then merges the
# final frontiers after shutdown. The fetch_add backend is linearizable
# and recorded intervals only ever widen, so the merged verdict must be
# clean — and the pipeline line must confirm both workers ran.
port_file=$(mktemp); serve_log=$(mktemp)
rm -f "$port_file"
cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --backend fetch_add --audit 1 --audit-threads 2 --audit-sample 4 \
    --max-conns 8 --port-file "$port_file" > "$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: cnet serve (parallel-audit smoke) exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$port_file" ]; then
    echo "error: cnet serve (parallel-audit smoke) never wrote its port file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
addr=$(cat "$port_file")
par_out=$(cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --threads 4 --ops 20000 --mode pipeline \
    --check 1 --shutdown 1)
if ! echo "$par_out" | grep -q "permutation 0..20000: true"; then
    echo "error: parallel-audit smoke values were not a permutation of 0..n" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
drained=0
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
if [ "$drained" -ne 1 ]; then
    echo "error: cnet serve (parallel-audit smoke) failed to drain" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" || true
cat "$serve_log"
if ! grep -q "audit pipeline: 2 worker(s)" "$serve_log"; then
    echo "error: serve did not run the 2-worker parallel audit pipeline" >&2
    exit 1
fi
if ! grep -qx "audit verdict: clean" "$serve_log"; then
    echo "error: parallel-audit merged verdict was not clean" >&2
    exit 1
fi
rm -f "$port_file" "$serve_log"
echo "parallel-audit smoke: ok (2 stealer workers, 1-in-4 sampling, clean merged verdict)"

# Sampled-run smoke: one client pipelines bursts of 256 `Next` frames at a
# compiled B(8) server recording 1 in 4. The server counts each burst as
# coalesced runs (one batched traversal, values handed out and recorded
# ascending), and sampling is by operation, so the frontier audit must see
# skips — a run recorded whole would leave none — and, with a single
# client, a clean verdict: a run recorded in traversal order instead of
# the order handed out would read as non-SC. A second phase then sends
# `NextBatch{64}` frames on the same server, whose batches go through the
# same traversal; the batched smoke above uses fetch_add, whose batches
# come out ascending whatever the server does with them. Its values start
# where the first phase's ended, so it is not checked as a permutation of
# 0..n; instead the audit must account for all 64000 operations of both
# phases, audited or skipped, and still be clean.
port_file=$(mktemp)
rm -f "$port_file"
cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --audit 1 --audit-sample 4 --max-conns 8 --port-file "$port_file" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: cnet serve (sampled-run smoke) exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$port_file" ]; then
    echo "error: cnet serve (sampled-run smoke) never wrote its port file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
addr=$(cat "$port_file")
run_out=$(cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --threads 1 --ops 51200 --mode pipeline --batch 256 --check 1)
if ! echo "$run_out" | grep -q "permutation 0..51200: true"; then
    echo "error: sampled-run smoke values were not a permutation of 0..n" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --threads 1 --ops 12800 --mode batch --batch 64 \
    --check 0 >/dev/null || {
    echo "error: sampled-run smoke batch phase failed" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
run_audit=$(cargo run -q --release --offline -p cnet-cli -- \
    audit 8 --backend cluster --addr "$addr") || {
    echo "error: sampled-run audit reported violations (nonzero exit)" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
echo "$run_audit" | tail -n 4
# The coverage line: `audit coverage: N served, A audited, D dropped, S
# skipped by sampling, …`.
audited=$(echo "$run_audit" | awk '/^audit coverage:/ {print $5}')
skipped=$(echo "$run_audit" | awk '/^audit coverage:/ {print $9}')
if [ "$((audited + skipped))" -ne 64000 ]; then
    echo "error: sampled-run audit saw $audited + $skipped operations, not 64000" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if [ "$skipped" -le 0 ]; then
    echo "error: sampled-run audit reported no sampling skips" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! echo "$run_audit" | grep -qx "audit verdict: clean"; then
    echo "error: sampled-run audit verdict was not clean" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --ops 0 --shutdown 1 >/dev/null
drained=0
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
if [ "$drained" -ne 1 ]; then
    echo "error: cnet serve (sampled-run smoke) failed to drain" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" || true
rm -f "$port_file"
echo "sampled-run smoke: ok (256-frame runs and 64-op batches, 1-in-4 sampling by operation, clean verdict)"

# Unaudited-server smoke: a cluster audit of a server running without
# `--audit` has recorded none of what the server handed out, so it must
# read incomplete against the server's served count and exit nonzero,
# not read clean over an empty history.
port_file=$(mktemp)
rm -f "$port_file"
cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --max-conns 8 --port-file "$port_file" > /dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: cnet serve (unaudited smoke) exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$port_file" ]; then
    echo "error: cnet serve (unaudited smoke) never wrote its port file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
addr=$(cat "$port_file")
cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --threads 1 --ops 10000 --check 1 >/dev/null || {
    echo "error: unaudited smoke loadgen failed" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
# A failing audit prints its report on stderr.
if unaudited_out=$(cargo run -q --release --offline -p cnet-cli -- \
    audit 8 --backend cluster --addr "$addr" 2>&1); then
    echo "$unaudited_out"
    echo "error: a cluster audit of an unaudited server exited zero" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
echo "$unaudited_out" | tail -n 1
if ! echo "$unaudited_out" | grep -qx \
    "audit verdict: incomplete (10000 served ops not recorded for this audit)"; then
    echo "error: the unaudited cluster audit did not name the 10000 unrecorded ops" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --ops 0 --shutdown 1 >/dev/null
drained=0
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
if [ "$drained" -ne 1 ]; then
    echo "error: cnet serve (unaudited smoke) failed to drain" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" || true
rm -f "$port_file"
echo "unaudited-server smoke: ok (cluster audit exits nonzero, 10000 served ops not recorded)"

# Reactor smoke: the sharded epoll reactor must hold 256 mostly-idle
# pooled connections from 4 loadgen workers and still hand out an exact
# permutation, then report its reactor counters and drain on Shutdown.
# Needs file descriptors for 256 sockets on each side of the loopback;
# skip (with a warning) when the fd limit cannot carry it.
nofile=$(ulimit -n)
if [ "$nofile" != "unlimited" ] && [ "$nofile" -lt 4096 ]; then
    echo "warning: ulimit -n is $nofile (< 4096) — skipping the 256-connection reactor smoke" >&2
else
    port_file=$(mktemp)
    rm -f "$port_file"
    cargo run -q --release --offline -p cnet-cli -- \
        serve 8 --backend fetch_add --max-conns 300 --port-file "$port_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$port_file" ] && break
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "error: cnet serve (reactor smoke) exited before binding" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ ! -s "$port_file" ]; then
        echo "error: cnet serve (reactor smoke) never wrote its port file" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    addr=$(cat "$port_file")
    reactor_out=$(cargo run -q --release --offline -p cnet-cli -- \
        loadgen --addr "$addr" --threads 4 --connections 256 --ops 20000 \
        --batch 64 --mode batch --check 1 --shutdown 1)
    echo "$reactor_out"
    if ! echo "$reactor_out" | grep -q "4 threads over 256 connections"; then
        echo "error: loadgen did not drive 256 pooled connections" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    if ! echo "$reactor_out" | grep -q "permutation 0..20000: true"; then
        echo "error: 256-connection values were not a permutation of 0..n" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    if ! echo "$reactor_out" | grep -q "server reactor: .* epoll wakeups"; then
        echo "error: loadgen --shutdown did not report the reactor counters" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    drained=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            drained=1
            break
        fi
        sleep 0.1
    done
    if [ "$drained" -ne 1 ]; then
        echo "error: cnet serve (reactor smoke) failed to drain after shutdown" >&2
        kill -9 "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    wait "$serve_pid"
    rm -f "$port_file"
fi

# Cluster smoke: partition B(8) across two `serve --cluster` nodes on
# ephemeral loopback ports (tail first — the head dials its downstream
# peer at startup), drive 100k ops from a 4-thread loadgen pointed at
# the *tail* (`--cluster 1` makes the NodeInfo handshake re-dial the
# head), require an exact permutation, then fetch and merge both nodes'
# trace shards into one cluster-wide audit verdict. The head counts each
# run of pipelined `Next` frames, a lone frame as a run of one, as one
# `ingress_batch` (one `ForwardBatch` frame down the chain per run) and
# hands the values out ascending; on one CPU each slot's runs go through the chain in order,
# so the merged audit must come back clean; `cnet audit` exits nonzero
# on violations, so the exit code is the gate.
# "On one CPU" is a condition, not a given: with two CPUs the four
# loadgen threads do overtake each other (F_nsc of 0.1-0.5 %, the
# paper's subject, not a bug), so both nodes and the loadgen are pinned
# to the first CPU this script may run on. Without `taskset` the smoke
# runs unpinned and the clean verdict holds on a 1-core host only.
# Both nodes drain gracefully via the trafficless `--ops 0 --shutdown`
# handshake (the tail serves no clients, so a normal loadgen run
# against it cannot carry the shutdown). Each node's own served audit
# must then check its coverage against what it served: the head served
# all 100000 increments, and the tail, which counts them forwarded but
# records none (recording is the head's), must not read clean.
one_cpu=""
if command -v taskset >/dev/null 2>&1; then
    one_cpu="taskset -c $(taskset -cp $$ | sed -e 's/.*: *//' -e 's/[,-].*//')"
fi
tail_pf=$(mktemp); head_pf=$(mktemp); tail_log=$(mktemp); head_log=$(mktemp)
rm -f "$tail_pf" "$head_pf"
$one_cpu cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --cluster 1/2 --audit 1 --max-conns 8 --port-file "$tail_pf" > "$tail_log" &
tail_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tail_pf" ] && break
    if ! kill -0 "$tail_pid" 2>/dev/null; then
        echo "error: cluster tail exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$tail_pf" ]; then
    echo "error: cluster tail never wrote its port file" >&2
    kill "$tail_pid" 2>/dev/null || true
    exit 1
fi
tail_addr=$(cat "$tail_pf")
$one_cpu cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --cluster 0/2 --peers "$tail_addr" --audit 1 --max-conns 8 \
    --port-file "$head_pf" > "$head_log" &
head_pid=$!
for _ in $(seq 1 100); do
    [ -s "$head_pf" ] && break
    if ! kill -0 "$head_pid" 2>/dev/null; then
        echo "error: cluster head exited before binding" >&2
        kill "$tail_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$head_pf" ]; then
    echo "error: cluster head never wrote its port file" >&2
    kill "$tail_pid" "$head_pid" 2>/dev/null || true
    exit 1
fi
head_addr=$(cat "$head_pf")
# The head announces itself down the chain asynchronously; retry the
# routed loadgen until the tail has learned the head's address.
cluster_out=""
for _ in $(seq 1 100); do
    if cluster_out=$($one_cpu cargo run -q --release --offline -p cnet-cli -- \
        loadgen --addr "$tail_addr" --cluster 1 --threads 4 --ops 100000 \
        --batch 32 --mode pipeline --check 1 2>/dev/null); then
        break
    fi
    cluster_out=""
    sleep 0.1
done
echo "$cluster_out"
if ! echo "$cluster_out" | grep -q "permutation 0..100000: true"; then
    echo "error: routed cluster values were not a permutation of 0..n" >&2
    kill "$tail_pid" "$head_pid" 2>/dev/null || true
    exit 1
fi
audit_out=$(cargo run -q --release --offline -p cnet-cli -- \
    audit 8 --backend cluster --addr "$head_addr,$tail_addr") || {
    echo "error: cluster-wide audit reported violations (nonzero exit)" >&2
    kill "$tail_pid" "$head_pid" 2>/dev/null || true
    exit 1
}
echo "$audit_out" | tail -n 3
if ! echo "$audit_out" | grep -qx "audit verdict: clean"; then
    echo "error: cluster-wide audit verdict was not clean" >&2
    kill "$tail_pid" "$head_pid" 2>/dev/null || true
    exit 1
fi
# Its own coverage, against what the head served: every one of the
# 100000 operations audited, none dropped, taken or unrecorded.
if ! echo "$audit_out" | grep -qx "audit coverage: 100000 served, 100000 audited, 0 dropped, \
0 skipped by sampling, 0 taken by another puller, 0 not recorded"; then
    echo "error: the cluster-wide audit's coverage was not 100000 served, all audited" >&2
    kill "$tail_pid" "$head_pid" 2>/dev/null || true
    exit 1
fi
for node in "$tail_addr" "$head_addr"; do
    cargo run -q --release --offline -p cnet-cli -- \
        loadgen --addr "$node" --ops 0 --shutdown 1 >/dev/null
done
for pid in "$tail_pid" "$head_pid"; do
    drained=0
    for _ in $(seq 1 100); do
        if ! kill -0 "$pid" 2>/dev/null; then
            drained=1
            break
        fi
        sleep 0.1
    done
    if [ "$drained" -ne 1 ]; then
        echo "error: a cluster node failed to drain after its shutdown request" >&2
        kill -9 "$tail_pid" "$head_pid" 2>/dev/null || true
        exit 1
    fi
done
wait "$tail_pid" "$head_pid"
rm -f "$tail_pf" "$head_pf"
sed -n 's/^audit/head: audit/p' "$head_log"
sed -n 's/^audit/tail: audit/p' "$tail_log"
if ! grep -q "^audit coverage: 100000 served," "$head_log"; then
    echo "error: the cluster head's served audit did not report 100000 served" >&2
    exit 1
fi
if grep -q "^audit verdict: clean" "$tail_log"; then
    echo "error: the cluster tail's served audit read clean over operations it never recorded" >&2
    exit 1
fi
rm -f "$tail_log" "$head_log"
echo "cluster smoke: ok (2-node B(8), 100k ops routed via the tail, clean merged audit, per-node coverage)"

# Diffracting-service smoke: a DiffractingTree-backed serve on an
# ephemeral port must hand an exact permutation to a concurrent pipelined
# loadgen. Prism pairings reorder values between clients, and the
# transport may reorder them further; the multiset may not change.
port_file=$(mktemp)
rm -f "$port_file"
cargo run -q --release --offline -p cnet-cli -- \
    serve 8 --backend diffracting --max-conns 8 --port-file "$port_file" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "error: cnet serve (diffracting smoke) exited before binding" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$port_file" ]; then
    echo "error: cnet serve (diffracting smoke) never wrote its port file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
addr=$(cat "$port_file")
diffracting_out=$(cargo run -q --release --offline -p cnet-cli -- \
    loadgen --addr "$addr" --threads 4 --ops 20000 --batch 64 --mode pipeline \
    --check 1 --shutdown 1)
echo "$diffracting_out"
if ! echo "$diffracting_out" | grep -q "permutation 0..20000: true"; then
    echo "error: diffracting networked values were not a permutation of 0..n" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
drained=0
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        drained=1
        break
    fi
    sleep 0.1
done
if [ "$drained" -ne 1 ]; then
    echo "error: cnet serve (diffracting smoke) failed to drain after shutdown" >&2
    kill -9 "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid"
rm -f "$port_file"
echo "diffracting smoke: ok (permutation over tcp)"

echo "verify: ok"
