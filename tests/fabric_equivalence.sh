#!/usr/bin/env bash
# fabric_equivalence — the acceptance gate for the distributed sweep
# fabric (`momsim coord` + a fleet of `momsim serve` workers):
#
#  (1) a coordinator dealing fig6 --quick to two local workers prints
#      stdout byte-identical to the plain single-process run, and its
#      final render replays every point from the merged store
#      (simulated=0 — nothing is ever computed twice);
#  (2) SIGKILLing one worker mid-shard must not lose or corrupt the
#      sweep: the coordinator re-deals the dead worker's unfinished
#      points to the survivor and still exits 0 with byte-identical
#      stdout.
#
# Usage: fabric_equivalence.sh <momsim-binary> <workdir>
set -u

MOMSIM=$1
WORKDIR=${2:-.}
dir="$WORKDIR/fabric_equivalence"
rm -rf "$dir"
mkdir -p "$dir"

pids=""
fail() {
    echo "fabric_equivalence: FAIL: $*" >&2
    [ -n "$pids" ] && kill -9 $pids 2>/dev/null
    exit 1
}

# start_worker NAME [extra serve args...] — sets $port and appends to
# $pids; the worker publishes its ephemeral TCP port via --ready-file.
start_worker() {
    name=$1
    shift
    rm -f "$dir/$name.ready"
    "$MOMSIM" serve --port 0 --no-timing --ready-file "$dir/$name.ready" \
        "$@" 2> "$dir/$name.err" &
    worker_pid=$!
    pids="$pids $worker_pid"
    for _ in $(seq 1 200); do
        [ -f "$dir/$name.ready" ] && break
        kill -0 "$worker_pid" 2>/dev/null \
            || fail "worker $name died during startup (see $dir/$name.err)"
        sleep 0.05
    done
    [ -f "$dir/$name.ready" ] || fail "worker $name never wrote --ready-file"
    port=$(sed -n 's/^tcp:127\.0\.0\.1:\([0-9]*\)$/\1/p' "$dir/$name.ready")
    [ -n "$port" ] \
        || fail "no tcp address in $name ready file: $(cat "$dir/$name.ready")"
}

# ---- reference: the plain single-process run ----
timeout 300 "$MOMSIM" fig6 --quick > "$dir/ref.out" 2> "$dir/ref.err" \
    || fail "reference momsim fig6 --quick exited $?"
[ -s "$dir/ref.out" ] || fail "reference run printed nothing"

# ---- (1) happy path: coordinator + two workers, byte-identical ----
start_worker w1
port1=$port
start_worker w2
port2=$port

timeout 300 "$MOMSIM" coord --workers "127.0.0.1:$port1,127.0.0.1:$port2" \
    fig6 --quick > "$dir/coord.out" 2> "$dir/coord.err" \
    || fail "momsim coord exited $? (see $dir/coord.err)"
cmp -s "$dir/ref.out" "$dir/coord.out" \
    || fail "coordinator stdout differs from the single-process run" \
            "(see $dir/ref.out vs $dir/coord.out)"
grep -q ' simulated=0 ' "$dir/coord.err" \
    || fail "final render re-simulated points instead of replaying the" \
            "fleet's store (see $dir/coord.err)"
grep -q '\[coord\] plan:' "$dir/coord.err" \
    || fail "coordinator never logged its plan (see $dir/coord.err)"

# ---- (2) kill one worker mid-shard: re-deal, still byte-identical ----
# The victim runs --jobs 1 so its shard executes serially, leaving a
# wide window between accepting the deal (its pong's pendingPoints,
# read by a ping on a second connection, turns positive) and shard
# completion.  A worker can still finish a small deal before the poll
# loop lands the SIGKILL, so the whole scenario retries a few times;
# one successful mid-shard kill passes.
killed_ok=""
for attempt in 1 2 3 4; do
    start_worker "victim$attempt" --jobs 1
    vport=$port
    vpid=$worker_pid

    timeout 300 "$MOMSIM" coord \
        --workers "127.0.0.1:$port1,127.0.0.1:$vport" \
        --worker-timeout-ms 60000 \
        fig6 --quick > "$dir/kill.out" 2> "$dir/kill.err" &
    coord_pid=$!
    pids="$pids $coord_pid"

    # Kill the victim the moment it starts executing a deal.
    for _ in $(seq 1 400); do
        pending=$(echo '{"kind":"ping"}' \
            | timeout 10 "$MOMSIM" client --connect "127.0.0.1:$vport" \
                2>/dev/null \
            | sed -n 's/.*"pendingPoints":\([0-9]*\).*/\1/p')
        [ "${pending:-0}" -gt 0 ] && break
        kill -0 "$coord_pid" 2>/dev/null || break
        sleep 0.05
    done
    kill -9 "$vpid" 2>/dev/null

    wait "$coord_pid"
    rc=$?
    [ "$rc" -eq 0 ] \
        || fail "coord exited $rc after worker kill (see $dir/kill.err)"
    cmp -s "$dir/ref.out" "$dir/kill.out" \
        || fail "stdout differs after worker kill" \
                "(see $dir/ref.out vs $dir/kill.out)"
    if grep -q 're-deal' "$dir/kill.err"; then
        killed_ok=yes
        break
    fi
    # The victim finished its whole shard before the kill landed; the
    # run was still byte-identical, but it did not exercise the
    # re-deal path.  Try again.
    echo "fabric_equivalence: attempt $attempt missed the mid-shard" \
         "window, retrying" >&2
done
[ -n "$killed_ok" ] \
    || fail "never caught a worker mid-shard in 4 attempts" \
            "(see $dir/kill.err)"

kill $pids 2>/dev/null
wait 2>/dev/null
pids=""

echo "fabric_equivalence: coord==solo byte-identical, render replayed" \
     "the fleet store (simulated=0), worker kill mid-shard re-dealt and" \
     "stayed byte-identical, exit 0"
