#!/usr/bin/env bash
# Self-healing-fleet gate: train one checkpoint, hand a 2 ranges x 2
# replicas fleet to `bpmf-train serve-fleet` (one supervisor process that
# spawns, probes, reaps, and respawns every replica), put the
# scatter-gather router in front of it, and drill the recovery ladder:
#
#   1. SIGKILL one replica under live traffic -> ZERO client-visible
#      failures (failover bridges the gap), the supervisor respawns it on
#      its ORIGINAL port, the router's `replicas_up` recovers to full
#      strength and health returns to `ok` — with every reply
#      byte-identical to the single-process daemon throughout.
#   2. Corrupt that replica's checkpoint on disk and SIGKILL it -> the
#      supervisor's pre-spawn integrity check refuses to resurrect it: a
#      typed `corrupt_artifact` quarantine diagnostic, the replica STAYS
#      down, and the twin keeps the range serving byte-identically.
#   3. SIGTERM the supervisor -> children are terminated gracefully and
#      the fleet process exits 0 (a partial quarantine is an operator
#      page, not a supervisor failure).
#
# Run from the repo root after `cargo build --release --workspace`.
# Honors BPMF_NO_SIMD=1, so CI runs it once per dispatch arm.
set -euo pipefail

BIN=target/release/bpmf-train
GEN=target/release/gen_mtx
[ -x "$BIN" ] && [ -x "$GEN" ] || {
    echo "release binaries missing; run: cargo build --release --workspace" >&2
    exit 1
}

WORK=$(mktemp -d)
PIDS=()
WATCHDOG_PID=""
cleanup() {
    if [ -n "$WATCHDOG_PID" ]; then
        # Kill the watchdog's `sleep` too: orphaned, it would hold the
        # script's stdout/stderr pipe open long after the gate exits.
        pkill -P "$WATCHDOG_PID" 2>/dev/null || true
        kill "$WATCHDOG_PID" 2>/dev/null || true
    fi
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
    # The supervisor's children are not in PIDS; reap them by argv match
    # so an aborted run cannot leak daemons into the CI runner.
    pkill -9 -f "serve-daemon .*--train $WORK/" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 124' TERM

# Wall-clock watchdog: a wedged drill (lost respawn, hung health poll)
# must FAIL the gate, not stall CI until the runner's global timeout.
# SIGTERM first so the EXIT trap still reaps the fleet; SIGKILL backstop.
WATCHDOG_LIMIT=${BPMF_E2E_TIMEOUT:-900}
(
    sleep "$WATCHDOG_LIMIT"
    echo "watchdog: supervisor e2e exceeded ${WATCHDOG_LIMIT}s wall clock; aborting" >&2
    kill -TERM $$ 2>/dev/null
    sleep 10
    kill -KILL $$ 2>/dev/null
) &
WATCHDOG_PID=$!

# Launch a server command in the background with stdout on a FIFO and
# block — no sleep polling — until it announces the given stdout prefix
# (`serving on ` for daemons/router, `supervising ` for the fleet). Sets
# LAUNCH_PID / LAUNCH_ADDR (the text after the prefix). Waits on the
# FIFO *and* the child PID: a process that crashes at startup aborts the
# run immediately with its stderr instead of wedging the gate.
launch_server() {
    local announce=$1 err=$2 fifo fd line waited=0
    shift 2
    fifo=$(mktemp -u "$WORK/port.XXXXXX")
    mkfifo "$fifo"
    "$@" >"$fifo" 2>"$err" &
    LAUNCH_PID=$!
    PIDS+=("$LAUNCH_PID")
    LAUNCH_ADDR=""
    exec {fd}<"$fifo"
    while [ "$waited" -lt 120 ]; do
        if IFS= read -r -t 2 -u "$fd" line; then
            case "$line" in
            "$announce"*)
                LAUNCH_ADDR=${line#"$announce"}
                break
                ;;
            esac
            continue
        elif [ $? -le 128 ]; then
            break # EOF: the process closed stdout (crashed) pre-announce
        fi
        kill -0 "$LAUNCH_PID" 2>/dev/null || break
        waited=$((waited + 2))
    done
    # fd stays open for the server's lifetime (it owns the write end).
    [ -n "$LAUNCH_ADDR" ] || {
        echo "process exited or never announced '$announce' ($*)" >&2
        cat "$err" >&2
        exit 1
    }
}

# Poll the router's health until it reports the wanted status (or fail
# after ~30 s): replica links and supervisor respawns both land
# asynchronously, so readiness and recovery are "eventually" assertions.
await_health() {
    local addr=$1 want=$2 tries
    for tries in $(seq 1 150); do
        "$BIN" serve-client --addr "$addr" --health >"$WORK/health-poll.json" 2>/dev/null || true
        if grep -q "\"status\":\"$want\"" "$WORK/health-poll.json"; then
            return 0
        fi
        sleep 0.2
    done
    echo "router health never reached '$want':" >&2
    cat "$WORK/health-poll.json" >&2
    return 1
}

# Poll the router's stats until `replicas_up` reaches the wanted count —
# the ISSUE's recovery criterion: a respawned replica counts again.
await_replicas_up() {
    local addr=$1 want=$2 tries
    for tries in $(seq 1 150); do
        "$BIN" serve-client --addr "$addr" --stats >"$WORK/stats-poll.json" 2>/dev/null || true
        if grep -Eq "\"replicas_up\":$want[,}]" "$WORK/stats-poll.json"; then
            return 0
        fi
        sleep 0.2
    done
    echo "router stats never reached replicas_up=$want:" >&2
    cat "$WORK/stats-poll.json" >&2
    return 1
}

# Poll the supervisor's stderr (typed JSON diagnostics, one per line)
# until a pattern shows up.
await_fleet_event() {
    local pattern=$1 tries
    for tries in $(seq 1 150); do
        grep -Eq "$pattern" "$WORK/fleet.err" && return 0
        sleep 0.2
    done
    echo "supervisor never logged '$pattern':" >&2
    cat "$WORK/fleet.err" >&2
    return 1
}

# Current pid of a replica, read off the supervisor's own spawn
# diagnostics (the last `replica ID spawned (pid N, attempt A)` line) —
# no pgrep heuristics, and respawns are picked up automatically.
replica_pid() {
    local line
    line=$(grep -F "replica $1 spawned (pid " "$WORK/fleet.err" | tail -1)
    [ -n "$line" ] || {
        echo "no spawn event for replica $1 in fleet.err" >&2
        return 1
    }
    line=${line#*"spawned (pid "}
    printf '%s\n' "${line%%,*}"
}

# MovieLens-shaped so the catalogue spans several GEMM panels: ~1k items
# gives both ranges real work.
"$GEN" --out "$WORK/ratings.mtx" --kind movielens --scale 0.04 --seed 31

TRAIN_ARGS=(--train "$WORK/ratings.mtx" --k 6 --burnin 2 --samples 4 --threads 1 --seed 9)
SERVE=(--batch-window 5 --workers 2 --exclude-seen --top-n 5)

USERS=()
for u in $(seq 0 15); do USERS+=(--user "$u"); done
POLICIES=("mean" "ucb:0.5" "thompson:9")

echo "== train + checkpoint (one per replica, so corruption stays local)"
"$BIN" "${TRAIN_ARGS[@]}" --checkpoint "$WORK/model.json" >/dev/null
for gr in 00 01 10 11; do
    cp "$WORK/model.json" "$WORK/ckpt-$gr.json"
done

echo "== single-process reference daemon"
launch_server "serving on " "$WORK/ref.err" \
    "$BIN" serve-daemon "${TRAIN_ARGS[@]}" --resume "$WORK/model.json" \
    --addr 127.0.0.1:0 "${SERVE[@]}"
REF_PID=$LAUNCH_PID
for p in "${POLICIES[@]}"; do
    "$BIN" serve-client --addr "$LAUNCH_ADDR" "${USERS[@]}" \
        --top-n 5 --exclude-seen --policy "$p" >"$WORK/single-$p.txt"
    [ -s "$WORK/single-$p.txt" ]
done
"$BIN" serve-client --addr "$LAUNCH_ADDR" --shutdown
wait "$REF_PID"

# The fleet needs FIXED ports (the supervisor respawns on the original
# address; the router's replica list is static), so pick a random base
# below Linux's ephemeral range (32768-60999): a client socket lingering
# in TIME_WAIT on a port in that range would block the replica's bind.
BASE=$((20000 + RANDOM % 12000))
A00="127.0.0.1:$BASE"
A01="127.0.0.1:$((BASE + 1))"
A10="127.0.0.1:$((BASE + 2))"
A11="127.0.0.1:$((BASE + 3))"

echo "== serve-fleet: one supervisor, 2 ranges x 2 replicas"
launch_server "supervising " "$WORK/fleet.err" \
    "$BIN" serve-fleet \
    --replica "0/2@$A00=$WORK/ckpt-00.json" \
    --replica "0/2@$A01=$WORK/ckpt-01.json" \
    --replica "1/2@$A10=$WORK/ckpt-10.json" \
    --replica "1/2@$A11=$WORK/ckpt-11.json" \
    --restart-limit 5 --backoff-base 100 --backoff-max 1000 \
    --probe-interval 300 --probe-failures 3 --seed 5 \
    -- "${TRAIN_ARGS[@]}" "${SERVE[@]}"
FLEET_PID=$LAUNCH_PID
echo "   fleet pid $FLEET_PID, replicas at $A00 $A01 $A10 $A11"

launch_server "serving on " "$WORK/router.err" \
    "$BIN" serve-router --addr 127.0.0.1:0 \
    --shard-addr "0/2@$A00" --shard-addr "0/2@$A01" \
    --shard-addr "1/2@$A10" --shard-addr "1/2@$A11" \
    --retry-budget 3 --request-timeout 2000 --top-n 5
ROUTER_PID=$LAUNCH_PID
ROUTER_ADDR=$LAUNCH_ADDR
echo "   router at $ROUTER_ADDR (pid $ROUTER_PID)"

echo "== all four replicas up: health ok, replies byte-identical"
await_health "$ROUTER_ADDR" ok
await_replicas_up "$ROUTER_ADDR" 4
for p in "${POLICIES[@]}"; do
    "$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
        --top-n 5 --exclude-seen --policy "$p" >"$WORK/fleet-$p.txt"
    diff -u "$WORK/single-$p.txt" "$WORK/fleet-$p.txt" || {
        echo "supervised fleet rankings diverge from the single daemon ($p)" >&2
        exit 1
    }
    echo "   $p: 16/16 match"
done

echo "== drill 1: SIGKILL one replica under traffic -> auto-respawn"
VICTIM="0/2@$A01"
VICTIM_PID=$(replica_pid "$VICTIM")
TRAFFIC_N=80
(
    for i in $(seq 1 "$TRAFFIC_N"); do
        if ! "$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
            --top-n 5 --exclude-seen --policy "ucb:0.5" \
            >"$WORK/traffic-$i.txt" 2>"$WORK/traffic-$i.err"; then
            echo "$i" >>"$WORK/traffic-failures"
        fi
    done
) &
TRAFFIC_PID=$!
# Kill only once traffic is demonstrably flowing (batch 5 underway), so
# the victim dies with most of the drill still ahead of it.
for _ in $(seq 1 400); do
    [ -f "$WORK/traffic-5.txt" ] && break
    sleep 0.05
done
[ -f "$WORK/traffic-5.txt" ] || {
    echo "traffic never started flowing" >&2
    exit 1
}
kill -9 "$VICTIM_PID"
wait "$TRAFFIC_PID"
[ ! -e "$WORK/traffic-failures" ] || {
    echo "client-visible failures while the supervisor was respawning:" >&2
    while read -r i; do cat "$WORK/traffic-$i.err" >&2; done <"$WORK/traffic-failures"
    exit 1
}
for i in $(seq 1 "$TRAFFIC_N"); do
    diff -u "$WORK/single-ucb:0.5.txt" "$WORK/traffic-$i.txt" >/dev/null || {
        echo "traffic batch $i diverged during the kill/respawn window" >&2
        diff -u "$WORK/single-ucb:0.5.txt" "$WORK/traffic-$i.txt" >&2 || true
        exit 1
    }
done
echo "   $TRAFFIC_N/$TRAFFIC_N traffic batches clean and byte-identical"

# The supervisor must have observed the death and respawned the victim
# on its ORIGINAL port — and the router must count it again.
await_fleet_event "replica $VICTIM exited"
await_fleet_event "replica $VICTIM spawned \\(pid [0-9]+, attempt [1-9]"
NEW_PID=$(replica_pid "$VICTIM")
[ "$NEW_PID" != "$VICTIM_PID" ] || {
    echo "victim pid unchanged after SIGKILL — no respawn happened" >&2
    exit 1
}
await_replicas_up "$ROUTER_ADDR" 4
await_health "$ROUTER_ADDR" ok
for p in "${POLICIES[@]}"; do
    "$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
        --top-n 5 --exclude-seen --policy "$p" >"$WORK/respawned-$p.txt"
    diff -u "$WORK/single-$p.txt" "$WORK/respawned-$p.txt" || {
        echo "rankings diverge after the respawn ($p)" >&2
        exit 1
    }
done
echo "   victim respawned (pid $VICTIM_PID -> $NEW_PID), replicas_up=4, health ok"

echo "== drill 2: corrupt a checkpoint -> quarantine, twin keeps serving"
VICTIM2="1/2@$A10"
VICTIM2_PID=$(replica_pid "$VICTIM2")
# Torn write: shear the final byte off the replica's own checkpoint copy.
CKPT="$WORK/ckpt-10.json"
SIZE=$(wc -c <"$CKPT")
head -c $((SIZE - 1)) "$CKPT" >"$CKPT.torn" && mv "$CKPT.torn" "$CKPT"
kill -9 "$VICTIM2_PID"
# The pre-spawn integrity check must refuse to resurrect it: a typed
# corrupt_artifact quarantine, not a respawn onto garbage factors.
await_fleet_event '"code":"corrupt_artifact"'
grep -F "replica $VICTIM2 quarantined" "$WORK/fleet.err" >/dev/null || {
    echo "corrupt_artifact diagnostic does not name the victim:" >&2
    grep corrupt_artifact "$WORK/fleet.err" >&2 || true
    exit 1
}
kill -0 "$VICTIM2_PID" 2>/dev/null && {
    echo "quarantined replica still running (pid $VICTIM2_PID)" >&2
    exit 1
}
# Down one replica the fleet is degraded but SERVING: the twin holds
# range 1 and every ranking stays byte-identical.
await_replicas_up "$ROUTER_ADDR" 3
await_health "$ROUTER_ADDR" degraded
for p in "${POLICIES[@]}"; do
    "$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
        --top-n 5 --exclude-seen --policy "$p" >"$WORK/quarantine-$p.txt"
    diff -u "$WORK/single-$p.txt" "$WORK/quarantine-$p.txt" || {
        echo "rankings diverge with one replica quarantined ($p)" >&2
        exit 1
    }
done
echo "   quarantine is typed and terminal; twin kept the range byte-identical"

echo "== drill 3: graceful supervisor shutdown, exit 0"
kill -TERM "$FLEET_PID"
wait "$FLEET_PID" # exit code 0 or set -e aborts here (partial quarantine is not a failure)
"$BIN" serve-client --addr "$ROUTER_ADDR" --shutdown
wait "$ROUTER_PID"
PIDS=()
echo "   supervisor drained its children and exited cleanly"

echo "supervisor e2e OK (BPMF_NO_SIMD=${BPMF_NO_SIMD:-unset})"
