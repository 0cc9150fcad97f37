#!/usr/bin/env bash
# Zero-downtime-reload gate: train a v1 checkpoint, serve it, then prove
# the live-model surface end to end:
#
#   1. Warm-start training: `--resume v1 --checkpoint v2` continues the
#      SAME Gibbs chain (v2's iteration counter extends v1's) instead of
#      re-burning from scratch.
#   2. Hot swap under load: 16 concurrent clients hammer a daemon while
#      `serve-client --reload v2.json` lands mid-stream -> ZERO
#      client-visible failures, every reply byte-identical to what v1 OR
#      v2 serves (never a blend), and every post-ack reply is v2's.
#   3. Cold-start fold-in: `serve-client --fold-in ITEM:RATING,...`
#      answers for a user the daemon has never seen.
#   4. Rolling fleet reload: overwrite the checkpoints of a supervised
#      2 ranges x 2 replicas fleet -> the supervisor pushes reloads one
#      replica per range at a time, router health stays `ok` throughout,
#      and the fleet's rankings flip to v2 byte-identically.
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
        pkill -P "$WATCHDOG_PID" 2>/dev/null || true
        kill "$WATCHDOG_PID" 2>/dev/null || true
    fi
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
    pkill -9 -f "serve-daemon .*--train $WORK/" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 124' TERM

WATCHDOG_LIMIT=${BPMF_E2E_TIMEOUT:-900}
(
    sleep "$WATCHDOG_LIMIT"
    echo "watchdog: reload e2e exceeded ${WATCHDOG_LIMIT}s wall clock; aborting" >&2
    kill -TERM $$ 2>/dev/null
    sleep 10
    kill -KILL $$ 2>/dev/null
) &
WATCHDOG_PID=$!

# Launch a server in the background, block until it announces readiness
# on stdout, and set LAUNCH_PID / LAUNCH_ADDR (same FIFO handshake as
# the other serving gates — no sleep polling, crash-at-startup aborts).
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
    [ -n "$LAUNCH_ADDR" ] || {
        echo "process exited or never announced '$announce' ($*)" >&2
        cat "$err" >&2
        exit 1
    }
}

# The router's health report nests one report per replica, so the match
# must pin the TOP-LEVEL status ("role":"router" precedes it) — a bare
# status grep would hit a healthy replica inside a degraded fleet.
await_health() {
    local addr=$1 want=$2 tries
    for tries in $(seq 1 150); do
        "$BIN" serve-client --addr "$addr" --health >"$WORK/health-poll.json" 2>/dev/null || true
        if grep -q "\"role\":\"router\",\"status\":\"$want\"" "$WORK/health-poll.json"; then
            return 0
        fi
        sleep 0.2
    done
    echo "router health never reached '$want':" >&2
    cat "$WORK/health-poll.json" >&2
    return 1
}

# Poll the router's stats until `replicas_up` reaches the wanted count —
# full-strength readiness before the drill starts.
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

# Poll a daemon's (or router's) health until it reports the wanted served
# model epoch — how the gate observes an asynchronous rolling reload land.
await_model_epoch() {
    local addr=$1 want=$2 tries
    for tries in $(seq 1 150); do
        "$BIN" serve-client --addr "$addr" --health >"$WORK/epoch-poll.json" 2>/dev/null || true
        if grep -Eq "\"model_epoch\":$want[,}]" "$WORK/epoch-poll.json"; then
            return 0
        fi
        sleep 0.2
    done
    echo "health never reported model_epoch=$want:" >&2
    cat "$WORK/epoch-poll.json" >&2
    return 1
}

await_fleet_event() {
    local pattern=$1 tries
    for tries in $(seq 1 300); do
        grep -Eq "$pattern" "$WORK/fleet.err" && return 0
        sleep 0.2
    done
    echo "supervisor never logged '$pattern':" >&2
    cat "$WORK/fleet.err" >&2
    return 1
}

# MovieLens-shaped so the catalogue spans several GEMM panels.
"$GEN" --out "$WORK/ratings.mtx" --kind movielens --scale 0.04 --seed 31

# v2 extends the same chain: four more sampling iterations on top of
# v1's six, so the two serve genuinely different posteriors.
TRAIN_V1=(--train "$WORK/ratings.mtx" --k 6 --burnin 2 --samples 4 --threads 1 --seed 9)
TRAIN_V2=(--train "$WORK/ratings.mtx" --k 6 --burnin 2 --samples 8 --threads 1 --seed 9)
SERVE=(--batch-window 5 --workers 2 --exclude-seen --top-n 5)

USERS=()
for u in $(seq 0 15); do USERS+=(--user "$u"); done

echo "== train v1, then warm-start v2 from it"
"$BIN" "${TRAIN_V1[@]}" --checkpoint "$WORK/v1.json" >/dev/null
"$BIN" "${TRAIN_V2[@]}" --resume "$WORK/v1.json" --checkpoint "$WORK/v2.json" \
    >/dev/null 2>"$WORK/warm.err"
grep -q "resuming from $WORK/v1.json at iteration 6" "$WORK/warm.err" || {
    echo "v2 training did not resume v1's chain:" >&2
    cat "$WORK/warm.err" >&2
    exit 1
}
grep -q '"iter": *10' "$WORK/v2.json" || {
    echo "v2 checkpoint does not extend v1's iteration counter" >&2
    exit 1
}
echo "   v1 at iteration 6, v2 warm-started to iteration 10"

echo "== reference rankings from daemons pinned to each version"
launch_server "serving on " "$WORK/ref2.err" \
    "$BIN" serve-daemon "${TRAIN_V2[@]}" --resume "$WORK/v2.json" \
    --addr 127.0.0.1:0 "${SERVE[@]}"
V2_PID=$LAUNCH_PID
"$BIN" serve-client --addr "$LAUNCH_ADDR" "${USERS[@]}" \
    --top-n 5 --exclude-seen --policy mean >"$WORK/offline-v2.txt"
"$BIN" serve-client --addr "$LAUNCH_ADDR" --shutdown
wait "$V2_PID"

launch_server "serving on " "$WORK/live.err" \
    "$BIN" serve-daemon "${TRAIN_V1[@]}" --resume "$WORK/v1.json" \
    --addr 127.0.0.1:0 "${SERVE[@]}"
LIVE_PID=$LAUNCH_PID
LIVE_ADDR=$LAUNCH_ADDR
"$BIN" serve-client --addr "$LIVE_ADDR" "${USERS[@]}" \
    --top-n 5 --exclude-seen --policy mean >"$WORK/offline-old.txt"
if cmp -s "$WORK/offline-old.txt" "$WORK/offline-v2.txt"; then
    echo "v1 and v2 rank identically — the drill would prove nothing" >&2
    exit 1
fi
echo "   live daemon at $LIVE_ADDR serving v1 (and v1 != v2)"

echo "== hot swap under load: reload lands mid-stream, zero failures"
TRAFFIC_N=120
(
    for i in $(seq 1 "$TRAFFIC_N"); do
        if ! "$BIN" serve-client --addr "$LIVE_ADDR" "${USERS[@]}" \
            --top-n 5 --exclude-seen --policy mean \
            >"$WORK/traffic-$i.txt" 2>"$WORK/traffic-$i.err"; then
            echo "$i" >>"$WORK/traffic-failures"
        fi
    done
) &
TRAFFIC_PID=$!
for _ in $(seq 1 400); do
    [ -f "$WORK/traffic-5.txt" ] && break
    sleep 0.05
done
[ -f "$WORK/traffic-5.txt" ] || {
    echo "traffic never started flowing" >&2
    exit 1
}
"$BIN" serve-client --addr "$LIVE_ADDR" --reload "$WORK/v2.json" 2>"$WORK/reload.err"
grep -q "model epoch 10" "$WORK/reload.err" || {
    echo "reload ack did not carry the new model epoch:" >&2
    cat "$WORK/reload.err" >&2
    exit 1
}
# The ack means the swap is published: every reply scored from here on
# is v2's, byte for byte.
"$BIN" serve-client --addr "$LIVE_ADDR" "${USERS[@]}" \
    --top-n 5 --exclude-seen --policy mean >"$WORK/post-ack.txt"
diff -u "$WORK/offline-v2.txt" "$WORK/post-ack.txt" || {
    echo "post-ack rankings are not v2's" >&2
    exit 1
}
wait "$TRAFFIC_PID"
[ ! -e "$WORK/traffic-failures" ] || {
    echo "client-visible failures during the hot swap:" >&2
    while read -r i; do cat "$WORK/traffic-$i.err" >&2; done <"$WORK/traffic-failures"
    exit 1
}
# Bit-identity is per REPLY: one serve-client invocation carries 16
# user requests, and the swap may land between micro-batches inside it,
# so a single invocation can legitimately mix v1 and v2 answers across
# users. Split every output into per-user blocks and require each block
# byte-identical to that user's v1 OR v2 ranking — never a third thing.
split_by_user() {
    local src=$1 dir=$2
    mkdir -p "$dir"
    awk -v dir="$dir" '/^top-5 for user /{n++} {print > sprintf("%s/u%02d", dir, n)}' "$src"
}
split_by_user "$WORK/offline-old.txt" "$WORK/split-old"
split_by_user "$WORK/offline-v2.txt" "$WORK/split-v2"
SAW_OLD=0 SAW_NEW=0
for i in $(seq 1 "$TRAFFIC_N"); do
    split_by_user "$WORK/traffic-$i.txt" "$WORK/split-traffic"
    for u in "$WORK"/split-traffic/u*; do
        b=$(basename "$u")
        if cmp -s "$WORK/split-old/$b" "$u"; then
            SAW_OLD=$((SAW_OLD + 1))
        elif cmp -s "$WORK/split-v2/$b" "$u"; then
            SAW_NEW=$((SAW_NEW + 1))
        else
            echo "traffic batch $i, block $b matches NEITHER v1 nor v2 (a blend?)" >&2
            diff -u "$WORK/split-old/$b" "$u" >&2 || true
            diff -u "$WORK/split-v2/$b" "$u" >&2 || true
            exit 1
        fi
    done
    rm -rf "$WORK/split-traffic"
done
[ "$SAW_OLD" -gt 0 ] && [ "$SAW_NEW" -gt 0 ] || {
    echo "swap did not land mid-stream (old=$SAW_OLD new=$SAW_NEW replies)" >&2
    exit 1
}
await_model_epoch "$LIVE_ADDR" 10
echo "   $TRAFFIC_N/$TRAFFIC_N batches clean ($SAW_OLD replies served v1, $SAW_NEW served v2), health reports epoch 10"

echo "== cold-start fold-in on the live daemon"
"$BIN" serve-client --addr "$LIVE_ADDR" --fold-in "3:4.0,17:2.5,40:5.0" \
    --top-n 5 >"$WORK/fold-in.txt" 2>"$WORK/fold-in.err"
grep -q "fold-in" "$WORK/fold-in.txt" || {
    echo "fold-in produced no ranked list:" >&2
    cat "$WORK/fold-in.txt" "$WORK/fold-in.err" >&2
    exit 1
}
echo "   fold-in answered for a user the model has never seen"
"$BIN" serve-client --addr "$LIVE_ADDR" --shutdown
wait "$LIVE_PID"

echo "== rolling fleet reload: 2 ranges x 2 replicas, one at a time"
for gr in 00 01 10 11; do
    cp "$WORK/v1.json" "$WORK/ckpt-$gr.json"
done
BASE=$((20000 + RANDOM % 12000))
A00="127.0.0.1:$BASE"
A01="127.0.0.1:$((BASE + 1))"
A10="127.0.0.1:$((BASE + 2))"
A11="127.0.0.1:$((BASE + 3))"
launch_server "supervising " "$WORK/fleet.err" \
    "$BIN" serve-fleet \
    --replica "0/2@$A00=$WORK/ckpt-00.json" \
    --replica "0/2@$A01=$WORK/ckpt-01.json" \
    --replica "1/2@$A10=$WORK/ckpt-10.json" \
    --replica "1/2@$A11=$WORK/ckpt-11.json" \
    --restart-limit 5 --backoff-base 100 --backoff-max 1000 \
    --probe-interval 300 --probe-failures 3 --seed 5 \
    -- "${TRAIN_V1[@]}" "${SERVE[@]}"
FLEET_PID=$LAUNCH_PID

launch_server "serving on " "$WORK/router.err" \
    "$BIN" serve-router --addr 127.0.0.1:0 \
    --shard-addr "0/2@$A00" --shard-addr "0/2@$A01" \
    --shard-addr "1/2@$A10" --shard-addr "1/2@$A11" \
    --retry-budget 3 --request-timeout 2000 --top-n 5
ROUTER_PID=$LAUNCH_PID
ROUTER_ADDR=$LAUNCH_ADDR
await_health "$ROUTER_ADDR" ok
await_replicas_up "$ROUTER_ADDR" 4
"$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
    --top-n 5 --exclude-seen --policy mean >"$WORK/fleet-before.txt"
diff -u "$WORK/offline-old.txt" "$WORK/fleet-before.txt" || {
    echo "fleet does not serve v1 before the roll" >&2
    exit 1
}

# The trainer "publishes" v2 by overwriting every replica's checkpoint;
# the supervisor notices the new stamps and rolls the fleet, one replica
# per range at a time, with router traffic flowing throughout.
for gr in 00 01 10 11; do
    cp "$WORK/v2.json" "$WORK/ckpt-$gr.json"
done
(
    for i in $(seq 1 60); do
        if ! "$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
            --top-n 5 --exclude-seen --policy mean \
            >"$WORK/roll-$i.txt" 2>"$WORK/roll-$i.err"; then
            echo "$i" >>"$WORK/roll-failures"
        fi
        "$BIN" serve-client --addr "$ROUTER_ADDR" --health \
            >"$WORK/roll-health-$i.json" 2>/dev/null || true
    done
) &
ROLL_PID=$!
for addr in "$A00" "$A01" "$A10" "$A11"; do
    await_fleet_event "replica ./2@$addr reloaded .*model epoch 10"
done
wait "$ROLL_PID"
[ ! -e "$WORK/roll-failures" ] || {
    echo "client-visible failures during the rolling reload:" >&2
    while read -r i; do cat "$WORK/roll-$i.err" >&2; done <"$WORK/roll-failures"
    exit 1
}
# Health never left `ok`: a rolling reload is freshness, not degradation.
for h in "$WORK"/roll-health-*.json; do
    grep -q '"role":"router","status":"ok"' "$h" || {
        echo "router health degraded during the roll:" >&2
        cat "$h" >&2
        exit 1
    }
done
await_health "$ROUTER_ADDR" ok
"$BIN" serve-client --addr "$ROUTER_ADDR" "${USERS[@]}" \
    --top-n 5 --exclude-seen --policy mean >"$WORK/fleet-after.txt"
diff -u "$WORK/offline-v2.txt" "$WORK/fleet-after.txt" || {
    echo "fleet rankings did not flip to v2 after the roll" >&2
    exit 1
}
echo "   all four replicas rolled to epoch 10, health ok throughout, rankings are v2's"

kill -TERM "$FLEET_PID"
wait "$FLEET_PID"
"$BIN" serve-client --addr "$ROUTER_ADDR" --shutdown
wait "$ROUTER_PID"
PIDS=()

echo "reload e2e OK (BPMF_NO_SIMD=${BPMF_NO_SIMD:-unset})"
