#!/usr/bin/env bash
# End-to-end cancellation test for `nn-baton post --verify` on one
# huge layer, whose coordinate-level replay would otherwise run for
# hours:
#   1. --deadline 2 stops the run (search or replay, wherever the
#      deadline lands) with the partial-result exit code 3;
#   2. a SIGTERM mid-run does the same.
# Both must exit within BOUND seconds of starting.
#
# Usage: post_deadline.sh <path-to-nn-baton>
set -euo pipefail

BIN=${1:?usage: post_deadline.sh <path-to-nn-baton>}
DIR=$(mktemp -d)
RUN_PID=
BOUND=30

cleanup() {
    if [[ -n "$RUN_PID" ]] && kill -0 "$RUN_PID" 2>/dev/null; then
        kill -9 "$RUN_PID" 2>/dev/null || true
        wait "$RUN_PID" 2>/dev/null || true
    fi
    rm -rf "$DIR"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() {
    echo "post_deadline: FAIL: $*" >&2
    exit 1
}

cat > "$DIR/big.model" << 'EOF'
model big 224
conv c1 100000 100000 4096 4096 3 3 1
EOF

# Wait for RUN_PID for at most BOUND seconds since $1 (epoch seconds)
# and set RC to its exit code; fail when it is still running.
RC=
await_exit() {
    local start=$1
    while kill -0 "$RUN_PID" 2>/dev/null; do
        (( $(date +%s) - start < BOUND )) ||
            fail "still running after ${BOUND}s"
        sleep 0.1
    done
    RC=0
    wait "$RUN_PID" || RC=$?
    RUN_PID=
}

# 1. Deadline.
start=$(date +%s)
"$BIN" post --model-file "$DIR/big.model" --threads 1 --verify \
    --deadline 2 > "$DIR/deadline.out" 2> "$DIR/deadline.err" &
RUN_PID=$!
await_exit "$start"
[[ "$RC" == 3 ]] ||
    fail "--deadline 2 exited $RC, want 3: $(tail -3 "$DIR/deadline.err")"

# 2. SIGTERM.
start=$(date +%s)
"$BIN" post --model-file "$DIR/big.model" --threads 1 --verify \
    > "$DIR/term.out" 2> "$DIR/term.err" &
RUN_PID=$!
sleep 3
kill -TERM "$RUN_PID" 2>/dev/null || true
await_exit "$start"
[[ "$RC" == 3 ]] ||
    fail "SIGTERM exited $RC, want 3: $(tail -3 "$DIR/term.err")"

echo "post_deadline: OK"
