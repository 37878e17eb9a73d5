#!/bin/sh
# Serving smoke test: start odq-serve on an ephemeral port, fire a
# concurrent request burst, and assert
#
#   1. every request returns HTTP 200 with a logits payload,
#   2. /healthz and /readyz both answer 200 on a live, non-draining
#      server,
#   3. the batch-size histogram on the -debug-addr Prometheus /metrics
#      exposition is nonzero, and the mean batch size exceeds 1 (dynamic
#      batching actually batched the burst),
#   4. SIGTERM drains gracefully and the server exits 0.
#
# Uses a randomly initialized lenet5/mnist model (no checkpoint): the
# smoke test exercises the serving machinery, not model quality.
set -eu

tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/odq-serve" ./cmd/odq-serve

"$tmp/odq-serve" -model lenet5 -dataset mnist -scheme odq -threshold 0.5 \
    -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -max-batch 8 -batch-deadline 50ms 2>"$tmp/serve.log" &
server_pid=$!

# The server logs its bound addresses to stderr (structured text log:
# msg="odq-serve listening" url=http://... / msg="telemetry debug server
# listening" addr=...); poll for both.
base=""
dbg=""
for _ in $(seq 1 100); do
    base=$(sed -n 's/.*msg="odq-serve listening".* url=\(http:\/\/[0-9.:]*\).*/\1/p' "$tmp/serve.log" | head -1)
    dbg=$(sed -n 's/.*msg="telemetry debug server listening".* addr=\([0-9.:]*\).*/\1/p' "$tmp/serve.log" | head -1)
    [ -n "$base" ] && [ -n "$dbg" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve_smoke: FAIL — server died at startup:" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$base" ] || [ -z "$dbg" ]; then
    echo "serve_smoke: FAIL — could not parse listen addresses from:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
echo "serve_smoke: server at $base, metrics at $dbg"

# Probe split: /healthz (liveness) and /readyz (readiness) both answer
# 200 on a freshly started, non-draining server.
for probe in healthz readyz; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$base/$probe")
    if [ "$code" != "200" ]; then
        echo "serve_smoke: FAIL — /$probe returned $code before any drain, want 200" >&2
        exit 1
    fi
done
echo "serve_smoke: /healthz and /readyz both 200"

# One 1x28x28 input: 784 zeros (the model is random-init; any input works).
python3 -c "print('{\"input\":[' + ','.join(['0.5']*784) + ']}')" >"$tmp/req.json" 2>/dev/null \
    || awk 'BEGIN{printf "{\"input\":["; for(i=0;i<784;i++){printf "0.5"; if(i<783) printf ","}; printf "]}"}' >"$tmp/req.json"

curl_one() {
    curl -s -o "$tmp/resp.$1.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        --data @"$tmp/req.json" "$base/v1/infer" >"$tmp/code.$1"
}

echo "serve_smoke: 24 concurrent requests (3 waves of 8)"
for wave in 1 2 3; do
    pids=""
    for i in 1 2 3 4 5 6 7 8; do
        curl_one "$wave.$i" &
        pids="$pids $!"
    done
    # Wait for the curls only — a bare `wait` would also wait on the
    # backgrounded server, which never exits.
    wait $pids
done

fails=0
for f in "$tmp"/code.*; do
    code=$(cat "$f")
    if [ "$code" != "200" ]; then
        echo "serve_smoke: FAIL — request $(basename "$f") got HTTP $code" >&2
        fails=$((fails + 1))
    fi
done
[ "$fails" -eq 0 ] || exit 1
if ! grep -q '"logits"' "$tmp/resp.1.1.json"; then
    echo "serve_smoke: FAIL — response carries no logits: $(cat "$tmp/resp.1.1.json")" >&2
    exit 1
fi

# Batching proof #1: /metrics must expose the batch-size histogram as
# cumulative bucket series under the snake_cased name, with a nonzero
# observation count.
curl -s "http://$dbg/metrics" >"$tmp/metrics.prom"
if ! grep -q '^serve_batch_size_bucket' "$tmp/metrics.prom"; then
    echo "serve_smoke: FAIL — no serve_batch_size_bucket series on /metrics:" >&2
    head -20 "$tmp/metrics.prom" >&2
    exit 1
fi
if ! grep -q '^# TYPE serve_batch_size histogram' "$tmp/metrics.prom"; then
    echo "serve_smoke: FAIL — /metrics missing TYPE line for serve_batch_size" >&2
    exit 1
fi
count=$(awk '/^serve_batch_size_count/ {print $NF; exit}' "$tmp/metrics.prom")
if [ -z "$count" ] || [ "$count" -le 0 ]; then
    echo "serve_smoke: FAIL — serve_batch_size_count is '${count}', want > 0" >&2
    exit 1
fi
# Batching proof #2: /v1/status mean_batch > 1 (the waves of 8 with a
# 50ms deadline must have shared executor passes).
status=$(curl -s "$base/v1/status")
mean=$(printf '%s' "$status" | sed -n 's/.*"mean_batch":\([0-9.]*\).*/\1/p')
if [ -z "$mean" ]; then
    echo "serve_smoke: FAIL — no mean_batch in status: $status" >&2
    exit 1
fi
if ! awk -v m="$mean" 'BEGIN{exit !(m > 1)}'; then
    echo "serve_smoke: FAIL — mean batch size $mean, want > 1 (no cross-request batching)" >&2
    exit 1
fi
echo "serve_smoke: mean batch size $mean"

# Graceful drain: SIGTERM must exit 0.
kill -TERM "$server_pid"
drained=1
for _ in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        drained=0
        break
    fi
    sleep 0.1
done
if [ "$drained" -ne 0 ]; then
    echo "serve_smoke: FAIL — server did not exit within 10s of SIGTERM" >&2
    exit 1
fi
if wait "$server_pid"; then :; else
    echo "serve_smoke: FAIL — server exited nonzero on SIGTERM drain:" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
server_pid=""
echo "serve_smoke: OK — 24/24 requests 200, mean batch $mean, clean SIGTERM drain"
