#!/bin/sh
# Regenerate every benchmark snapshot and diff it against the committed
# BENCH_*.json baseline with cmd/odq-benchcmp. The committed files are
# saved first and always restored, so the working tree is left untouched.
#
# Timing on shared hardware is noisy: the comparison is informational.
# The script's exit status is 1 if any metric slowed down beyond the
# tolerance (default +50%; override with BENCH_TOL), so callers can choose
# to gate on it — the full CI tier runs it with continue-on-error.
set -eu

cd "$(dirname "$0")/.."
TOL="${BENCH_TOL:-0.5}"

go build -o /tmp/odq-benchcmp ./cmd/odq-benchcmp

SNAPSHOTS="
BENCH_train_gemm.json|TRAIN_BENCH_SNAPSHOT|TestTrainGemmBenchSnapshot
BENCH_telemetry.json|TELEMETRY_BENCH_SNAPSHOT|TestTelemetryBenchSnapshot
BENCH_bitplane.json|BITPLANE_BENCH_SNAPSHOT|TestBitplaneBenchSnapshot
BENCH_dist.json|DIST_BENCH_SNAPSHOT|TestDistBenchSnapshot
"

status=0
for entry in $SNAPSHOTS; do
    file=$(echo "$entry" | cut -d'|' -f1)
    env_gate=$(echo "$entry" | cut -d'|' -f2)
    test_name=$(echo "$entry" | cut -d'|' -f3)
    if [ ! -f "$file" ]; then
        echo "== $file: no committed baseline, skipping"
        continue
    fi
    cp "$file" "/tmp/$file.committed"
    echo "== regenerating $file ($test_name)"
    if env "$env_gate=1" go test -run "$test_name" -timeout 60m -count=1 . >/dev/null; then
        echo "== comparing $file (tolerance +$(echo "$TOL" | awk '{printf "%.0f", $1*100}')%)"
        /tmp/odq-benchcmp -tol "$TOL" "/tmp/$file.committed" "$file" || status=1
    else
        echo "== $file: regeneration failed"
        status=1
    fi
    # Restore the committed baseline whatever happened.
    mv "/tmp/$file.committed" "$file"
done
exit $status
