#!/bin/sh
# Verification gate: vet, build, race-enabled tests. Same as `make verify`.
set -eux
# Metric-name lint: registry names must be literal dotted snake_case and
# never reuse one name across instrument types (cheap, so it runs first).
./scripts/metric_lint.sh
go vet ./...
# The non-amd64 build (scalar microkernels, assembly stubs) only compiles
# for another GOARCH.
GOARCH=arm64 go vet ./...
go build ./...
# Fast early gate: the telemetry layer, the kernels it instruments, the
# weight-code cache every conv executor shares (its generation check),
# the ODQ executor (its sample and output-channel fan-outs write shared
# output, code and mask buffers), the layers whose inference tail runs on
# the pool (QuantReLU, batch-norm and the residual add write one shared
# output tensor from pool tasks) and the scale-out transport are the most
# concurrency-sensitive packages; shake them under the race detector
# before the long full-tree pass.
go test -race -count=1 ./internal/telemetry ./internal/tensor ./internal/quant ./internal/nn ./internal/core ./internal/dist
go test -race -timeout 90m ./...
# Crash-safety gate: train, SIGKILL mid-run, resume; the resumed run must
# be bit-identical to one that was never interrupted.
./scripts/resume_smoke.sh
# Serving gate: start odq-serve, concurrent request burst, assert all 200s
# with cross-request batching visible on the metrics endpoint, then a
# graceful SIGTERM drain.
./scripts/serve_smoke.sh
# Scale-out gate: a 2-worker fleet and a killed-then-elastically-resumed
# fleet must both be byte-identical to a 1-worker run at the same sync
# group.
./scripts/dist_smoke.sh
# Observability gate: a real 2-process TCP fleet must share one run trace
# id across the dist handshake, and odq-tracemerge must fold the
# per-rank trace files into one lane-per-rank Perfetto trace.
./scripts/trace_smoke.sh
# Self-healing gate: SIGKILL one of three elastic workers mid-epoch and
# the survivors must regroup to a byte-identical checkpoint; a forced
# replica panic in odq-serve must answer 503 + Retry-After, respawn the
# replica and return /readyz to ready.
./scripts/chaos_smoke.sh
