.PHONY: all build test vet race verify verify-quick bench profile

all: build

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race -timeout 90m ./...

# The full verification gate for this repo. verify.sh is the single source
# of truth for what it runs (the full CI tier executes the same script).
verify:
	./verify.sh

# Fast local gate matching the CI PR tier: vet, build, short tests (also
# of the scalar 386 build's kernel packages), one iteration of every
# benchmark.
verify-quick:
	go vet ./...
	GOARCH=arm64 go vet ./...
	go build ./...
	go test -short -timeout 15m ./...
	GOARCH=386 go test -short ./internal/tensor ./internal/nn ./internal/core ./internal/quant
	go test -run '^$$' -bench . -benchtime 1x ./...
	cd bench && go test -short -timeout 10m .

bench:
	go test -bench=. -benchmem -run '^$$' .

# Profile a short experiment run end to end: CPU profile + Chrome trace
# (load trace.json at https://ui.perfetto.dev), then the top-10 hottest
# frames by flat time.
profile:
	go build -o odq-bench-profile ./cmd/odq-bench
	./odq-bench-profile -scale test -run figure1 -quiet \
		-cpuprofile cpu.pprof -trace-out trace.json
	go tool pprof -top -nodecount=10 odq-bench-profile cpu.pprof
	rm -f odq-bench-profile
