# Test tiers. tier1 is the seed gate (must always stay green); tier2
# adds static analysis — go vet plus the domain lint suite (aiglint:
# AIG-literal discipline, emission determinism, dropped errors, metric
# names, ResponseWriter write errors, fault-point naming, and the
# concurrency-safety layer: lockheld, ctxflow, golifecycle, atomicmix)
# — and the race detector over the concurrency-safe telemetry
# layer and everything it instruments, including the fault-tolerance
# suite (checkpoint/resume byte-identity, panic quarantine, equivalence
# guards) in internal/harness.

.PHONY: tier1 tier2 lint bench fuzz chaos serve

tier1:
	go build ./... && go test ./...

tier2:
	go vet ./... && go run ./cmd/aiglint ./... && go test -race ./...

# lint runs only the domain analyzers, verbosely (finding counts,
# suppression counts, and per-analyzer timings — the ten analyzers run
# concurrently over one shared go/types load, so the whole module
# checks in seconds). Findings exit nonzero with file:line positions.
# Machine consumers (CI annotations) use `aiglint -json` instead.
lint:
	go run ./cmd/aiglint -v ./...

# serve runs the diversity-as-a-service daemon (see README "Serving").
# Override the listen address with AIGD_ADDR=:9000.
AIGD_ADDR ?= :8347

serve:
	go run ./cmd/aigd -addr $(AIGD_ADDR)

# fuzz hammers the AIGER parser with coverage-guided random inputs;
# the target asserts parse-or-error (never panic) plus write/read
# round-trip equivalence. Override the budget with FUZZTIME=1m.
FUZZTIME ?= 10s

fuzz:
	go test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/aiger
	go test -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime $(FUZZTIME) ./internal/service
	go test -run '^$$' -fuzz '^FuzzCodec$$' -fuzztime $(FUZZTIME) ./internal/sketch

# chaos runs the deterministic fault-injection suite under the race
# detector: the faultinject registry's own tests, the client and
# cluster suites (partition mid-request, torn fill replies, replication
# killed mid-fan-out, eviction/re-admission), plus every TestChaos*
# scenario (atomic-write fault matrix, torn-checkpoint resume
# byte-identity, spill degradation, restart recovery sweeps, idempotent
# retry accounting). See README "Fault injection & chaos testing".
chaos:
	go test -race ./internal/faultinject ./internal/service/client ./internal/cluster
	go test -race -run '^TestChaos' ./internal/harness ./internal/service

# bench runs every benchmark once; every benchmark reports B/op and
# allocs/op (-benchmem), the pipeline benchmarks also a
# telemetry-derived per-stage breakdown (synthesis/profiling/
# optimization/metrics seconds per op) alongside ns/op, and the same
# breakdown is written to BENCH_pipeline.json for machine consumption.
# The recall contract test runs alongside so its deterministic
# recall-vs-cost numbers are snapshotted into BENCH_sketch.json.
bench:
	BENCH_JSON=BENCH_pipeline.json BENCH_SKETCH_JSON=BENCH_sketch.json \
		go test -run '^TestSketchRecallContract$$' -bench . -benchtime 1x -benchmem .
