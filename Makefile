# SPI — SOAP Passing Interface. Stdlib-only; the go toolchain is the only
# build dependency.

GO ?= go

.PHONY: check build vet test race race-stage race-metrics race-pools race-gateway race-controlplane race-transport race-streamfeatures bench figures fuzz-smoke bench-check bench-gate vet-escapes vet-faults vet-onewriter vet-prefix docs-check

## check: the full gate — build, vet, race-enabled shuffled tests, the
## application-stage pool's 30-run census, the lock-free latency recorder
## under -race, pool-lifecycle tests under -race, the gateway
## differential/chaos suite under -race, the cluster
## control-plane tier under -race, the transport tier (pipelining + C10k
## soak) under -race, the dispatch-pipeline parity suite under -race, the
## encode-path escape audit, the fault-literal, one-writer and envelope-prefix
## audits, the docs link audit, and the allocation gate vs the recorded
## baseline.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...
	$(MAKE) race-stage
	$(MAKE) race-metrics
	$(MAKE) race-pools
	$(MAKE) race-gateway
	$(MAKE) race-controlplane
	$(MAKE) race-transport
	$(MAKE) race-streamfeatures
	$(MAKE) vet-escapes
	$(MAKE) vet-faults
	$(MAKE) vet-onewriter
	$(MAKE) vet-prefix
	$(MAKE) docs-check
	$(MAKE) bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## test: the tier-1 suite (what CI holds the line on).
test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

## race-stage: the application-stage pool's census — thirty shuffled runs
## under the race detector on one and on two Ps. The package is one queue and
## its tests park and wake goroutines on purpose, so a test that fails once
## in thirty here has a cause to remove, not a run to repeat.
race-stage:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 ./internal/stage

## race-metrics: the latency recorder has no lock to hide behind — writers,
## Snapshot and Reset race on bare atomics, so its suite gets extra runs.
race-metrics:
	$(GO) test -race -count=3 ./internal/metrics

## race-pools: hammer the recycled-memory surfaces (arena, buffer pool,
## interning, streaming decode) under the race detector with extra runs.
race-pools:
	$(GO) test -race -count=3 -run='Arena|Pool|Intern|Stream' \
		./internal/xmldom ./internal/xmltext ./internal/soap \
		./internal/core ./internal/httpx

## race-gateway: extra runs of the scatter–gather differential and chaos
## suites under the race detector — the gateway's concurrency (shard
## fan-out, reorder-window gather, circuit state, pool slots) is the code
## under test here.
race-gateway:
	$(GO) test -race -count=2 -run='Differential|Chaos|Failover|Ejection|Probe' \
		./internal/gateway

## race-controlplane: the cluster control-plane tier under the race
## detector — admin service routing state, membership polling, weighted
## convergence, drain-under-load loss/duplication, membership churn soak.
race-controlplane:
	$(GO) test -race -count=2 \
		-run='TestGatewayAdmin|TestMembership|TestWeightedConvergence|TestDrainUnderLoad|TestDrainReleases|TestDifferentialWeighted|TestAdminBypassesAppStage' \
		./internal/gateway ./internal/core
	$(GO) test -race -run='TestSoakMembershipChurn' .

## race-transport: the transport tier under the race detector — server and
## client pipelining state machines, deadline-wheel timers, the zero-copy
## passthrough, and the C10k soak (ten thousand pipelined keep-alive
## connections, every response checked for loss/duplication/cross-wiring).
race-transport:
	$(GO) test -race -shuffle=on -count=2 -run='TestServerPipeline|TestClientPipeline|TestPipelined|TestWheel|TestPassthrough|TestShutdownStopsDrainAlarm' \
		./internal/httpx ./internal/core ./internal/gateway
	$(GO) test -race -run='TestSoakC10kPipelined' .

## race-streamfeatures: the one dispatch pipeline under the race detector —
## golden byte parity across WSSE × differential cache × entry interceptors,
## the verify-then-execute hold on signed batches (zero operations run on a
## tampered or replayed one), the entry-interceptor chain, and the sharded
## LRU. Extra runs because packed entries race the decode loop and the
## reorder window by design.
race-streamfeatures:
	$(GO) test -race -count=2 \
		-run='TestUnifiedFastPathParity|TestStreamedWSSERejectsTamper|TestRejectedSignedBatchRunsNothing|TestMustUnderstandBatchRunsNothing|TestStreamResponseParity|TestEntryInterceptor|TestDifferentialDeserialization|TestDiffCacheLRU' \
		./internal/core

## bench: the paper's experiments as testing.B benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

## figures: regenerate the paper's evaluation tables (EXPERIMENTS.md source).
figures:
	$(GO) run ./cmd/spibench
	$(GO) run ./cmd/spibench -fig faults

## fuzz-smoke: run each fuzz target briefly against the codec layer.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzTokenizer$$' -fuzztime=10s ./internal/xmltext
	$(GO) test -run='^$$' -fuzz='^FuzzCharData$$' -fuzztime=10s ./internal/xmltext
	$(GO) test -run='^$$' -fuzz='^FuzzParseEnvelope$$' -fuzztime=10s ./internal/soap
	$(GO) test -run='^$$' -fuzz='^FuzzReadResponse$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzReadRequestStream$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzParseStats$$' -fuzztime=10s ./internal/admin
	$(GO) test -run='^$$' -fuzz='^FuzzDiffSubtree$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzFaultRoundTrip$$' -fuzztime=10s ./internal/fault

## bench-check: snapshot the key benchmarks to BENCH_local.json (gitignored;
## pass -out BENCH_prN.json to benchcheck to record a PR's baseline).
bench-check:
	$(GO) run ./cmd/benchcheck

## bench-gate: fail if a key benchmark's allocs/op or bytes/op grew past the
## tolerance vs BENCH_pr24.json, the one baseline, recorded on the box the gate
## runs on. Both counts repeat from run to run; ns/op is printed beside them
## and not judged — on the shared 2-vCPU box it moves by half between minutes
## with no code change, and the gate failed five runs in a row on untouched
## rows while it was. Timing regressions are the benchmark's job
## (`go run ./benchmark`, paired runs). Short benchtime keeps the gate fast.
bench-gate:
	$(GO) run ./cmd/benchcheck -benchtime 200ms -out /tmp/benchgate.json \
		-baseline BENCH_pr24.json -tolerance 35

## docs-check: fail on broken relative links in README.md and docs/*.md.
docs-check:
	$(GO) run ./cmd/docscheck

## vet-escapes: audit the streaming encode hot path for unexpected heap
## escapes. The stack scratch buffers in the soap/soapenc writers must stay
## on the stack; a `moved to heap` on one of them would silently reintroduce
## the per-entry allocations this path exists to remove.
vet-escapes:
	@out=$$($(GO) build -gcflags='-m' ./internal/soap ./internal/soapenc 2>&1 | \
		grep -E 'moved to heap: (tmp|local|scratch)' || true); \
	if [ -n "$$out" ]; then \
		echo "vet-escapes: encode-path scratch buffers escaped to the heap:"; \
		echo "$$out"; exit 1; \
	fi; \
	echo "vet-escapes: encode-path scratch buffers stay on the stack"

## vet-faults: the fault-code literal audit. The dotted Server.* refinement
## codes may be spelled exactly once, in internal/fault's envelope edge —
## every other producer must go through the taxonomy constructors, so code
## and retry semantics can never drift apart. Tests are exempt (they pin
## wire bytes on purpose).
vet-faults:
	@out=$$(grep -rnE '"(Server\.(Timeout|Busy|Cancelled))' \
		--include='*.go' --exclude='*_test.go' \
		cmd internal *.go 2>/dev/null | grep -v '^internal/fault/' || true); \
	if [ -n "$$out" ]; then \
		echo "vet-faults: Server.* fault-code literals outside internal/fault:"; \
		echo "$$out"; \
		echo "use the internal/fault constructors (Timeoutf/Busyf/Cancelledf/...) instead"; \
		exit 1; \
	fi; \
	echo "vet-faults: fault-code literals confined to internal/fault"

## vet-onewriter: the one-body-writer audit. Every document internal/core
## sends is streamed by the entry writers (appendRequestEntry,
## appendResponseEntry, Fault.AppendElementFor) into a pooled emitter; nothing
## on a message path builds a tree to serialise it. The tree-writing encoders
## are gone, so the compiler keeps most of that; what it cannot see is core
## assembling a tree by hand and handing it to Envelope.Encode or
## WriteBodyElement, which exist for trees someone else built (header blocks,
## fault details, interceptor replacements). Tests are exempt (they build
## documents by hand on purpose).
vet-onewriter:
	@out=$$(grep -nE 'xmldom\.NewElement|\.AddElement\(|soap\.New\(\)|\.AddBody\(' \
		internal/core/*.go 2>/dev/null | grep -v '_test\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "vet-onewriter: internal/core builds a tree to serialise it:"; \
		echo "$$out"; \
		echo "stream the entry into the emitter instead (see assemble.go)"; \
		exit 1; \
	fi; \
	echo "vet-onewriter: internal/core writes every body through the streamed entry writers"

## vet-prefix: the envelope-prefix audit. Writers spell the envelope namespace
## with soap.PrefixEnvelope and readers bind it by URI, so the older spelling
## SOAP-ENV may appear only where soap.PrefixEnvelope is defined and among the
## tokenizer's read-side intern seeds. A literal anywhere else is a reader
## matching a prefix as bytes — what the gateway's gather walk did before
## PR 25, which made a backend spelling the namespace another way unreadable.
## Tests are exempt (they send the older spelling on purpose).
vet-prefix:
	@out=$$(grep -rn 'SOAP-ENV' --include='*.go' --exclude='*_test.go' \
		benchmark cmd examples internal *.go 2>/dev/null | \
		grep -v '^internal/soap/soap\.go:\|^internal/xmltext/intern\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "vet-prefix: the SOAP-ENV prefix spelled outside soap.PrefixEnvelope:"; \
		echo "$$out"; \
		echo "write with soap.PrefixEnvelope; read the prefix a document binds (see core.splitGather)"; \
		exit 1; \
	fi; \
	echo "vet-prefix: no literal envelope prefix outside internal/soap and the intern seeds"
