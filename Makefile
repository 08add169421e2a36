# SPI — SOAP Passing Interface. Stdlib-only; the go toolchain is the only
# build dependency.

GO ?= go

.PHONY: check build dist vet fmt-check test test-386 shape-census race race-stage race-assemble race-dispatch race-metrics race-pools race-gateway race-controlplane race-transport race-streamfeatures bench bench-smoke figures fuzz-smoke bench-check bench-gate vet-escapes vet-faults vet-onewriter vet-prefix docs-check census

## check: the full gate — build, vet, the gofmt check, race-enabled shuffled tests, the
## application-stage pool's, the packed assembly's and the dispatch machine's 30-run censuses,
## the lock-free latency recorder
## under -race, pool-lifecycle tests under -race, the gateway scatter
## path's 30-run census and its chaos suite under -race, the cluster
## control-plane tier's 30-run census, the 32-bit test run, the transport tier's
## 30-run census (httpx) with the pipelining and C10k soak tests under -race, the
## dispatch-pipeline parity suite under -race, the
## encode-path escape audit, the fault-literal, one-writer and envelope-prefix
## audits, the docs link audit, the timing-shape census, one short pass of
## every benchmark workload, and the allocation gate vs the recorded baseline.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race -shuffle=on ./...
	$(MAKE) race-stage
	$(MAKE) race-assemble
	$(MAKE) race-dispatch
	$(MAKE) race-metrics
	$(MAKE) race-pools
	$(MAKE) race-gateway
	$(MAKE) race-controlplane
	$(MAKE) test-386
	$(MAKE) race-transport
	$(MAKE) race-streamfeatures
	$(MAKE) vet-escapes
	$(MAKE) vet-faults
	$(MAKE) vet-onewriter
	$(MAKE) vet-prefix
	$(MAKE) docs-check
	$(MAKE) shape-census
	$(MAKE) bench-smoke
	$(MAKE) bench-gate

build:
	$(GO) build ./...

## dist: the servers as shipped — static binaries built with CGO_ENABLED=0, so
## they map no libc and resolve names with Go's own resolver — into dist/.
dist:
	CGO_ENABLED=0 $(GO) build -o dist/ ./cmd/spiserver ./cmd/spigateway

vet:
	$(GO) vet ./...

## fmt-check: fail if any Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "fmt-check: not gofmt-formatted:"; \
		echo "$$out"; exit 1; \
	fi; \
	echo "fmt-check: every Go file is gofmt-formatted"

## test: the tier-1 suite (what CI holds the line on).
test:
	$(GO) build ./...
	$(GO) test ./...

## shape-census: the paper's timing shapes, twenty runs each; the
## throughput experiment, which drives the AutoBatcher over the client's
## connections; the lone AutoBatcher call, which must take at most 1.25x
## a direct call; and the fault-injection experiment, whose faulty serial
## rounds must cost more than its clean ones. That last comparison is built
## only with -tags shapecensus: the plain test run checks the retries and
## exchanges the faults cause instead. These tests skip under -race and
## -short, so nothing else in check runs them. The second line runs the
## transport figure's row check once: it takes about ten seconds, so it is
## built only with -tags shapecensus and kept out of the plain test run.
## Wall time on a 2-vCPU box: about 3 min.
shape-census:
	$(GO) test -tags shapecensus -count=20 -run 'TestFigure5Shape|TestFigure7Inversion|TestWSSecurityAmplifiesPacking|TestWANAmplifiesPacking|TestThroughputExperiment|TestAutoBatcherLoneCallIsDirect|TestFaultInjectionExperiment' ./internal/bench
	$(GO) test -tags shapecensus -count=1 -run 'TestTransportRows' ./internal/bench

## test-386: the short suite built for a 32-bit int, where an int conversion
## of a uint32 hash or size can go negative.
test-386:
	GOARCH=386 $(GO) test -short ./...

race:
	$(GO) test -race ./...

## race-stage: the application-stage pool's census — thirty shuffled runs
## under the race detector on one and on two Ps, of the package, of the
## server tests that wait on its queue (admission shedding, the shed at once
## of a request with no deadline, a deadline that ends while a request waits
## for queue space, and the queue-depth gauge) and of the deadline table,
## every wait a request causes on the direct and the gateway path. The
## package is one queue and its tests park and wake goroutines on purpose, so
## a test that fails once in thirty here has a cause to remove, not a run to
## repeat.
race-stage:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 ./internal/stage
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 \
		-run 'TestQueueAdmissionShedding|TestAdmissionShedsAtOnceWithoutDeadline|TestDeadlineWhileQueuedNeverRuns|TestTraceAppQueuePeaksBehindHeldWorker' ./internal/core
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -run 'TestDeadlineTable' ./internal/gateway

## race-assemble: the packed assembly's census (the dispatch machine's
## answers and the assembler), in the style of
## race-stage — thirty shuffled runs under the race detector on one and on two
## Ps of the collector, assembler, plan and gather tests in internal/core, and
## of the gateway's coalesce and reverse-order tests. Workers and backends race
## the protocol goroutine's writes and the deadline sweep by design, so a test
## that fails once in thirty has a cause to remove. The coalescer's shutdown
## test is skipped: it waits out a five-second shutdown and orders nothing.
race-assemble:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -run='Collector|Assembler|Plan|Gather' ./internal/core
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -run='Coalesce|ReverseOrder|GatherWrites' \
		-skip='TestCoalesceShutdownReleasesParked' ./internal/gateway

## race-dispatch: the dispatch machine's census, in the style of race-stage —
## thirty shuffled runs under the race detector on one and on two Ps of the
## stage's enqueue table, and of the machine's exhaustive check (on a stage of
## one worker under -race, about half a second a run), the waits a request causes in
## the queue (its deadline while it waits for space, and work whose request
## ended or faulted whole while it was queued), the Admin lane that runs on
## the protocol goroutine, and the collector, assembler and plan tests.
race-dispatch:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -run 'TestEnqueueTable' ./internal/stage
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 \
		-run 'TestDispatchExhaustive|TestDeadlineWhileQueuedNeverRuns|TestQueuedWorkNeverRunsOnceItsRequestEnded|TestAdminBypassesAppStage|Collector|Assembler|Plan' \
		./internal/core

## race-metrics: the latency recorder has no lock to hide behind — writers
## and Snapshot race on bare atomics, so its suite gets extra runs.
race-metrics:
	$(GO) test -race -count=3 ./internal/metrics

## race-pools: hammer the recycled-memory surfaces (arena, buffer pool,
## interning, streaming decode) under the race detector with extra runs.
race-pools:
	$(GO) test -race -count=3 -run='Arena|Pool|Intern|Stream' \
		./internal/xmldom ./internal/xmltext ./internal/soap \
		./internal/core ./internal/httpx

## race-gateway: the scatter path's census, in the style of race-stage —
## thirty shuffled runs under the race detector on one and on two Ps of the
## scatter, sub-batch, coalesce, passthrough and differential tests, and of
## the request-body lifetime tests: a sub-batch's entries are spans of a
## pooled request body that the transport reuses once the handler returns,
## and shard goroutines may outlive it — and of core's scatter, sub-batch and
## coalescible-call readers and of the batching window both automatic packers
## form their batches in (BatchWindow, AutoBatcher); and of the one reply
## reader client, gather and coalescer share (the hostile-reply table, the
## gateway reply fuzzer's seeds, the client's reply precedence); and of the
## counting rows of both nodes (Tally: each fault counted once, where it is
## written, while shard goroutines and deadlines race to decide it). The chaos, failover, ejection and probe suites and the
## deadline-degrade and relayed-deadline differentials wait out wall-clock timeouts, so they keep
## two runs; the coalescer's shutdown test waits out a five-second shutdown
## and orders nothing. Wall time on a 2-vCPU box: 172 s, 19 s and 32 s for the
## three lines, 3 min 45 s in all.
race-gateway:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -short \
		-run='Scatter|SubBatch|Coalesce|Passthrough|Differential|OneReader|OutlivesRequestBody|Hostile|ReplyIDs|GatewayReply|Tally' \
		-skip='TestChaos|TestCoalesceShutdownReleasesParked|TestDifferentialDeadlineDegrade|TestDifferentialRelayedDeadline' \
		./internal/gateway
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 \
		-run='SubBatch|ScatterRequest|Coalescible|SealID|SplitGather|BatchWindow|AutoBatcher|ReplyPrecedence|IsEntryFault|StripEntryID|Tally' ./internal/core
	$(GO) test -race -count=2 -run='Chaos|Failover|Ejection|Probe|TestDifferentialDeadlineDegrade|TestDifferentialRelayedDeadline' \
		./internal/gateway

## race-controlplane: the cluster control-plane tier. Its gateway half is a
## census in the style of race-stage — thirty shuffled -race runs on one and
## on two Ps of the Admin service and per-backend SetState, LeastLoaded's
## picks and its convergence on the load replies state, hostile SPI-Load
## values, drain-under-load loss/duplication, a drain completing with its
## last exchange (resumed and re-drained while it is held), and a drained
## backend getting no reservation and no probe; then the Admin service's
## snapshot mapping and the exporter, which scrapes nodes on concurrent
## goroutines, shuffled under -race; then the Admin priority lane and one
## run of the drain churn soak.
race-controlplane:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -short \
		-run='TestGatewayAdmin|TestLoadConvergence|TestAssignTable|TestHostileLoadHeader|TestDrainUnderLoad|TestDrainReleases|TestDrainCompletes|TestDrained' \
		./internal/gateway
	$(GO) test -race -shuffle=on ./internal/admin ./cmd/spiexporter
	$(GO) test -race -count=2 -run='TestAdminBypassesAppStage' ./internal/core
	$(GO) test -race -run='TestSoakMembershipChurn' .

## race-transport: the transport tier under the race detector. internal/httpx
## gets a census in the style of race-stage — thirty shuffled runs on one and
## on two Ps of the whole package: the server's one connection loop and its
## read and write turns at windows 0 and 4, the client connection's write
## and read turns at windows 1 and 8, the re-send and drain rows, read, write
## and drain deadlines, framing and pooled buffers (about 3 min on a 2-vCPU
## box). The exhaustive check of the turn machine (TestTurnsExhaustive) is
## deterministic and runs no goroutine a census could race, so it is kept
## out of the census and runs once under -race on its own line. Then core's
## and the gateway's pipelining and zero-copy passthrough tests, and the
## C10k soak (ten thousand pipelined keep-alive connections, every response
## checked for loss/duplication/cross-wiring).
race-transport:
	$(GO) test -race -shuffle=on -count=30 -cpu 1,2 -skip='TestTurnsExhaustive' ./internal/httpx
	$(GO) test -race -run='TestTurnsExhaustive' ./internal/httpx
	$(GO) test -race -shuffle=on -count=2 -run='TestServerPipeline|TestClientPipeline|TestPipelined|TestPassthrough' \
		./internal/core ./internal/gateway
	$(GO) test -race -run='TestSoakC10kPipelined' .

## race-streamfeatures: the one dispatch pipeline under the race detector —
## golden byte parity across WSSE × entry interceptors × coupled, the
## verify-then-execute hold on signed batches (zero operations run on a
## tampered or replayed one), and the entry-interceptor chain. Extra runs
## because packed entries race the decode loop and the drain by design.
race-streamfeatures:
	$(GO) test -race -count=2 \
		-run='TestUnifiedFastPathParity|TestStreamedWSSERejectsTamper|TestRejectedSignedBatchRunsNothing|TestMustUnderstandBatchRunsNothing|TestStreamResponseParity|TestEntryInterceptor' \
		./internal/core

## bench: the paper's experiments as testing.B benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

## figures: regenerate the paper's evaluation tables (EXPERIMENTS.md source).
figures:
	$(GO) run ./cmd/spibench
	$(GO) run ./cmd/spibench -fig faults

## fuzz-smoke: run each fuzz target briefly against the codec layer, the
## reply reader, as the client, the gateway and the exporter's scrape use it,
## the gateway's routing against the server's, and the HTTP message readers,
## against the readers they replaced too.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzTokenizer$$' -fuzztime=10s ./internal/xmltext
	$(GO) test -run='^$$' -fuzz='^FuzzCharData$$' -fuzztime=10s ./internal/xmltext
	$(GO) test -run='^$$' -fuzz='^FuzzTokenizerMatchesFrozen$$' -fuzztime=10s ./internal/xmltext
	$(GO) test -run='^$$' -fuzz='^FuzzParseEnvelope$$' -fuzztime=10s ./internal/soap
	$(GO) test -run='^$$' -fuzz='^FuzzStreamDecoder$$' -fuzztime=10s ./internal/soap
	$(GO) test -run='^$$' -fuzz='^FuzzClientReply$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzGatewayReply$$' -fuzztime=10s ./internal/gateway
	$(GO) test -run='^$$' -fuzz='^FuzzGatewayTarget$$' -fuzztime=10s ./internal/gateway
	$(GO) test -run='^$$' -fuzz='^FuzzReadResponse$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzReadRequestStream$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzReadMatchesFrozen$$' -fuzztime=10s ./internal/httpx
	$(GO) test -run='^$$' -fuzz='^FuzzScrape$$' -fuzztime=10s ./cmd/spiexporter
	$(GO) test -run='^$$' -fuzz='^FuzzFaultRoundTrip$$' -fuzztime=10s ./internal/fault

## bench-smoke: one two-second traced pass of every benchmark workload,
## then a check that no process built into .bench_build/ is still running.
## The harness stops and reaps its children on every return path, so a
## child left alive means the benchmark process itself died early, in code
## it runs in-process (the client's reply reader, the traced pass).
bench-smoke:
	$(GO) run ./benchmark --workload all --seconds 2 --trace 1 --seed 1
	@left=$$(ps -eo pid=,args= | grep '$(CURDIR)/[.]bench_build/' || true); \
	if [ -n "$$left" ]; then \
		echo "bench-smoke: processes left running:"; \
		echo "$$left"; exit 1; \
	fi; \
	echo "bench-smoke: no process from .bench_build/ left running"

## bench-check: snapshot the key benchmarks to BENCH_local.json (gitignored;
## pass -out BENCH_prN.json to benchcheck to record a PR's baseline).
bench-check:
	$(GO) run ./cmd/benchcheck

## bench-gate: fail if a key benchmark's allocs/op or bytes/op grew past the
## tolerance vs the baseline chain, recorded on the box the gate runs on: each
## row is judged against the first file that records it, and every row a file
## records is a row of cmd/benchcheck's table (its TestRowTable). A row
## recorded at 0 allocs/op fails on any allocation. allocs/op is held to 2 %
## on every row whose count repeats from run to run (all but the coalesced and
## pipelined-fleet rows, marked timing in the table, which keep 35 %); bytes/op
## to 35 %. ns/op is printed
## beside them and not judged — on the shared 2-vCPU box it moves by half
## between minutes with no code change, and the gate failed five runs in a row
## on untouched rows while it was. Timing regressions are the benchmark's job
## (`go run ./benchmark`, paired runs). Short benchtime keeps the gate fast.
bench-gate:
	$(GO) run ./cmd/benchcheck -benchtime 200ms -out /tmp/benchgate.json \
		-baseline BENCH_pr24.json,BENCH_pr30.json,BENCH_pr33.json,BENCH_pr34.json,BENCH_pr38.json

## census: print the dead-surface census — every exported identifier under
## internal/ that no non-test code uses or sets, with its allowlist kind
## (testdata/census_allowlist.txt). The same test runs in tier-1 and fails on
## a finding the allowlist does not name, or a line that names no finding.
census:
	$(GO) test -run TestDeadSurfaceCensus -v .

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
