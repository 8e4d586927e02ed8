GO ?= go

.PHONY: build test check lint foxvet foxvet-json foxvet-baseline statemachine-dot sessiontype-dot copyflow-dot bench chaos audit telemetry sloc fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# foxvet runs the tree's own analyzers (internal/analysis, assembled by
# cmd/foxvet): seqcmp, singledoor, quasisync, layering, atomiccounter,
# statemachine, noblock, hotpathalloc, sessiontype, shardaffinity,
# taint, intrange, copyflow. See the "Static invariants" section of
# README.md.
foxvet:
	$(GO) run ./cmd/foxvet ./...

# foxvet-baseline records the current findings to foxvet.baseline.json.
# Use it only when landing a new analyzer ahead of the last legacy fix
# (run with `foxvet -baseline foxvet.baseline.json`); the tree ships
# with zero findings, so the recorded ledger should normally be empty.
foxvet-baseline:
	$(GO) run ./cmd/foxvet -write-baseline foxvet.baseline.json ./...

# foxvet-json writes the self-describing report object (foxvet/v2:
# schema, analyzers, findings) to foxvet.json — the artifact CI uploads
# on every run.
foxvet-json:
	$(GO) run ./cmd/foxvet -json ./... > foxvet.json; \
	status=$$?; cat foxvet.json; exit $$status

# statemachine-dot prints the setState transition relation extracted
# from internal/tcp as Graphviz, annotated against the RFC 793 table.
# Pipe it through dot -Tsvg to render.
statemachine-dot:
	$(GO) run ./cmd/foxvet -statemachine-dot ./...

# sessiontype-dot prints the socket-lifecycle protocol the sessiontype
# pass proved, with per-edge counts of call sites exercising each
# transition.
sessiontype-dot:
	$(GO) run ./cmd/foxvet -sessiontype-dot ./...

# copyflow-dot prints the proved copy map of the zero-copy datapath:
# every copy site per layer, classified sanctioned / reviewed boundary /
# violation, with site counts. A clean tree has no red nodes.
copyflow-dot:
	$(GO) run ./cmd/foxvet -copyflow-dot ./...

# check is the full gate: go vet, the structural analyzers, and every
# test under the race detector. The stats package's atomic/plain split is
# exercised here — TestAtomicUnderRace hammers registered counters from
# many goroutines while snapshots run concurrently.
check:
	$(GO) vet ./...
	$(GO) run ./cmd/foxvet ./...
	$(GO) test -race ./...

# lint is an alias for check, for fingers trained on other repos.
lint: check

bench:
	$(GO) test -bench=. -benchmem

# chaos runs the deterministic soaks under the race detector: the
# adversary soak (SYN floods, spoofed RFC 5961 probes, gap bombs, junk
# against a lossy transfer) and the fault-plane partition soak (scripted
# flap/partition/burst schedules; every connection completes or aborts
# with the progress timeout inside a computable bound), with exact
# per-seed assertions (see internal/adversary/soak_test.go,
# internal/fault/soak_test.go, and the EXPERIMENTS.md recipe). Set
# CHAOS_OUT to collect .fsched/journal/pcap artifacts on failure.
chaos:
	$(GO) test -race -count=1 -v ./internal/adversary/ ./internal/fault/

# audit exercises the tamper-evidence pipeline end to end: a lossy
# foxstat run journals both hosts through the Merkle batcher into
# audit-journals/, prints the sealed-segment listing, then foxreplay
# verifies every seal chain and replay-audits the journals with sharded
# workers. Any flipped bit in any segment fails the verify step.
audit:
	rm -rf audit-journals
	$(GO) run ./cmd/foxstat -scenario lossy -flight audit-journals -seals
	$(GO) run ./cmd/foxreplay -verify -workers 4 audit-journals

# telemetry gates the observation plane: the unit and integration tests
# (histogram goldens, seqlock rings, zero-alloc emit, endpoint smoke),
# then the bit-identicality check — foxbench -telemetry runs the same
# transfer unobserved and telemetered and refuses to attest unless the
# virtual results match exactly, and finally a foxstat scrape proves the
# /metrics rendering end to end.
telemetry:
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/seqplot/ ./cmd/foxstat/
	$(GO) test -race -count=1 -run 'TestTelemetry' ./internal/tcp/ ./internal/experiments/
	$(GO) run ./cmd/foxbench -telemetry -bytes 200000 | tee /dev/stderr | grep -q "identical off/on"
	$(GO) run ./cmd/foxstat -scrape metrics.txt
	grep -q "^fox_action_latency_ns" metrics.txt

# sloc prints the count of non-test Go source lines outside testdata/
# and the perfbench module, so each change can report its net delta.
sloc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './perfbench/*' | xargs cat | wc -l

fmt:
	gofmt -w .
