# Verification entry points. `make check` is what CI (and a PR author)
# should run: static checks, a full build, and the test suite under the
# race detector — which includes the CLI/daemon/distributed end-to-end
# tests `smoke` selects, so check does not run them a second time.

GO ?= go

.PHONY: check vet build test race ab smoke churn fluid bigtopo clean

check: vet build race churn fluid

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick local end-to-end (a subset of `race`, without the detector): the
# CLI workflow, the massfd daemon over HTTP, and the distributed run — coordinator plus two massfd -worker subprocesses over
# loopback TCP, including the kill-a-worker failure attribution path.
smoke:
	$(GO) test -count=1 -run 'TestToolsEndToEnd|TestMassfdSmoke|TestDistributedEndToEnd|TestDistributedWorkerKillAttribution' .

# Conformance under scripted link/router churn: 25 seeded scenarios, each
# given a derived fault script and checked sequential vs k∈{2,4,8}, plus a
# distributed k=4 leg over two in-process workers (slice-local build,
# scoped routing, scenario artifact cache).
churn:
	$(GO) run ./cmd/simcheck -scenarios 25 -churn -dist 2 -dist-k 4

# Hybrid flow/packet fidelity: every seeded scenario rerun with bulk
# transfers on the analytic fluid plane, checked two ways — byte-identical
# across k∈{2,4,8}, and (churn-free) within the per-metric error budget of
# its pure-packet twin (goodput, FCT percentiles, link utilization).
fluid:
	$(GO) run ./cmd/simcheck -scenarios 25 -fluid

# Big-topology memory smoke: a 2-AS large-fanout network distributed at
# k=4, asserting a sliced worker retains well under an unscoped router's
# routing bytes and heap. Nightly, not per-PR.
bigtopo:
	MASSF_BIGTOPO=1 $(GO) test -count=1 -run TestBigTopoSliceMemory -v -timeout 20m ./internal/simcheck/

# The perf gate (CI runs it on pull requests): bench/ on the merge-base of
# BASE and on this tree, 3 alternating pairs; scripts/ab.sh says what
# fails it. `make ab BASE=origin/main`.
ab:
	bash scripts/ab.sh $(BASE)

clean:
	$(GO) clean ./...
