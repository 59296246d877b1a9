# CI entry points for the strippack reproduction. `make ci` is what a
# pipeline should run; the individual targets mirror the tier-1 check
# (`go build ./... && go test ./...`) plus a gofmt check, vet, a race pass
# over the concurrent packages and a benchmark smoke pass.

GO ?= go

.PHONY: all fmt build test vet race ci bench-smoke bench-record fuzz determinism

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark/ directory is its own module, which the root ./... skips.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Fails when gofmt would reformat any tracked Go file. Listing tracked
# files keeps build output such as .bench_build/ out of the scan.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')) && \
	if [ -n "$$out" ]; then echo "gofmt would reformat:"; echo "$$out"; exit 1; fi

# The online scheduler, fault harness, fleet router, placement service,
# the placementd daemon's checkpoint wiring, the release package (its
# BoundCache is hit concurrently from RunGrid trials;
# TestBoundCacheConcurrent fans out goroutines), the precedence package
# (DC's pooled subtree goroutines write disjoint ids into one shared
# packing; TestDCParallelMatchesSerial runs at GOMAXPROCS 8) and
# internal/par (the one fan-out helper every pool above runs on;
# TestForLowestError runs it at widths 1 to 100) under the race
# detector. The experiments tests exercise E13/E14/E15 with their default
# fan-outs, the fleet tests drive distinct tenant lanes from concurrent
# goroutines (TestTenantLanesDisjoint), the service tests hammer Info
# and snapshot reads against per-tenant submissions across connections
# (TestServiceInfoSnapshotSubmitRace), and the placementd tests run the
# periodic checkpoint loop under concurrent tenant load, so the shard
# pool, the lane locks and the checkpointer run genuinely concurrent
# under -race.
race:
	$(GO) test -race ./internal/fpga ./internal/faultinject ./internal/fleet ./internal/service ./internal/experiments ./internal/core/release ./internal/core/precedence ./internal/par ./cmd/placementd

ci: fmt build vet test race bench-smoke determinism

# One iteration of every benchmark in every package (the root suite,
# internal/fleet's routing pass and internal/service's submit frame):
# catches bit-rot in the bench harness without the cost of a full
# measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x ./...

# Full measurement run recorded as JSON (see cmd/benchjson). Name the
# new trajectory point; there is no default, so a bare run cannot
# overwrite a committed BENCH_N.json:
#   make bench-record BENCH_OUT=BENCH_10.json
bench-record:
	@if [ -z "$(BENCH_OUT)" ]; then echo "usage: make bench-record BENCH_OUT=BENCH_N.json" >&2; exit 2; fi
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) -bench . -benchtime 2s

# Property-based fuzzing: the skyline hot path, the online scheduler's
# submit/complete state machine, snapshot/restore replay fidelity, the
# batched-submission equivalence contract, the scheduler's task-ID index
# against a map oracle (negative, colliding and very large IDs, growth,
# probe-then-fill), the snapshot byte codec differentially (the record
# encoder against the struct encoder, and the record decoder against
# struct decode plus a restore through the re-encoded bytes on intact,
# truncated, bit-flipped and count-corrupted bytes, with replay), the
# crash-started configuration-LP bound against the SolveCG oracle across
# repeating and differing width sets, and the placement-service wire
# codec (decoders never panic
# on arbitrary bytes; whatever decodes re-encodes canonically).
# (go test accepts one -fuzz pattern per invocation, hence eight runs.)
fuzz:
	$(GO) test ./internal/geom -fuzz FuzzSkylinePlace -fuzztime 30s
	$(GO) test ./internal/fpga -fuzz FuzzSubmitComplete -fuzztime 30s
	$(GO) test ./internal/fpga -fuzz FuzzSnapshotRestore -fuzztime 30s
	$(GO) test ./internal/fpga -fuzz FuzzSubmitBatch -fuzztime 30s
	$(GO) test ./internal/fpga -fuzz FuzzIDIndex -fuzztime 30s
	$(GO) test ./internal/fpga -fuzz FuzzSnapshotBytes -fuzztime 30s
	$(GO) test ./internal/core/release -fuzz FuzzFractionalLowerBound -fuzztime 30s
	$(GO) test ./internal/service -fuzz FuzzServiceCodec -fuzztime 30s

# The parallel engines' determinism contracts. Every fan-out (RunGrid's
# trials, the DC recursion, the configuration-LP pricing, E13's and
# E14's per-policy replays, the fleet's per-shard work) is GOMAXPROCS
# wide, so the GOMAXPROCS environment variable sets every width at once:
# experiment tables must be byte-identical at GOMAXPROCS=1 and 8, and
# must equal the committed internal/experiments/testdata/tables.golden,
# the pin TestTablesGolden checks in tier-1; the fleet load harness must
# stream 1M tasks across 64 shards byte-identically at GOMAXPROCS=1 vs 8,
# for both a load-blind and a load-aware -route, and 300k tasks with a
# 0.05 reconfiguration delay under reclaim + shed + p2c (the horizon's
# free path) and under compact (whose Finish simulation caught the delay
# rounding defect);
# and the same harness driving a loopback placementd daemon over its
# unix socket (-connect) must reproduce the in-process output — summary
# and canonical-snapshot hash — byte for byte, for both routes.
#
# Two tenant-layer contracts follow: an -all-tenants run driving three
# tenants concurrently (distinct lanes, one connection per tenant) must
# produce per-tenant summary lines (meter + tenant-range snapshot hash)
# byte-identical to serial runs driving each tenant alone; and a daemon
# killed mid-churn by -exit-after (hard exit right after a durable
# checkpoint), restarted with -recover and replayed via -resume must
# produce the complete summary — stats AND snapshot sha256 — byte
# identical to an uninterrupted daemon run. Runs in a private temp dir
# so concurrent invocations on a shared host cannot clobber each other.
#
# placementd binds its socket only once -recover has finished, so each
# daemon start removes the socket file (a hard-exited daemon leaves it
# behind) and `ready` waits for it to reappear. The wait is bounded, and
# a daemon that exits or never binds fails the gate instead of leaving a
# client to give up and a `wait` to hang.
determinism:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/experiments ./cmd/experiments && \
	GOMAXPROCS=1 $$dir/experiments > $$dir/tables-serial.txt && \
	GOMAXPROCS=8 $$dir/experiments > $$dir/tables-par.txt && \
	cmp $$dir/tables-serial.txt $$dir/tables-par.txt && \
	cmp $$dir/tables-serial.txt internal/experiments/testdata/tables.golden && \
	$(GO) build -o $$dir/fleetload ./cmd/fleetload && \
	GOMAXPROCS=1 $$dir/fleetload -n 1000000 -shards 64 -route rr > $$dir/fleet-rr-serial.txt && \
	GOMAXPROCS=8 $$dir/fleetload -n 1000000 -shards 64 -route rr > $$dir/fleet-rr-par.txt && \
	GOMAXPROCS=1 $$dir/fleetload -n 1000000 -shards 64 -route least > $$dir/fleet-least-serial.txt && \
	GOMAXPROCS=8 $$dir/fleetload -n 1000000 -shards 64 -route least > $$dir/fleet-least-par.txt && \
	cmp $$dir/fleet-rr-serial.txt $$dir/fleet-rr-par.txt && \
	cmp $$dir/fleet-least-serial.txt $$dir/fleet-least-par.txt && \
	DR="-n 300000 -shards 64 -policy reclaim -admission shed -route p2c -reconfig 0.05" && \
	DC="-n 300000 -shards 64 -policy compact -reconfig 0.05" && \
	GOMAXPROCS=1 $$dir/fleetload $$DR > $$dir/fleet-dr-serial.txt && \
	GOMAXPROCS=8 $$dir/fleetload $$DR > $$dir/fleet-dr-par.txt && \
	GOMAXPROCS=1 $$dir/fleetload $$DC > $$dir/fleet-dc-serial.txt && \
	GOMAXPROCS=8 $$dir/fleetload $$DC > $$dir/fleet-dc-par.txt && \
	cmp $$dir/fleet-dr-serial.txt $$dir/fleet-dr-par.txt && \
	cmp $$dir/fleet-dc-serial.txt $$dir/fleet-dc-par.txt && \
	$(GO) build -o $$dir/placementd ./cmd/placementd && \
	ready() { \
		i=0; \
		while [ ! -S "$$1" ]; do \
			if [ $$i -ge 600 ] || ! kill -0 $$2 2>/dev/null; then \
				echo "determinism: placementd (pid $$2) is not listening on $$1" >&2; \
				kill $$2 2>/dev/null; return 1; \
			fi; \
			i=$$((i+1)); sleep 0.05; \
		done; \
	} && \
	for route in rr least; do \
		rm -f $$dir/pd.sock; \
		$$dir/placementd -listen unix:$$dir/pd.sock -shards 64 -route $$route & pd=$$!; \
		ready $$dir/pd.sock $$pd || exit 1; \
		$$dir/fleetload -connect unix:$$dir/pd.sock -n 1000000 -shards 64 -route $$route > $$dir/fleet-$$route-daemon.txt || { kill $$pd; exit 1; }; \
		kill -TERM $$pd && wait $$pd; \
		cmp $$dir/fleet-$$route-serial.txt $$dir/fleet-$$route-daemon.txt || exit 1; \
	done && \
	TN="alpha:2:rr,beta:2:least,gamma:2:p2c" && \
	MT="-shards 6 -k 8 -tenants $$TN -seed 9 -n 200000 -chunk 1024" && \
	$$dir/fleetload $$MT -all-tenants > $$dir/mt-all.txt && \
	$$dir/fleetload $$MT -tenant beta > $$dir/mt-beta.txt && \
	$$dir/fleetload $$MT -tenant gamma > $$dir/mt-gamma.txt && \
	grep '^tenant beta ' $$dir/mt-all.txt > $$dir/mt-all-beta.txt && \
	grep '^tenant beta ' $$dir/mt-beta.txt > $$dir/mt-one-beta.txt && \
	cmp $$dir/mt-all-beta.txt $$dir/mt-one-beta.txt && \
	grep '^tenant gamma ' $$dir/mt-all.txt > $$dir/mt-all-gamma.txt && \
	grep '^tenant gamma ' $$dir/mt-gamma.txt > $$dir/mt-one-gamma.txt && \
	cmp $$dir/mt-all-gamma.txt $$dir/mt-one-gamma.txt && \
	( mkdir $$dir/ckpt; \
	  rm -f $$dir/kr.sock; \
	  $$dir/placementd -listen unix:$$dir/kr.sock -shards 6 -k 8 -tenants $$TN -seed 9 2>/dev/null & pd=$$!; \
	  ready $$dir/kr.sock $$pd || exit 1; \
	  $$dir/fleetload -connect unix:$$dir/kr.sock $$MT > $$dir/kr-ref.txt 2>/dev/null || exit 1; \
	  kill -TERM $$pd; wait $$pd; \
	  rm -f $$dir/kr.sock; \
	  $$dir/placementd -listen unix:$$dir/kr.sock -shards 6 -k 8 -tenants $$TN -seed 9 -checkpoint-dir $$dir/ckpt -exit-after 100 >/dev/null 2>&1 & pd=$$!; \
	  ready $$dir/kr.sock $$pd || exit 1; \
	  $$dir/fleetload -connect unix:$$dir/kr.sock $$MT -retries 1 >/dev/null 2>&1; \
	  wait $$pd; \
	  rm -f $$dir/kr.sock; \
	  $$dir/placementd -listen unix:$$dir/kr.sock -shards 6 -k 8 -tenants $$TN -seed 9 -checkpoint-dir $$dir/ckpt -recover 2>/dev/null & pd=$$!; \
	  ready $$dir/kr.sock $$pd || exit 1; \
	  $$dir/fleetload -connect unix:$$dir/kr.sock $$MT -resume > $$dir/kr-replay.txt 2>/dev/null || exit 1; \
	  kill -TERM $$pd; wait $$pd; \
	  cmp $$dir/kr-ref.txt $$dir/kr-replay.txt ) && \
	echo "determinism: tables, fleet harness, tenant lanes and daemon kill+recover+replay all byte-identical"
