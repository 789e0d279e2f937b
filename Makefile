# Development targets for the SIMTY-Go reproduction.
#
#   make verify   — the full pre-merge gate, one named target per check:
#                   vet (go vet, and gofmt must list no tracked Go
#                   file), build, race (the suite under -race), repeat
#                   (the suite twice in one process per package), hammer
#                   (a repeated race pass over the parallel-harness paths),
#                   fuzz-smoke (a short pass over every FUZZTARGETS
#                   entry), kill-a-worker (the multi-process shard
#                   supervisor under crash/hang/poison/resume), cover
#                   (the per-package coverage floor), bench-smoke (a
#                   single-shot pass over the microbenchmarks: smoke,
#                   not measurement), and wakebench-test (vet and tests
#                   of the cmd/wakebench module, which the root
#                   `go test ./...` does not reach), and integration (a
#                   doubled race pass over the daemon, multi-process
#                   sharding and tournament packages). hammer, fuzz-smoke
#                   and kill-a-worker first fail on any entry of their
#                   test lists that selects no test.
#   make test     — tier-1 tests only (what CI must keep green).
#   make cover    — per-package coverage with a floor on the core
#                   packages (internal/alarm, internal/sim,
#                   internal/fleet must each stay ≥ $(COVERMIN)%).
#   make fuzz     — the fuzz-smoke loop with a longer FUZZTIME.
#   make bench    — the kernel + queue microbenchmarks, measured, then
#                   gated against bench/baseline.txt (>10% regression in
#                   ns/op or allocs/op on any kernel benchmark fails).
#   make bench-baseline — re-measure and overwrite the stored baseline
#                   (run on the reference machine after an intentional
#                   perf change, and commit the result).
#   make serve    — build and run the wakesimd HTTP service locally.
#   make docker   — build the wakesimd service image.
#
# CI runs each verify target as its own step on every push and pull
# request (.github/workflows/ci.yml).

GO ?= go

.PHONY: verify test race repeat hammer fuzz-smoke kill-a-worker cover bench-smoke wakebench-test integration fuzz bench bench-gate bench-baseline vet build serve docker

# Kernel benchmark selection shared by bench, bench-baseline, and the
# verify smoke; BENCHCOUNT repetitions feed benchgate's median. The
# backend benchmarks (histogram fold + server-queue replay: the fleet
# aggregation hot path when the herd model is on) ride the same gate.
KERNELBENCH = ./internal/simclock/ -run '^$$' -bench '^BenchmarkKernel' -benchmem
BACKENDBENCH = ./internal/backend/ -run '^$$' -bench '^BenchmarkBackend' -benchmem
# Shard-aggregate serialization (the multi-process supervisor's wire
# format and checkpoint record payload: framed encode/decode).
SHARDBENCH = ./internal/fleet/ -run '^$$' -bench '^Benchmark(EncodeShard|DecodeShard)$$' -benchmem
# The fold's accumulators: a 4,096-observation fold and a merge of two
# 2,048-device shards' folds (smoke only, not gated).
ACCBENCH = ./internal/stats/ -run '^$$' -bench '^BenchmarkAcc(Add|Merge)$$' -benchmem
BENCHCOUNT ?= 10

# Fuzz targets as package:FuzzName pairs. Go runs one fuzz target per
# invocation, so fuzz-smoke loops over the list; FUZZTIME is the budget
# per target.
FUZZTARGETS = \
	./internal/apps:FuzzSpecJSON \
	./internal/alarm:FuzzQueueOps \
	./internal/fleet:FuzzFleetSpec \
	./internal/fleet:FuzzDecodeShard \
	./internal/simclock:FuzzClockPool \
	./internal/shardexec:FuzzManifestJSON \
	./internal/stats:FuzzAccMatchesDense \
	./internal/tournament:FuzzTournamentSpec
FUZZTIME ?= 10s

# Race-hammer selection: test-name patterns and the packages they run
# in. hammer joins HAMMERTESTS into one -run alternation.
HAMMERTESTS = RunAll RunTrials CompareTrials Sweep GoldenRecordParity \
	Fleet Concurrent Drain SSE Daemon PooledMatchesUnpooled NoTraceParity \
	Backend Herd Readyz Heartbeat Shard Checkpoint Manifest MultiProcess \
	Scoreboard Tournament PerceptibleGuarantee RecycledRunMatchesFresh PoolRun \
	StreamRecyclesResults
HAMMERPKGS = ./internal/pool/ ./internal/simclock/ ./internal/sim/ ./internal/fleet/ \
	./internal/runstore/ ./internal/httpapi/ ./internal/backend/ \
	./internal/shardexec/ ./internal/tournament/ ./cmd/wakesimd/ \
	./cmd/wakesim/ .
empty :=
space := $(empty) $(empty)

# The shard supervisor's crash, poison, hang and resume tests.
KILLTESTS = TestRunSurvivesTransientFaults TestRunQuarantinesPoisonShard \
	TestRunKillsHungWorker TestCheckpointResumeRunsOnlyMissingShards

# selects fails, naming each one, on an entry of $(2) that selects no
# test in the packages $(1): go test passes when its -run or -fuzz
# pattern matches nothing, so a renamed test would silently drop out of
# its target. An entry pkg:Name must be a test, fuzz target or example
# of pkg; a bare entry is a -run pattern that must match one in any of
# $(1). One go test -list pass lists them all.
define selects
@listed=$$($(GO) test -list '.*' $(1)) || { echo "$$listed"; exit 1; }; \
	pairs=$$(echo "$$listed" | awk '/^(ok|\?)[ \t]/ { for (i = 0; i < n; i++) print $$2, name[i]; n = 0; next } !/^Benchmark/ { name[n++] = $$0 }'); \
	missing=; \
	for e in $(2); do \
		case $$e in \
		*:*) d=$${e%%:*}; d=$${d#.}; d=$${d#/}; d=$${d%/}; \
			echo "$$pairs" | grep -qxF "$(shell $(GO) list -m)$${d:+/$$d} $${e#*:}";; \
		*) echo "$$pairs" | cut -d' ' -f2 | grep -qE -- "$$e";; \
		esac || missing="$$missing $$e"; \
	done; \
	if [ -n "$$missing" ]; then echo "$@: these entries select no test:$$missing"; exit 1; fi
endef

# Coverage floor (percent) for the core packages.
COVERMIN ?= 70
COVERPKGS = ./internal/pool/ ./internal/alarm/ ./internal/sim/ ./internal/fleet/ ./internal/backend/ ./internal/shardexec/ ./internal/metrics/ ./internal/runstore/ ./internal/httpapi/ ./internal/tournament/

verify: vet build race repeat hammer fuzz-smoke kill-a-worker cover bench-smoke wakebench-test integration

race:
	$(GO) test -race ./...

# repeat runs every test twice in one process per package: a test that
# leaves state behind for its second pass (a policy registration, a free
# list or policy cache it expects cold) fails here and nowhere else.
repeat:
	$(GO) test -count=2 ./...

hammer:
	$(call selects,$(HAMMERPKGS),$(HAMMERTESTS))
	$(GO) test -race -count=2 -run '$(subst $(space),|,$(strip $(HAMMERTESTS)))' $(strip $(HAMMERPKGS))

fuzz-smoke:
	$(call selects,$(sort $(foreach t,$(FUZZTARGETS),$(firstword $(subst :, ,$(t))))),$(FUZZTARGETS))
	@for t in $(FUZZTARGETS); do \
		echo "fuzz $$t for $(FUZZTIME)"; \
		$(GO) test $${t%%:*}/ -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

kill-a-worker:
	$(call selects,./internal/shardexec/,$(addprefix ./internal/shardexec/:,$(KILLTESTS)))
	$(GO) test -count=1 -run '$(subst $(space),|,$(strip $(KILLTESTS)))' ./internal/shardexec/

bench-smoke:
	$(GO) test ./internal/alarm/ -run '^$$' -bench 'Queue(Insert|Find|PopDue|Realign)' -benchtime=1x -short -timeout 10m
	$(GO) test -race $(KERNELBENCH) -benchtime=1x -timeout 10m
	$(GO) test -race $(BACKENDBENCH) -benchtime=1x -timeout 10m
	$(GO) test -race $(SHARDBENCH) -benchtime=1x -timeout 10m
	$(GO) test -race $(ACCBENCH) -benchtime=1x -timeout 10m

# wakebench-test vets and tests the benchmark module. It is a Go module
# of its own (cmd/wakebench/go.mod), so the root targets never reach it,
# yet it compiles against the fleet and shardexec APIs.
wakebench-test:
	cd cmd/wakebench && $(GO) vet ./... && $(GO) test ./...

# integration runs every test of three integration layers twice under
# the race detector, one go test per layer so a failure names it: the
# daemon (run store, HTTP/SSE surface, wakesimd), multi-process sharding
# (shard supervisor and the wakesim CLI that drives it), and the
# tournament.
integration:
	$(GO) test -race -count=2 ./internal/runstore/ ./internal/httpapi/ ./cmd/wakesimd/
	$(GO) test -race -count=2 ./internal/shardexec/ ./cmd/wakesim/
	$(GO) test -race -count=2 ./internal/tournament/

# cover fails if any core package's statement coverage drops below the
# floor; the awk exit carries the verdict so the gate works without any
# extra tooling.
cover:
	@for pkg in $(COVERPKGS); do \
		line=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$line"; \
		echo "$$line" | awk -v min=$(COVERMIN) -v pkg=$$pkg \
			'{ ok = 0; for (i = 1; i <= NF; i++) if ($$i ~ /^[0-9.]+%$$/) { ok = 1; pct = $$i; sub(/%/, "", pct); \
			   if (pct + 0 < min) { printf "coverage gate: %s at %s%% is below the %s%% floor\n", pkg, pct, min; exit 1 } } \
			   if (!ok) { printf "coverage gate: no coverage figure for %s\n", pkg; exit 1 } }' || exit 1; \
	done

fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=2m

# vet also fails when gofmt would reformat any tracked Go file.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# bench-gate measures the kernel benchmarks and gates them against the
# stored baseline — the CI perf floor.
bench-gate:
	$(GO) test $(KERNELBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee bench/current.txt
	$(GO) test $(BACKENDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/current.txt
	$(GO) test $(SHARDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/current.txt
	$(GO) run ./cmd/benchgate -baseline bench/baseline.txt bench/current.txt

# bench runs the gate plus the queue scaling benchmarks (informational,
# not gated — their cost is dominated by setup shape, not the kernel).
bench: bench-gate
	$(GO) test ./internal/alarm/ -run '^$$' -bench 'Queue(Insert|Find|PopDue|Realign)' -benchtime=100x -timeout 30m

# bench-baseline overwrites the committed perf floor. Only run it for an
# intentional, reviewed performance change.
bench-baseline:
	$(GO) test $(KERNELBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee bench/baseline.txt
	$(GO) test $(BACKENDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/baseline.txt
	$(GO) test $(SHARDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/baseline.txt

ADDR ?= :8080

serve:
	$(GO) run ./cmd/wakesimd -addr $(ADDR)

docker:
	docker build -t wakesimd .
