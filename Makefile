# Tier-1 verification lives in `make check`: build, vet, race-enabled
# tests, plus a short fuzz smoke of the parameter-word codec. CI and
# pre-commit should run exactly that.

GO ?= go
BENCH_OUT ?= BENCH_pr8.json
JOURNAL_SMOKE_DIR ?= $(CURDIR)/.journal-smoke
HA_SMOKE_DIR ?= $(CURDIR)/.ha-smoke
TIMELINE_SMOKE_DIR ?= $(CURDIR)/.timeline-smoke
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build vet staticcheck test race check perfbench bench bench-out benchdiff verify chaos fuzz serve-smoke lockd-smoke deadlock-smoke lockmon-smoke journal-smoke ha-smoke timeline-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is part of the gate when the binary is available (CI
# installs the pinned version; see .github/workflows/ci.yml). Offline
# dev boxes without it skip with a notice instead of failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 10m ./...

check: build vet staticcheck perfbench race fuzz serve-smoke lockd-smoke deadlock-smoke lockmon-smoke journal-smoke ha-smoke timeline-smoke benchdiff

# The benchmark is its own Go module (perfbench/go.mod replaces repro
# with the checkout), so the root build never compiles it. Vet and test
# it here, so removing a name it uses fails the gate. Needs no network.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the paper's tables and figures.
bench:
	$(GO) run ./cmd/lockbench -quick -all

# Machine-readable benchmark summary (Table 2 op costs + per-policy
# contention sweep + lockd round-trip latency + lockmon scrape
# overhead); CI uploads the file as an artifact.
bench-out:
	$(GO) run ./cmd/lockbench -quick -bench-out $(BENCH_OUT)

# Regression gate over the two newest committed BENCH_*.json summaries:
# fails if a deterministic (sim-time) metric worsened by more than 25%.
benchdiff:
	$(GO) run ./cmd/benchdiff

# Fleet-monitor smoke: the end-to-end advise-and-apply scenario (real
# lockd, HTTP scrape, wire reconfiguration) and the deterministic
# scrape-partition robustness test, under the race detector.
lockmon-smoke:
	$(GO) test ./internal/lockmon -race -count=1 -v -run 'TestEndToEndAdviseAndApply|TestScrapePartitionRobustness'

# End-to-end telemetry smoke: boot the HTTP server over a registry with a
# contended native lock and a simulated lock, scrape every endpoint; then
# a scripted -serve-for run exercising graceful shutdown from the CLI.
serve-smoke:
	$(GO) test ./internal/telemetry -run 'TestServeSmoke|TestShutdown' -count=1 -v
	$(GO) run ./cmd/lockstat -n 2 -iters 2 -serve 127.0.0.1:0 -serve-for 1s

# Network lock service smoke: server + two clients with an injected
# conn-drop schedule, plus the deterministic crash/shed/partition chaos
# sequence — all under the race detector.
lockd-smoke:
	$(GO) test ./internal/lockd -race -count=1 -v -run 'TestLockdSmoke|TestChaosRecovery|TestChaosDeterministic'

# Causal-tracing smoke: induce a real ABBA deadlock between two lockd
# clients under the race detector and require /debug/waitgraph to name
# the exact cycle while deadlock_suspected increments in /metrics,
# within the test's detection deadline.
deadlock-smoke:
	$(GO) test ./internal/lockclient -race -count=1 -timeout 120s -v -run TestDeadlockSmoke

# Event-journal smoke: SIGKILL a child mid-write and replay its segments
# (torn tail rejected by CRC, tokens still monotonic, clean reopen), the
# torn-tail corpus, and the merged client+server verification — under
# the race detector. JOURNAL_SMOKE_DIR keeps the crash-test segments on
# failure so CI can upload them as an artifact.
journal-smoke:
	JOURNAL_SMOKE_DIR=$(JOURNAL_SMOKE_DIR) $(GO) test ./internal/journal -race -count=1 -v -run 'TestCrashRecovery|TestTornTail|TestVerifyMerged'

# Replicated-lockd smoke: a 3-node in-process cluster rides a leader
# SIGKILL and a split-brain partition under the race detector — token
# monotonicity across the term boundary, single-holder proven by
# journal.Verify over the merged per-node journals, deterministic
# same-seed election traces, plus the client-side failover path.
# HA_SMOKE_DIR keeps the per-node journal segments on failure so CI can
# upload them as an artifact.
ha-smoke:
	HA_SMOKE_DIR=$(HA_SMOKE_DIR) $(GO) test ./internal/replica -race -count=1 -v -run 'TestChaosKillLeaderMidHold|TestChaosPartitionLeaderSplitBrain|TestChaosSameSeedSameTrace'
	$(GO) test ./internal/lockclient -race -count=1 -v -run 'TestClusterFailoverOnLeaderKill|TestFailoverResetsBackoff'

# Cluster-timeline smoke: a two-node replicated cluster with wall
# clocks skewed ±100ms serves a real client under the race detector.
# The merged per-node + client journals must verify clean in HLC order,
# while the same records merged by raw wall instants show the
# grant-before-release inversion HLC ordering exists to prevent.
# TIMELINE_SMOKE_DIR keeps the journal segments on failure so CI can
# upload them as an artifact.
timeline-smoke:
	TIMELINE_SMOKE_DIR=$(TIMELINE_SMOKE_DIR) $(GO) test ./internal/replica -race -count=1 -v -run TestTimelineSmokeSkewedCluster

# PASS/FAIL check of every reproduction claim.
verify:
	$(GO) run ./cmd/lockbench -verify

# Deterministic chaos: run the fault-injection acceptance tests, then a
# faulted scenario twice with the same seed — the reports must match.
chaos:
	$(GO) test ./internal/scenario -run TestChaos -count=1 -v
	$(GO) run ./cmd/lockstat -n 6 -iters 5 -faults 'stall:every=3:us=2500,crash:every=9' -degrade

# Short fuzz smoke of the Params pack/unpack codec (raise -fuzztime for a
# real fuzzing session).
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzParamsPackRoundtrip -fuzztime 5s

clean:
	$(GO) clean ./...
