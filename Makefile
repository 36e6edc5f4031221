GO ?= go

.PHONY: ci build test vet lint fmt-check race bench bench-smoke bench-json bench-guard fuzz-smoke telemetry-smoke analyze-smoke serve-smoke adaptive-smoke

# ci is the repository's verify command (see ROADMAP.md): formatting, vet,
# the project-invariant linter, build, the full test suite under the race
# detector, a single-iteration pass of the hot-path benchmarks so they
# cannot rot between perf-focused PRs, the allocation guard on the campaign
# sweep, a static analysis of every shipped spec, a live scrape of the
# telemetry endpoints through the real CLI, an end-to-end exercise of
# the measurement service (submit, shared cache, metrics, drain), and a
# fixed-vs-adaptive study comparison guarding the planner's savings and
# ranking-preservation contract.
ci: fmt-check vet lint build race bench-smoke bench-guard analyze-smoke telemetry-smoke serve-smoke adaptive-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repository-invariant analyzer (see cmd/microlint for the
# rule catalog: determinism, no stray printing, balanced trace spans, error
# string conventions).
lint:
	$(GO) run ./cmd/microlint .

# race also shuffles test order so inter-test state dependencies surface.
race:
	$(GO) test -race -shuffle=on ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# bench covers the paper-figure benchmarks plus BenchmarkCampaign's
# cold-vs-warm cache comparison (root bench_test.go).
bench:
	$(GO) test -bench . -benchmem .

# HOT_BENCHES are the simulator hot-path benchmarks whose numbers this repo
# tracks in BENCH_sim.json (see README): one repetition, the full launcher
# protocol with telemetry off and on (the pair bounds instrumentation
# overhead), the production launch path with its pooled machine, and the
# campaign sweep serial plus across worker counts.
HOT_BENCHES = ^(BenchmarkRunOne|BenchmarkVariantMaterialize|BenchmarkLauncherProtocol|BenchmarkLauncherProtocolTelemetry|BenchmarkLaunch|BenchmarkCampaignSweep|BenchmarkCampaignSweepAdaptive|BenchmarkCampaignSweepWorkers|BenchmarkAnalyze|BenchmarkScreenStatic)$$

# bench-smoke compiles and runs each hot-path benchmark exactly once — a CI
# guard that they keep working, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench '$(HOT_BENCHES)' -benchtime=1x -benchmem .

# bench-json measures the hot-path benchmarks five times and merges the
# numbers into BENCH_sim.json under LABEL (default: local), with the host
# CPU, Go version and commit alongside: each metric is the median of the
# samples, and the samples are kept.
LABEL ?= local
bench-json:
	$(GO) test -run='^$$' -bench '$(HOT_BENCHES)' -benchmem -count=5 . \
		| $(GO) run ./cmd/benchjson -label '$(LABEL)' -o BENCH_sim.json

# bench-guard runs the campaign sweep benchmark once and fails if its
# allocs/op or B/op exceed the committed ceilings in bench_guard_allocs.txt
# and bench_guard_bytes.txt — wall-clock noise cannot trip either, while an
# allocation regression in the variant pipeline (or a return to building a
# simulated machine per launch, about a megabyte each) always does. Raise a
# ceiling only with a justification in the same commit.
bench-guard:
	@allocs_limit="$$(cat bench_guard_allocs.txt)"; \
	bytes_limit="$$(cat bench_guard_bytes.txt)"; \
	out="$$($(GO) test -run='^$$' -bench '^BenchmarkCampaignSweep$$' -benchtime=1x -benchmem . | tee /dev/stderr)"; \
	metric() { echo "$$out" | awk -v unit="$$1" '/^BenchmarkCampaignSweep/ {for (i=1; i<=NF; i++) if ($$i == unit) print $$(i-1)}'; }; \
	allocs="$$(metric allocs/op)"; bytes="$$(metric B/op)"; \
	if [ -z "$$allocs" ] || [ -z "$$bytes" ]; then echo "bench-guard: could not parse allocs/op and B/op"; exit 1; fi; \
	if [ "$$allocs" -gt "$$allocs_limit" ]; then \
		echo "bench-guard: BenchmarkCampaignSweep allocated $$allocs objs/op, ceiling is $$allocs_limit"; \
		exit 1; \
	fi; \
	if [ "$$bytes" -gt "$$bytes_limit" ]; then \
		echo "bench-guard: BenchmarkCampaignSweep allocated $$bytes B/op, ceiling is $$bytes_limit"; \
		exit 1; \
	fi; \
	echo "bench-guard: $$allocs allocs/op <= $$allocs_limit, $$bytes B/op <= $$bytes_limit"

# telemetry-smoke starts a real study with -telemetry-addr on an ephemeral
# port, scrapes /metrics and /debug/campaigns mid-run, and asserts the
# expected metric families are exposed (scripts/telemetry_smoke.sh).
telemetry-smoke:
	GO='$(GO)' sh scripts/telemetry_smoke.sh

# serve-smoke builds microserved, submits the same spec as two tenants via
# `microtools submit`, asserts the second run is fully cache-warm with a
# byte-identical campaign payload, scrapes the service metrics, and drains
# the daemon with SIGTERM (scripts/serve_smoke.sh).
serve-smoke:
	GO='$(GO)' sh scripts/serve_smoke.sh

# adaptive-smoke runs the same study twice through the real CLI — once with
# the fixed repetition budget, once with -adaptive — and asserts the
# planner's contract: at least 25% of repetitions saved, no variant missing
# the RCIW target, and a byte-identical ranking (scripts/adaptive_smoke.sh).
adaptive-smoke:
	GO='$(GO)' sh scripts/adaptive_smoke.sh

# fuzz-smoke gives each fuzz target a short budget — enough to catch a
# regression in the parsers' error paths without stalling CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/xmlspec
	$(GO) test -run='^$$' -fuzz=FuzzParseRoundTrip -fuzztime=10s ./internal/asm
	$(GO) test -run='^$$' -fuzz=FuzzValidate -fuzztime=10s ./internal/launcher
	$(GO) test -run='^$$' -fuzz=FuzzAnalyze -fuzztime=10s ./internal/dataflow

# analyze-smoke runs the static dataflow analysis over every variant of every
# shipped spec on both machine models; `microtools analyze` exits non-zero on
# any defect finding (a dead register write, V009, or a self-move, V010), so
# a spec regression fails CI without launching a single measurement.
analyze-smoke:
	$(GO) run ./cmd/microtools analyze -machine nehalem-dual specs/*.xml > /dev/null
	$(GO) run ./cmd/microtools analyze -machine sandybridge specs/*.xml > /dev/null
