GO ?= go

# Packages whose tests exercise the concurrent engine and therefore run
# again under the race detector in `make verify`.
RACE_PKGS := ./internal/core ./internal/pool ./internal/verify ./internal/tracing ./internal/serve

.PHONY: build test vet lint lint-codegen cross race race-bench telemetry-overhead trace-smoke fuzz serve-smoke serve-obs-smoke verify clean bench-json benchdiff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet, the project analyzers (hotalloc, latchcheck,
# privforce, vecvalue, atomiccheck, hotprop — see internal/analysis), the
# escape-budget gate that diffs `-gcflags=-m` hot-loop escapes against the
# checked-in baseline, and the compiler-backed codegen gates (lint-codegen).
lint: vet lint-codegen
	$(GO) run ./cmd/mwlint ./...
	$(GO) run ./cmd/mwlint -escapes

# Codegen gates (amd64-only; mwlint prints a skip notice elsewhere):
#   -vecasm  parses `go build -gcflags=-S` under GOAMD64=v3 and checks each
#            //mw:hotpath function's instruction mix (packed FP present in
#            the LJ kernels, zero runtime calls in hot loops) against
#            internal/analysis/testdata/vecasm.baseline. The full
#            per-function census lands in mwlint.vecasm.txt (CI artifact).
#   -bce     diffs `-gcflags=-d=ssa/check_bce` bounds-check diagnostics in
#            hot loops against bce.baseline — empty for forces/lj.go, so a
#            new check in a pair loop fails the build.
# Regenerate after deliberate kernel changes with `mwlint -vecasm -update`
# and `mwlint -bce -update`.
lint-codegen:
	$(GO) run ./cmd/mwlint -vecasm -report mwlint.vecasm.txt
	$(GO) run ./cmd/mwlint -bce

test:
	$(GO) test ./...

# Cross-architecture build guard: the hand-written amd64 kernels each have a
# *_noasm.go stub for every other GOARCH, which no amd64 build compiles.
# arm64 (64-bit, no asm) gets the full vet; 386 (32-bit int) a build.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# -count=1 defeats the test cache: the differential matrix must actually
# re-execute under the race detector every time.
race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# One step of every benchmark workload under the race detector: -benchtime=1x
# drives the full phase pipeline (fan-out, latch, reduction) across all queue
# topologies without the cost of a timed run.
race-bench:
	$(GO) test -race -count=1 -run '^$$' \
		-bench 'BenchmarkStep|BenchmarkQueueTopology|BenchmarkForceReduction' \
		-benchtime 1x .

# Observer-effect regression gates: the live telemetry layer must stay
# under a 2% overhead on every paper workload, and the serving layer's
# production-sampled request tracing (TraceSample=64) must stay under the
# same budget against an untraced server (§IV-A methodology applied to
# internal/telemetry and internal/serve). Fails the build on a breach.
telemetry-overhead:
	$(GO) run ./cmd/mwbench observer-native -gate
	$(GO) run ./cmd/mwbench observer-serve -gate

# Trace-timeline smoke: a short traced Al-1000 run whose exported Chrome
# trace JSON must pass structural validation (record validates what it
# wrote; export re-validates the artifact from disk). CI uploads the file.
trace-smoke:
	$(GO) run ./cmd/mwtrace record -bench Al-1000 -threads 4 -steps 120 -o mw.trace.json
	$(GO) run ./cmd/mwtrace export -in mw.trace.json

# Short fuzz smoke of the parsers (seed corpus always runs under plain
# `go test`; this adds a minute of coverage-guided exploration).
fuzz:
	$(GO) test -fuzz=FuzzLoadSystem -fuzztime=30s ./internal/mml
	$(GO) test -fuzz=FuzzReadFrames -fuzztime=30s ./internal/xyz
	$(GO) test -fuzz=FuzzReorderTopology -fuzztime=30s ./internal/atom
	$(GO) test -run '^$$' -fuzz=FuzzTraceparent -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzSessionPath -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzStepParams -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzCreateModel -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzClusterList -fuzztime=30s ./internal/cells
	$(GO) test -run '^$$' -fuzz=FuzzCoulombSIMD -fuzztime=30s ./internal/forces

# Service smoke: boot a real mwserved daemon, drive it with a short mwload
# sweep (including an oversubscription burst), and fail unless mwload's
# JSON report validates. CI uploads mwload.smoke.json.
serve-smoke:
	$(GO) build -o mwserved.smoke ./cmd/mwserved
	./mwserved.smoke -addr 127.0.0.1:7977 -queue-depth 64 & pid=$$!; \
	$(GO) run ./cmd/mwload -addr http://127.0.0.1:7977 -wait 15s \
		-workload lj-gas -sessions 32 -steps 2 -nruns 2 \
		-concurrency 4,16 -retries 8 -oversub 64 -json > mwload.smoke.json; \
	status=$$?; kill $$pid 2>/dev/null; rm -f mwserved.smoke; \
	exit $$status

# Serving-observability smoke: boot mwserved with every request traced,
# drive a short attributed mwload sweep (fails unless the report validates
# and the components decompose p99), pull the request-trace artifact
# through `mwtrace serve` (which structurally validates the span trees),
# and snapshot the SLO error-budget view. CI uploads mwload.obs.json and
# serve.trace.json.
serve-obs-smoke:
	$(GO) build -o mwserved.obs ./cmd/mwserved
	./mwserved.obs -addr 127.0.0.1:7978 -trace-sample 1 -slo-target 250ms & pid=$$!; \
	$(GO) run ./cmd/mwload -addr http://127.0.0.1:7978 -wait 15s \
		-workload Al-1000 -sessions 24 -steps 1 -nruns 2 \
		-concurrency 4,8 -retries 8 -attr -json > mwload.obs.json; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/mwtrace serve -addr http://127.0.0.1:7978 -o serve.trace.json; \
		status=$$?; \
	fi; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/mwtop -addr 127.0.0.1:7978 -slo -once; \
		status=$$?; \
	fi; \
	kill $$pid 2>/dev/null; rm -f mwserved.obs; \
	exit $$status

# Benchmark-regression harness (§V-A gate): measures the LJ kernels, whole
# engine steps, per-phase latency percentiles and the mwserved tail-latency
# sweep into the next free BENCH_<n>.json. Compare against the committed
# baseline with `make benchdiff NEW=BENCH_3.json [TOL=0.15]`.
bench-json:
	$(GO) run ./cmd/mwbench bench-json

# BENCH_3.json is the baseline with the serve attribution-overhead rows
# (serve/*/attr-{off,on}/step) and oversub retry-after; BENCH_2 added the
# cluster-pair rung (kernel/lj-cluster-* rows, step/*/cluster, the cluster
# phase section), BENCH_1 was the first with serve/* rows, and BENCH_0
# predates the service (kernel-history record).
TOL ?= 0.15
benchdiff:
	$(GO) run ./cmd/mwbench benchdiff -base BENCH_3.json -new $(NEW) -tol $(TOL)

# The full correctness gate — what CI runs. See README.md §Verification.
verify: lint build cross test race race-bench telemetry-overhead trace-smoke serve-smoke serve-obs-smoke

clean:
	$(GO) clean ./...
