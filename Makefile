# Development entry points; CI (.github/workflows/ci.yml) runs the same
# steps.

GO ?= go

.PHONY: all build test race vet fmt-check sweep scenarios curves analytic golden paper resume-demo clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# make sweep runs the stock 16-point grid on all cores.
sweep:
	$(GO) run ./cmd/tgsweep -out results

# make scenarios runs the stock pattern×topology scenario library.
scenarios:
	$(GO) run ./cmd/tgsweep -scenario library -out scenarios

# make curves sweeps the scenario library's injection load and writes the
# load-latency curves with detected saturation points.
curves:
	$(GO) run ./cmd/tgsweep -scenario library -curve -out curves

# make analytic runs the closed-form estimator's validation suite: unit
# tests on hand-computed cases, the sweep integration layer, and the
# library-wide cross-validation against simulation (knee within one
# ladder step, zero-load latency within 20%, adaptive >= 40% fewer
# simulated levels).
analytic:
	$(GO) test ./internal/analytic
	$(GO) test -run 'TestAnalytic|TestAdaptive|TestPredictSaturation|TestGridAnalytic|TestPrePass|TestJournalResumeWithAnalytic|TestCurveCSVEstimated' ./internal/sweep
	$(GO) test -run TestAnalyticCrossValidation -v .

# make golden regenerates the golden regression snapshots after an
# intentional model change.
golden:
	$(GO) test ./internal/sweep -run TestGolden -update

# make paper regenerates the paper's evaluation in parallel.
paper:
	$(GO) run ./cmd/tgrepro -all -sizes quick

# make resume-demo demonstrates a crash-safe campaign: a journaled sweep
# is SIGKILLed mid-run, then resumed to completion — the resumed artifacts
# are byte-identical to an uninterrupted run.
resume-demo:
	$(GO) build -o /tmp/tgsweep ./cmd/tgsweep
	rm -f /tmp/resume-demo.journal
	-timeout -s KILL 0.2 /tmp/tgsweep -grid default -workers 1 \
		-journal /tmp/resume-demo.journal -out /tmp/resume-demo
	@echo "--- killed mid-sweep; resuming ---"
	/tmp/tgsweep -grid default \
		-journal /tmp/resume-demo.journal -resume -out /tmp/resume-demo
	@echo "resumed artifacts: /tmp/resume-demo.json /tmp/resume-demo.csv"

clean:
	rm -f results.json results.csv scenarios.json scenarios.csv \
		curves.json curves.csv *.test ./*/*.test
