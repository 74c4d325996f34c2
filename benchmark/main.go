// Command benchmark is the repository's benchmark: five campaign workloads
// generated from a seed, six end-to-end metrics each, a per-layer ledger
// and a traced run whose spans and shims sit only around calls into the
// simulator's public functions. See README.md in this directory.
//
//	go run ./benchmark                       all workloads, 5 interleaved repeats
//	go run ./benchmark -trace 1              the same, then the traced pass and the ledger
//	go run ./benchmark -compare A.json B.json
//
// BENCHMARK.json's driver runs one workload per invocation through run.sh:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "workload generation seed (the only input to workload generation)")
		workload = fs.String("workload", "", "run only this workload (comma-separated names; default all)")
		repeats  = fs.Int("repeats", 5, "repeats per workload and pass, interleaved round-robin")
		seconds  = fs.Float64("seconds", 0, "repeat each workload until its setup+body time reaches this many seconds (overrides -repeats)")
		trace    = fs.Int("trace", 0, "1 adds the traced pass: spans, shims, unit drivers, ledger")
		short    = fs.Bool("short", false, "tiny sizes for the self-test; the numbers mean nothing")
		out      = fs.String("out", "-", "result file (\"-\" = standard output, \"\" = none)")
		spans    = fs.String("spans", "", "with -trace 1, write the spans to this file instead of into the result file")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *repeats < 1 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	o := options{seed: *seed, short: *short, trace: *trace == 1, repeats: *repeats, seconds: *seconds, log: stderr}
	if *workload != "" {
		o.workloads = strings.Split(*workload, ",")
	}
	doc, err := runAll(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	printReport(stdout, doc)
	if *spans != "" && o.trace {
		if err := writeJSONFile(*spans, doc.Spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		doc.Spans = nil
	}
	switch *out {
	case "":
	case "-":
		if err := encodeJSON(stdout, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	default:
		if err := writeJSONFile(*out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}

	failed := 0
	for _, w := range doc.Workloads {
		failed += w.Failed
	}
	if len(doc.Workloads) == 1 {
		// The driver's contract: one JSON object on the last line.
		line, err := json.Marshal(contractLine(doc.Workloads[0], o.trace))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d failed operations or checks (failed_share > 0)\n", failed)
		return 1
	}
	return 0
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

func decodeDocument(r io.Reader) (*document, error) {
	var doc document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if doc.Schema != schemaName {
		return nil, fmt.Errorf("schema %q, want %q", doc.Schema, schemaName)
	}
	return &doc, nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractMetric is one metric of the driver's result line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the driver's result line. Untraced it carries the
// end-to-end metrics BENCHMARK.json bounds; traced, every per-layer metric
// plus failed_share and tg_cycle_err_pct, which the driver's schema cannot
// bound (they are 0 or undefined on most workloads) and therefore lists
// with the per-layer metrics.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contractEndToEnd are the end-to-end metrics that are defined and never
// zero on every workload.
var contractEndToEnd = []string{"wall_s", "sim_mcps", "alloc_mb", "setup_s"}

func contractLine(w workloadResult, traced bool) contractResult {
	res := contractResult{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed,
		Metrics: map[string]contractMetric{}}
	put := func(name string, st stat) {
		res.Metrics[name] = contractMetric{Value: st.Median, Unit: st.Unit}
	}
	if !traced {
		for _, name := range contractEndToEnd {
			put(name, w.EndToEnd[name])
		}
		return res
	}
	for name, st := range w.PerLayer {
		put(name, st)
	}
	put("failed_share", w.EndToEnd["failed_share"])
	put("tg_cycle_err_pct", w.EndToEnd["tg_cycle_err_pct"])
	return res
}
