// Command bench2json converts `go test -bench` text output into a JSON
// baseline artifact: one record per benchmark with ns/op and every custom
// metric (Msimcycles/s, simcycles, errpct, …). scripts/bench.sh runs it to
// produce the smoke-gate baseline and CI's side of the comparison.
//
// Usage: bench2json [bench-output.txt]   (reads stdin when no file given)
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Record is one benchmark measurement.
type Record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	in := io.Reader(os.Stdin)
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	records, err := parse(in)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fail(err)
	}
}

// parse extracts Benchmark lines of the form:
//
//	BenchmarkName-8   123   456.7 ns/op   8.9 Msimcycles/s   10 simcycles
func parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		rec := Record{
			Name:       strings.TrimSuffix(fields[0], cpuSuffix(fields[0])),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// Remaining fields come in value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				rec.NsPerOp = v
			} else {
				rec.Metrics[fields[i+1]] = v
			}
		}
		if len(rec.Metrics) == 0 {
			rec.Metrics = nil
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS marker, if present.
func cpuSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench2json:", err)
	os.Exit(1)
}
