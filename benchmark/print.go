package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

func fmtStat(st stat) string {
	if st.NA {
		return "-"
	}
	return fmt.Sprintf("%.6g", st.Median)
}

// printReport prints every metric by name with its unit: the end-to-end
// table, then (traced) the per-layer ledger, the span self times and the
// reconciliation.
func printReport(w io.Writer, doc *document) {
	label := ""
	if doc.Short {
		label = "  [-short: self-test sizes, numbers are not measurements]"
	}
	fmt.Fprintf(w, "noctg benchmark  seed=%d nproc=%d gomaxprocs=%d %s commit=%s%s\n\n",
		doc.Seed, doc.Nproc, doc.Gomaxprocs, doc.Go, doc.Commit, label)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "END TO END\tmetric\tunit\tmedian\tmin\tmax\tn")
	for _, wl := range doc.Workloads {
		for _, d := range endToEndDefs {
			st := wl.EndToEnd[d.Name]
			if st.NA {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", wl.Name, d.Name, st.Unit, st.Median, st.Min, st.Max, st.N)
		}
	}
	tw.Flush()
	for _, wl := range doc.Workloads {
		fmt.Fprintf(w, "%s: %d attempted, %d failed\n", wl.Name, wl.Attempted, wl.Failed)
		for _, c := range wl.FailedChecks {
			fmt.Fprintf(w, "  FAILED %s\n", c)
		}
	}
	if !doc.Traced {
		return
	}

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := []string{"PER LAYER", "unit", "kind"}
	for _, wl := range doc.Workloads {
		header = append(header, wl.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, d := range perLayerDefs {
		row := []string{d.Name, d.Unit, d.Kind}
		for _, wl := range doc.Workloads {
			row = append(row, fmtStat(wl.PerLayer[d.Name]))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()

	for _, wl := range doc.Workloads {
		printSelfTimes(w, doc.Spans, wl.Name)
		if wl.Ledger != nil {
			printLedger(w, wl.Name, wl.Ledger)
		}
	}
}

// printSelfTimes prints each span name's self time (span minus children),
// as the median over the workload's traced repeats.
func printSelfTimes(w io.Writer, spans []span, workload string) {
	repeats := map[int]bool{}
	for _, s := range spans {
		if s.Workload == workload && s.Repeat >= 0 {
			repeats[s.Repeat] = true
		}
	}
	if len(repeats) == 0 {
		return
	}
	byName := map[string][]float64{}
	for r := range repeats {
		for name, v := range selfTimes(spans, workload, r) {
			byName[name] = append(byName[name], v)
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nSPAN SELF TIME  %s (median of %d traced repeats)\n", workload, len(repeats))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		fmt.Fprintf(tw, "  %s\t%.6f s\n", name, median(byName[name]))
	}
	tw.Flush()
}

func printLedger(w io.Writer, workload string, l *ledger) {
	fmt.Fprintf(w, "\nLEDGER  %s\n", workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  term\tsource\tcount\tunit cost ns\tseconds")
	for _, r := range l.Rows {
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6f\n", r.Term, r.Source, r.Count, r.UnitCostNS, r.Seconds)
	}
	tw.Flush()
	share := 0.0
	if l.MeasuredS > 0 {
		share = 100 * l.ExplainedS / l.MeasuredS
	}
	fmt.Fprintf(w, "  explained %.6f s of %.6f s measured (%s): %.1f%%, residual %.6f s\n",
		l.ExplainedS, l.MeasuredS, l.Measured, share, l.ResidualS)
}
