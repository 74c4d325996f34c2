package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one end-to-end metric on one workload between two sets.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// relRange is a set's min–max range as a share of its median.
func relRange(st stat) float64 {
	if st.Median == 0 {
		return 0
	}
	return (st.Max - st.Min) / math.Abs(st.Median)
}

// judge compares set b against set a for one end-to-end metric. worse is
// how far b's median moved in the bad direction, as a share of a's. A move
// beyond the bound (and the absolute floor) is a regression or an
// improvement; a move within it is "unchanged" only when both sets' own
// min–max ranges fit the bound, and "unresolved" otherwise — unless every
// sample of one set beats every sample of the other.
func judge(d metricDef, a, b stat) (verdict string, worse float64) {
	diff := b.Median - a.Median
	if d.Better == "higher" {
		diff = -diff
	}
	if a.Median != 0 {
		worse = diff / math.Abs(a.Median)
	} else if diff != 0 {
		worse = math.Inf(int(math.Copysign(1, diff)))
	}
	beyond := math.Abs(worse) > d.Bound && math.Abs(diff) > d.Floor
	switch {
	case beyond && diff > 0:
		return verdictRegressed, worse
	case beyond:
		return verdictImproved, worse
	}
	if d.Kind == kindCount || (relRange(a) <= d.Bound && relRange(b) <= d.Bound) {
		return verdictUnchanged, worse
	}
	aBest, bBest := a.Min, b.Min
	aWorst, bWorst := a.Max, b.Max
	if d.Better == "higher" {
		aBest, bBest, aWorst, bWorst = -a.Max, -b.Max, -a.Min, -b.Min
	}
	switch {
	case bWorst < aBest:
		return verdictImproved, worse
	case aWorst < bBest:
		return verdictRegressed, worse
	}
	return verdictUnresolved, worse
}

func loadDocument(path string) (*document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := decodeDocument(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints the end-to-end verdicts and the layer-by-layer delta
// table of two result files, and returns 1 when any end-to-end metric
// regressed beyond its bound or the two sets are not comparable.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareDocuments(a, b, stdout)
}

// mismatches lists what makes two sets not comparable: different run
// conditions, or a workload present in only one of them. "0 regressed" over
// half the workloads, another seed or the self-test sizes must not pass.
func mismatches(a, b *document) []string {
	var out []string
	if a.Seed != b.Seed {
		out = append(out, fmt.Sprintf("seed %d against %d", a.Seed, b.Seed))
	}
	if a.Short != b.Short {
		out = append(out, "one set ran at the -short self-test sizes")
	}
	if a.Traced != b.Traced {
		out = append(out, "one set is traced, the other is not")
	}
	inB := map[string]bool{}
	for _, wl := range b.Workloads {
		inB[wl.Name] = true
	}
	for _, wl := range a.Workloads {
		if !inB[wl.Name] {
			out = append(out, "workload "+wl.Name+" only in A")
		}
		delete(inB, wl.Name)
	}
	for _, wl := range b.Workloads {
		if inB[wl.Name] {
			out = append(out, "workload "+wl.Name+" only in B")
		}
	}
	return out
}

func compareDocuments(a, b *document, w io.Writer) int {
	fmt.Fprintf(w, "A: commit %s seed %d   B: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	if a.Short || b.Short {
		fmt.Fprintln(w, "note: a -short set is a self-test, not a measurement")
	}
	bad := mismatches(a, b)
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	tally := map[string]int{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "END TO END\tmetric\tunit\tA median\tB median\tworse by\tbound\tA range\tB range\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa.NA != sb.NA {
				bad = append(bad, fmt.Sprintf("%s %s defined in only one set", wa.Name, d.Name))
			}
			if sa.NA || sb.NA {
				continue
			}
			verdict, worse := judge(d, sa, sb)
			tally[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wa.Name, d.Name, d.Unit, sa.Median, sb.Median, 100*worse, 100*d.Bound,
				100*relRange(sa), 100*relRange(sb), verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d regressed, %d improved, %d unchanged, %d unresolved\n",
		tally[verdictRegressed], tally[verdictImproved], tally[verdictUnchanged], tally[verdictUnresolved])

	if a.Traced && b.Traced {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "LAYER DELTA\tmetric\tunit\tkind\tA\tB\tdelta")
		for _, wa := range a.Workloads {
			wb, ok := byName[wa.Name]
			if !ok {
				continue
			}
			for _, d := range perLayerDefs {
				sa, sb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
				if sa.NA != sb.NA {
					bad = append(bad, fmt.Sprintf("%s %s defined in only one set", wa.Name, d.Name))
				}
				if sa.NA || sb.NA {
					continue
				}
				delta := "0"
				switch {
				case sa.Median == sb.Median:
				case d.Kind == kindCount:
					delta = "COUNT DIFFERS"
				case sa.Median != 0:
					delta = fmt.Sprintf("%+.1f%%", 100*(sb.Median-sa.Median)/math.Abs(sa.Median))
				default:
					delta = "new"
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%s\n", wa.Name, d.Name, d.Unit, d.Kind, sa.Median, sb.Median, delta)
			}
		}
		tw.Flush()
	}
	for _, m := range bad {
		fmt.Fprintln(w, "NOT COMPARABLE:", m)
	}
	if tally[verdictRegressed] > 0 || len(bad) > 0 {
		return 1
	}
	return 0
}
