package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	workload, metric string
	medianA, medianB float64
	spreadA, spreadB float64 // IQR over median; NaN below two runs
	bound            float64
	verdict          string
}

// judge compares the runs of set B with those of set A for one metric. B is
// worse when its median is worse than A's by more than the resolution: the
// bound as a share of A's median, or the metric's absolute slack if that is
// larger (setup_s: +10 % or +0.25 s). When either set's own runs spread
// wider than the resolution, the pair is unresolved: the sets cannot tell a
// regression of that size from noise. A bound of 0 means any worsening
// counts (failed_share).
func judge(a, b []float64, d metricDef) comparison {
	c := comparison{metric: d.Name, medianA: median(a), medianB: median(b),
		spreadA: spread(a), spreadB: spread(b), bound: d.Bound, verdict: verdictOK}
	worse := c.medianB - c.medianA
	if d.Better == "higher" {
		worse = -worse
	}
	resolution := max(d.Bound*math.Abs(c.medianA), d.slack)
	switch {
	case worse > resolution:
		c.verdict = verdictWorse
	case c.spreadA*c.medianA > resolution || c.spreadB*c.medianB > resolution:
		// NaN spreads (single runs, or a median of 0) compare false.
		c.verdict = verdictUnresolved
	}
	return c
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultsSchema)
	}
	return &rf, nil
}

// values gathers one metric of one workload over the untraced runs of a file.
func (rf *resultsFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if res := r.Workloads[workload]; res != nil && !r.Trace {
			if v, ok := res.Metrics[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// compareSets judges every (workload, end-to-end metric) pair present in
// both files, with the bounds BENCHMARK.json fixes.
func compareSets(a, b *resultsFile, bf *benchmarkFile) []comparison {
	bounds := map[string]float64{}
	for _, d := range bf.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	var rows []comparison
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			if !d.unregistered {
				d.Bound = bounds[d.Name]
			}
			va, vb := a.values(w, d.Name), b.values(w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := judge(va, vb, d)
			c.workload = w
			rows = append(rows, c)
		}
	}
	return rows
}

// runCompare prints the comparison of two result files and fails when any
// pair is worse.
func runCompare(root, pathA, pathB string, w io.Writer) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	rows := compareSets(a, b, bf)
	if len(rows) == 0 {
		return errors.New("the two files share no workload with untraced runs")
	}
	fmt.Fprintf(w, "%-17s %-13s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "IQR A", "IQR B", "bound", "verdict")
	counts := map[string]int{}
	for _, c := range rows {
		counts[c.verdict]++
		fmt.Fprintf(w, "%-17s %-13s %14.6g %14.6g %9.4f %7.1f%% %7.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.medianA, c.medianB, c.medianB/c.medianA,
			100*c.spreadA, 100*c.spreadB, 100*c.bound, c.verdict)
	}
	fmt.Fprintf(w, "B/A is B's median over A's (%s); IQR is each set's interquartile range over its median.\n", pathA)
	fmt.Fprintf(w, "%d ok, %d unresolved, %d worse\n", counts[verdictOK], counts[verdictUnresolved], counts[verdictWorse])
	if n := counts[verdictWorse]; n > 0 {
		worst := slices.IndexFunc(rows, func(c comparison) bool { return c.verdict == verdictWorse })
		return fmt.Errorf("%d pairs worse than their bound, first %s/%s", n, rows[worst].workload, rows[worst].metric)
	}
	return nil
}
