//go:build ignore

// planner_check asserts the planner-costing benchmark headline from a
// BENCH_planner.json (t3/bench-results/v1) file:
//
//   - every batched enumeration chose a plan bit-identical (cost and tree)
//     to the scalar packed-tier reference, on every case;
//   - every batched row actually batched (batches > 0) and did model work
//     (model_calls > 0);
//   - among the 8+ relation cases — where the paper-style headline lives —
//     the best batched speedup over the scalar no-memo path meets the floor.
//
// The speedup floor applies to the best 8+ relation case, not every case:
// chain graphs have too few candidate pairs per DP level for batching to
// amortize, and the floor is a regression guard for the case the headline is
// measured on (dense cliques), not a claim about every graph shape.
//
// Usage: go run ./scripts/planner_check.go -in BENCH_planner.json -min-speedup 2.5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type benchFile struct {
	Schema  string `json:"schema"`
	Results struct {
		Planner struct {
			Cases []struct {
				Spec      string `json:"spec"`
				Relations int    `json:"relations"`
				Rows      []row  `json:"rows"`
			} `json:"cases"`
		} `json:"planner"`
	} `json:"results"`
}

type row struct {
	Path        string  `json:"path"`
	ModelCalls  int     `json:"model_calls"`
	Batches     int     `json:"batches"`
	Pruned      int     `json:"pruned"`
	Cost        float64 `json:"cost"`
	TreeMatches bool    `json:"tree_matches"`
	Speedup     float64 `json:"speedup"`
}

func main() {
	in := flag.String("in", "BENCH_planner.json", "bench results file")
	minSpeedup := flag.Float64("min-speedup", 2.5, "floor for the best 8+ relation batched speedup")
	flag.Parse()

	raw, err := os.ReadFile(*in)
	if err != nil {
		fatal("read %s: %v", *in, err)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		fatal("parse %s: %v", *in, err)
	}
	if f.Schema != "t3/bench-results/v1" {
		fatal("%s: unexpected schema %q", *in, f.Schema)
	}
	cases := f.Results.Planner.Cases
	if len(cases) == 0 {
		fatal("%s: no planner cases", *in)
	}

	bestBig, bestBigSpec := 0.0, ""
	for _, c := range cases {
		ref, refOK := findRow(c.Rows, "scalar-packed-memo")
		if !refOK {
			fatal("%s: missing scalar-packed-memo reference row", c.Spec)
		}
		for _, r := range c.Rows {
			if r.Path != "batched" && r.Path != "batched-w1" {
				continue
			}
			// Bit-identity: same packed predictor, so the chosen plan must
			// match the scalar reference exactly — equal cost down to the
			// last float bit and the same agreement with the no-memo baseline.
			if r.Cost != ref.Cost || r.TreeMatches != ref.TreeMatches {
				fatal("%s %s: diverged from scalar-packed reference (cost %v vs %v, tree match %v vs %v)",
					c.Spec, r.Path, r.Cost, ref.Cost, r.TreeMatches, ref.TreeMatches)
			}
			if r.Batches == 0 || r.ModelCalls == 0 {
				fatal("%s %s: no batched model work recorded (batches=%d calls=%d)",
					c.Spec, r.Path, r.Batches, r.ModelCalls)
			}
			fmt.Printf("%-16s %-12s %7.2fx  calls=%-6d pruned=%-6d tree-ok\n",
				c.Spec, r.Path, r.Speedup, r.ModelCalls, r.Pruned)
			if c.Relations >= 8 && r.Speedup > bestBig {
				bestBig, bestBigSpec = r.Speedup, c.Spec
			}
		}
	}
	if bestBigSpec == "" {
		fatal("no 8+ relation batched rows found")
	}
	if bestBig < *minSpeedup {
		fatal("best 8+ relation batched speedup %.2fx (%s) below floor %.2fx",
			bestBig, bestBigSpec, *minSpeedup)
	}
	fmt.Printf("OK: best 8+ relation batched speedup %.2fx (%s) >= %.2fx\n",
		bestBig, bestBigSpec, *minSpeedup)
}

func findRow(rows []row, path string) (row, bool) {
	for _, r := range rows {
		if r.Path == path {
			return r, true
		}
	}
	return row{}, false
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "planner_check: "+format+"\n", args...)
	os.Exit(1)
}
