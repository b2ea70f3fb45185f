// The joinorder example reproduces the paper's join-ordering microbenchmark
// (§5.5) interactively: it optimizes JOB-like queries with DPsize under both
// the Cout cost function and a freshly trained T3 model, then executes the
// chosen plans to compare optimization cost against plan quality.
package main

import (
	"fmt"
	"log"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/exec"
	"t3/internal/joinorder"
	"t3/internal/workload"
)

func main() {
	log.SetFlags(0)

	fmt.Println("generating imdb-lite and training T3 on TPC-H-lite...")
	imdb := workload.MustGenerate(workload.IMDBSpec("imdb", 0.02, 5))
	trainInst := workload.MustGenerate(workload.TPCHSpec("tpch", 0.05, 6))
	set, err := benchdata.BenchmarkInstance(trainInst, benchdata.Config{PerGroup: 5, Runs: 2, Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	params := t3.DefaultParams()
	params.NumRounds = 100
	model, err := t3.Train(set.Labels, t3.TrainOptions{Params: params})
	if err != nil {
		log.Fatal(err)
	}

	specs := workload.JOBJoinSpecs(imdb)[:20]
	fmt.Printf("optimizing %d JOB-like queries with DPsize\n\n", len(specs))

	var coutOpt, t3Opt time.Duration
	var coutCalls, t3Calls int
	var coutExec, t3Exec time.Duration
	for _, sp := range specs {
		oracle := joinorder.NewExactOracle(imdb, sp)
		// Warm the cardinality oracle so optimization time measures the
		// cost model, not query execution.
		if _, err := joinorder.DPSize(sp, joinorder.NewCout(oracle)); err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		cm := joinorder.NewCout(oracle)
		coutRes, err := joinorder.DPSize(sp, cm)
		if err != nil {
			log.Fatal(err)
		}
		coutOpt += time.Since(start)
		coutCalls += cm.Calls()

		start = time.Now()
		t3cm := joinorder.NewT3Cost(model.Packed(), model.Registry(), imdb, sp, oracle)
		t3Res, err := joinorder.DPSize(sp, t3cm)
		if err != nil {
			log.Fatal(err)
		}
		t3Opt += time.Since(start)
		t3Calls += t3cm.Calls()

		for _, pair := range []struct {
			tree *joinorder.Tree
			acc  *time.Duration
		}{{coutRes.Tree, &coutExec}, {t3Res.Tree, &t3Exec}} {
			res, err := exec.Run(joinorder.TreeToPlan(imdb, sp, pair.tree), false)
			if err != nil {
				log.Fatal(err)
			}
			*pair.acc += res.Total
		}
		fmt.Printf("%-6s Cout tree %-28s T3 tree %s\n", sp.Name, coutRes.Tree, t3Res.Tree)
	}

	fmt.Printf("\n%-12s %12s %12s %12s %14s\n", "Cost Model", "Opt. Time", "Model Calls", "Time/Call", "Exec. Time")
	fmt.Printf("%-12s %12v %12d %12v %14v\n", "Cout", coutOpt, coutCalls, coutOpt/time.Duration(max(coutCalls, 1)), coutExec)
	fmt.Printf("%-12s %12v %12d %12v %14v\n", "T3", t3Opt, t3Calls, t3Opt/time.Duration(max(t3Calls, 1)), t3Exec)
	fmt.Println("\nAs in the paper: T3 is fast enough to be called hundreds of thousands")
	fmt.Println("of times, but a trivial cost function yields comparable join orders —")
	fmt.Println("performance prediction is not the compelling use-case for join ordering.")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
