// The whatif example studies T3's reliance on cardinality estimates (§5.6,
// Figure 12): it trains a model with perfect cardinalities, then predicts
// the same workload under increasingly distorted estimates and reports the
// accuracy degradation — the "garbage in, garbage out" limitation every
// cost model shares.
package main

import (
	"fmt"
	"log"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/stats"
	"t3/internal/qerror"
	"t3/internal/workload"
)

func main() {
	log.SetFlags(0)

	fmt.Println("benchmarking a TPC-H-lite workload...")
	inst := workload.MustGenerate(workload.TPCHSpec("tpch", 0.05, 21))
	set, err := benchdata.BenchmarkInstance(inst, benchdata.Config{PerGroup: 6, Runs: 2, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	train := set.Labels[:2*len(set.Labels)/3]
	eval := set.Labels[2*len(set.Labels)/3:]

	params := t3.DefaultParams()
	params.NumRounds = 100
	model, err := t3.Train(train, t3.TrainOptions{Params: params})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\naccuracy on %d held-out queries under distorted cardinalities:\n", len(eval))
	fmt.Printf("%10s %8s %8s %8s\n", "distortion", "p50", "p90", "avg")
	for _, factor := range []float64{1, 2, 5, 10, 50, 100, 500, 1000} {
		var es []float64
		for qi, b := range eval {
			stats.Distort(b.Root, factor, int64(qi)*17+3)
			pred, _ := model.PredictPlan(b.Root, t3.EstCards)
			es = append(es, qerror.QError(pred.Seconds(), b.MedianTotal().Seconds()))
		}
		s := qerror.Summarize(es)
		fmt.Printf("%9.0fx %8.2f %8.2f %8.2f\n", factor, s.P50, s.P90, s.Avg)
	}
	fmt.Println("\nPredictions track estimate quality: with exact cardinalities the model")
	fmt.Println("is accurate; at 1000x distortion the errors are dominated by the inputs.")
	fmt.Println("The paper concludes better cardinality estimation is the most promising")
	fmt.Println("direction for improving performance prediction.")
}
