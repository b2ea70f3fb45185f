// The quickstart example walks the paper's Figure 2 end to end on a
// TPC-H-lite instance: build the running-example query (Q5), execute it to
// annotate true cardinalities, train a small T3 model on generated queries,
// and predict Q5's execution time with a per-pipeline breakdown — including
// the feature vectors of the paper's Listings 3 and 4.
package main

import (
	"fmt"
	"log"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/exec"
	"t3/internal/engine/stats"
	"t3/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. A database instance: TPC-H-lite at a small scale.
	fmt.Println("generating TPC-H-lite instance...")
	inst := workload.MustGenerate(workload.TPCHSpec("tpch", 0.05, 42))

	// 2. Training data: random queries in 16 structure groups, each
	//    executed and timed per pipeline.
	fmt.Println("benchmarking generated queries (this is the training data)...")
	set, err := benchdata.BenchmarkInstance(inst, benchdata.Config{PerGroup: 6, Runs: 3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmarked %d queries\n", len(set.Labels))

	// 3. Train T3: every pipeline becomes one example with a tuple-centric
	//    -log10 target.
	params := t3.DefaultParams()
	params.NumRounds = 100
	model, err := t3.Train(set.Labels, t3.TrainOptions{Params: params})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d trees\n", len(model.Boosted().Trees))

	// 4. The paper's running example: TPC-H Q5.
	var q5 *workload.Query
	for _, q := range workload.TPCHBenchmarkQueries(inst) {
		if q.Name == inst.Name+"/q5" {
			q5 = q
		}
	}
	if err := exec.AnnotateTrueCards(q5.Root); err != nil {
		log.Fatal(err)
	}
	est := &stats.Estimator{DB: inst.Stats}
	est.Estimate(q5.Root)

	// 5. Predict, then execute to compare.
	pred, per := model.PredictPlan(q5.Root, t3.TrueCards)
	fmt.Printf("\nQ5 predicted: %v across %d pipelines\n", pred, len(per))
	for _, p := range per {
		fmt.Printf("  P%d: %.3g s/tuple x %.0f tuples = %v\n",
			p.Index, p.PerTupleSeconds, p.Cardinality, p.Total)
	}

	res, err := exec.Run(q5.Root, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q5 measured:  %v (%d result rows)\n", res.Total, res.Rows)

	// 6. The feature vectors of the paper's Listings 3 and 4.
	vecs, ps := t3.Featurize(q5.Root, t3.TrueCards)
	reg := model.Registry()
	for i, p := range ps {
		fmt.Printf("\nPipeline %d (scan: %.0f tuples)\n%s",
			p.Index, p.SourceCard(t3.TrueCards), reg.Describe(vecs[i]))
	}
}
