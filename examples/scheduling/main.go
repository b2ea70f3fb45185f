// The scheduling example demonstrates the paper's motivating use-case (§1):
// a cloud scheduler assigning a spike of concurrent queries to compute
// clusters based on predicted run times.
//
// It benchmarks a TPC-DS-lite workload, trains T3 and a neural-network
// predictor on half of it, and schedules the other half with the simulator
// in internal/sched under four predictors. Two effects compound: more
// accurate predictions place work better (lower makespan), and lower
// prediction latency keeps the dispatcher off the critical path ("each query
// must wait for its prediction before being scheduled").
package main

import (
	"fmt"
	"log"
	"time"

	"t3"
	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/sched"
	"t3/internal/workload"
	"t3/internal/zeroshot"
)

const clusters = 4

func main() {
	log.SetFlags(0)

	fmt.Println("building workload (one TPC-DS-lite instance)...")
	inst := workload.MustGenerate(workload.TPCDSSpec("tpcds", 2, 11))
	set, err := benchdata.BenchmarkInstance(inst, benchdata.Config{PerGroup: 5, Runs: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	train := set.Labels[:len(set.Labels)/2]
	incoming := set.Labels[len(set.Labels)/2:]
	fmt.Printf("%d training queries, %d incoming queries to schedule\n", len(train), len(incoming))

	params := t3.DefaultParams()
	params.NumRounds = 100
	model, err := t3.Train(train, t3.TrainOptions{Params: params})
	if err != nil {
		log.Fatal(err)
	}
	nnCfg := zeroshot.DefaultTrainConfig()
	nnCfg.Epochs = 10
	nn := zeroshot.Train(train, plan.TrueCards, nnCfg)

	jobs := func(predict func(b *t3.Label) (time.Duration, time.Duration)) []sched.Job {
		out := make([]sched.Job, len(incoming))
		for i, b := range incoming {
			p, lat := predict(b)
			out[i] = sched.Job{ID: b.Name, Actual: b.MedianTotal(), Predicted: p, PredLatency: lat}
		}
		return out
	}

	t3Jobs := jobs(func(b *t3.Label) (time.Duration, time.Duration) {
		start := time.Now()
		p, _ := model.PredictPlan(b.Root, t3.TrueCards)
		return p, time.Since(start)
	})
	nnJobs := jobs(func(b *t3.Label) (time.Duration, time.Duration) {
		start := time.Now()
		p := nn.PredictSeconds(b.Root, plan.TrueCards)
		return time.Duration(p * float64(time.Second)), time.Since(start)
	})
	oracleJobs := jobs(func(b *t3.Label) (time.Duration, time.Duration) {
		return b.MedianTotal(), 0
	})
	blindJobs := jobs(func(*t3.Label) (time.Duration, time.Duration) { return 0, 0 })

	fmt.Printf("\nscheduling %d queries onto %d clusters (LPT policy):\n", len(incoming), clusters)
	fmt.Println("  " + sched.Simulate(oracleJobs, clusters, sched.LongestFirst).Format() + "   [oracle]")
	fmt.Println("  " + sched.Simulate(t3Jobs, clusters, sched.LongestFirst).Format() + "   [T3]")
	fmt.Println("  " + sched.Simulate(nnJobs, clusters, sched.LongestFirst).Format() + "   [NN]")
	fmt.Println("  " + sched.Simulate(blindJobs, clusters, sched.RoundRobin).Format() + "   [no predictions]")
	fmt.Println("\nT3's microsecond predictions keep the dispatcher off the critical path")
	fmt.Println("while placing work nearly as well as a perfect oracle.")
}
