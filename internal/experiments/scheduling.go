package experiments

import (
	"fmt"
	"strings"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/sched"
)

// Scheduling quantifies the paper's motivating use-case (§1): how much do
// prediction accuracy and prediction latency matter when scheduling a spike
// of queries across clusters? It schedules the benchmarked TPC-DS test
// workload (with its real measured durations) under different predictors:
// a perfect oracle, T3, the Zero Shot NN (accurate-ish but slow), and no
// predictor at all.
type Scheduling struct {
	Clusters int
	Rows     []SchedulingRow
}

// SchedulingRow is one predictor's outcome.
type SchedulingRow struct {
	Predictor string
	Result    sched.Result
}

// RunScheduling simulates LPT scheduling with each predictor. Prediction
// latencies are measured per query on this machine.
func (e *Env) RunScheduling() (*Scheduling, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := e.T3()
	if err != nil {
		return nil, err
	}
	nn, err := e.ZeroShot()
	if err != nil {
		return nil, err
	}
	test := c.AllTest()

	const clusters = 8
	res := &Scheduling{Clusters: clusters}

	mkJobs := func(predict func(i int) (time.Duration, time.Duration)) []sched.Job {
		jobs := make([]sched.Job, len(test))
		for i, b := range test {
			p, lat := predict(i)
			jobs[i] = sched.Job{
				ID:          b.Name,
				Actual:      b.MedianTotal(),
				Predicted:   p,
				PredLatency: lat,
			}
		}
		return jobs
	}

	// Perfect oracle: exact durations, zero latency.
	oracleJobs := mkJobs(func(i int) (time.Duration, time.Duration) {
		return test[i].MedianTotal(), 0
	})
	res.Rows = append(res.Rows, SchedulingRow{"oracle", sched.Simulate(oracleJobs, clusters, sched.LongestFirst)})

	// T3: measured per-query prediction and latency.
	t3Jobs := mkJobs(func(i int) (time.Duration, time.Duration) {
		start := time.Now()
		p, _ := m.PredictPlan(test[i].Root, plan.TrueCards)
		return p, time.Since(start)
	})
	res.Rows = append(res.Rows, SchedulingRow{"T3", sched.Simulate(t3Jobs, clusters, sched.LongestFirst)})

	// T3, batched dispatch: the dispatcher prices the whole queue with one
	// packed-tier batch call and pays its measured latency once.
	roots := make([]*plan.Node, len(test))
	for i, b := range test {
		roots[i] = b.Root
	}
	preds := make([]time.Duration, len(test))
	batchStart := time.Now()
	m.PredictBatchInto(roots, plan.TrueCards, preds)
	batchLat := time.Since(batchStart)
	batchJobs := mkJobs(func(i int) (time.Duration, time.Duration) { return preds[i], 0 })
	res.Rows = append(res.Rows, SchedulingRow{"T3 (batched dispatch)",
		sched.SimulateBatchDispatch(batchJobs, clusters, sched.LongestFirst, batchLat)})

	// Zero Shot NN.
	nnJobs := mkJobs(func(i int) (time.Duration, time.Duration) {
		start := time.Now()
		p := nn.PredictSeconds(test[i].Root, plan.TrueCards)
		return time.Duration(p * float64(time.Second)), time.Since(start)
	})
	res.Rows = append(res.Rows, SchedulingRow{"Zero Shot NN", sched.Simulate(nnJobs, clusters, sched.LongestFirst)})

	// No predictor: round-robin placement.
	plainJobs := mkJobs(func(int) (time.Duration, time.Duration) { return 0, 0 })
	res.Rows = append(res.Rows, SchedulingRow{"none (round-robin)", sched.Simulate(plainJobs, clusters, sched.RoundRobin)})
	return res, nil
}

// Format renders the scheduling comparison.
func (s *Scheduling) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scheduling (extension): LPT across %d clusters, TPC-DS test workload\n", s.Clusters)
	fmt.Fprintf(&sb, "%-20s %12s %12s %12s %14s\n", "Predictor", "makespan", "mean", "p95", "pred latency")
	for _, r := range s.Rows {
		fmt.Fprintf(&sb, "%-20s %12s %12s %12s %14s\n", r.Predictor,
			fmtDur(r.Result.Makespan), fmtDur(r.Result.MeanCompletion),
			fmtDur(r.Result.P95Completion), fmtDur(r.Result.DispatchOverhead))
	}
	return sb.String()
}
