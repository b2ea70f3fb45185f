package experiments

import (
	"sort"
	"time"
)

// A simulator of prediction-driven query scheduling — the paper's
// motivating use-case (§1): a spike of concurrent queries must be assigned
// across compute clusters, each query waiting for its performance prediction
// before it can be placed. Better predictions improve placement; prediction
// latency is paid on every query's critical path.
//
// The simulator is discrete and deterministic: a dispatcher processes the
// queue sequentially (predictions serialize on the dispatcher, as in the
// paper's "each query must wait for its prediction before being scheduled"),
// assigns each job per the policy, and clusters execute jobs back to back
// with their *actual* measured durations.

// schedJob is one query to schedule.
type schedJob struct {
	// actual is the measured execution time, charged to the cluster.
	actual time.Duration
	// predicted is the estimate the policy sees (0 for prediction-free
	// policies).
	predicted time.Duration
	// predLatency is the prediction cost paid by the dispatcher before the
	// job can be placed.
	predLatency time.Duration
}

// schedPolicy decides the processing order and placement of jobs.
type schedPolicy uint8

// Scheduling policies.
const (
	// roundRobin assigns jobs in arrival order, cycling clusters; needs no
	// predictions.
	roundRobin schedPolicy = iota
	// longestFirst sorts the queue by descending predicted time, then
	// assigns each job to the cluster with the least predicted outstanding
	// work (LPT; near-optimal for makespan).
	longestFirst
)

// String names the policy.
func (p schedPolicy) String() string {
	if p == roundRobin {
		return "round-robin"
	}
	return "longest-first"
}

// schedResult summarizes one simulation.
type schedResult struct {
	Clusters int
	// Makespan is the time the last cluster finishes.
	Makespan time.Duration
	// MeanCompletion and P95Completion aggregate per-job completion times
	// (dispatch wait + queue wait + execution).
	MeanCompletion time.Duration
	P95Completion  time.Duration
	// DispatchOverhead is the total prediction latency serialized on the
	// dispatcher.
	DispatchOverhead time.Duration
}

// simulate schedules the jobs onto the given number of clusters. Each job's
// prediction latency serializes on the dispatcher before the job can be
// placed — the paper's "each query must wait for its prediction" regime.
func simulate(jobs []schedJob, clusters int, policy schedPolicy) schedResult {
	return simulateDispatch(jobs, clusters, policy, 0, true)
}

// simulateBatchDispatch schedules like simulate, except the dispatcher
// prices the entire queue with one batched prediction up front:
// batchLatency is charged once to the dispatcher clock (and reported as
// DispatchOverhead), and the per-job predLatency fields are ignored. This is
// the scheduling counterpart of level-batched planner costing — the spike of
// queued queries is exactly a batch the packed tier can price in one call.
func simulateBatchDispatch(jobs []schedJob, clusters int, policy schedPolicy, batchLatency time.Duration) schedResult {
	return simulateDispatch(jobs, clusters, policy, batchLatency, false)
}

// simulateDispatch is the shared discrete simulator core: upfront is charged
// to the dispatcher clock before any placement; perJob charges each job's
// predLatency as it is dispatched.
func simulateDispatch(jobs []schedJob, clusters int, policy schedPolicy, upfront time.Duration, perJob bool) schedResult {
	if clusters < 1 {
		clusters = 1
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	if policy == longestFirst {
		sort.SliceStable(order, func(a, b int) bool {
			return jobs[order[a]].predicted > jobs[order[b]].predicted
		})
	}

	// free[c] is when cluster c next becomes idle; predLoad[c] is the
	// policy's view of outstanding predicted work.
	free := make([]time.Duration, clusters)
	predLoad := make([]time.Duration, clusters)
	completions := make([]time.Duration, 0, len(jobs))

	dispatch := upfront // dispatcher clock
	res := schedResult{Clusters: clusters, DispatchOverhead: upfront}
	for i, oi := range order {
		j := jobs[oi]
		if perJob {
			// The dispatcher pays the prediction latency before placing.
			dispatch += j.predLatency
			res.DispatchOverhead += j.predLatency
		}

		c := 0
		if policy == roundRobin {
			c = i % clusters
		} else {
			for k := 1; k < clusters; k++ {
				if predLoad[k] < predLoad[c] {
					c = k
				}
			}
		}
		start := max(free[c], dispatch)
		finish := start + j.actual
		free[c] = finish
		predLoad[c] += j.predicted
		completions = append(completions, finish)
		res.Makespan = max(res.Makespan, finish)
	}

	sort.Slice(completions, func(a, b int) bool { return completions[a] < completions[b] })
	var sum time.Duration
	for _, cdone := range completions {
		sum += cdone
	}
	if len(completions) > 0 {
		res.MeanCompletion = sum / time.Duration(len(completions))
		res.P95Completion = nearestRank(completions, 95)
	}
	return res
}

// nearestRank returns the pct-th percentile of the ascending, non-empty
// sorted by the nearest-rank rule: the element at index ceil(pct·n/100) − 1,
// so the p95 of 20 values is the 19th, not the largest.
func nearestRank(sorted []time.Duration, pct int) time.Duration {
	return sorted[(pct*len(sorted)+99)/100-1]
}
