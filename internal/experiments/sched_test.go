package experiments

import (
	"math/rand"
	"testing"
	"time"
)

// syntheticJobs builds n jobs with durations in [1ms, 100ms] and the given
// prediction quality: predicted = actual * (1 ± err).
func syntheticJobs(n int, err float64, predLat time.Duration, seed int64) []schedJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]schedJob, n)
	for i := range jobs {
		actual := time.Duration(1+rng.Intn(100)) * time.Millisecond
		noise := 1 + (rng.Float64()*2-1)*err
		if noise < 0.01 {
			noise = 0.01
		}
		jobs[i] = schedJob{
			actual:      actual,
			predicted:   time.Duration(float64(actual) * noise),
			predLatency: predLat,
		}
	}
	return jobs
}

func TestPerfectPredictionsBeatRoundRobin(t *testing.T) {
	jobs := syntheticJobs(200, 0, 0, 1)
	rr := simulate(jobs, 4, roundRobin)
	lpt := simulate(jobs, 4, longestFirst)
	if lpt.Makespan >= rr.Makespan {
		t.Errorf("LPT makespan %v should beat round-robin %v", lpt.Makespan, rr.Makespan)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	jobs := syntheticJobs(100, 0.2, 0, 2)
	var total time.Duration
	var longest time.Duration
	for _, j := range jobs {
		total += j.actual
		if j.actual > longest {
			longest = j.actual
		}
	}
	for _, p := range []schedPolicy{roundRobin, longestFirst} {
		r := simulate(jobs, 4, p)
		lb := max(total/4, longest)
		if r.Makespan < lb {
			t.Errorf("%v: makespan %v below lower bound %v", p, r.Makespan, lb)
		}
		if r.Makespan > total {
			t.Errorf("%v: makespan %v exceeds serial time %v", p, r.Makespan, total)
		}
	}
}

func TestPredictionLatencyDelaysEverything(t *testing.T) {
	fast := syntheticJobs(500, 0.1, 4*time.Microsecond, 3)
	slow := make([]schedJob, len(fast))
	copy(slow, fast)
	for i := range slow {
		slow[i].predLatency = 50 * time.Millisecond // an NN-class predictor
	}
	rFast := simulate(fast, 8, longestFirst)
	rSlow := simulate(slow, 8, longestFirst)
	if rSlow.DispatchOverhead <= rFast.DispatchOverhead {
		t.Fatal("dispatch overhead should reflect prediction latency")
	}
	// With 500 x 50ms serialized predictions, the dispatcher becomes the
	// bottleneck: 25 seconds of pure prediction time.
	if rSlow.Makespan <= rFast.Makespan {
		t.Errorf("slow-predictor makespan %v should exceed fast %v", rSlow.Makespan, rFast.Makespan)
	}
	if rSlow.MeanCompletion <= rFast.MeanCompletion {
		t.Errorf("slow-predictor mean completion %v should exceed fast %v",
			rSlow.MeanCompletion, rFast.MeanCompletion)
	}
}

func TestBadPredictionsHurtPlacement(t *testing.T) {
	good := syntheticJobs(300, 0.05, 0, 4)
	bad := make([]schedJob, len(good))
	copy(bad, good)
	rng := rand.New(rand.NewSource(5))
	for i := range bad {
		// Random predictions uncorrelated with actual times.
		bad[i].predicted = time.Duration(1+rng.Intn(100)) * time.Millisecond
	}
	rGood := simulate(good, 4, longestFirst)
	rBad := simulate(bad, 4, longestFirst)
	if rBad.Makespan < rGood.Makespan {
		t.Errorf("random predictions (%v) should not beat accurate ones (%v)",
			rBad.Makespan, rGood.Makespan)
	}
}

func TestSingleClusterSerializes(t *testing.T) {
	jobs := syntheticJobs(50, 0, 0, 6)
	var total time.Duration
	for _, j := range jobs {
		total += j.actual
	}
	r := simulate(jobs, 1, longestFirst)
	if r.Makespan != total {
		t.Errorf("single cluster makespan %v != serial %v", r.Makespan, total)
	}
	if r2 := simulate(jobs, 0, roundRobin); r2.Clusters != 1 {
		t.Error("clusters < 1 should clamp to 1")
	}
}

func TestEmptyJobs(t *testing.T) {
	r := simulate(nil, 4, longestFirst)
	if r.Makespan != 0 || r.MeanCompletion != 0 {
		t.Errorf("empty simulation: %+v", r)
	}
}

func TestBatchDispatchIsUniformShift(t *testing.T) {
	// One upfront batch latency L shifts every placement — and therefore
	// every completion — by exactly L relative to latency-free dispatch:
	// the dispatcher clock is the constant L, so start = free + L by
	// induction. Per-job PredLatency must be ignored entirely.
	jobs := syntheticJobs(200, 0.1, 3*time.Millisecond, 7)
	free := make([]schedJob, len(jobs))
	copy(free, jobs)
	for i := range free {
		free[i].predLatency = 0
	}
	const L = 25 * time.Millisecond
	for _, p := range []schedPolicy{roundRobin, longestFirst} {
		base := simulate(free, 4, p)
		batch := simulateBatchDispatch(jobs, 4, p, L)
		if batch.Makespan != base.Makespan+L {
			t.Errorf("%v: batch makespan %v != base %v + %v", p, batch.Makespan, base.Makespan, L)
		}
		if batch.MeanCompletion != base.MeanCompletion+L {
			t.Errorf("%v: batch mean %v != base %v + %v", p, batch.MeanCompletion, base.MeanCompletion, L)
		}
		if batch.DispatchOverhead != L {
			t.Errorf("%v: overhead %v != batch latency %v", p, batch.DispatchOverhead, L)
		}
		// Zero-latency batch dispatch equals zero-latency serial dispatch.
		if zero := simulateBatchDispatch(jobs, 4, p, 0); zero.Makespan != base.Makespan || zero.MeanCompletion != base.MeanCompletion {
			t.Errorf("%v: zero-latency batch %+v != zero-latency serial %+v", p, zero, base)
		}
	}
}

func TestBatchDispatchBeatsSerializedPredictions(t *testing.T) {
	// When serialized per-job predictions make the dispatcher the bottleneck
	// (the paper's NN-class regime), one amortized batched prediction wins on
	// every axis.
	jobs := syntheticJobs(500, 0.1, 10*time.Millisecond, 8)
	serial := simulate(jobs, 8, longestFirst)
	batch := simulateBatchDispatch(jobs, 8, longestFirst, 20*time.Millisecond)
	if batch.DispatchOverhead >= serial.DispatchOverhead {
		t.Fatal("batched dispatch should cut dispatcher overhead")
	}
	if batch.Makespan >= serial.Makespan {
		t.Errorf("batched makespan %v should beat serialized %v", batch.Makespan, serial.Makespan)
	}
	if batch.MeanCompletion >= serial.MeanCompletion {
		t.Errorf("batched mean completion %v should beat serialized %v",
			batch.MeanCompletion, serial.MeanCompletion)
	}
}

func TestPolicyNames(t *testing.T) {
	if roundRobin.String() != "round-robin" || longestFirst.String() != "longest-first" {
		t.Error("policy names wrong")
	}
}

// TestP95IsNearestRank pins the percentile rule: 20 jobs on one cluster
// complete at 1..20 ms, and the p95 by nearest rank is the 19th completion,
// not the last.
func TestP95IsNearestRank(t *testing.T) {
	jobs := make([]schedJob, 20)
	for i := range jobs {
		jobs[i].actual = time.Millisecond
	}
	r := simulate(jobs, 1, roundRobin)
	if r.Makespan != 20*time.Millisecond {
		t.Fatalf("makespan %v, want 20ms", r.Makespan)
	}
	if r.P95Completion != 19*time.Millisecond {
		t.Errorf("p95 completion %v, want the 19th of 20 (19ms)", r.P95Completion)
	}
}

func TestNearestRank(t *testing.T) {
	ranks := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n, pct int
		want   time.Duration
	}{
		{1, 50, 1}, {1, 99, 1}, {2, 50, 1}, {4, 50, 2}, {5, 50, 3},
		{20, 95, 19}, {21, 95, 20}, {100, 99, 99}, {101, 99, 100}, {200, 99, 198},
	} {
		if got := nearestRank(ranks(c.n), c.pct); got != c.want {
			t.Errorf("p%d of 1..%d = %d, want %d", c.pct, c.n, got, c.want)
		}
	}
}
