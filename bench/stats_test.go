package main

import (
	"math"
	"testing"
)

func TestPercentileIsExact(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.501, 51}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no sample = %d, want 0", got)
	}
	// With 100 samples p90 has exactly ten beyond it: the floor's reason.
	if beyond := len(sorted) - int(percentile(sorted, 0.9)); beyond != 10 {
		t.Errorf("%d samples beyond p90, want 10", beyond)
	}
}

// The expected values are those of Python's statistics.quantiles(xs, n=4),
// the rule of the contract's spread check.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
		{[]float64{2, 4, 4, 5, 7}, 3, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, _ := quartiles([]float64{3}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
}

// The window's figures cover every op: a disturbed stretch is not filtered
// out, whoever caused it.
func TestSummariseCoversTheWholeWindow(t *testing.T) {
	// Two callers, 8 s: one with 10 ms ops of which every fifth takes 15 ms,
	// one with steady 20 ms ops.
	a, b := &recorder{}, &recorder{}
	for i := range 640 {
		l := int64(10e6)
		if i%5 == 4 {
			l = 15e6
		}
		a.lat = append(a.lat, l)
	}
	for range 400 {
		b.lat = append(b.lat, 20e6)
	}
	ws := summarise([]*recorder{a, b}, 8e9)
	if ws.samples != 1040 || math.Abs(ws.opsPerS-130) > 1e-9 {
		t.Errorf("samples %d ops/s %v, want 1040 and 130", ws.samples, ws.opsPerS)
	}
	// Ascending: 512 of 10 ms, 128 of 15 ms, 400 of 20 ms.
	if ws.p50us != 15000 || ws.p90us != 20000 || ws.p99us != 20000 || ws.maxUs != 20000 {
		t.Errorf("p50 %v p90 %v p99 %v max %v us", ws.p50us, ws.p90us, ws.p99us, ws.maxUs)
	}
	if want := (512*10e3 + 128*15e3 + 400*20e3) / 1040; math.Abs(ws.meanUs-want) > 1e-6 {
		t.Errorf("mean %v us, want %v", ws.meanUs, want)
	}
	if ws := summarise(nil, 8e9); ws.samples != 0 || ws.opsPerS != 0 {
		t.Errorf("no caller: %+v", ws)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add(-1, "root", 0, 100)
	a := tr.add(root, "a", 10, 40)
	tr.add(a, "a1", 15, 25)
	tr.add(root, "b", 50, 90)
	tr.add(root, "late", 95, 120) // outlives its parent: only 95..100 counts
	self := selfTimes(tr.spans)
	want := []int64{100 - 30 - 40 - 5, 30 - 10, 10, 40, 25}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", tr.spans[i].name, self[i], want[i])
		}
	}
	sum := summariseSpans(tr.spans[:4])
	if sum.RootNs != 100 || sum.SelfNs != 100 || sum.SelfOverRoot != 1 {
		t.Errorf("well-nested spans: root %d self %d ratio %v, want self times to sum to the root", sum.RootNs, sum.SelfNs, sum.SelfOverRoot)
	}
	if l := sum.Layers["a"]; l.Count != 1 || l.TotalNs != 30 || l.SelfNs != 20 {
		t.Errorf("layer a = %+v", l)
	}

	// Two tracers merge with parents rebased.
	other := &tracer{}
	r2 := other.add(-1, "root", 0, 10)
	other.add(r2, "a", 2, 4)
	merged := mergeTracers([]*tracer{tr, other})
	if got := merged[len(merged)-1].parent; got != int32(len(tr.spans)) {
		t.Errorf("merged child's parent = %d, want %d", got, len(tr.spans))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", base, base, lower, verdictOK},
		{"9% slower", base, []float64{109, 109, 108, 110, 109}, lower, verdictOK},
		{"12% slower", base, []float64{112, 112, 111, 113, 112}, lower, verdictWorse},
		{"12% faster", base, []float64{88, 88, 87, 89, 88}, lower, verdictOK},
		{"12% less throughput", base, []float64{88, 88, 87, 89, 88}, higher, verdictWorse},
		{"noisy", []float64{80, 100, 120, 90, 110}, base, lower, verdictUnresolved},
		{"set-up 0.2 s slower is within the slack", []float64{0.5, 0.5, 0.5}, []float64{0.7, 0.7, 0.7}, metricDef{Name: "setup_s", Better: "lower", Bound: 0.1, slack: 0.25}, verdictOK},
		{"set-up 0.3 s slower is not", []float64{0.5, 0.5, 0.5}, []float64{0.8, 0.8, 0.8}, metricDef{Name: "setup_s", Better: "lower", Bound: 0.1, slack: 0.25}, verdictWorse},
		{"any failure is worse", []float64{0, 0, 0}, []float64{0, 0.001, 0.002}, metricDef{Name: "failed_share", Better: "lower"}, verdictWorse},
		{"no failure is ok", []float64{0, 0, 0}, []float64{0, 0, 0}, metricDef{Name: "failed_share", Better: "lower"}, verdictOK},
	} {
		if got := judge(c.a, c.b, c.d).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
