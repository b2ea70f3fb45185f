package workload

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
)

// collectInstance builds a small deterministic instance for collection tests.
func collectInstance(t testing.TB) *Instance {
	t.Helper()
	return MustGenerate(TPCHSpec("tpch_collect", 0.002, 99))
}

// TestCollectLabelsDeterministicAcrossWorkers is the runner's core contract:
// the stable serialization of the collected label set must be byte-identical
// for every worker count.
func TestCollectLabelsDeterministicAcrossWorkers(t *testing.T) {
	in := collectInstance(t)
	var ref []byte
	for _, workers := range []int{1, 2, 4} {
		ls, err := CollectLabels(in, CollectConfig{Workers: workers, Runs: 2, PerGroup: 2, Seed: 7})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(ls.Labels) == 0 {
			t.Fatalf("workers=%d: no labels collected", workers)
		}
		for i, l := range ls.Labels {
			if l == nil {
				t.Fatalf("workers=%d: label %d missing", workers, i)
			}
			if len(l.PipelineRuns) != 2 {
				t.Fatalf("workers=%d: label %d has %d runs, want 2", workers, i, len(l.PipelineRuns))
			}
			if len(l.SourceRows) != len(l.Pipelines) {
				t.Fatalf("workers=%d: label %d source rows %d != pipelines %d",
					workers, i, len(l.SourceRows), len(l.Pipelines))
			}
		}
		b := ls.StableBytes()
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("workers=%d: stable bytes differ from workers=1 (%d vs %d bytes)",
				workers, len(b), len(ref))
		}
	}
}

// TestCollectLabelsFullByteIdentity stubs execution with deterministic
// durations and asserts FULL byte identity — including the timing payload —
// across worker counts, proving the runner's ordering and plumbing add no
// nondeterminism of their own.
func TestCollectLabelsFullByteIdentity(t *testing.T) {
	in := collectInstance(t)
	stub := func(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
		res, err := ex.Run(root, annotate)
		if err != nil {
			return nil, err
		}
		// Replace measured times with a deterministic function of the
		// pipeline's position and source cardinality.
		res.Total = 0
		for i := range res.Pipelines {
			p := &res.Pipelines[i]
			p.Duration = time.Duration(i+1)*time.Microsecond + time.Duration(p.SourceRows)
			res.Total += p.Duration
		}
		return res, nil
	}
	var ref []byte
	for _, workers := range []int{1, 4} {
		ls, err := CollectLabels(in, CollectConfig{
			Workers: workers, Runs: 3, PerGroup: 2, Seed: 7, RunPlan: stub,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b := ls.Bytes()
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("workers=%d: full bytes differ from workers=1", workers)
		}
	}
}

// TestCollectLabelsParallel exercises the fan-out with more workers than
// GOMAXPROCS typically grants and verifies per-worker executor states are
// actually distinct. Run under -race this is the runner's data-race test.
func TestCollectLabelsParallel(t *testing.T) {
	in := collectInstance(t)
	var calls atomic.Int64
	seen := make(map[*exec.Executor]bool)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	stub := func(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
		calls.Add(1)
		<-mu
		seen[ex] = true
		mu <- struct{}{}
		return ex.Run(root, annotate)
	}
	ls, err := CollectLabels(in, CollectConfig{Workers: 4, Runs: 1, PerGroup: 1, Seed: 3, RunPlan: stub})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(calls.Load()); got != 2*len(ls.Labels) {
		t.Fatalf("stub called %d times, want %d (analyze + 1 run per query)", got, 2*len(ls.Labels))
	}
	if len(seen) < 1 || len(seen) > 4 {
		t.Fatalf("saw %d executor states, want between 1 and 4", len(seen))
	}
	// Fingerprint must match a serial collection of the same config.
	serial, err := CollectLabels(in, CollectConfig{Workers: 1, Runs: 1, PerGroup: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Fingerprint() != serial.Fingerprint() {
		t.Fatal("parallel and serial fingerprints differ")
	}
}

// TestCollectLabelsErrorIsDeterministic injects a failure on one specific
// query and checks the reported error does not depend on the worker count.
func TestCollectLabelsErrorIsDeterministic(t *testing.T) {
	in := collectInstance(t)
	var msgs []string
	for _, workers := range []int{1, 4} {
		var n atomic.Int64
		stub := func(ex *exec.Executor, root *plan.Node, annotate bool) (*exec.RunResult, error) {
			n.Add(1)
			if annotate && root.Op == plan.GroupByOp {
				return nil, errBoom
			}
			return ex.Run(root, annotate)
		}
		_, err := CollectLabels(in, CollectConfig{Workers: workers, Runs: 1, PerGroup: 1, Seed: 3, RunPlan: stub})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error depends on worker count: %q vs %q", msgs[0], msgs[1])
	}
}

var errBoom = &collectTestError{}

type collectTestError struct{}

func (*collectTestError) Error() string { return "injected failure" }

// TestCollectLabelsIntraParallelDeterministic forces morsel-parallel
// pipelines with a tiny morsel size and asserts the label-set fingerprint is
// still byte-identical for every combination of inter- and intra-query
// parallelism — the contract that lets `-workers` mean both levels at once.
func TestCollectLabelsIntraParallelDeterministic(t *testing.T) {
	in := collectInstance(t)
	var ref []byte
	for _, cfg := range []CollectConfig{
		{Workers: 1, IntraWorkers: -1},                // fully serial baseline
		{Workers: 1, IntraWorkers: 4, MorselRows: 64}, // intra only
		{Workers: 4, IntraWorkers: -1},                // inter only
		{Workers: 4, MorselRows: 64},                  // both, intra inherits workers
		{Workers: 2, IntraWorkers: 3, MorselRows: 32},
	} {
		cfg.Runs = 1
		cfg.PerGroup = 2
		cfg.Seed = 7
		ls, err := CollectLabels(in, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		b := ls.StableBytes()
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("%+v: stable bytes differ from serial baseline", cfg)
		}
	}
	// With a shrunken morsel, at least one pipeline should actually have run
	// parallel — otherwise this test proves nothing.
	ls, err := CollectLabels(in, CollectConfig{
		Workers: 4, MorselRows: 64, Runs: 1, PerGroup: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawParallel := false
	for _, l := range ls.Labels {
		for _, par := range l.Parallelism {
			if par > 1 {
				sawParallel = true
			}
		}
	}
	if !sawParallel {
		t.Fatal("no pipeline ran morsel-parallel despite MorselRows=64")
	}
}

// BenchmarkLabelCollect measures end-to-end label-collection throughput at
// several worker counts over the same instance and workload. Worker counts
// above GOMAXPROCS are skipped: they cannot add parallelism, only queueing.
func BenchmarkLabelCollect(b *testing.B) {
	in := MustGenerate(TPCHSpec("tpch_bench", 0.01, 42))
	maxp := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > maxp && workers > 4 {
			continue
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var queries int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ls, err := CollectLabels(in, CollectConfig{Workers: workers, Runs: 1, PerGroup: 1, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				queries = len(ls.Labels)
			}
			b.ReportMetric(float64(queries*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// TestLabelSetSplit checks the deterministic holdout split: stable stride
// partition, no label lost or duplicated, and reproducible fingerprints.
func TestLabelSetSplit(t *testing.T) {
	mk := func(n int) *LabelSet {
		ls := &LabelSet{Instance: "split_test", Workers: 1}
		for i := 0; i < n; i++ {
			ls.Labels = append(ls.Labels, &Label{Name: fmt.Sprintf("q%03d", i)})
		}
		return ls
	}

	ls := mk(16)
	train, hold := ls.Split(0.25)
	if len(train.Labels) != 12 || len(hold.Labels) != 4 {
		t.Fatalf("Split(0.25) over 16 = %d/%d, want 12/4", len(train.Labels), len(hold.Labels))
	}
	// Every 4th label (stride 4) goes to the holdout; order is preserved.
	for i, l := range hold.Labels {
		if want := fmt.Sprintf("q%03d", i*4+3); l.Name != want {
			t.Fatalf("holdout[%d] = %s, want %s", i, l.Name, want)
		}
	}
	seen := map[string]bool{}
	for _, l := range append(append([]*Label(nil), train.Labels...), hold.Labels...) {
		if seen[l.Name] {
			t.Fatalf("label %s appears twice after split", l.Name)
		}
		seen[l.Name] = true
	}
	if len(seen) != 16 {
		t.Fatalf("split lost labels: %d of 16 remain", len(seen))
	}

	// Same input, same fraction → identical partition and fingerprints.
	train2, hold2 := mk(16).Split(0.25)
	if train.Fingerprint() != train2.Fingerprint() || hold.Fingerprint() != hold2.Fingerprint() {
		t.Fatal("Split is not deterministic")
	}

	// Zero fraction holds nothing out; tiny sets still yield one holdout.
	tr, ho := mk(9).Split(0)
	if len(tr.Labels) != 9 || len(ho.Labels) != 0 {
		t.Fatalf("Split(0) = %d/%d, want 9/0", len(tr.Labels), len(ho.Labels))
	}
	tr, ho = mk(2).Split(0.1)
	if len(tr.Labels) != 1 || len(ho.Labels) != 1 {
		t.Fatalf("Split(0.1) over 2 = %d/%d, want 1/1", len(tr.Labels), len(ho.Labels))
	}
	tr, ho = mk(1).Split(0.5)
	if len(tr.Labels) != 1 || len(ho.Labels) != 0 {
		t.Fatalf("Split(0.5) over 1 = %d/%d, want 1/0", len(tr.Labels), len(ho.Labels))
	}
}

func TestPipelineMedian(t *testing.T) {
	l := &Label{
		PipelineRuns: [][]time.Duration{
			{10 * time.Microsecond},
			{30 * time.Microsecond},
			{20 * time.Microsecond},
		},
	}
	if got := l.PipelineMedian(0, 0); got != 20*time.Microsecond {
		t.Errorf("median over all runs = %v", got)
	}
	if got := l.PipelineMedian(0, 1); got != 10*time.Microsecond {
		t.Errorf("median over first run = %v", got)
	}
	if got := l.PipelineMedian(0, 2); got != 30*time.Microsecond {
		t.Errorf("median over two runs = %v (upper median)", got)
	}
	if got := l.PipelineMedian(0, 99); got != 20*time.Microsecond {
		t.Errorf("overlong run count should clamp: %v", got)
	}
}

// TestStableBytesWithoutSourceRows: a label decoded from a corpus file has
// pipelines but no source rows. Its set serializes deterministically, and
// differently from the same set with source rows.
func TestStableBytesWithoutSourceRows(t *testing.T) {
	ls, err := CollectLabels(collectInstance(t), CollectConfig{Workers: 1, Runs: 1, PerGroup: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	with := ls.StableBytes()
	for _, l := range ls.Labels {
		l.SourceRows = nil
	}
	without := ls.StableBytes()
	if !bytes.Equal(without, ls.StableBytes()) {
		t.Fatal("stable bytes of a set without source rows are not deterministic")
	}
	if bytes.Equal(with, without) {
		t.Fatal("dropping source rows left the stable bytes unchanged")
	}
}
