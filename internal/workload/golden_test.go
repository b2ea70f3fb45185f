package workload

import (
	"runtime"
	"testing"
)

// TestCollectLabelsGoldenFingerprint pins the stable payload of two label
// collections to fixed fingerprints: every true cardinality and predicate
// selectivity the executor annotates, on every node of every generated query.
// A change to the engine's kernels that moves one annotated count, or one
// selectivity's rounding, moves the fingerprint. The TPC-H lineitem (30 000
// rows) spans many batches, and with 256-row morsels its pipelines split, at
// one and two collection workers.
//
// The values were captured on amd64, which is what CI runs. Other
// architectures are skipped: the compiler may fuse multiply-adds there, so
// instance generation and selectivity arithmetic can round differently.
func TestCollectLabelsGoldenFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprints are amd64 values; GOARCH=%s", runtime.GOARCH)
	}
	cases := []struct {
		spec InstanceSpec
		want uint64
	}{
		{TPCHSpec("tpch_golden", 0.05, 3), 0x5c0e601f612a9f5f},
		{TPCDSSpec("tpcds_golden", 0.1, 4), 0x8ca27095bc0bfc5d},
	}
	for _, c := range cases {
		in := MustGenerate(c.spec)
		for _, workers := range []int{1, 2} {
			ls, err := CollectLabels(in, CollectConfig{
				Workers: workers, IntraWorkers: 2, MorselRows: 256,
				PerGroup: 4, Seed: 9, Runs: 1,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.spec.Name, workers, err)
			}
			if got := ls.Fingerprint(); got != c.want {
				t.Errorf("%s workers=%d: fingerprint %016x, want %016x", c.spec.Name, workers, got, c.want)
			}
		}
	}
}
