package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/gbdt"
)

// The counted twin of the trainer's speed on pipeline vectors: a histogram
// build writes only the cells outside their feature's most frequent bin, so
// on the checked-in corpus it writes at most a quarter of the cells a dense
// scan of the non-constant features would (0.15 when this was written). The
// counters, like the model, are the same for every worker count.
func TestTrainTouchesOnlyNonDefaultCells(t *testing.T) {
	c, err := sharedEnv(t).Corpus()
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := benchdata.Examples(feature.NewDefaultRegistry(), c.AllTrain(), plan.TrueCards, 0)
	nonConstant := 0
	for f := range xs[0] {
		for _, x := range xs {
			if x[f] != xs[0][f] {
				nonConstant++
				break
			}
		}
	}

	p := gbdt.DefaultParams()
	p.NumRounds = 40
	var first *gbdt.TrainResult
	var firstModel []byte
	for _, workers := range []int{1, 2, 8} {
		p.Workers = workers
		m, res, err := gbdt.Train(p, xs, ys, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		model, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first, firstModel = res, model
			continue
		}
		if res.RowsScanned != first.RowsScanned || res.CellUpdates != first.CellUpdates {
			t.Errorf("workers=%d: scanned %d rows, wrote %d cells; workers=1: %d, %d",
				workers, res.RowsScanned, res.CellUpdates, first.RowsScanned, first.CellUpdates)
		}
		if !bytes.Equal(model, firstModel) {
			t.Errorf("workers=%d: model differs from workers=1", workers)
		}
	}
	if first.RowsScanned == 0 {
		t.Fatal("no rows scanned")
	}
	dense := float64(first.RowsScanned) * float64(nonConstant)
	share := float64(first.CellUpdates) / dense
	t.Logf("%d rows x %d features (%d non-constant): %d rows scanned, %d cells written, %.3f of a dense scan, %.2f cells/row",
		len(xs), len(xs[0]), nonConstant, first.RowsScanned, first.CellUpdates, share, float64(first.CellUpdates)/float64(first.RowsScanned))
	if share > 0.25 {
		t.Errorf("histogram builds wrote %.3f of the cells a dense scan writes, want <= 0.25", share)
	}
}
