package experiments

import (
	"testing"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/gbdt"
)

// The counted twin of the trainer's speed on pipeline vectors: a histogram
// build writes only the cells outside their feature's most frequent bin, so
// on the checked-in corpus it writes at most a quarter of the cells a dense
// scan of the non-constant features would (0.15 when this was written).
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
	_, res, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned == 0 {
		t.Fatal("no rows scanned")
	}
	dense := float64(res.RowsScanned) * float64(nonConstant)
	share := float64(res.CellUpdates) / dense
	t.Logf("%d rows x %d features (%d non-constant): %d rows scanned, %d cells written, %.3f of a dense scan, %.2f cells/row",
		len(xs), len(xs[0]), nonConstant, res.RowsScanned, res.CellUpdates, share, float64(res.CellUpdates)/float64(res.RowsScanned))
	if share > 0.25 {
		t.Errorf("histogram builds wrote %.3f of the cells a dense scan writes, want <= 0.25", share)
	}
}
