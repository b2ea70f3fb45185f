// Package gbdt implements histogram-based gradient-boosted regression trees
// from scratch — the stand-in for LightGBM in the paper (§2.3, §2.5).
//
// Features are quantile-binned into at most 256 bins. Trees are grown
// leaf-wise (best-first) like LightGBM: the leaf with the highest split gain
// is expanded until the leaf budget is exhausted. Split gain and leaf values
// follow the standard second-order formulation
//
//	gain = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ),  w = −G/(H+λ)
//
// Supported objectives are L2 and MAPE; the paper trains with the MAPE
// objective on −log-transformed per-tuple times (§2.4, §2.5).
//
// Every split threshold is a float32 value held in a float64: the bin edge
// rounded up to float32, the width the compiled form (treec.Pack) compares
// at. So the interpreter, Model.Predict, and the compiled model are one
// function on every input, and Validate refuses any other threshold.
package gbdt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"t3/internal/obs"
)

// Objective selects the training loss.
type Objective string

// Objectives.
const (
	// ObjectiveL2 is squared error.
	ObjectiveL2 Objective = "l2"
	// ObjectiveMAPE is mean absolute percentage error, as used by the paper.
	ObjectiveMAPE Objective = "mape"
)

// Params configures training. The zero value is invalid; use
// DefaultParams, which mirrors the paper's setup (200 trees with roughly 30
// leaves each).
type Params struct {
	// NumRounds is the number of boosting iterations (trees).
	NumRounds int
	// NumLeaves is the maximum number of leaves per tree.
	NumLeaves int
	// LearningRate shrinks each tree's contribution.
	LearningRate float64
	// MinDataInLeaf is the minimum number of samples per leaf.
	MinDataInLeaf int
	// Lambda is the L2 regularization on leaf values.
	Lambda float64
	// MaxBins caps the number of histogram bins per feature (≤ 256).
	MaxBins int
	// Objective is the training loss.
	Objective Objective
	// ValidationFraction is the share of training data held out for early
	// stopping when Train is called without an explicit validation set
	// (the paper samples 20%).
	ValidationFraction float64
	// EarlyStoppingRounds stops training when the validation loss has not
	// improved for this many rounds (0 disables early stopping).
	EarlyStoppingRounds int
	// FeatureFraction subsamples features per tree (1 = use all).
	FeatureFraction float64
	// BaggingFraction subsamples rows per tree (1 = use all).
	BaggingFraction float64
	// Seed drives all random sampling during training.
	Seed int64
}

// Validate reports whether the parameters can train a model. The zero Params
// value is invalid; start from DefaultParams.
func (p Params) Validate() error {
	switch {
	case p.NumRounds < 1:
		return fmt.Errorf("gbdt: NumRounds must be >= 1, got %d", p.NumRounds)
	case p.NumLeaves < 2:
		return fmt.Errorf("gbdt: NumLeaves must be >= 2, got %d", p.NumLeaves)
	case p.MaxBins < 2 || p.MaxBins > 255:
		return fmt.Errorf("gbdt: MaxBins must be in [2,255], got %d", p.MaxBins)
	case p.LearningRate <= 0:
		return fmt.Errorf("gbdt: LearningRate must be > 0, got %v", p.LearningRate)
	case p.MinDataInLeaf < 1:
		return fmt.Errorf("gbdt: MinDataInLeaf must be >= 1, got %d", p.MinDataInLeaf)
	case p.Lambda < 0:
		return fmt.Errorf("gbdt: Lambda must be >= 0, got %v", p.Lambda)
	case p.ValidationFraction < 0 || p.ValidationFraction >= 1:
		return fmt.Errorf("gbdt: ValidationFraction must be in [0,1), got %v", p.ValidationFraction)
	case p.EarlyStoppingRounds < 0:
		return fmt.Errorf("gbdt: EarlyStoppingRounds must be >= 0, got %d", p.EarlyStoppingRounds)
	case p.FeatureFraction <= 0 || p.FeatureFraction > 1:
		return fmt.Errorf("gbdt: FeatureFraction must be in (0,1], got %v", p.FeatureFraction)
	case p.BaggingFraction <= 0 || p.BaggingFraction > 1:
		return fmt.Errorf("gbdt: BaggingFraction must be in (0,1], got %v", p.BaggingFraction)
	}
	switch p.Objective {
	case ObjectiveL2, ObjectiveMAPE, "":
	default:
		return fmt.Errorf("gbdt: unknown objective %q", p.Objective)
	}
	return nil
}

// DefaultParams returns the configuration used throughout the paper: 200
// trees, ~30 leaves, MAPE objective, 20% validation sample.
func DefaultParams() Params {
	return Params{
		NumRounds:           200,
		NumLeaves:           31,
		LearningRate:        0.1,
		MinDataInLeaf:       20,
		Lambda:              1.0,
		MaxBins:             255,
		Objective:           ObjectiveMAPE,
		ValidationFraction:  0.2,
		EarlyStoppingRounds: 0,
		FeatureFraction:     1.0,
		BaggingFraction:     1.0,
	}
}

// Node is an internal decision node. Children indices ≥ 0 refer to Nodes;
// negative indices c refer to leaf ^c in Leaves.
type Node struct {
	Feature   int32   `json:"f"`
	Threshold float64 `json:"t"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
}

// Tree is one regression tree. An empty Nodes slice means the tree is a
// single leaf (Leaves[0]).
type Tree struct {
	Nodes  []Node    `json:"nodes"`
	Leaves []float64 `json:"leaves"`
}

// Predict evaluates the tree for one feature vector by walking the nodes —
// the interpreted evaluation strategy of Figure 3.
func (t *Tree) Predict(v []float64) float64 {
	if len(t.Nodes) == 0 {
		return t.Leaves[0]
	}
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if v[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
		if i < 0 {
			return t.Leaves[^i]
		}
	}
}

// NumLeaves returns the number of leaves of the tree.
func (t *Tree) NumLeaves() int { return len(t.Leaves) }

// Model is a trained ensemble.
type Model struct {
	// BaseScore is the initial prediction all trees correct.
	BaseScore float64 `json:"base_score"`
	// Trees are the boosted trees; predictions are BaseScore plus the sum of
	// (already learning-rate-scaled) leaf values.
	Trees []Tree `json:"trees"`
	// NumFeatures is the expected feature-vector length.
	NumFeatures int `json:"num_features"`
	// FeatureNames optionally labels the features (for importances).
	FeatureNames []string `json:"feature_names,omitempty"`
	// Params records the training configuration.
	Params Params `json:"params"`
	// BestIteration is the early-stopping round, or len(Trees).
	BestIteration int `json:"best_iteration"`
}

// Predict evaluates the full ensemble for one vector (interpreted).
func (m *Model) Predict(v []float64) float64 {
	s := m.BaseScore
	for i := range m.Trees {
		s += m.Trees[i].Predict(v)
	}
	return s
}

// PredictBatch evaluates the ensemble for many vectors.
func (m *Model) PredictBatch(vs [][]float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = m.Predict(v)
	}
	return out
}

// NumNodes returns the total number of internal nodes across all trees.
func (m *Model) NumNodes() int {
	n := 0
	for i := range m.Trees {
		n += len(m.Trees[i].Nodes)
	}
	return n
}

// FeatureImportance returns, per feature, the number of splits using it.
func (m *Model) FeatureImportance() []int {
	imp := make([]int, m.NumFeatures)
	for i := range m.Trees {
		for _, n := range m.Trees[i].Nodes {
			imp[n.Feature]++
		}
	}
	return imp
}

// binner quantile-bins features.
type binner struct {
	// edges[f] are ascending cut values; bin b covers (edges[b-1], edges[b]],
	// with bin len(edges) covering everything above the last edge.
	edges [][]float64
}

// newBinner computes per-feature quantile cut points from the data.
func newBinner(xs [][]float64, numFeatures, maxBins int) *binner {
	b := &binner{edges: make([][]float64, numFeatures)}
	for f := range numFeatures {
		vals := make([]float64, 0, len(xs))
		for _, x := range xs {
			vals = append(vals, x[f])
		}
		sort.Float64s(vals)
		// Distinct values.
		distinct := vals[:0:0]
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				distinct = append(distinct, v)
			}
		}
		var edges []float64
		if len(distinct) <= maxBins {
			// One bin per distinct value: edges are the values themselves,
			// except the last (everything above the second-to-last edge
			// falls into the final bin).
			if len(distinct) > 1 {
				edges = append(edges, distinct[:len(distinct)-1]...)
			}
		} else {
			// Quantile cut points over distinct values.
			for i := 1; i < maxBins; i++ {
				q := distinct[i*len(distinct)/maxBins]
				if len(edges) == 0 || q > edges[len(edges)-1] {
					edges = append(edges, q)
				}
			}
		}
		b.edges[f] = edges
	}
	return b
}

// bin maps a value of feature f to its bin index.
func (b *binner) bin(f int, v float64) uint8 {
	e := b.edges[f]
	// First edge >= v; bin covers (edges[i-1], edges[i]].
	return uint8(sort.SearchFloat64s(e, v))
}

// numBins returns the bin count of feature f.
func (b *binner) numBins(f int) int { return len(b.edges[f]) + 1 }

// threshold returns the split threshold stored for "bin ≤ bin": the bin's
// upper edge rounded up to float32 (roundThreshold32), the width the served
// model compares at. Bins, partitions and the validation score keep the
// float64 edge, so a value in (edge, threshold] — at most one float32 ulp
// wide — trained on the right and goes left in the stored tree; every other
// value, and every float32 value, goes the way it trained.
func (b *binner) threshold(f int, bin uint8) float64 {
	return float64(roundThreshold32(b.edges[f][bin]))
}

// roundThreshold32 returns the smallest float32 whose float64 value is ≥ t —
// the rounding direction that keeps every trained v <= t decision, ties
// included, on its trained side.
func roundThreshold32(t float64) float32 {
	f := float32(t)
	if float64(f) < t {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// trainData holds the binned training data twice: feature-major in full,
// which partitioning and out-of-bag scoring read, and row-major without the
// cells that sit in their feature's default bin, which histograms are built
// from.
type trainData struct {
	bins [][]uint8 // [feature][row]
	y    []float64
	n    int
	f    int

	// Histogram layout: feature f's bins live at [featOff[f], featOff[f+1])
	// of a histSet, and binFeat maps such an index back to its feature.
	featOff []int32
	binFeat []int32
	// defBin[f] is feature f's most frequent bin over the training rows,
	// the lowest on a tie.
	defBin []uint8
	// Row r's cells outside their feature's default bin, as histogram
	// indices featOff[f]+bin in feature order: cells[cellOff[r]:cellOff[r+1]].
	cellOff []int32
	cells   []int32
}

func newTrainData(b *binner, xs [][]float64, ys []float64) *trainData {
	n := len(xs)
	f := len(b.edges)
	td := &trainData{y: ys, n: n, f: f, bins: make([][]uint8, f),
		featOff: make([]int32, f+1), defBin: make([]uint8, f), cellOff: make([]int32, n+1)}
	for fi := range f {
		col := make([]uint8, n)
		counts := make([]int, b.numBins(fi))
		for i, x := range xs {
			col[i] = b.bin(fi, x[fi])
			counts[col[i]]++
		}
		td.bins[fi] = col
		for bin, c := range counts {
			if c > counts[td.defBin[fi]] {
				td.defBin[fi] = uint8(bin)
			}
		}
	}
	for fi := 0; fi < f; fi++ {
		td.featOff[fi+1] = td.featOff[fi] + int32(b.numBins(fi))
		for range b.numBins(fi) {
			td.binFeat = append(td.binFeat, int32(fi))
		}
	}
	for r := 0; r < n; r++ {
		for fi, col := range td.bins {
			if col[r] != td.defBin[fi] {
				td.cells = append(td.cells, td.featOff[fi]+int32(col[r]))
			}
		}
		td.cellOff[r+1] = int32(len(td.cells))
	}
	return td
}

// gradients computes first and second order gradients for the objective.
func gradients(obj Objective, preds, ys, g, h []float64) {
	switch obj {
	case ObjectiveMAPE:
		for i := range ys {
			d := math.Max(math.Abs(ys[i]), 1)
			if preds[i] > ys[i] {
				g[i] = 1 / d
			} else if preds[i] < ys[i] {
				g[i] = -1 / d
			} else {
				g[i] = 0
			}
			h[i] = 1 / d
		}
	default: // L2
		for i := range ys {
			g[i] = preds[i] - ys[i]
			h[i] = 1
		}
	}
}

// loss computes the mean objective value for reporting/early stopping.
func loss(obj Objective, preds, ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	s := 0.0
	switch obj {
	case ObjectiveMAPE:
		for i := range ys {
			s += math.Abs(preds[i]-ys[i]) / math.Max(math.Abs(ys[i]), 1)
		}
	default:
		for i := range ys {
			d := preds[i] - ys[i]
			s += d * d
		}
	}
	return s / float64(len(ys))
}

// TrainResult reports training diagnostics.
type TrainResult struct {
	// TrainLoss and ValLoss trace the objective per round.
	TrainLoss []float64
	ValLoss   []float64
	// RowsScanned and CellUpdates count, over all rounds, the rows histogram
	// builds visited and the cells (one feature of one row) they wrote: a
	// build touches only the cells outside their feature's most frequent
	// bin. Both depend on (Params, xs, ys) only.
	RowsScanned int64
	CellUpdates int64
}

// Train fits a model on xs/ys. When valX is nil, ValidationFraction of the
// training data is sampled for validation (matching the paper's use of
// LightGBM's automatic 20% split). Training runs on the calling goroutine
// and the model is a pure function of (p, xs, ys, valX, valY).
func Train(p Params, xs [][]float64, ys []float64, valX [][]float64, valY []float64) (*Model, *TrainResult, error) {
	if len(xs) == 0 {
		return nil, nil, errors.New("gbdt: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, nil, fmt.Errorf("gbdt: %d rows but %d targets", len(xs), len(ys))
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	trainStart := time.Now()
	obs.TrainSessions.Inc()
	rng := rand.New(rand.NewSource(p.Seed))

	if valX == nil && p.ValidationFraction > 0 && len(xs) >= 10 {
		perm := rng.Perm(len(xs))
		nVal := int(float64(len(xs)) * p.ValidationFraction)
		trX := make([][]float64, 0, len(xs)-nVal)
		trY := make([]float64, 0, len(xs)-nVal)
		valX = make([][]float64, 0, nVal)
		valY = make([]float64, 0, nVal)
		for i, pi := range perm {
			if i < nVal {
				valX = append(valX, xs[pi])
				valY = append(valY, ys[pi])
			} else {
				trX = append(trX, xs[pi])
				trY = append(trY, ys[pi])
			}
		}
		xs, ys = trX, trY
	}

	numFeatures := len(xs[0])
	bnr := newBinner(xs, numFeatures, p.MaxBins)
	td := newTrainData(bnr, xs, ys)

	m := &Model{NumFeatures: numFeatures, Params: p}
	// Base score: mean target.
	for _, y := range ys {
		m.BaseScore += y
	}
	m.BaseScore /= float64(len(ys))

	preds := make([]float64, td.n)
	for i := range preds {
		preds[i] = m.BaseScore
	}
	var valPreds []float64
	var valBins [][]uint8 // [feature][row]: validation scores on the bins, as training does
	if valX != nil {
		valPreds = make([]float64, len(valX))
		for i := range valPreds {
			valPreds[i] = m.BaseScore
		}
		valBins = make([][]uint8, numFeatures)
		for f := range numFeatures {
			valBins[f] = make([]uint8, len(valX))
			for i, x := range valX {
				valBins[f][i] = bnr.bin(f, x[f])
			}
		}
	}

	g := make([]float64, td.n)
	h := make([]float64, td.n)
	res := &TrainResult{}
	bestVal := math.Inf(1)
	bestIter := 0
	grower := newGrower(td, bnr, p, rng)

	for round := 0; round < p.NumRounds; round++ {
		roundStart := time.Now()
		gradients(p.Objective, preds, ys, g, h)
		growStart := time.Now()
		tree := grower.grow(g, h)
		obs.TrainGrowTime.Since(growStart)
		m.Trees = append(m.Trees, *tree)

		grower.addScores(tree, preds)
		res.TrainLoss = append(res.TrainLoss, loss(p.Objective, preds, ys))
		stop := false
		if valX != nil {
			for i := range valPreds {
				valPreds[i] += grower.predictBinned(tree, valBins, i)
			}
			vl := loss(p.Objective, valPreds, valY)
			res.ValLoss = append(res.ValLoss, vl)
			if vl < bestVal {
				bestVal = vl
				bestIter = round + 1
			}
			if p.EarlyStoppingRounds > 0 && round+1-bestIter >= p.EarlyStoppingRounds {
				m.Trees = m.Trees[:bestIter]
				stop = true
			}
		}
		obs.TrainRounds.Inc()
		obs.TrainRoundTime.Since(roundStart)
		if stop {
			break
		}
	}
	if bestIter == 0 {
		bestIter = len(m.Trees)
	}
	m.BestIteration = bestIter
	res.RowsScanned, res.CellUpdates = grower.rowsScanned, grower.cellUpdates
	if elapsed := time.Since(trainStart).Seconds(); elapsed > 0 {
		obs.TrainRowsPerSec.Set(float64(td.n) * float64(len(m.Trees)) / elapsed)
	}
	return m, res, nil
}
