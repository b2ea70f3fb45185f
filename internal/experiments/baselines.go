package experiments

import (
	"errors"
	"fmt"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/treec"
	"t3/internal/workload"
)

// The decision-tree baselines and ablation variants the paper compares T3
// against:
//
//   - perQueryModel: one feature vector per query (the sum of all pipeline
//     vectors) predicting the whole-query time — both the AutoWLM-style
//     workload model of Figure 1 and the "per query" variant of the
//     ablation study (Figure 13).
//   - perPipelineDirect: per-pipeline vectors predicting the pipeline time
//     directly rather than per tuple — the middle variant of Figure 13.
//
// T3 itself (per-pipeline vectors with tuple-centric targets) lives in the
// root package.

// perQueryModel predicts whole-query times from a single summed feature
// vector.
type perQueryModel struct {
	reg    *feature.Registry
	packed *treec.Packed
}

// sumVectors adds all pipeline vectors of a plan into one query vector.
func sumVectors(reg *feature.Registry, root *plan.Node, mode plan.CardMode) []float64 {
	vecs, _ := reg.PlanVectors(root, mode)
	out := make([]float64, reg.NumFeatures())
	for _, v := range vecs {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

// trainPerQuery fits the per-query baseline with targets
// -log10(median total runtime).
func trainPerQuery(labels []*workload.Label, mode plan.CardMode, p gbdt.Params) (*perQueryModel, error) {
	if len(labels) == 0 {
		return nil, errors.New("experiments: no training queries")
	}
	reg := feature.NewDefaultRegistry()
	xs := make([][]float64, len(labels))
	ys := make([]float64, len(labels))
	for i, b := range labels {
		xs[i] = sumVectors(reg, b.Root, mode)
		ys[i] = benchdata.TargetTransform(b.MedianTotal().Seconds())
	}
	gbm, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: per-query training: %w", err)
	}
	return &perQueryModel{reg: reg, packed: treec.Pack(gbm)}, nil
}

// predictSeconds predicts the query execution time in seconds.
func (m *perQueryModel) predictSeconds(root *plan.Node, mode plan.CardMode) float64 {
	return benchdata.InverseTarget(m.packed.Predict(sumVectors(m.reg, root, mode)))
}

// perPipelineDirect predicts each pipeline's total time directly (without
// tuple-centric scaling) and sums.
type perPipelineDirect struct {
	reg    *feature.Registry
	packed *treec.Packed
}

// trainPerPipelineDirect fits the direct per-pipeline variant with targets
// -log10(median pipeline runtime).
func trainPerPipelineDirect(labels []*workload.Label, mode plan.CardMode, p gbdt.Params) (*perPipelineDirect, error) {
	if len(labels) == 0 {
		return nil, errors.New("experiments: no training queries")
	}
	reg := feature.NewDefaultRegistry()
	var xs [][]float64
	var ys []float64
	for _, b := range labels {
		for pi, pl := range b.Pipelines {
			xs = append(xs, reg.PipelineVector(pl, mode))
			ys = append(ys, benchdata.TargetTransform(b.PipelineMedian(pi, 0).Seconds()))
		}
	}
	gbm, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: per-pipeline-direct training: %w", err)
	}
	return &perPipelineDirect{reg: reg, packed: treec.Pack(gbm)}, nil
}

// predictSeconds predicts the query execution time in seconds.
func (m *perPipelineDirect) predictSeconds(root *plan.Node, mode plan.CardMode) float64 {
	vecs, _ := m.reg.PlanVectors(root, mode)
	total := 0.0
	for _, v := range vecs {
		total += benchdata.InverseTarget(m.packed.Predict(v))
	}
	return total
}
