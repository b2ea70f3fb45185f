package experiments

import (
	"fmt"
	"strings"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/qerror"
	"t3/internal/treec"
	"t3/internal/workload"
)

// FeatureAblation extends the paper's ablation study (§5.7) to the feature
// set itself: T3 is retrained with individual basic-feature kinds removed
// from the registry, quantifying how much each hand-selected feature family
// (§3) contributes to accuracy. The paper motivates the families but only
// ablates prediction granularity; this experiment covers the rest of the
// design space DESIGN.md calls out.
type FeatureAblation struct {
	Rows []FeatureAblationRow
}

// FeatureAblationRow is one ablated variant.
type FeatureAblationRow struct {
	Variant  string
	Features int
	Summary  qerror.Summary
}

// ablationVariants maps variant names to a keep-predicate over basic feature
// names.
var ablationVariants = []struct {
	name string
	keep func(name string) bool
}{
	{"full feature set", func(string) bool { return true }},
	{"no scan expression classes", func(n string) bool {
		return !strings.HasPrefix(n, feature.FExprPrefix)
	}},
	{"no count features", func(n string) bool { return n != feature.FCount }},
	{"no size features", func(n string) bool {
		return n != feature.FInSize && n != feature.FOutSize
	}},
	{"no percentage features", func(n string) bool {
		return !strings.HasSuffix(n, "percentage")
	}},
	{"no cardinality features", func(n string) bool {
		return n != feature.FInCard && n != feature.FOutCard && n != feature.FHTCard
	}},
	{"counts only", func(n string) bool { return n == feature.FCount }},
}

// filteredRegistry builds a registry keeping only features passing keep.
// Every stage retains at least its count feature so vectors are never empty.
func filteredRegistry(keep func(string) bool) *feature.Registry {
	spec := feature.DefaultSpec()
	out := feature.Spec{}
	for k, feats := range spec {
		var kept []string
		for _, f := range feats {
			if keep(f) {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			kept = []string{feature.FCount}
		}
		out[k] = kept
	}
	return feature.NewRegistry(out)
}

// ablatedModel is a T3 variant over a reduced registry.
type ablatedModel struct {
	reg    *feature.Registry
	packed *treec.Packed
}

// predictSeconds predicts a whole query with tuple-centric scaling.
func (m *ablatedModel) predictSeconds(root *plan.Node) float64 {
	vecs, ps := m.reg.PlanVectors(root, plan.TrueCards)
	total := 0.0
	for i, v := range vecs {
		perTuple := benchdata.InverseTarget(m.packed.Predict(v))
		total += perTuple * feature.SourceCard(ps[i], plan.TrueCards)
	}
	return total
}

// trainAblated trains a T3 variant on the reduced registry.
func trainAblated(reg *feature.Registry, train []*workload.Label, p gbdt.Params) (*ablatedModel, error) {
	xs, ys := benchdata.Examples(reg, train, plan.TrueCards, 0)
	gbm, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		return nil, err
	}
	return &ablatedModel{reg: reg, packed: treec.Pack(gbm)}, nil
}

// RunFeatureAblation trains one model per feature-set variant and evaluates
// on the TPC-DS test queries with perfect cardinalities.
func (e *Env) RunFeatureAblation() (*FeatureAblation, error) {
	c, err := e.Corpus()
	if err != nil {
		return nil, err
	}
	train := c.AllTrain()
	test := c.AllTest()
	res := &FeatureAblation{}
	for _, v := range ablationVariants {
		reg := filteredRegistry(v.keep)
		m, err := trainAblated(reg, train, e.Params())
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		es := qerrors(func(b *workload.Label) float64 {
			return m.predictSeconds(b.Root)
		}, test)
		res.Rows = append(res.Rows, FeatureAblationRow{
			Variant:  v.name,
			Features: reg.NumFeatures(),
			Summary:  qerror.Summarize(es),
		})
	}
	return res, nil
}

// Format renders the ablation table.
func (f *FeatureAblation) Format() string {
	var sb strings.Builder
	sb.WriteString("Feature ablation (extension): accuracy with feature families removed\n")
	fmt.Fprintf(&sb, "%-30s %6s %8s %8s %8s\n", "Variant", "#feat", "p50", "p90", "avg")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-30s %6d %8.2f %8.2f %8.2f\n", r.Variant, r.Features, r.Summary.P50, r.Summary.P90, r.Summary.Avg)
	}
	return sb.String()
}
