package joinorder_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"t3"
	"t3/internal/engine/plan"
	"t3/internal/engine/stats"
	"t3/internal/experiments"
	"t3/internal/feature"
	"t3/internal/joinorder"
	"t3/internal/treec"
	"t3/internal/workload"
)

// contractCase is one join graph the planner contract is checked on.
type contractCase struct {
	inst *workload.Instance
	spec *workload.JoinSpec
}

// contractCases returns the four plan_enum graphs (bench/inputs.go's shapes
// and seeds), the JOB-like join queries, and a query joining on keys of two
// widths.
func contractCases() []contractCase {
	var cs []contractCase
	for _, g := range []struct {
		shape string
		n     int
		seed  int64
	}{
		{workload.ShapeChain, 10, 101},
		{workload.ShapeStar, 10, 102},
		{workload.ShapeClique, 8, 103},
		{workload.ShapeChain, 12, 104},
	} {
		inst, spec := workload.SyntheticJoinBench(g.shape, g.n, 4000, g.seed)
		cs = append(cs, contractCase{inst, spec})
	}
	imdb := workload.MustGenerate(workload.IMDBSpec("imdb_jo", 0.01, 99))
	for _, spec := range workload.JOBJoinSpecs(imdb) {
		cs = append(cs, contractCase{imdb, spec})
	}
	return append(cs, contractCase{imdb, joinorder.MixedWidthSpec()})
}

// randomTree joins random pairs of connected subtrees, in random build/probe
// order, until one tree covers the spec: a seeded random bushy join tree
// without cross products.
func randomTree(spec *workload.JoinSpec, rng *rand.Rand) *joinorder.Tree {
	parts := make([]*joinorder.Tree, len(spec.Rels))
	for r := range parts {
		parts[r] = &joinorder.Tree{Rel: r}
	}
	for len(parts) > 1 {
		var pairs [][2]int
		for i := range parts {
			for j := range parts {
				if i != j && crosses(spec, parts[i].Rels(), parts[j].Rels()) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		pr := pairs[rng.Intn(len(pairs))]
		joined := &joinorder.Tree{Left: parts[pr[0]], Right: parts[pr[1]]}
		parts[pr[0]] = joined
		parts = append(parts[:pr[1]], parts[pr[1]+1:]...)
	}
	return parts[0]
}

// crosses reports whether an edge of the spec joins the two relation sets.
func crosses(spec *workload.JoinSpec, a, b uint64) bool {
	for _, e := range spec.Edges {
		ea, eb := uint64(1)<<uint(e.A), uint64(1)<<uint(e.B)
		if (a&ea != 0 && b&eb != 0) || (a&eb != 0 && b&ea != 0) {
			return true
		}
	}
	return false
}

// annotatedPlan is TreeToPlan(tree) annotated as the planner prices it:
// estimator cardinalities, with the oracle's written into every join.
func annotatedPlan(c contractCase, oracle joinorder.Oracle, tree *joinorder.Tree) *plan.Node {
	root := joinorder.TreeToPlan(c.inst, c.spec, tree)
	(&stats.Estimator{DB: c.inst.Stats}).Estimate(root)
	var write func(n *plan.Node, t *joinorder.Tree)
	write = func(n *plan.Node, t *joinorder.Tree) {
		if t.Left == nil {
			return
		}
		n.OutCard.Est = oracle.Card(t.Rels())
		write(n.Left, t.Left)
		write(n.Right, t.Right)
	}
	write(root.Left, tree)
	return root
}

// sameVectors reports the first feature on which the planner's vectors and
// Registry.PlanVectors' differ by a bit, or "".
func sameVectors(reg *feature.Registry, got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pipelines, PlanVectors has %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("pipeline %d: %s = %v, PlanVectors %v", i, reg.Names()[j], got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// TestPlannerMatchesPredictPlan is the planner's costing contract: a join
// tree the planner prices is the plan TreeToPlan builds from it, annotated
// with the cardinalities the planner used, and
//
//   - the planner's pipeline vectors are Registry.PlanVectors of that plan,
//     bit for bit;
//   - its cost is what the walker (treec.Packed.Predict) gives the tree,
//     added in the planner's order, bit for bit (WalkerPricing): the kernel
//     the planner prices on is held to an evaluator other than itself;
//   - its cost is what t3.Model.PredictPlan predicts for the plan: within
//     1 ns of the sum of PredictPlan's per-pipeline seconds, and within 1 ns
//     per pipeline of its total, which truncates each pipeline to whole ns;
//   - every row the enumerator prices for the tree equals, outside the start
//     set (StartFeatures), the leaf vector of the relation whose scan starts
//     its pipeline, bit for bit — the precondition under which the kernel may
//     begin the row from that leaf's start (treec.Starts).
//
// It holds for seeded random trees over contractCases' graphs, for the tree
// DPSize chooses (which DPSizeBatched must choose too), and — on a small
// model per registry, for those trees and the one DPSize chooses under it —
// under every feature-ablation registry, which leaves stages without features
// the planner fills.
func TestPlannerMatchesPredictPlan(t *testing.T) {
	model, err := t3.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	names, regs := experiments.AblationRegistries()
	packs := make([]*treec.Packed, len(regs))
	for i, reg := range regs {
		packs[i] = treec.Pack(joinorder.PlannerModel(t, reg))
	}
	cases := contractCases()
	rng := rand.New(rand.NewSource(36))
	checked := 0
	for _, c := range cases {
		trees := 3
		if len(c.spec.Rels) >= 8 || c.spec.Name == "mixed-width" {
			trees = 12
		}
		oracle := joinorder.NewMemoOracle(joinorder.NewEstOracle(c.inst, c.spec), len(c.spec.Rels))
		cm := joinorder.NewT3Cost(model.Packed(), model.Registry(), c.inst, c.spec, oracle)
		res, err := joinorder.DPSize(c.spec, cm)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := joinorder.DPSizeBatched(c.spec, model.Packed(), model.Registry(), c.inst, oracle, joinorder.BatchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(batched.Cost) != math.Float64bits(res.Cost) || batched.Tree.String() != res.Tree.String() {
			t.Errorf("%s: batched %v %s, scalar %v %s", c.spec.Name, batched.Cost, batched.Tree, res.Cost, res.Tree)
		}
		chosen := annotatedPlan(c, oracle, res.Tree)
		checkWalker(t, cm, res.Tree, res.Cost, c.spec.Name+" chosen")
		checkPredictPlan(t, model, chosen, res.Cost, c.spec.Name+" chosen "+res.Tree.String())
		cms := make([]*joinorder.T3CostModel, len(regs))
		for i, reg := range regs {
			cms[i] = joinorder.NewT3Cost(packs[i], reg, c.inst, c.spec, oracle)
			res, err := joinorder.DPSize(c.spec, cms[i])
			if err != nil {
				t.Fatal(err)
			}
			checkWalker(t, cms[i], res.Tree, res.Cost, c.spec.Name+" chosen, "+names[i])
		}

		for k := 0; k < trees; k++ {
			tree := randomTree(c.spec, rng)
			where := c.spec.Name + " " + tree.String()
			root := annotatedPlan(c, oracle, tree)
			vecs, cost := joinorder.PlannerPricing(cm, tree)
			want, _ := model.Registry().PlanVectors(root, plan.EstCards)
			if d := sameVectors(model.Registry(), vecs, want); d != "" {
				t.Fatalf("%s: %s", where, d)
			}
			checkWalker(t, cm, tree, cost, where)
			checkPredictPlan(t, model, root, cost, where)
			checkStartPrecondition(t, model.Registry(), cm, tree, where)

			for i, reg := range regs {
				checkStartPrecondition(t, reg, cms[i], tree, where+", "+names[i])
				vecs, cost := joinorder.PlannerPricing(cms[i], tree)
				want, _ := reg.PlanVectors(root, plan.EstCards)
				if d := sameVectors(reg, vecs, want); d != "" {
					t.Fatalf("%s, %s: %s", where, names[i], d)
				}
				checkWalker(t, cms[i], tree, cost, where+", "+names[i])
			}
			checked++
		}
	}
	t.Logf("%d random trees over %d graphs, %d registries", checked, len(cases), 1+len(regs))
}

// checkStartPrecondition holds every row the enumerator prices for tree to
// its scan relation's leaf vector on each feature outside the start set.
func checkStartPrecondition(t *testing.T, reg *feature.Registry, cm *joinorder.T3CostModel, tree *joinorder.Tree, where string) {
	t.Helper()
	inSet := make([]bool, reg.NumFeatures())
	for _, f := range joinorder.StartFeatures(reg) {
		inSet[f] = true
	}
	rows, leaves := joinorder.PricedRows(cm, tree)
	for i, row := range rows {
		for f, x := range row {
			if !inSet[f] && math.Float64bits(x) != math.Float64bits(leaves[i][f]) {
				t.Fatalf("%s: priced row %d has %s = %v outside the start set, its scan relation's leaf vector %v",
					where, i, reg.Names()[f], x, leaves[i][f])
			}
		}
	}
}

// checkWalker holds a planner cost (seconds) of tree to WalkerPricing's, bit
// for bit.
func checkWalker(t *testing.T, cm *joinorder.T3CostModel, tree *joinorder.Tree, cost float64, where string) {
	t.Helper()
	if w := joinorder.WalkerPricing(cm, tree); math.Float64bits(cost) != math.Float64bits(w) {
		t.Fatalf("%s %s: planner cost %v s, the walker's %v s", where, tree, cost, w)
	}
}

// checkPredictPlan holds a planner cost (seconds) to PredictPlan of its plan.
func checkPredictPlan(t *testing.T, model *t3.Model, root *plan.Node, cost float64, where string) {
	t.Helper()
	total, preds := model.PredictPlan(root, plan.EstCards)
	sum := 0.0
	for _, p := range preds {
		sum += p.PerTupleSeconds * p.Cardinality
	}
	if math.Abs(cost-sum) > 1e-9 {
		t.Fatalf("%s: planner cost %.9f s, PredictPlan's pipelines sum to %.9f s", where, cost, sum)
	}
	if d := math.Abs(cost*1e9 - float64(total.Nanoseconds())); d > float64(len(preds)) {
		t.Fatalf("%s: planner cost %.0f ns, PredictPlan %d ns over %d pipelines", where, cost*1e9, total.Nanoseconds(), len(preds))
	}
}
