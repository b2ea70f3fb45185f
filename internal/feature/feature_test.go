package feature

import (
	"math"
	"strings"
	"testing"

	"t3/internal/engine/exec"
	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
	"t3/internal/genplan"
)

func TestRegistryAssignsStableDistinctIndices(t *testing.T) {
	r1 := NewDefaultRegistry()
	r2 := NewDefaultRegistry()
	if r1.NumFeatures() != r2.NumFeatures() {
		t.Fatal("registry size not deterministic")
	}
	names := r1.Names()
	if len(names) != r1.NumFeatures() {
		t.Fatalf("%d names for %d features", len(names), r1.NumFeatures())
	}
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
		if r2.Names()[i] != n {
			t.Errorf("index %d: %q vs %q across registries", i, n, r2.Names()[i])
		}
	}
}

func TestRegistryLocation(t *testing.T) {
	r := NewDefaultRegistry()
	scan := StageKey{Op: plan.TableScanOp, Stage: plan.StageScan}
	if i := r.Location(scan, FCount); i < 0 {
		t.Error("TableScan_Scan_count missing")
	}
	if i := r.Location(scan, FHTCard); i >= 0 {
		t.Error("table scans should not have an ht_card feature")
	}
	if i := r.Location(StageKey{Op: plan.TableScanOp, Stage: plan.StageBuild}, FCount); i >= 0 {
		t.Error("TableScan has no build stage")
	}
	// getLocation returning -1 for unused features is the paper's Listing 1
	// contract.
	if i := r.Location(scan, "nonexistent"); i != -1 {
		t.Errorf("unknown feature returned %d", i)
	}
}

// TestStageFeatures: a stage's features are the slots Location gives its
// declared names, in spec order, and a stage the spec does not declare has
// none.
func TestStageFeatures(t *testing.T) {
	r := NewDefaultRegistry()
	for k, names := range DefaultSpec() {
		got := r.StageFeatures(k)
		if len(got) != len(names) {
			t.Fatalf("%s: %d features, spec declares %d", k, len(got), len(names))
		}
		for i, name := range names {
			if got[i] != r.Location(k, name) {
				t.Errorf("%s: feature %d is slot %d, Location(%s) %d", k, i, got[i], name, r.Location(k, name))
			}
		}
	}
	if got := r.StageFeatures(StageKey{Op: plan.TableScanOp, Stage: plan.StageBuild}); len(got) != 0 {
		t.Errorf("TableScan_Build: features %v, want none", got)
	}
}

// q5LikeTable builds a small table shaped like the paper's customer example.
func q5LikeTable() *storage.Table {
	n := 10000
	ids := make([]int64, n)
	nk := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
		nk[i] = int64(i % 25)
	}
	return storage.MustNewTable("customer",
		storage.Column{Name: "id", Kind: storage.Int64, Ints: ids},
		storage.Column{Name: "c_nationkey", Kind: storage.Int64, Ints: nk},
	)
}

// TestListing3Shape reproduces the feature vector of the paper's Listing 3:
// a scan with BETWEEN + IN predicates feeding a hash-join build.
func TestListing3Shape(t *testing.T) {
	cust := q5LikeTable()
	scan := plan.NewTableScan(cust, []int{0, 1},
		expr.NewBetween(expr.Col(1, "c_nationkey", storage.Int64), expr.ConstInt(8), expr.ConstInt(21)),
		expr.NewInListInts(expr.Col(1, "c_nationkey", storage.Int64), []int64{8, 9, 12, 18, 21}),
	)
	// Build side of a hash join keyed on id only: materialized width 8.
	probe := plan.NewTableScan(q5LikeTable(), []int{0})
	join := plan.NewHashJoin(scan, probe, []int{0}, []int{0}, nil)
	if err := exec.AnnotateTrueCards(join); err != nil {
		t.Fatal(err)
	}

	r := NewDefaultRegistry()
	ps := plan.Decompose(join)
	// Pipeline 0: customer scan -> join build.
	vec := r.PipelineVector(ps[0], plan.TrueCards)

	get := func(key StageKey, name string) float64 {
		i := r.Location(key, name)
		if i < 0 {
			t.Fatalf("no feature %v %s", key, name)
		}
		return vec[i]
	}
	scanKey := StageKey{Op: plan.TableScanOp, Stage: plan.StageScan}
	buildKey := StageKey{Op: plan.HashJoinOp, Stage: plan.StageBuild}

	if got := get(scanKey, FCount); got != 1 {
		t.Errorf("scan count = %v", got)
	}
	if got := get(scanKey, FInCard); got != 10000 {
		t.Errorf("scan in_card = %v", got)
	}
	// BETWEEN 8..21 selects 14/25, IN selects 5 of those 14.
	wantBetween := 1.0 // evaluated on all tuples
	if got := get(scanKey, "expr_between_percentage"); got != wantBetween {
		t.Errorf("between pct = %v, want %v", got, wantBetween)
	}
	inPct := get(scanKey, "expr_in_percentage")
	if inPct <= 0.5 || inPct >= 0.6 {
		t.Errorf("in pct = %v, want ~0.56 (14/25)", inPct)
	}
	outPct := get(scanKey, FOutPct)
	if outPct <= 0.19 || outPct >= 0.21 {
		t.Errorf("out pct = %v, want ~0.2 (5/25)", outPct)
	}
	if got := get(buildKey, FCount); got != 1 {
		t.Errorf("build count = %v", got)
	}
	// Hash table stores only the 8-byte key (no payload).
	if got := get(buildKey, FInSize); got != 8 {
		t.Errorf("build in_size = %v, want 8", got)
	}
	if got := get(buildKey, FInPct); outPct != got {
		t.Errorf("build in_percentage = %v, want %v", got, outPct)
	}
}

// TestListing4DuplicateProbes reproduces the paper's Listing 4: two probe
// stages in one pipeline fold by feature addition, count = 2 and summed
// percentages.
func TestListing4DuplicateProbes(t *testing.T) {
	build1 := plan.NewTableScan(q5LikeTable(), []int{0})
	build2 := plan.NewTableScan(q5LikeTable(), []int{0},
		expr.NewCmp(expr.Lt, expr.Col(0, "id", storage.Int64), expr.ConstInt(300)))
	probeSrc := plan.NewTableScan(q5LikeTable(), []int{0})
	j1 := plan.NewHashJoin(build1, probeSrc, []int{0}, []int{0}, nil)
	j2 := plan.NewHashJoin(build2, j1, []int{0}, []int{0}, nil)
	if err := exec.AnnotateTrueCards(j2); err != nil {
		t.Fatal(err)
	}

	r := NewDefaultRegistry()
	ps := plan.Decompose(j2)
	// Final pipeline: probe source scan -> probe j1 -> probe j2.
	last := ps[len(ps)-1]
	if len(last.Stages) != 3 {
		t.Fatalf("probe pipeline has %d stages", len(last.Stages))
	}
	vec := r.PipelineVector(last, plan.TrueCards)
	probeKey := StageKey{Op: plan.HashJoinOp, Stage: plan.StageProbe}
	if got := vec[r.Location(probeKey, FCount)]; got != 2 {
		t.Errorf("probe count = %v, want 2 (duplicate stages fold by addition)", got)
	}
	// First probe sees 100% of tuples, second sees 100% (1:1 join), so the
	// expected probes per tuple sum to ~2.
	rightPct := vec[r.Location(probeKey, FRightPct)]
	if rightPct < 1.9 || rightPct > 2.1 {
		t.Errorf("summed right pct = %v, want ~2", rightPct)
	}
	// ht_card sums both hash-table sizes: 10000 + 300.
	htCard := vec[r.Location(probeKey, FHTCard)]
	if htCard != 10300 {
		t.Errorf("summed ht card = %v, want 10300", htCard)
	}
}

func TestVectorInvariantsOnGeneratedPlans(t *testing.T) {
	cust := q5LikeTable()
	scan := plan.NewTableScan(cust, []int{0, 1})
	gb := plan.NewGroupBy(scan, []int{1}, []plan.Agg{{Fn: plan.AggCount}}, []string{"c"})
	srt := plan.NewSort(gb, []int{1}, []bool{true})
	if err := exec.AnnotateTrueCards(srt); err != nil {
		t.Fatal(err)
	}
	r := NewDefaultRegistry()
	vecs, ps := r.PlanVectors(srt, plan.TrueCards)
	if len(vecs) != len(ps) {
		t.Fatal("vector/pipeline count mismatch")
	}
	for i, v := range vecs {
		if len(v) != r.NumFeatures() {
			t.Fatalf("pipeline %d: vector length %d", i, len(v))
		}
		for f, x := range v {
			if x < 0 {
				t.Errorf("pipeline %d: negative feature %s = %v", i, r.Names()[f], x)
			}
		}
		// Exactly the stages present have nonzero counts.
		for _, s := range ps[i].Stages {
			ci := r.Location(StageKey{Op: s.Node.Op, Stage: s.Stage}, FCount)
			if ci >= 0 && v[ci] == 0 {
				t.Errorf("pipeline %d: stage %v %v has zero count", i, s.Node.Op, s.Stage)
			}
		}
	}
}

func TestPipelineVectorIntoMatchesAlloc(t *testing.T) {
	scan := plan.NewTableScan(q5LikeTable(), []int{0, 1})
	mat := plan.NewMaterialize(scan)
	if err := exec.AnnotateTrueCards(mat); err != nil {
		t.Fatal(err)
	}
	r := NewDefaultRegistry()
	ps := plan.Decompose(mat)
	buf := make([]float64, r.NumFeatures())
	for i := range buf {
		buf[i] = 999 // must be zeroed
	}
	r.PipelineVectorInto(ps[0], plan.TrueCards, buf)
	want := r.PipelineVector(ps[0], plan.TrueCards)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("feature %d: %v != %v", i, buf[i], want[i])
		}
	}
}

func TestEmptySourceClampsToOne(t *testing.T) {
	empty := storage.MustNewTable("e", storage.Column{Name: "id", Kind: storage.Int64, Ints: []int64{}})
	scan := plan.NewTableScan(empty, []int{0})
	mat := plan.NewMaterialize(scan)
	if err := exec.AnnotateTrueCards(mat); err != nil {
		t.Fatal(err)
	}
	ps := plan.Decompose(mat)
	if got := SourceCard(ps[0], plan.TrueCards); got != 1 {
		t.Errorf("empty source card = %v, want clamp to 1", got)
	}
	r := NewDefaultRegistry()
	vec := r.PipelineVector(ps[0], plan.TrueCards)
	for i, v := range vec {
		if v != v || v < 0 {
			t.Errorf("feature %s = %v on empty source", r.Names()[i], v)
		}
	}
}

func TestDescribeOmitsZeros(t *testing.T) {
	r := NewDefaultRegistry()
	vec := make([]float64, r.NumFeatures())
	vec[3] = 42
	out := r.Describe(vec)
	if !strings.Contains(out, r.Names()[3]) || !strings.Contains(out, "42") {
		t.Errorf("describe output missing set feature: %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("describe should print exactly one line, got %q", out)
	}
}

// scratchTestPlan builds a small scan -> join -> group-by plan with true
// cardinalities annotated.
func scratchTestPlan(t *testing.T) *plan.Node {
	t.Helper()
	scan := plan.NewTableScan(q5LikeTable(), []int{0, 1},
		expr.NewBetween(expr.Col(1, "c_nationkey", storage.Int64), expr.ConstInt(8), expr.ConstInt(21)))
	probe := plan.NewTableScan(q5LikeTable(), []int{0})
	join := plan.NewHashJoin(scan, probe, []int{0}, []int{0}, nil)
	gb := plan.NewGroupBy(join, []int{0}, nil, nil)
	if err := exec.AnnotateTrueCards(gb); err != nil {
		t.Fatal(err)
	}
	return gb
}

func TestAppendVecMatchesPipelineVector(t *testing.T) {
	root := scratchTestPlan(t)
	r := NewDefaultRegistry()
	ps := plan.Decompose(root)
	var buf []float64
	for _, p := range ps {
		buf = r.AppendVec(buf, p, plan.TrueCards)
	}
	if len(buf) != len(ps)*r.NumFeatures() {
		t.Fatalf("buffer has %d values, want %d", len(buf), len(ps)*r.NumFeatures())
	}
	for i, p := range ps {
		want := r.PipelineVector(p, plan.TrueCards)
		got := buf[i*r.NumFeatures() : (i+1)*r.NumFeatures()]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("pipeline %d feature %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestFeaturizeIntoMatchesPlanVectors(t *testing.T) {
	root := scratchTestPlan(t)
	r := NewDefaultRegistry()
	wantVecs, wantPs := r.PlanVectors(root, plan.TrueCards)
	var s Scratch
	for rep := 0; rep < 3; rep++ {
		vecs, ps := r.FeaturizeInto(&s, root, plan.TrueCards)
		if len(vecs) != len(wantVecs) || len(ps) != len(wantPs) {
			t.Fatalf("rep %d: %d vecs / %d pipelines, want %d / %d",
				rep, len(vecs), len(ps), len(wantVecs), len(wantPs))
		}
		for i := range vecs {
			if ps[i].Index != wantPs[i].Index {
				t.Fatalf("rep %d: pipeline %d has index %d, want %d", rep, i, ps[i].Index, wantPs[i].Index)
			}
			for j := range vecs[i] {
				if vecs[i][j] != wantVecs[i][j] {
					t.Fatalf("rep %d pipeline %d feature %d: %v != %v", rep, i, j, vecs[i][j], wantVecs[i][j])
				}
			}
		}
	}
}

func TestFeaturizeIntoZeroAlloc(t *testing.T) {
	root := scratchTestPlan(t)
	r := NewDefaultRegistry()
	var s Scratch
	r.FeaturizeInto(&s, root, plan.TrueCards) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		r.FeaturizeInto(&s, root, plan.TrueCards)
	}); allocs != 0 {
		t.Fatalf("FeaturizeInto allocates %.1f objects per run, want 0", allocs)
	}
}

// refPipelineVector is the by-name reference encoder: every feature of every
// stage is computed from its name and the pipeline, with no StageStats in
// between. PipelineVectorInto must reproduce it bit for bit.
func refPipelineVector(r *Registry, p *plan.Pipeline, mode plan.CardMode) []float64 {
	vec := make([]float64, r.NumFeatures())
	src := SourceCard(p, mode)
	for si, s := range p.Stages {
		n := s.Node
		k := StageKey{Op: n.Op, Stage: s.Stage}
		for _, name := range r.spec[k] {
			var v float64
			switch name {
			case FCount:
				v = 1
			case FInCard:
				v = p.ReachCard(si, mode)
			case FInPct, FRightPct:
				v = p.ReachCard(si, mode) / src
			case FOutPct:
				v = n.OutCard.Get(mode) / src
			case FOutCard:
				v = n.OutCard.Get(mode)
			case FOutSize:
				v = float64(n.OutWidth())
			case FHTCard:
				if n.Left != nil {
					v = n.Left.OutCard.Get(mode)
				}
			case FInSize:
				v = float64(materializedWidth(n))
			default:
				if n.Op != plan.TableScanOp || !strings.HasPrefix(name, FExprPrefix) {
					break
				}
				class := strings.TrimSuffix(strings.TrimPrefix(name, FExprPrefix), "_percentage")
				reach := 1.0
				for i, pred := range n.Predicates {
					if pred.Class().String() == class {
						v += reach
					}
					reach *= n.PredSel[i].Get(mode)
				}
			}
			vec[r.index[k][name]] += v
		}
	}
	return vec
}

// TestPipelineVectorMatchesByNameReference holds the kind-resolved encoder to
// the by-name reference on generated plans (every genplan scenario, hostile
// annotations included) in both cardinality modes, over the default spec and
// a spec that adds features to stages that do not compute them.
func TestPipelineVectorMatchesByNameReference(t *testing.T) {
	odd := DefaultSpec()
	scan := StageKey{Op: plan.TableScanOp, Stage: plan.StageScan}
	probe := StageKey{Op: plan.HashJoinOp, Stage: plan.StageProbe}
	odd[scan] = append(odd[scan], FHTCard, FInSize, "expr_like", "no_such_feature")
	odd[probe] = append(odd[probe], FInCard, FInSize, FOutCard, exprPctName(expr.ClassIn))
	regs := []*Registry{NewDefaultRegistry(), NewRegistry(odd)}

	for seed := int64(0); seed < 120; seed++ {
		root := genplan.Generate(seed, genplan.Scenario(seed)%genplan.NumScenarios).Root
		for _, mode := range []plan.CardMode{plan.TrueCards, plan.EstCards} {
			for ri, r := range regs {
				vecs, ps := r.PlanVectors(root, mode)
				for i, p := range ps {
					want := refPipelineVector(r, p, mode)
					for j := range want {
						got := vecs[i][j]
						if math.Float64bits(got) != math.Float64bits(want[j]) && !(got != got && want[j] != want[j]) {
							t.Fatalf("registry %d, seed %d, %s: %s = %v, reference %v",
								ri, seed, p, r.Names()[j], got, want[j])
						}
					}
				}
			}
		}
	}
}
