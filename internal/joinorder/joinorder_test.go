package joinorder

import (
	"math/bits"
	"testing"

	"t3/internal/benchdata"
	"t3/internal/engine/exec"
	"t3/internal/feature"
	"t3/internal/gbdt"
	"t3/internal/treec"
	"t3/internal/workload"
)

func imdbInst(t *testing.T) *workload.Instance {
	t.Helper()
	return workload.MustGenerate(workload.IMDBSpec("imdb_jo", 0.01, 99))
}

func TestDPSizeCoutFindsValidTrees(t *testing.T) {
	in := imdbInst(t)
	specs := workload.JOBJoinSpecs(in)
	tested := 0
	for _, sp := range specs {
		if len(sp.Rels) > 5 {
			continue
		}
		oracle := NewExactOracle(in, sp)
		cm := NewCout(oracle)
		res, err := DPSize(sp, cm)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if res.Tree.Rels() != uint64(1)<<uint(len(sp.Rels))-1 {
			t.Fatalf("%s: tree %s does not cover all relations", sp.Name, res.Tree)
		}
		if res.ModelCalls <= 0 {
			t.Fatalf("%s: no model calls recorded", sp.Name)
		}
		// The optimized tree must produce the same result as the default
		// left-deep plan.
		p1 := TreeToPlan(in, sp, res.Tree)
		r1, err := exec.Run(p1, false)
		if err != nil {
			t.Fatalf("%s: optimized plan failed: %v", sp.Name, err)
		}
		p2 := sp.LeftDeepPlan(in)
		r2, err := exec.Run(p2, false)
		if err != nil {
			t.Fatal(err)
		}
		c1 := r1.Output.Cols[0].Ints[0]
		c2 := r2.Output.Cols[0].Ints[0]
		if c1 != c2 {
			t.Fatalf("%s: optimized count %d != left-deep count %d", sp.Name, c1, c2)
		}
		tested++
		if tested >= 8 {
			break
		}
	}
	if tested == 0 {
		t.Fatal("no specs tested")
	}
}

func TestExactOracleConsistentWithExecution(t *testing.T) {
	in := imdbInst(t)
	sp := workload.JOBJoinSpecs(in)[0]
	oracle := NewExactOracle(in, sp)
	full := uint64(1)<<uint(len(sp.Rels)) - 1
	card := oracle.Card(full)

	res, err := exec.Run(sp.PlanForOrderNoAgg(in, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	if card != float64(res.Rows) {
		t.Fatalf("oracle %v != executed %d", card, res.Rows)
	}
	// Memoized second call returns the same.
	if oracle.Card(full) != card {
		t.Fatal("memoization changed the answer")
	}
}

func TestEstOracleMonotoneOnSingleRels(t *testing.T) {
	in := imdbInst(t)
	sp := workload.JOBJoinSpecs(in)[1]
	oracle := NewEstOracle(in, sp)
	for r := range sp.Rels {
		c := oracle.Card(1 << uint(r))
		if c < 0 {
			t.Fatalf("negative estimate for rel %d", r)
		}
		tbl := in.Table(sp.Rels[r].Table)
		if c > float64(tbl.NumRows())+1e-9 {
			t.Fatalf("rel %d estimate %v exceeds table size %d", r, c, tbl.NumRows())
		}
	}
}

func TestGreedyProducesConnectedTree(t *testing.T) {
	in := imdbInst(t)
	specs := workload.JOBJoinSpecs(in)
	for _, sp := range specs[:10] {
		oracle := NewEstOracle(in, sp)
		tree, err := Greedy(sp, oracle)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if bits.OnesCount64(tree.Rels()) != len(sp.Rels) {
			t.Fatalf("%s: greedy tree misses relations", sp.Name)
		}
		// Must be executable (no cross products given adjacency-driven
		// merging).
		if _, err := exec.Run(TreeToPlan(in, sp, tree), false); err != nil {
			t.Fatalf("%s: greedy plan failed: %v", sp.Name, err)
		}
	}
}

// tinyT3 trains a minimal T3-shaped model on synthetic pipeline vectors so
// the cost model has something to call.
func tinyT3(t *testing.T) (*treec.Packed, *feature.Registry) {
	t.Helper()
	reg := feature.NewDefaultRegistry()
	n := 500
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, reg.NumFeatures())
		v[0] = float64(i % 7)
		v[1] = float64(i)
		xs[i] = v
		ys[i] = benchdata.TargetTransform(1e-8 * float64(1+i%7))
	}
	p := gbdt.DefaultParams()
	p.NumRounds = 10
	p.ValidationFraction = 0
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return treec.Pack(m), reg
}

func TestDPSizeWithT3CostModel(t *testing.T) {
	in := imdbInst(t)
	packed, reg := tinyT3(t)
	specs := workload.JOBJoinSpecs(in)
	tested := 0
	for _, sp := range specs {
		if len(sp.Rels) > 4 {
			continue
		}
		oracle := NewExactOracle(in, sp)
		cm := NewT3Cost(packed, reg, in, sp, oracle)
		res, err := DPSize(sp, cm)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		coutRes, err := DPSize(sp, NewCout(oracle))
		if err != nil {
			t.Fatal(err)
		}
		// §5.5: T3 prices two pipelines per candidate but memoizes the open
		// side, so calls land strictly between Cout's one-per-candidate and
		// the un-memoized two-per-candidate. (TestTotalMemoizationCutsCalls
		// pins the memo's saving against the re-predict-per-Total price.)
		if res.ModelCalls <= coutRes.ModelCalls || res.ModelCalls > 2*coutRes.ModelCalls {
			t.Errorf("%s: T3 calls %d outside (%d, %d]", sp.Name, res.ModelCalls, coutRes.ModelCalls, 2*coutRes.ModelCalls)
		}
		// The chosen tree must execute correctly.
		p := TreeToPlan(in, sp, res.Tree)
		r, err := exec.Run(p, false)
		if err != nil {
			t.Fatalf("%s: T3-chosen plan failed: %v", sp.Name, err)
		}
		ref, err := exec.Run(sp.LeftDeepPlan(in), false)
		if err != nil {
			t.Fatal(err)
		}
		if r.Output.Cols[0].Ints[0] != ref.Output.Cols[0].Ints[0] {
			t.Fatalf("%s: result mismatch across join orders", sp.Name)
		}
		tested++
		if tested >= 5 {
			break
		}
	}
	if tested == 0 {
		t.Fatal("no specs tested")
	}
}

// coutEnumAllocBound bounds the allocations of one scalar DPSize enumeration
// under Cout of the dense 8-relation clique below (6 050 DP steps, oracle
// memo warm), as measured. What remains is the DP's own bookkeeping: the
// subset map, the per-size lists and a Tree per improvement. A Cout state
// boxed on the heap adds one per step (6 719 in all).
const coutEnumAllocBound = 669

// TestCoutEnumerationAllocs pins that Cout's per-step state costs no heap
// allocation: the DP holds it by value.
func TestCoutEnumerationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	inst, sp := workload.SyntheticJoinBench(workload.ShapeClique, 8, 4000, 103)
	oracle := NewMemoOracle(NewEstOracle(inst, sp), len(sp.Rels))
	res, err := DPSize(sp, NewCout(oracle))
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := DPSize(sp, NewCout(oracle)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs/run over %d DP steps", avg, res.DPSteps)
	if avg > coutEnumAllocBound {
		t.Errorf("Cout enumeration allocates %.0f/run over %d DP steps, bound %d", avg, res.DPSteps, coutEnumAllocBound)
	}
}
