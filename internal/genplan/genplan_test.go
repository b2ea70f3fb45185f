package genplan

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// TestDeterministicAcrossRunsAndGOMAXPROCS is the replayability guarantee:
// the same (seed, scenario) must produce byte-identical cases on every run
// and under every GOMAXPROCS setting, so a fuzz failure reproduces from its
// seed alone.
func TestDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	type key struct {
		seed int64
		sc   Scenario
	}
	baseline := map[key][]byte{}
	for seed := int64(0); seed < 20; seed++ {
		for sc := Scenario(0); sc < NumScenarios; sc++ {
			baseline[key{seed, sc}] = Generate(seed, sc).Bytes()
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for k, want := range baseline {
			got := Generate(k.seed, k.sc).Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed=%d scenario=%s: bytes differ at GOMAXPROCS=%d", k.seed, k.sc, procs)
			}
		}
	}
}

// TestGeneratedPlansAreValid decomposes every generated plan into pipelines
// and validates the decomposition, plus basic structural invariants.
func TestGeneratedPlansAreValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for sc := Scenario(0); sc < NumScenarios; sc++ {
			c := Generate(seed, sc)
			if c.Root == nil {
				t.Fatalf("seed=%d scenario=%s: nil plan", seed, sc)
			}
			if err := plan.ValidatePipelines(plan.Decompose(c.Root)); err != nil {
				t.Fatalf("seed=%d scenario=%s: %v", seed, sc, err)
			}
			for _, tab := range c.DB.Tables {
				if err := tab.Validate(); err != nil {
					t.Fatalf("seed=%d scenario=%s: %v", seed, sc, err)
				}
			}
		}
	}
}

// TestScenarioProperties asserts each scenario actually pins the state it
// promises.
func TestScenarioProperties(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		if c := Generate(seed, EmptyInput); c.DB.Tables[0].NumRows() != 0 {
			t.Fatalf("seed=%d: EmptyInput table 0 has %d rows", seed, c.DB.Tables[0].NumRows())
		}
		for _, tab := range Generate(seed, SingleRow).DB.Tables {
			if tab.NumRows() != 1 {
				t.Fatalf("seed=%d: SingleRow table %s has %d rows", seed, tab.Name, tab.NumRows())
			}
		}

		allNull := false
		for _, tab := range Generate(seed, AllNull).DB.Tables {
			for i := range tab.Columns {
				col := &tab.Columns[i]
				if col.Nulls == nil {
					continue
				}
				n := 0
				for _, isNull := range col.Nulls {
					if isNull {
						n++
					}
				}
				if n == tab.NumRows() && n > 0 {
					allNull = true
				}
			}
		}
		if !allNull {
			t.Fatalf("seed=%d: AllNull case has no fully-NULL column", seed)
		}

		joins := 0
		Generate(seed, DupJoinKeys).Root.Walk(func(n *plan.Node) {
			if n.Op == plan.HashJoinOp {
				joins++
			}
		})
		if joins == 0 {
			t.Fatalf("seed=%d: DupJoinKeys case has no join", seed)
		}

		cg := Generate(seed, GroupGrowth)
		var gb *plan.Node
		cg.Root.Walk(func(n *plan.Node) {
			if n.Op == plan.GroupByOp {
				gb = n
			}
		})
		if gb == nil {
			t.Fatalf("seed=%d: GroupGrowth case has no group-by", seed)
		}
		if gb.OutCard.True != 0 || gb.OutCard.Est != 0 {
			t.Fatalf("seed=%d: GroupGrowth group-by annotation = %+v, want zero (forces growth)", seed, gb.OutCard)
		}
		if rows := cg.DB.Tables[0].NumRows(); rows < 400 {
			t.Fatalf("seed=%d: GroupGrowth table has only %d rows", seed, rows)
		}
	}
}

// TestNoHostileDataValues asserts the data constraints the differential
// comparison depends on: no NaN, no negative zero, and zero values in NULL
// slots.
func TestNoHostileDataValues(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for sc := Scenario(0); sc < NumScenarios; sc++ {
			c := Generate(seed, sc)
			for _, tab := range c.DB.Tables {
				for i := range tab.Columns {
					col := &tab.Columns[i]
					for r := 0; r < tab.NumRows(); r++ {
						if col.Kind == storage.Float64 {
							v := col.Flts[r]
							if math.IsNaN(v) {
								t.Fatalf("seed=%d %s.%s[%d] is NaN", seed, tab.Name, col.Name, r)
							}
							if v == 0 && math.Signbit(v) {
								t.Fatalf("seed=%d %s.%s[%d] is -0.0", seed, tab.Name, col.Name, r)
							}
						}
						if col.IsNull(r) {
							switch col.Kind {
							case storage.Int64:
								if col.Ints[r] != 0 {
									t.Fatalf("seed=%d %s.%s[%d]: NULL slot holds %d", seed, tab.Name, col.Name, r, col.Ints[r])
								}
							case storage.Float64:
								if col.Flts[r] != 0 {
									t.Fatalf("seed=%d %s.%s[%d]: NULL slot holds %v", seed, tab.Name, col.Name, r, col.Flts[r])
								}
							case storage.String:
								if col.Strs[r] != "" {
									t.Fatalf("seed=%d %s.%s[%d]: NULL slot holds %q", seed, tab.Name, col.Name, r, col.Strs[r])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFiniteCardsFlag asserts the flag matches the annotations actually
// placed, and that both finite and hostile cases occur.
func TestFiniteCardsFlag(t *testing.T) {
	finite, hostile := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		c := Generate(seed, Default)
		nonFinite := false
		c.Root.Walk(func(n *plan.Node) {
			check := func(v float64) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					nonFinite = true
				}
			}
			check(n.OutCard.True)
			check(n.OutCard.Est)
			for _, p := range n.PredSel {
				check(p.True)
				check(p.Est)
			}
		})
		if nonFinite == c.FiniteCards {
			t.Fatalf("seed=%d: FiniteCards=%v but nonFinite=%v", seed, c.FiniteCards, nonFinite)
		}
		if c.FiniteCards {
			finite++
		} else {
			hostile++
		}
	}
	if finite == 0 || hostile == 0 {
		t.Fatalf("want both finite (%d) and hostile (%d) annotation cases", finite, hostile)
	}
}
