// Package joinorder implements the DPsize join-ordering algorithm
// (Moerkotte & Neumann) with pluggable cost models, reproducing the paper's
// join-ordering microbenchmark (§5.5, Tables 5 and 6).
//
// Two cost models are provided: Cout (Cluet & Moerkotte) — the sum of
// intermediate result sizes — and a T3-backed model that prices the two
// pipelines that change with every new subtree (the build stage appended to
// the left subtree's open pipeline and the probe stage appended to the right
// subtree's), caching the cost of already-closed pipelines exactly as the
// paper describes.
package joinorder

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/workload"
)

// Tree is a join tree over relation indices: a leaf (Left == nil) or an
// inner join of two subtrees, with Left as the hash-join build side.
type Tree struct {
	Rel         int
	Left, Right *Tree
}

// Rels returns the bitmask of relations in the tree.
func (t *Tree) Rels() uint64 {
	if t.Left == nil {
		return 1 << uint(t.Rel)
	}
	return t.Left.Rels() | t.Right.Rels()
}

// String renders the tree, e.g. "((0⋈1)⋈2)".
func (t *Tree) String() string {
	if t.Left == nil {
		return fmt.Sprintf("%d", t.Rel)
	}
	return fmt.Sprintf("(%s⋈%s)", t.Left, t.Right)
}

// Oracle provides cardinalities for relation subsets. Card is called with a
// bitmask over the spec's relations.
type Oracle interface {
	Card(set uint64) float64
}

// OracleCallCounter is implemented by oracles that count how often their
// underlying cardinality source ran. The planner benchmarks surface these
// counts next to model calls, so oracle cost can never masquerade as model
// cost.
type OracleCallCounter interface {
	OracleCalls() int
}

// OracleCalls returns the oracle's underlying call count, or 0 when the
// oracle does not track one.
func OracleCalls(o Oracle) int {
	if c, ok := o.(OracleCallCounter); ok {
		return c.OracleCalls()
	}
	return 0
}

// exactMemoCap bounds the subset count an ExactOracle presizes its memo for:
// beyond ~12 relations, presizing the full 2^n subset space would waste
// memory on subsets the (connected, cross-product-free) DP never visits.
const exactMemoCap = 1 << 12

// ExactOracle executes subset joins on the engine (with memoization) — the
// "cardinality oracle" of §5.5 providing correct cardinalities with low
// latency.
type ExactOracle struct {
	Inst  *workload.Instance
	Spec  *workload.JoinSpec
	memo  map[uint64]float64
	execs int
}

// NewExactOracle builds an exact oracle for the spec. The memo is presized
// from the spec's subset count (2^n, capped) so steady-state optimization
// never rehashes it.
func NewExactOracle(inst *workload.Instance, spec *workload.JoinSpec) *ExactOracle {
	size := exactMemoCap
	if n := len(spec.Rels); n < 12 {
		size = 1 << uint(n)
	}
	return &ExactOracle{Inst: inst, Spec: spec, memo: make(map[uint64]float64, size)}
}

// Card returns the exact cardinality of joining the subset.
func (o *ExactOracle) Card(set uint64) float64 {
	if v, ok := o.memo[set]; ok {
		return v
	}
	o.execs++
	root := subsetPlan(o.Inst, o.Spec, set)
	res, err := exec.Run(root, false)
	if err != nil {
		panic(fmt.Sprintf("joinorder: oracle execution failed: %v", err))
	}
	v := float64(res.Rows)
	o.memo[set] = v
	return v
}

// OracleCalls reports how many subset joins the oracle actually executed
// (memo hits excluded).
func (o *ExactOracle) OracleCalls() int { return o.execs }

// EstOracle estimates subset cardinalities from base statistics with
// textbook formulas (per-relation filtered cards, 1/max-distinct per edge) —
// the estimate-based mode used for the "native optimizer" comparison.
type EstOracle struct {
	RelCard []float64
	// EdgeSel[i] is the selectivity of spec edge i.
	EdgeSel []float64
	Spec    *workload.JoinSpec
	calls   int
}

// NewEstOracle derives an estimate oracle from instance statistics. Relation
// cardinalities use the annotated estimates of a fresh scan.
func NewEstOracle(inst *workload.Instance, spec *workload.JoinSpec) *EstOracle {
	o := &EstOracle{Spec: spec}
	est := newSpecEstimator(inst, spec)
	for _, st := range est.scans {
		o.RelCard = append(o.RelCard, st.Out)
	}
	o.EdgeSel = est.edgeSels
	return o
}

// Card multiplies filtered relation cardinalities with the selectivities of
// all edges internal to the subset.
func (o *EstOracle) Card(set uint64) float64 {
	o.calls++
	card := 1.0
	for r := 0; r < len(o.RelCard); r++ {
		if set&(1<<uint(r)) != 0 {
			card *= o.RelCard[r]
		}
	}
	for i, e := range o.Spec.Edges {
		if set&(1<<uint(e.A)) != 0 && set&(1<<uint(e.B)) != 0 {
			card *= o.EdgeSel[i]
		}
	}
	return card
}

// OracleCalls reports how many estimates the oracle computed.
func (o *EstOracle) OracleCalls() int { return o.calls }

// MemoOracle caches another oracle's subset cardinalities, so repeated DP
// candidates pay one map lookup instead of recomputation. The planner
// benchmarks wrap their oracles in one per timed run, keeping oracle cost
// identical — and negligible — across the costing paths being compared.
type MemoOracle struct {
	Inner Oracle
	memo  map[uint64]float64
}

// NewMemoOracle builds a memoizing wrapper presized for an n-relation spec.
func NewMemoOracle(inner Oracle, n int) *MemoOracle {
	size := exactMemoCap
	if n < 12 {
		size = 1 << uint(n)
	}
	return &MemoOracle{Inner: inner, memo: make(map[uint64]float64, size)}
}

// Card returns the memoized cardinality of the subset.
func (o *MemoOracle) Card(set uint64) float64 {
	if v, ok := o.memo[set]; ok {
		return v
	}
	v := o.Inner.Card(set)
	o.memo[set] = v
	return v
}

// OracleCalls reports how many subsets missed the memo and hit the inner
// oracle.
func (o *MemoOracle) OracleCalls() int { return len(o.memo) }

// CostModel prices join trees during dynamic programming. Implementations
// carry per-subtree state S, opaque to the DP and held by value, so a model
// whose state is a plain number (Cout) allocates nothing per step.
type CostModel[S any] interface {
	Name() string
	// Leaf returns the state of a single-relation subtree.
	Leaf(rel int) S
	// Join combines two subtrees (build = left) into a new state.
	Join(build, probe S, buildSet, probeSet uint64) S
	// Total returns the comparable cost of a state.
	Total(s S) float64
	// Calls returns the number of model invocations so far.
	Calls() int
}

// dpEntry is the best plan found for a subset.
type dpEntry[S any] struct {
	state S
	tree  *Tree
}

// Result is the outcome of one DPsize run.
type Result struct {
	Tree *Tree
	Cost float64
	// ModelCalls counts cost-model invocations during optimization. For the
	// T3 model these are the pipelines priced for join candidates (and, with
	// one relation, its lone pipeline); the terminal aggregate's scan
	// pipeline, priced once per spec and the same for every tree, is not
	// counted, on either path, nor in T3CostModel.Calls.
	ModelCalls int
	// DPSteps counts candidate joins the dynamic program evaluated.
	DPSteps int
	// Batches and MaxBatch describe the level-batched path's prediction
	// batches (zero on the scalar path).
	Batches  int
	MaxBatch int
	// Pruned counts candidates the batched path rejected through the exact
	// incumbent bound without ever featurizing or predicting them.
	Pruned int
}

// DPSize runs the DPsize dynamic program over the join graph, returning the
// cheapest (bushy, connected, cross-product-free) join tree.
func DPSize[S any](spec *workload.JoinSpec, cm CostModel[S]) (*Result, error) {
	n := len(spec.Rels)
	if n == 0 {
		return nil, fmt.Errorf("joinorder: empty spec")
	}
	if n > 62 {
		return nil, fmt.Errorf("joinorder: %d relations exceed bitmask capacity", n)
	}
	adjacency := buildAdjacency(spec, n)
	connected := func(s1, s2 uint64) bool { return setsConnected(adjacency, s1, s2, n) }

	start := time.Now()
	startCalls := cm.Calls()
	steps := 0
	dp := make(map[uint64]dpEntry[S])
	bySize := make([][]uint64, n+1)
	for r := 0; r < n; r++ {
		set := uint64(1) << uint(r)
		dp[set] = dpEntry[S]{state: cm.Leaf(r), tree: &Tree{Rel: r}}
		bySize[1] = append(bySize[1], set)
	}

	for size := 2; size <= n; size++ {
		for s1 := 1; s1 <= size/2; s1++ {
			s2 := size - s1
			for _, a := range bySize[s1] {
				for _, b := range bySize[s2] {
					if a&b != 0 || (s1 == s2 && a >= b) {
						continue
					}
					if !connected(a, b) {
						continue
					}
					ea, eb := dp[a], dp[b]
					// Try both build/probe assignments.
					for _, pair := range [2][2]uint64{{a, b}, {b, a}} {
						bs, ps := pair[0], pair[1]
						var build, probe dpEntry[S]
						if bs == a {
							build, probe = ea, eb
						} else {
							build, probe = eb, ea
						}
						steps++
						st := cm.Join(build.state, probe.state, bs, ps)
						set := a | b
						cur, ok := dp[set]
						if !ok || cm.Total(st) < cm.Total(cur.state) {
							if !ok {
								bySize[size] = append(bySize[size], set)
							}
							dp[set] = dpEntry[S]{
								state: st,
								tree:  &Tree{Left: build.tree, Right: probe.tree},
							}
						}
					}
				}
			}
		}
	}
	full := uint64(1)<<uint(n) - 1
	e, ok := dp[full]
	if !ok {
		return nil, fmt.Errorf("joinorder: join graph of %s is disconnected", spec.Name)
	}
	res := &Result{Tree: e.tree, Cost: cm.Total(e.state), ModelCalls: cm.Calls() - startCalls, DPSteps: steps}
	recordEnumeration(res, time.Since(start))
	return res, nil
}

// buildAdjacency returns, for each relation, the bitmask of relations it
// shares an equi-edge with.
func buildAdjacency(spec *workload.JoinSpec, n int) []uint64 {
	adjacency := make([]uint64, n)
	for _, e := range spec.Edges {
		adjacency[e.A] |= 1 << uint(e.B)
		adjacency[e.B] |= 1 << uint(e.A)
	}
	return adjacency
}

// setsConnected reports whether any equi-edge crosses the two disjoint
// relation sets.
func setsConnected(adjacency []uint64, s1, s2 uint64, n int) bool {
	for r := 0; r < n; r++ {
		if s1&(1<<uint(r)) != 0 && adjacency[r]&s2 != 0 {
			return true
		}
	}
	return false
}

// recordEnumeration publishes one enumeration run's planner metrics.
func recordEnumeration(res *Result, elapsed time.Duration) {
	obs.JoinorderDPSteps.Add(uint64(res.DPSteps))
	obs.JoinorderModelCalls.Add(uint64(res.ModelCalls))
	obs.JoinorderEnumTime.Observe(elapsed)
}

// Greedy implements a GOO-style greedy operator ordering: repeatedly join
// the pair of connected subtrees with the smallest (estimated) result — a
// stand-in for the engine's native optimizer in Table 6, which has to rely
// on estimates instead of true cardinalities.
func Greedy(spec *workload.JoinSpec, oracle Oracle) (*Tree, error) {
	n := len(spec.Rels)
	type part struct {
		tree *Tree
		set  uint64
	}
	parts := make([]part, n)
	for r := 0; r < n; r++ {
		parts[r] = part{tree: &Tree{Rel: r}, set: 1 << uint(r)}
	}
	adjacent := func(s1, s2 uint64) bool {
		for _, e := range spec.Edges {
			ea, eb := uint64(1)<<uint(e.A), uint64(1)<<uint(e.B)
			if (s1&ea != 0 && s2&eb != 0) || (s1&eb != 0 && s2&ea != 0) {
				return true
			}
		}
		return false
	}
	for len(parts) > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(parts); i++ {
			for j := i + 1; j < len(parts); j++ {
				if !adjacent(parts[i].set, parts[j].set) {
					continue
				}
				c := oracle.Card(parts[i].set | parts[j].set)
				if c < best {
					best, bi, bj = c, i, j
				}
			}
		}
		if bi < 0 {
			return nil, fmt.Errorf("joinorder: greedy found disconnected graph in %s", spec.Name)
		}
		// Build on the smaller input.
		l, r := parts[bi], parts[bj]
		if oracle.Card(l.set) > oracle.Card(r.set) {
			l, r = r, l
		}
		merged := part{tree: &Tree{Left: l.tree, Right: r.tree}, set: l.set | r.set}
		parts[bi] = merged
		parts = append(parts[:bj], parts[bj+1:]...)
	}
	return parts[0].tree, nil
}

// TreeToPlan materializes a join tree as a physical plan over the spec,
// ending in the JOB-style global aggregation. Build sides are the trees'
// Left children.
func TreeToPlan(inst *workload.Instance, spec *workload.JoinSpec, t *Tree) *plan.Node {
	return TreeToPlanSides(inst, spec, t, nil)
}

// TreeToPlanSides is TreeToPlan with engine-style build-side selection: when
// an oracle is given, each join builds its hash table over the smaller input
// (the paper notes Umbra performs this structural optimization, which is why
// the symmetric Cout function is not disadvantaged, §5.5 "Resulting Trees").
func TreeToPlanSides(inst *workload.Instance, spec *workload.JoinSpec, t *Tree, oracle Oracle) *plan.Node {
	node, _ := treeToPlan(inst, spec, t, oracle)
	return finalAgg(node)
}

// finalAgg is the aggregation to a single tuple every planned tree ends in,
// as in JOBJoinSpecs plans.
func finalAgg(in *plan.Node) *plan.Node {
	return plan.NewGroupBy(in, nil, []plan.Agg{{Fn: plan.AggCount}}, []string{"cnt"})
}

// aggCard is finalAgg's output cardinality: a global aggregate yields one
// group.
const aggCard = 1.0

// treeToPlan returns the plan and the column offset of each relation in the
// output schema (-1 when absent).
func treeToPlan(inst *workload.Instance, spec *workload.JoinSpec, t *Tree, oracle Oracle) (*plan.Node, []int) {
	offsets := make([]int, len(spec.Rels))
	for i := range offsets {
		offsets[i] = -1
	}
	if t.Left == nil {
		offsets[t.Rel] = 0
		return spec.Rels[t.Rel].Scan(inst), offsets
	}
	lt, rt := t.Left, t.Right
	if oracle != nil && oracle.Card(lt.Rels()) > oracle.Card(rt.Rels()) {
		lt, rt = rt, lt
	}
	build, bOff := treeToPlan(inst, spec, lt, oracle)
	probe, pOff := treeToPlan(inst, spec, rt, oracle)

	// Find an equi-edge crossing the two sides.
	buildKey, probeKey := -1, -1
	for _, e := range spec.Edges {
		if bOff[e.A] >= 0 && pOff[e.B] >= 0 {
			buildKey = bOff[e.A] + e.ACol
			probeKey = pOff[e.B] + e.BCol
			break
		}
		if bOff[e.B] >= 0 && pOff[e.A] >= 0 {
			buildKey = bOff[e.B] + e.BCol
			probeKey = pOff[e.A] + e.ACol
			break
		}
	}
	if buildKey < 0 {
		panic(fmt.Sprintf("joinorder: tree %s has a cross product in %s", t, spec.Name))
	}
	payload := make([]int, len(build.Schema))
	for i := range payload {
		payload[i] = i
	}
	node := plan.NewHashJoin(build, probe, []int{buildKey}, []int{probeKey}, payload)

	// Probe-side offsets stay; build-side offsets shift past the probe
	// schema.
	probeWidth := len(probe.Schema)
	for r := range offsets {
		switch {
		case pOff[r] >= 0:
			offsets[r] = pOff[r]
		case bOff[r] >= 0:
			offsets[r] = probeWidth + bOff[r]
		}
	}
	return node, offsets
}

// subsetPlan builds a left-deep plan joining exactly the relations in set,
// materializing (not aggregating) the result.
func subsetPlan(inst *workload.Instance, spec *workload.JoinSpec, set uint64) *plan.Node {
	if bits.OnesCount64(set) == 1 {
		r := bits.TrailingZeros64(set)
		return plan.NewMaterialize(spec.Rels[r].Scan(inst))
	}
	// Grow a connected order within the subset.
	var order []int
	in := func(r int) bool { return set&(1<<uint(r)) != 0 }
	used := make(map[int]bool)
	// Seed with the lowest relation in the set.
	first := bits.TrailingZeros64(set)
	order = append(order, first)
	used[first] = true
	for len(order) < bits.OnesCount64(set) {
		progress := false
		for _, e := range spec.Edges {
			var nr int = -1
			if used[e.A] && !used[e.B] && in(e.B) {
				nr = e.B
			} else if used[e.B] && !used[e.A] && in(e.A) {
				nr = e.A
			}
			if nr >= 0 {
				order = append(order, nr)
				used[nr] = true
				progress = true
			}
		}
		if !progress {
			panic(fmt.Sprintf("joinorder: subset %b of %s is disconnected", set, spec.Name))
		}
	}
	// Build left-deep over the sub-spec by reusing PlanForOrder on a
	// restricted spec.
	sub, mapping := restrict(spec, set)
	subOrder := make([]int, len(order))
	for i, r := range order {
		subOrder[i] = mapping[r]
	}
	joined := sub.PlanForOrderNoAgg(inst, subOrder)
	return plan.NewMaterialize(joined)
}

// restrict returns the spec limited to the subset, plus old→new index
// mapping.
func restrict(spec *workload.JoinSpec, set uint64) (*workload.JoinSpec, map[int]int) {
	sub := &workload.JoinSpec{Name: spec.Name + "~sub"}
	mapping := make(map[int]int)
	for r := range spec.Rels {
		if set&(1<<uint(r)) != 0 {
			mapping[r] = len(sub.Rels)
			sub.Rels = append(sub.Rels, spec.Rels[r])
		}
	}
	for _, e := range spec.Edges {
		na, aok := mapping[e.A]
		nb, bok := mapping[e.B]
		if aok && bok {
			sub.Edges = append(sub.Edges, workload.EdgeSpec{A: na, B: nb, ACol: e.ACol, BCol: e.BCol})
		}
	}
	return sub, mapping
}
