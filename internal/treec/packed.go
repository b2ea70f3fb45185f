package treec

import (
	"fmt"
	"math"
	"slices"

	"t3/internal/gbdt"
	"t3/internal/par"
)

// PackedNode is one decision node in the cache-packed layout: exactly 16
// bytes, so four nodes share each 64-byte cache line. Children ≥ 0 are
// absolute indices into Packed.Nodes; a negative child c refers to leaf ^c in
// the unified Packed.Leaves array.
//
// Thr is the trained threshold, which the trainer stores as a float32 value;
// the comparison is v[Feature] <= float64(Thr), exactly the interpreter's.
type PackedNode struct {
	Thr     float32
	Feature uint16
	_       uint16
	Left    int32
	Right   int32
}

// Packed is the cache-packed compiled form of a tree ensemble: every node is
// a 16-byte record, trees are laid out root-first in breadth-first order so
// the hot top levels of consecutive trees stay within a few cache lines, and
// all leaf values live in one unified float64 array. Thresholds are float32 in
// the model (gbdt.Model.Validate), so Packed stores each exactly and routes
// every input as the float64 interpreter does.
type Packed struct {
	Nodes []PackedNode
	// Roots holds the root node index of every multi-node tree.
	Roots  []int32
	Leaves []float64
	// Base includes the model base score plus all single-leaf trees.
	Base        float64
	NumFeatures int

	// quick is the batch kernel's layout of the same trees (quickscorer.go);
	// nil when a tree has more leaves than a bitvector holds, and
	// PredictRowsInto then scores every row through Predict.
	quick []qsBlock
	// all is PredictRowsInto's one start: every leaf, before every list.
	all *Starts
}

// Pack compiles a model into the packed form. It panics if the model exceeds
// the packed index space (65536 features or 2³¹ nodes/leaves) — far beyond
// any T3 configuration — or holds a threshold that is not a float32, which
// Validate refuses and the trainer never writes.
func Pack(m *gbdt.Model) *Packed {
	if m.NumFeatures > math.MaxUint16+1 {
		panic(fmt.Sprintf("treec: %d features exceed packed uint16 feature ids", m.NumFeatures))
	}
	p := &Packed{Base: m.BaseScore, NumFeatures: m.NumFeatures}
	nodes, leaves := 0, 0
	for ti := range m.Trees {
		nodes, leaves = nodes+len(m.Trees[ti].Nodes), leaves+len(m.Trees[ti].Leaves)
	}
	p.Nodes, p.Leaves = make([]PackedNode, 0, nodes), make([]float64, 0, leaves)
	// bfs[i] is the original index of the node at packed position nodeOff+i,
	// pos its inverse; both are reused from tree to tree.
	var bfs, pos []int32
	var quick []qsBlock
	fits := true // every tree so far has a bitvector's worth of leaves or fewer
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if len(t.Nodes) == 0 {
			// Constant tree: fold into the base score.
			p.Base += t.Leaves[0]
			continue
		}
		nodeOff := int32(len(p.Nodes))
		leafOff := int32(len(p.Leaves))
		p.Roots = append(p.Roots, nodeOff)

		// Breadth-first relabeling: root-first BFS keeps the top levels — the
		// nodes every prediction visits — contiguous at the front of each
		// tree's block.
		bfs = append(bfs[:0], 0)
		pos = slices.Grow(pos[:0], len(t.Nodes))[:len(t.Nodes)]
		for i := 0; i < len(bfs); i++ {
			n := &t.Nodes[bfs[i]]
			pos[bfs[i]] = int32(i)
			if n.Left >= 0 {
				bfs = append(bfs, n.Left)
			}
			if n.Right >= 0 {
				bfs = append(bfs, n.Right)
			}
		}
		for _, oi := range bfs {
			n := &t.Nodes[oi]
			l, r := n.Left, n.Right
			if l >= 0 {
				l = nodeOff + pos[l]
			} else {
				l = ^(^l + leafOff)
			}
			if r >= 0 {
				r = nodeOff + pos[r]
			} else {
				r = ^(^r + leafOff)
			}
			thr := float32(n.Threshold)
			if float64(thr) != n.Threshold && !math.IsNaN(n.Threshold) {
				panic(fmt.Sprintf("treec: tree %d node %d: threshold %v is not a float32", ti, oi, n.Threshold))
			}
			p.Nodes = append(p.Nodes, PackedNode{
				Thr:     thr,
				Feature: uint16(n.Feature),
				Left:    l,
				Right:   r,
			})
		}
		p.Leaves = append(p.Leaves, t.Leaves...)
		// Every reachable node has two children, so the tree has one more
		// leaf than len(bfs) nodes.
		if fits = fits && len(bfs) < qsMaxLeaves; fits {
			quick = qsAdd(quick, m.Trees[ti:])
		}
	}
	if fits {
		for i := range quick {
			quick[i].seal()
		}
		p.quick = quick
	}
	every := make([]int, p.NumFeatures)
	for f := range every {
		every[f] = f
	}
	p.all = p.NewStarts(every)
	p.all.Add(make([]float64, p.NumFeatures))
	return p
}

// Predict evaluates the packed ensemble for one feature vector.
func (p *Packed) Predict(v []float64) float64 {
	s := p.Base
	nodes, leaves := p.Nodes, p.Leaves
	for _, root := range p.Roots {
		i := root
		for {
			n := &nodes[i]
			if v[n.Feature] <= float64(n.Thr) {
				i = n.Left
			} else {
				i = n.Right
			}
			if i < 0 {
				s += leaves[^i]
				break
			}
		}
	}
	return s
}

// PredictRowsInto evaluates nrows = len(out) row-major feature vectors stored
// contiguously in rows (row i is rows[i*stride : (i+1)*stride]) into the
// caller-owned out slice, fanning tasks of rowsPerTask rows over the fan's
// pool (a nil fan, or one over a nil or single-worker pool, runs serially).
// It allocates nothing, fanned or not, once the fan has dispatched once.
// Every row's tree contributions are added in tree order regardless of
// chunking or worker count, so each out[i] is bit-identical to Predict(row i)
// — the determinism contract the level-batched join enumerator is built on.
// It is PredictRowsFrom with every row starting from all leaves and searching
// every scan list.
func (p *Packed) PredictRowsInto(rows []float64, stride int, out []float64, fan *Fan) {
	p.checkRows("PredictRowsInto", rows, stride, len(out))
	p.predictRows(rows, stride, p.all, nil, out, fan)
}

// PredictRowsFrom is PredictRowsInto for rows that each equal a base vector
// of s outside s's feature set: row i begins from start[i] of s and searches
// only the set's scan lists. It is bit-identical to Predict as long as that
// holds; a row that differs from its base elsewhere gets a wrong sum.
func (p *Packed) PredictRowsFrom(rows []float64, stride int, s *Starts, start []int32, out []float64, fan *Fan) {
	p.checkRows("PredictRowsFrom", rows, stride, len(out))
	if s.p != p || len(start) < len(out) {
		panic(fmt.Sprintf("treec: PredictRowsFrom has %d starts for %d rows, or starts of another ensemble", len(start), len(out)))
	}
	for _, i := range start[:len(out)] {
		if uint32(i) >= uint32(s.n) {
			panic(fmt.Sprintf("treec: PredictRowsFrom row starts from %d of %d starts", i, s.n))
		}
	}
	p.predictRows(rows, stride, s, start, out, fan)
}

// checkRows panics, naming fn, unless rows holds n rows at stride, each with
// room for a feature vector. An empty batch passes whatever stride says.
func (p *Packed) checkRows(fn string, rows []float64, stride, n int) {
	if n > 0 && (stride < p.NumFeatures || len(rows) < n*stride) {
		panic(fmt.Sprintf("treec: %s rows has %d floats, want >= %d x %d at a stride of >= %d features",
			fn, len(rows), n, stride, p.NumFeatures))
	}
}

// rowsPerTask is the pool split of PredictRowsInto. A served row measures
// 2.0 to 2.6 µs on the kernel, so one task is 60 to 85 µs of work, well over
// what handing it to a parked worker and waking that worker cost, and a
// 32-plan batch (some 90 rows) already splits three ways. It is a multiple of
// the kernel's block of qsRows rows, so a task boundary never cuts a block
// into tails, and the rows that share a block — and with it their prefixes —
// are the same at any worker count.
const rowsPerTask = 32

// Fan is what a caller owns to let PredictRowsInto and PredictRowsFrom fan a
// call's rows out over a pool: the par.Job its tasks go through and the call
// they belong to. A Fan serves one call at a time and is reused across calls;
// dispatching through a warm one allocates nothing.
type Fan struct {
	// Pool is what the rows fan out over; nil or a single-worker pool keeps
	// them on the caller.
	Pool *par.Pool
	job  par.Job
	call rowsCall
}

// rowsCall is one predictRows call as the fan's tasks see it; task t scores
// rows [t*rowsPerTask, (t+1)*rowsPerTask).
type rowsCall struct {
	p      *Packed
	rows   []float64
	stride int
	s      *Starts
	start  []int32
	out    []float64
}

// Run scores task t's rows.
func (c *rowsCall) Run(_, t int) {
	lo := t * rowsPerTask
	hi := min(lo+rowsPerTask, len(c.out))
	var st []int32
	if c.start != nil {
		st = c.start[lo:hi]
	}
	c.p.predictSerial(c.rows[lo*c.stride:hi*c.stride], c.stride, c.s, st, c.out[lo:hi])
}

// predictRows scores rows from their starts, in tasks of rowsPerTask rows
// over the fan's pool when there are at least two tasks' worth.
func (p *Packed) predictRows(rows []float64, stride int, s *Starts, start []int32, out []float64, fan *Fan) {
	nrows := len(out)
	if fan == nil || fan.Pool.Workers() < 2 || nrows < 2*rowsPerTask {
		p.predictSerial(rows, stride, s, start, out)
		return
	}
	fan.call = rowsCall{p: p, rows: rows, stride: stride, s: s, start: start, out: out}
	fan.job.Do(fan.Pool, (nrows+rowsPerTask-1)/rowsPerTask, &fan.call)
	fan.call = rowsCall{}
}

// predictSerial scores rows serially: the block-wise bitvector kernel when
// the ensemble fits it, one Predict per row otherwise, starts ignored.
func (p *Packed) predictSerial(rows []float64, stride int, s *Starts, start []int32, out []float64) {
	if p.quick != nil {
		p.scoreRows(rows, stride, s, start, out)
		return
	}
	for r := range out {
		out[r] = p.Predict(rows[r*stride : (r+1)*stride])
	}
}
