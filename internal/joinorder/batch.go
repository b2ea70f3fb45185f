package joinorder

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"t3/internal/feature"
	"t3/internal/obs"
	"t3/internal/par"
	"t3/internal/treec"
	"t3/internal/workload"
)

// This file implements the level-batched DPsize enumerator: instead of one
// scalar model call per candidate join, candidates are gathered per DP level
// and priced in batched packed-tier prediction waves over a flat row-major
// arena (fanned across the shared worker pool for large waves). Waves are
// replayed best-first per subset with an exact incumbent prune, so most
// candidates never reach the model at all.
//
// Determinism contract with the scalar path (DPSize + T3CostModel over the
// same *treec.Packed):
//
//   - Vectors are produced by the same encoder steps (leafInto /
//     closeBuildInto / extendProbeInto, each one feature.Registry.AddStage
//     call), so they are equal by construction. Copy-on-extend happens
//     directly into the arena.
//   - Both price through Packed.PredictRowsFrom, each row beginning from its
//     scan relation's start (the leaf vector's bitvectors; the row equals
//     that vector outside startFeatures): the scalar path one row per call,
//     this one up to eight rows at a time, applying the decision nodes all
//     rows of a block fail once. The kernel still adds every row's tree
//     contributions to that row's own sum in tree order, independent of
//     blocking, flush boundaries, and worker count, so every prediction is
//     bit-identical to the scalar path's, and to Packed.Predict of the same
//     row.
//   - Seconds are accumulated in the scalar path's exact float order:
//     closed = (build.closed + probe.closed) + closePred; total = (closed +
//     openPred) + tail, both via the shared scaleSeconds, where tail is the
//     aggregate's scan pipeline at the full relation set and 0 below it.
//   - The scalar loop keeps the first candidate (in enumeration order) that
//     is strictly cheaper than the incumbent, which selects the minimum total
//     with earliest-candidate tie-break. That selection is replay-order-free,
//     so waves may evaluate candidates in any order and still install the
//     scalar winner: the replay compares (total, gather index) pairs.
//
// The incumbent prune is exact, with no epsilons: a candidate's gather key is
// key = fl(build.closed + probe.closed), and its eventual cost is
// total = fl(fl(fl(key + buildPred) + openPred) + tail) with buildPred,
// openPred, tail >= 0.
// Float rounding of a sum of non-negatives is monotone, so total >= key.
// Incumbent totals only decrease, so once key >= incumbent total the
// candidate provably cannot win — it is dropped without being featurized or
// predicted. Within a subset, candidates are evaluated cheapest-key-first
// (one per wave), which makes the incumbent converge to its final value
// almost immediately and prunes the bulk of the level.
//
// Together these make DPSizeBatched return bit-identical costs and the same
// optimal tree as the scalar reference for any MaxBatch and worker count —
// the property test in batch_test.go pins this. The evaluated-candidate set
// is also identical across configs: waves are assembled only from state
// established before the wave, never from mid-wave replays.

// DefaultMaxBatch bounds feature rows per prediction flush when
// BatchConfig.MaxBatch is zero. Chunked flushing keeps each packed-tier call
// cache-friendly on clique-shaped graphs whose waves hold thousands of rows.
//
// Batching pays three times. It is one kernel call for a wave instead of one
// per candidate; the rows of a wave are neighbours — extensions of the same
// few subplans, equal in most features, and placed next to each other — which
// the kernel scores in blocks of up to eight that share every node all of
// them fail (treec/quickscorer.go); and every row begins from its scan
// relation's start, so the scan stage's nodes are applied once per relation
// and enumeration. On plan_enum's four graphs a row fails 2 651 nodes and the
// kernel applies 323 masks for it, starts and checkpoints included, where
// scoring every list from all leaves applies 515. Only the one to three rows
// a flush leaves past a multiple of eight share no block.
const DefaultMaxBatch = 2048

// BatchConfig tunes the level-batched enumerator.
type BatchConfig struct {
	// Workers fans prediction flushes across a cached worker pool
	// (0 = GOMAXPROCS, 1 = serial). Costs are bit-identical for every value.
	Workers int
	// MaxBatch bounds the feature rows predicted per flush (0 = DefaultMaxBatch).
	MaxBatch int
}

// batchSlot is the running winner for one relation subset: the batched
// counterpart of t3State, stored flat in a reusable freelist-style slice with
// its open-pipeline vector in a pooled slab (vecOff indexes batchEnum.slotVec).
type batchSlot struct {
	subtree
	closedSeconds float64
	openPred      float64 // memoized open-pipeline seconds of the winner
	total         float64 // closedSeconds + openPred + tail, the comparison key
	buildPred     float64 // memoized close-build seconds (this slot as build side)
	buildKeyW     float64 // key width buildPred is for, or is queued for
	bs, ps        uint64  // winning split, for tree reconstruction
	vecOff        int32   // open-pipeline vector offset into slotVec
	winIdx        int32   // gather index of the winner, for tie-breaking
	hasWinner     bool
	buildPredOK   bool
}

// candRef describes one gathered candidate join awaiting evaluation or
// pruning. key is the exact float lower bound of the candidate's total
// (the two finalized closed-pipeline sums), used both as the best-first
// ordering key and in the incumbent prune.
type candRef struct {
	buildSlot int32
	probeSlot int32
	winSlot   int32
	closeRow  int32 // arena row of its own close-build vector, when keyW is not its build slot's
	bs, ps    uint64
	outCard   float64
	keyW      float64 // byte width of the join key on the build side
	key       float64
}

// batchEnum is the pooled scratch of one enumeration: candidate arena, output
// buffer, wave and ordering scratch, slot freelist, slot vector slab, and DP
// index. Steady-state reuse via batchPool is what holds the CI-guarded
// allocation bound.
type batchEnum struct {
	stride  int
	rows    []float64 // wave-local candidate arena, row-major
	out     []float64
	cands   []candRef // current level's candidates, in enumeration order
	wave    []uint64  // current wave in arena row order: rowKey of the probe slot
	order   []int32   // level candidates grouped by subset, cheapest key first
	keys    []uint64  // per-segment sort scratch: float32 key bits | cand index
	slotOff []int32   // order segment bounds per level slot
	slotCur []int32   // per level slot cursor into order
	slots   []batchSlot
	slotVec []float64 // persistent open-pipeline vectors, indexed by vecOff
	zeroRow []float64 // stride zeros, append source for arena growth
	dp      map[uint64]int32
	bySize  [][]uint64
	// closeRowOf[si] is the arena row carrying slot si's close-build vector in
	// the current wave (-1 when absent); closeTouched lists the slots to reset.
	closeRowOf   []int32
	closeTouched []int32
	// starts holds, per relation, its leaf vector's start in the kernel
	// (treec.Starts, over startFeatures); start[r] is arena row r's, the
	// relation whose scan starts the row's pipeline. startsOf is the model
	// and registry starts was made for.
	starts   *treec.Starts
	startsOf struct {
		pred *treec.Packed
		reg  *feature.Registry
	}
	start []int32
	// fan is what a flush's rows go out over the cfg.Workers pool through.
	fan treec.Fan
}

var batchPool sync.Pool

// getBatchEnum checks scratch out of the pool and sizes it for the run.
func getBatchEnum(pred *treec.Packed, reg *feature.Registry, maxRows, n int) *batchEnum {
	stride := reg.NumFeatures()
	e, _ := batchPool.Get().(*batchEnum)
	if e == nil {
		e = &batchEnum{dp: make(map[uint64]int32, 1<<8)}
	}
	if e.stride != stride || cap(e.rows) < maxRows*stride {
		e.rows = make([]float64, 0, maxRows*stride)
		e.out = make([]float64, maxRows)
		e.zeroRow = make([]float64, stride)
	}
	e.stride = stride
	e.rows = e.rows[:0]
	e.cands = e.cands[:0]
	e.wave = e.wave[:0]
	e.order = e.order[:0]
	e.slots = e.slots[:0]
	e.slotVec = e.slotVec[:0]
	e.closeTouched = e.closeTouched[:0]
	if e.startsOf.pred != pred || e.startsOf.reg != reg {
		e.starts = pred.NewStarts(startFeatures(reg))
		e.startsOf.pred, e.startsOf.reg = pred, reg
	}
	e.starts.Reset()
	e.start = e.start[:0]
	clear(e.dp)
	if cap(e.bySize) < n+1 {
		e.bySize = make([][]uint64, n+1)
	}
	e.bySize = e.bySize[:n+1]
	for i := range e.bySize {
		e.bySize[i] = e.bySize[i][:0]
	}
	return e
}

func putBatchEnum(e *batchEnum) { batchPool.Put(e) }

// startFeatures returns the features on which a row DPSizeBatched prices can
// differ from the leaf vector of the relation whose scan starts its pipeline:
// the features of the stages the encoder adds to a leaf — a hash join's build
// and probe and the aggregate's build. On every other feature the row is that
// leaf vector bit for bit, so the kernel starts it from the leaf's start.
func startFeatures(reg *feature.Registry) []int {
	var fs []int
	for _, k := range []feature.StageKey{buildKey, probeKey, aggBuildKey} {
		fs = append(fs, reg.StageFeatures(k)...)
	}
	return fs
}

// newSlot appends a fresh slot with slab-backed vector storage and returns
// its index.
func (e *batchEnum) newSlot() int32 {
	si := int32(len(e.slots))
	off := int32(len(e.slotVec))
	e.slotVec = append(e.slotVec, e.zeroRow...)
	if cap(e.slots) > len(e.slots) {
		e.slots = e.slots[:len(e.slots)+1]
		e.slots[si] = batchSlot{vecOff: off}
	} else {
		e.slots = append(e.slots, batchSlot{vecOff: off})
	}
	if len(e.closeRowOf) <= int(si) {
		e.closeRowOf = append(e.closeRowOf, -1)
	} else {
		e.closeRowOf[si] = -1
	}
	return si
}

// slotVecOf returns slot si's persistent open-pipeline vector.
func (e *batchEnum) slotVecOf(si int32) []float64 {
	off := int(e.slots[si].vecOff)
	return e.slotVec[off : off+e.stride]
}

// addRow claims the next arena row (growing the arena when a wave outruns
// its pooled capacity) and returns its index.
func (e *batchEnum) addRow() int32 {
	r := int32(len(e.rows) / e.stride)
	if len(e.rows)+e.stride <= cap(e.rows) {
		e.rows = e.rows[:len(e.rows)+e.stride]
	} else {
		e.rows = append(e.rows, e.zeroRow...)
	}
	return r
}

// row returns arena row r.
func (e *batchEnum) row(r int32) []float64 {
	return e.rows[int(r)*e.stride : (int(r)+1)*e.stride]
}

// rowKey packs a wave candidate for ordering the arena: the relation whose
// scan starts slot si's open pipeline, then si, then the candidate index,
// which the low 32 bits keep. Rows of one key prefix begin from the same
// start (the scan relation's) and carry the same probe-side pipeline per
// slot, so a block of them takes the start as its shared bitvectors instead
// of one copy per lane and shares most nodes its rows fail. Any order is
// sound — a wave's replay is order-free — so a slot index past 26 bits only
// loosens the grouping.
func (e *batchEnum) rowKey(si, ci int32) uint64 {
	return uint64(e.slots[si].scan)<<58 | uint64(si)<<32 | uint64(uint32(ci))
}

// orderLevel groups the level's candidates by subset slot and sorts each
// group cheapest-key-first. Keys are compared through their float32 bits —
// any deterministic order is sound (winner selection is order-free), and the
// packed uint64 sort keeps the hot path allocation- and closure-free.
func (e *batchEnum) orderLevel(levelSlotLo int32, nslots int) {
	if cap(e.slotOff) < nslots+1 {
		e.slotOff = make([]int32, nslots+1)
		e.slotCur = make([]int32, nslots)
	}
	e.slotOff = e.slotOff[:nslots+1]
	e.slotCur = e.slotCur[:nslots]
	for i := range e.slotOff {
		e.slotOff[i] = 0
	}
	for _, c := range e.cands {
		e.slotOff[c.winSlot-levelSlotLo+1]++
	}
	for s := 0; s < nslots; s++ {
		e.slotOff[s+1] += e.slotOff[s]
		e.slotCur[s] = e.slotOff[s]
	}
	if cap(e.order) < len(e.cands) {
		e.order = make([]int32, len(e.cands))
	}
	e.order = e.order[:len(e.cands)]
	for ci := range e.cands {
		s := e.cands[ci].winSlot - levelSlotLo
		e.order[e.slotCur[s]] = int32(ci)
		e.slotCur[s]++
	}
	maxSeg := 0
	for s := 0; s < nslots; s++ {
		if n := int(e.slotOff[s+1] - e.slotOff[s]); n > maxSeg {
			maxSeg = n
		}
	}
	if cap(e.keys) < maxSeg {
		e.keys = make([]uint64, maxSeg)
	}
	for s := 0; s < nslots; s++ {
		seg := e.order[e.slotOff[s]:e.slotOff[s+1]]
		e.slotCur[s] = e.slotOff[s]
		if len(seg) < 2 {
			continue
		}
		ks := e.keys[:len(seg)]
		for i, ci := range seg {
			ks[i] = uint64(math.Float32bits(float32(e.cands[ci].key)))<<32 | uint64(uint32(ci))
		}
		slices.Sort(ks)
		for i, k := range ks {
			seg[i] = int32(uint32(k))
		}
	}
}

// DPSizeBatched runs DPsize with level-batched packed-tier costing: the
// batched, allocation-lean, pruned equivalent of DPSize over
// NewT3Cost(packed, ...). It returns bit-identical costs and the same optimal
// tree as that scalar reference for any BatchConfig (see the determinism
// contract above).
func DPSizeBatched(spec *workload.JoinSpec, pred *treec.Packed, reg *feature.Registry, inst *workload.Instance, oracle Oracle, cfg BatchConfig) (*Result, error) {
	return dpSizeBatched(spec, pred, reg, inst, oracle, cfg, nil)
}

// KernelWork is DPSizeBatched that also counts what its kernel calls do, as
// treec.Packed.MaskCounts counts it, the building of the enumeration's starts
// included. The counts do not depend on cfg.Workers: the pool splits a flush
// where the kernel's blocks do.
func KernelWork(spec *workload.JoinSpec, pred *treec.Packed, reg *feature.Registry, inst *workload.Instance, oracle Oracle, cfg BatchConfig) (*Result, treec.Work, error) {
	var w treec.Work
	res, err := dpSizeBatched(spec, pred, reg, inst, oracle, cfg, &w)
	return res, w, err
}

// dpSizeBatched is DPSizeBatched, adding its kernel work to work if that is
// not nil.
func dpSizeBatched(spec *workload.JoinSpec, pred *treec.Packed, reg *feature.Registry, inst *workload.Instance, oracle Oracle, cfg BatchConfig, work *treec.Work) (*Result, error) {
	n := len(spec.Rels)
	if n == 0 {
		return nil, fmt.Errorf("joinorder: empty spec")
	}
	if n > 62 {
		return nil, fmt.Errorf("joinorder: %d relations exceed bitmask capacity", n)
	}
	maxRows := cfg.MaxBatch
	if maxRows <= 0 {
		maxRows = DefaultMaxBatch
	}
	if maxRows < 2 {
		maxRows = 2
	}
	enc := newEncoder(reg, inst, spec)
	stride := reg.NumFeatures()

	e := getBatchEnum(pred, reg, maxRows, n)
	defer putBatchEnum(e)
	e.fan.Pool = par.Sized(cfg.Workers)

	start := time.Now()
	res := &Result{}
	adjacency := buildAdjacency(spec, n)

	// aggScan prices the aggregate's scan pipeline in the arena, which holds
	// no wave while it runs. Like T3CostModel, it leaves the call out of
	// ModelCalls.
	aggScan := func() float64 {
		e.rows = e.rows[:0]
		row := e.row(e.addRow())
		src := enc.aggScanInto(row, oracle)
		pred.PredictRowsInto(row, stride, e.out[:1], nil)
		return scaleSeconds(e.out[0], src)
	}

	// Leaves: one slot per relation, vector written straight into the slab,
	// and its start: start r.
	for r := 0; r < n; r++ {
		si := e.newSlot()
		t := enc.leafInto(e.slotVecOf(si), r)
		e.starts.Add(e.slotVecOf(si))
		s := &e.slots[si]
		s.subtree = t
		s.hasWinner = true
		e.dp[uint64(1)<<uint(r)] = si
		e.bySize[1] = append(e.bySize[1], uint64(1)<<uint(r))
	}

	// runLevel prices one DP level's gathered candidates in best-first waves.
	// Each wave takes the cheapest not-yet-pruned candidate of every subset
	// (skipping candidates whose exact closed-cost lower bound has reached
	// the incumbent), predicts all wave rows batched, and replays exactly.
	// tail is added to every candidate's total.
	runLevel := func(levelSlotLo int32, tail float64) {
		nslots := len(e.slots) - int(levelSlotLo)
		if nslots == 0 || len(e.cands) == 0 {
			return
		}
		e.orderLevel(levelSlotLo, nslots)
		for {
			e.wave = e.wave[:0]
			for s := 0; s < nslots; s++ {
				cur := e.slotCur[s]
				end := e.slotOff[s+1]
				w := &e.slots[levelSlotLo+int32(s)]
				for cur < end {
					ci := e.order[cur]
					c := &e.cands[ci]
					if w.hasWinner {
						if c.key >= w.total {
							// Keys ascend within the segment: everything left
							// is a certain loser.
							res.Pruned += int(end - cur)
							cur = end
							break
						}
						if b := &e.slots[c.buildSlot]; b.buildPredOK && b.buildKeyW == c.keyW && c.key+b.buildPred >= w.total {
							res.Pruned++
							cur++
							continue
						}
					}
					e.wave = append(e.wave, e.rowKey(c.probeSlot, ci))
					cur++
					break
				}
				e.slotCur[s] = cur
			}
			if len(e.wave) == 0 {
				return
			}

			// The arena holds the wave's extension rows first, grouped by the
			// scan starting the probe side's pipeline and then by probe slot —
			// extensions of one subplan differ only in their build side, so a
			// block of them shares most of what it fails in the kernel — and
			// then one close row per build side and key width not priced yet.
			// A slot memoizes the first key width it is priced for; a
			// candidate keyed otherwise (only on specs whose join columns
			// differ in width) gets a close row of its own.
			slices.Sort(e.wave)
			e.rows, e.start = e.rows[:0], e.start[:0]
			for _, wv := range e.wave {
				c := &e.cands[uint32(wv)]
				b, p := &e.slots[c.buildSlot], &e.slots[c.probeSlot]
				enc.extendProbeInto(e.row(e.addRow()), e.slotVecOf(c.probeSlot), b.subtree, p.subtree, c.bs|c.ps, c.outCard, c.keyW)
				e.start = append(e.start, int32(p.scan))
			}
			for _, wv := range e.wave {
				c := &e.cands[uint32(wv)]
				b := &e.slots[c.buildSlot]
				cr := e.closeRowOf[c.buildSlot]
				if b.buildKeyW == c.keyW && (b.buildPredOK || cr >= 0) {
					continue // priced in an earlier wave, or queued in this one
				}
				c.closeRow = e.addRow()
				enc.closeBuildInto(e.row(c.closeRow), e.slotVecOf(c.buildSlot), b.subtree, c.keyW)
				e.start = append(e.start, int32(b.scan))
				if !b.buildPredOK && cr < 0 {
					b.buildKeyW = c.keyW
					e.closeRowOf[c.buildSlot] = c.closeRow
					e.closeTouched = append(e.closeTouched, c.buildSlot)
				}
			}

			nrows := len(e.rows) / stride
			if cap(e.out) < nrows {
				e.out = make([]float64, nrows)
			}
			out := e.out[:nrows]
			for lo := 0; lo < nrows; lo += maxRows {
				hi := min(lo+maxRows, nrows)
				pred.PredictRowsFrom(e.rows[lo*stride:hi*stride], stride, e.starts, e.start[lo:hi], out[lo:hi], &e.fan)
				if work != nil {
					*work = work.Plus(pred.MaskCounts(e.rows[lo*stride:], stride, hi-lo, e.starts))
				}
				res.Batches++
				if hi-lo > res.MaxBatch {
					res.MaxBatch = hi - lo
				}
				obs.JoinorderBatchSize.Record(uint64(hi - lo))
			}
			res.ModelCalls += nrows

			// Close rows replay first: every extension of the wave over a build
			// side reads its buildPred, not only the one that queued the row.
			for _, si := range e.closeTouched {
				b := &e.slots[si]
				b.buildPred = scaleSeconds(out[e.closeRowOf[si]], b.src)
				b.buildPredOK = true
				e.closeRowOf[si] = -1
			}
			e.closeTouched = e.closeTouched[:0]
			for er, wv := range e.wave {
				ci := int32(uint32(wv))
				c := &e.cands[ci]
				b, p := &e.slots[c.buildSlot], &e.slots[c.probeSlot]
				buildPred := b.buildPred
				if b.buildKeyW != c.keyW {
					buildPred = scaleSeconds(out[c.closeRow], b.src)
				}
				closed := b.closedSeconds + p.closedSeconds + buildPred
				openPred := scaleSeconds(out[er], p.src)
				total := closed + openPred + tail
				w := &e.slots[c.winSlot]
				if !w.hasWinner || total < w.total || (total == w.total && ci < w.winIdx) {
					w.hasWinner = true
					w.closedSeconds = closed
					w.openPred = openPred
					w.total = total
					w.subtree = joined(b.subtree, p.subtree, c.outCard)
					w.bs, w.ps = c.bs, c.ps
					w.winIdx = ci
					copy(e.slotVecOf(c.winSlot), e.row(int32(er)))
				}
			}
		}
	}

	steps := 0
	for size := 2; size <= n; size++ {
		levelSlotLo := int32(len(e.slots))
		e.cands = e.cands[:0]
		for s1 := 1; s1 <= size/2; s1++ {
			s2 := size - s1
			for _, a := range e.bySize[s1] {
				for _, b := range e.bySize[s2] {
					if a&b != 0 || (s1 == s2 && a >= b) {
						continue
					}
					if !setsConnected(adjacency, a, b, n) {
						continue
					}
					sa, sb := e.dp[a], e.dp[b]
					set := a | b
					wi, ok := e.dp[set]
					if !ok {
						wi = e.newSlot()
						e.dp[set] = wi
						e.bySize[size] = append(e.bySize[size], set)
					}
					outCard := oracle.Card(set)
					keyW := enc.rels.keyWidths(a, b)
					for k, pair := range [2][2]uint64{{a, b}, {b, a}} {
						bs, ps := pair[0], pair[1]
						var bSlot, pSlot int32
						if bs == a {
							bSlot, pSlot = sa, sb
						} else {
							bSlot, pSlot = sb, sa
						}
						steps++
						e.cands = append(e.cands, candRef{
							buildSlot: bSlot,
							probeSlot: pSlot,
							winSlot:   wi,
							bs:        bs,
							ps:        ps,
							outCard:   outCard,
							keyW:      keyW[k],
							key:       e.slots[bSlot].closedSeconds + e.slots[pSlot].closedSeconds,
						})
					}
				}
			}
		}
		tail := 0.0
		if size == n && len(e.cands) > 0 {
			tail = aggScan()
		}
		runLevel(levelSlotLo, tail)
	}

	full := uint64(1)<<uint(n) - 1
	si, ok := e.dp[full]
	if !ok {
		return nil, fmt.Errorf("joinorder: join graph of %s is disconnected", spec.Name)
	}
	if n == 1 {
		// Single relation: its open pipeline ends in the aggregate.
		s := &e.slots[si]
		res.ModelCalls++
		pred.PredictRowsInto(e.slotVecOf(si), stride, e.out[:1], nil)
		s.openPred = scaleSeconds(e.out[0], s.src)
		s.total = s.closedSeconds + s.openPred + aggScan()
	}
	res.Tree = e.rebuildTree(full)
	res.Cost = e.slots[si].total
	res.DPSteps = steps
	if work != nil {
		*work = work.Plus(e.starts.Work())
	}
	recordEnumeration(res, time.Since(start))
	return res, nil
}

// rebuildTree materializes the optimal join tree from the winning splits
// recorded in the slots. Valid because every slot's (bs, ps) reference
// finalized smaller-level subsets.
func (e *batchEnum) rebuildTree(set uint64) *Tree {
	if bits.OnesCount64(set) == 1 {
		return &Tree{Rel: bits.TrailingZeros64(set)}
	}
	s := &e.slots[e.dp[set]]
	return &Tree{Left: e.rebuildTree(s.bs), Right: e.rebuildTree(s.ps)}
}
