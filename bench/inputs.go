package main

import (
	"fmt"
	"math/rand"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/wire"
	"t3/internal/workload"
)

// Every input of the benchmark is generated here, from the seed.
//
// The contract compares runs made with different seeds, so two seeds must
// give workloads of the same cost. The query templates and join-graph shapes
// are therefore fixed (the template seeds below), exactly as TPC-H fixes its
// 22 templates: a randomly drawn set of 64–200 plans has a median cost that
// moves by more than any bound a benchmark could state. What the seed drives
// is everything below the templates — the rows of every table, and so every
// predicate constant, selectivity and true cardinality; the cardinality
// perturbations that make cache keys; and the order ops are issued in.
const (
	tmplSeedTPCH  = 1_000_003 // query templates over the TPC-H-lite instance
	tmplSeedTPCDS = 2_000_003 // query templates over the TPC-DS-lite instance
	tmplSeedExec  = 3_000_003 // engine_exec query templates
	tmplSeedTrain = 4_000_003 // retrain label-query templates
)

// planSet is the annotated plan population predict_inproc and the serve
// workloads draw from: the fixed TPC-H and TPC-DS benchmark queries plus
// generated queries of all 16 structure groups on both instances.
func buildPlans(seed int64) ([]*plan.Node, error) {
	h, err := workload.Generate(workload.TPCHSpec("tpch_plans", 0.01, seed))
	if err != nil {
		return nil, err
	}
	ds, err := workload.Generate(workload.TPCDSSpec("tpcds_plans", 0.2, seed+1))
	if err != nil {
		return nil, err
	}
	var qs []*workload.Query
	qs = append(qs, workload.TPCHBenchmarkQueries(h)...)
	qs = append(qs, workload.TPCDSBenchmarkQueries(ds)...)
	qs = append(qs, workload.GenerateQueries(h, workload.GenConfig{PerGroup: 6, Seed: tmplSeedTPCH})...)
	qs = append(qs, workload.GenerateQueries(ds, workload.GenConfig{PerGroup: 6, Seed: tmplSeedTPCDS})...)
	roots := make([]*plan.Node, len(qs))
	for i, q := range qs {
		if err := exec.AnnotateTrueCards(q.Root); err != nil {
			return nil, fmt.Errorf("annotating %s: %w", q.Name, err)
		}
		roots[i] = q.Root
	}
	return roots, nil
}

// cardVariant rescales the true output cardinalities of one plan in place,
// which changes the plan's cache key (wire.PlanKey hashes every cardinality)
// and its features, but not its structure.
type cardVariant struct {
	nodes []*plan.Node
	orig  []float64
}

func newCardVariant(root *plan.Node) *cardVariant {
	v := &cardVariant{}
	root.Walk(func(n *plan.Node) {
		v.nodes = append(v.nodes, n)
		v.orig = append(v.orig, n.OutCard.True)
	})
	return v
}

func (v *cardVariant) scale(f float64) {
	for i, n := range v.nodes {
		n.OutCard.True = v.orig[i] * f
	}
}

// frameSet is a list of request frames with distinct cache keys, and for
// each the answer the server must give.
type frameSet struct {
	frames [][]byte
	keys   []wire.Key
	want   []int64 // predicted ns, filled by the caller's reference model
}

// buildFrames derives n request frames with n distinct cache keys from the
// plans: it goes round the plans, each time scaling a plan's cardinalities by
// a seeded factor, and keeps the frame when its key is new (a plan whose
// cardinalities are all zero has one key however it is scaled). answer is
// called on each kept plan while it is perturbed; it computes the reference.
func buildFrames(plans []*plan.Node, n int, seed int64, answer func(*plan.Node) int64) (*frameSet, error) {
	rng := rand.New(rand.NewSource(seed))
	variants := make([]*cardVariant, len(plans))
	for i, p := range plans {
		variants[i] = newCardVariant(p)
	}
	fs := &frameSet{}
	seen := make(map[wire.Key]bool, n)
	for i := 0; len(fs.frames) < n; i++ {
		if i >= 2*n+len(plans) {
			return nil, fmt.Errorf("%d plans yield only %d distinct cache keys, need %d", len(plans), len(fs.frames), n)
		}
		v, root := variants[i%len(plans)], plans[i%len(plans)]
		v.scale(0.75 + 0.5*rng.Float64())
		if key := wire.PlanKey(root, plan.TrueCards); !seen[key] {
			seen[key] = true
			fs.keys = append(fs.keys, key)
			fs.frames = append(fs.frames, wire.AppendFrame(nil, root, plan.TrueCards))
			fs.want = append(fs.want, answer(root))
		}
		v.scale(1)
	}
	return fs, nil
}

// strided picks n plans at even strides, so a small set still mixes the
// benchmark queries with generated ones of every group.
func strided(plans []*plan.Node, n int) []*plan.Node {
	out := make([]*plan.Node, n)
	for i := range out {
		out[i] = plans[i*len(plans)/n]
	}
	return out
}

// joinGraphs are the four graphs of BENCH_planner.json, with its seeds.
var joinGraphs = []struct {
	name  string
	shape string
	n     int
	seed  int64
}{
	{"chain-10", workload.ShapeChain, 10, 101},
	{"star-10", workload.ShapeStar, 10, 102},
	{"clique-8", workload.ShapeClique, 8, 103},
	{"chain-12", workload.ShapeChain, 12, 104},
}

// execGroups are the structure groups engine_exec draws templates from: all
// but the unfiltered joins (J, JA) and the bare window (W). Over the largest
// table those three take 10 to 1000 times the median query — one of them
// would fill most of a window, and op_p90_us would sit between two templates.
var execGroups = map[workload.Group]bool{
	workload.GroupSe: true, workload.GroupCSe: true, workload.GroupA: true, workload.GroupSiA: true,
	workload.GroupSeA: true, workload.GroupSeSiA: true, workload.GroupSeJ: true, workload.GroupCSeJ: true,
	workload.GroupSeJA: true, workload.GroupSeJSiA: true, workload.GroupCSeJA: true,
	workload.GroupSeJW: true, workload.GroupSeJASo: true,
}

// execScale sizes the engine_exec instance: 180k lineitem rows, 44 morsels.
const execScale = 0.3

// execQueries generates the engine_exec queries over an instance: the
// generated templates of execGroups that scan the largest table, so that
// every op is milliseconds of work and its big pipelines split into morsels.
func execQueries(in *workload.Instance) []*workload.Query {
	big := in.Table("lineitem").NumRows()
	var qs []*workload.Query
	for _, q := range workload.GenerateQueries(in, workload.GenConfig{PerGroup: 24, Seed: tmplSeedExec}) {
		if !execGroups[q.Group] {
			continue
		}
		scanned := 0
		q.Root.Walk(func(n *plan.Node) {
			if n.Op == plan.TableScanOp {
				scanned = max(scanned, n.Table.NumRows())
			}
		})
		if scanned == big {
			qs = append(qs, q)
		}
	}
	return qs
}

// shuffled returns a seeded permutation of 0..n-1: the order ops are issued
// in.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
