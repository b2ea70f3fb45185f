package main

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/predcache"
	"t3/internal/serve"
	"t3/internal/workload"
)

// testPlans caches the plan population of seed 1 across tests.
var testPlans = func() func(t *testing.T) []*plan.Node {
	var plans []*plan.Node
	return func(t *testing.T) []*plan.Node {
		t.Helper()
		if plans == nil {
			var err error
			if plans, err = buildPlans(1); err != nil {
				t.Fatal(err)
			}
		}
		return plans
	}
}()

func noAnswer(*plan.Node) int64 { return 0 }

func TestPlansAndFramesFollowTheSeed(t *testing.T) {
	a := testPlans(t)
	b, err := buildPlans(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) < minPredictPlans || len(a) != len(b) {
		t.Fatalf("%d and %d plans, want the same count of at least %d", len(a), len(b), minPredictPlans)
	}
	fa, err := buildFrames(a, 512, 1, noAnswer)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := buildFrames(b, 512, 1, noAnswer)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(fa.frames, fb.frames, bytes.Equal) {
		t.Error("the same seed gave different frames")
	}
	other, err := buildPlans(2)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := buildFrames(other, 512, 2, noAnswer)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(a) {
		t.Errorf("seed 2 gave %d plans, seed 1 %d: the templates must not depend on the seed", len(other), len(a))
	}
	if slices.EqualFunc(fa.frames, fo.frames, bytes.Equal) {
		t.Error("another seed gave the same frames")
	}
	// Perturbing leaves the plans as they were.
	fc, err := buildFrames(a, 512, 1, noAnswer)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(fa.frames, fc.frames, bytes.Equal) {
		t.Error("building frames changed the plans it was given")
	}
}

func TestExecQueriesAndJoinGraphsFollowTheSeed(t *testing.T) {
	queries := func(seed int64) []string {
		in, err := workload.Generate(workload.TPCHSpec("tpch_exec", execScale/100, seed))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, q := range execQueries(in) {
			out = append(out, q.Name+"\n"+q.Root.Explain())
		}
		return out
	}
	a, b, c := queries(1), queries(1), queries(2)
	if len(a) < minExecQueries {
		t.Errorf("%d engine_exec queries, want at least %d", len(a), minExecQueries)
	}
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different engine_exec queries")
	}
	if slices.Equal(a, c) || len(a) != len(c) {
		t.Errorf("seeds 1 and 2: %d and %d queries, equal=%v; want the same templates over different data", len(a), len(c), slices.Equal(a, c))
	}

	spec := func() string {
		var out string
		for _, g := range joinGraphs {
			_, sp := workload.SyntheticJoinBench(g.shape, g.n, 4000, g.seed)
			out += sp.Name + fmt.Sprint(sp.Edges)
			for _, r := range sp.Rels {
				out += fmt.Sprint(r.Table, r.ScanCols, r.Preds)
			}
		}
		return out
	}
	if spec() != spec() {
		t.Error("the join graphs differ between two builds")
	}
	if !slices.Equal(shuffled(64, 5), shuffled(64, 5)) || slices.Equal(shuffled(64, 5), shuffled(64, 6)) {
		t.Error("the op order must follow the seed")
	}
}

// replayKeys sends the key stream the callers of a serve workload produce,
// interleaved op by op, through a cache of the server's size and returns the
// hit share after one warm-up cycle.
func replayKeys(t *testing.T, kind serveKind, callers int) float64 {
	t.Helper()
	fs, err := buildFrames(testPlans(t), kind.keys, 1, noAnswer)
	if err != nil {
		t.Fatal(err)
	}
	entries := serve.DefaultCacheEntries
	if kind.cache > 0 {
		entries = kind.cache
	}
	cache := predcache.New(entries)
	s := &serveInst{kind: kind, fs: fs, callers: make([]*serveCaller, callers)}
	steps := 2 * kind.keys / kind.batch / callers
	var hits, total int
	for i := range 2 * steps {
		for c := range callers {
			for k := range kind.batch {
				key := predcache.Key(fs.keys[s.frameIndex(c, i, k)])
				_, hit := cache.Get(key)
				if !hit {
					cache.Put(key, 1)
				}
				if i >= steps {
					total++
					if hit {
						hits++
					}
				}
			}
		}
	}
	return float64(hits) / float64(total)
}

func TestServeKeySetsHitAndMissByConstruction(t *testing.T) {
	for _, callers := range []int{1, 2, 4} {
		if share := replayKeys(t, serveHot, callers); share < 0.99 {
			t.Errorf("serve_rtt_hot with %d callers: hit share %.4f, want >= 0.99", callers, share)
		}
		if share := replayKeys(t, serveMiss, callers); share > 0.01 {
			t.Errorf("serve_batch_miss with %d callers: hit share %.4f, want <= 0.01", callers, share)
		}
	}
}
