package registry

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"t3/internal/gbdt"
	"t3/internal/treec"
)

var update = flag.Bool("update", false, "rewrite the golden artifact")

// handModel builds a small fixed ensemble by hand — no training, so its
// bytes are stable across grower changes and usable in golden files.
func handModel() *gbdt.Model {
	return &gbdt.Model{
		BaseScore:   1.25,
		NumFeatures: 4,
		Trees: []gbdt.Tree{
			{
				Nodes: []gbdt.Node{
					{Feature: 0, Threshold: 2.5, Left: 1, Right: ^int32(2)},
					{Feature: 2, Threshold: -0.75, Left: ^int32(0), Right: ^int32(1)},
				},
				Leaves: []float64{-0.5, 0.125, 0.875},
			},
			{
				Nodes: []gbdt.Node{
					{Feature: 3, Threshold: 10, Left: ^int32(0), Right: ^int32(1)},
				},
				Leaves: []float64{0.0625, -0.25},
			},
			{Leaves: []float64{0.03125}}, // constant tree folds into Base
		},
		// Pinned literal params: the golden must not move when training
		// defaults do.
		Params: gbdt.Params{
			NumRounds: 3, NumLeaves: 4, LearningRate: 0.1, MinDataInLeaf: 1,
			Lambda: 1, MaxBins: 16, Objective: gbdt.ObjectiveL2,
			FeatureFraction: 1, BaggingFraction: 1, Seed: 1,
		},
		BestIteration: 3,
	}
}

// trainedModel trains a small real ensemble for round-trip tests that
// should exercise realistic tree shapes.
func trainedModel(t *testing.T) *gbdt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	const n, f = 500, 8
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		v := make([]float64, f)
		for j := range v {
			v[j] = rng.Float64() * 8
		}
		xs[i] = v
		ys[i] = v[1] - 0.5*v[4] + v[6]*v[6]*0.1
	}
	p := gbdt.DefaultParams()
	p.NumRounds = 15
	p.Seed = 2
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openTemp(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPutLoadRoundTrip(t *testing.T) {
	r := openTemp(t)
	gbm := trainedModel(t)
	ver, err := r.Put(&Artifact{
		Meta: Meta{
			CreatedUnixNs:      12345,
			Source:             "test",
			TrainLabels:        300,
			HoldoutLabels:      100,
			HoldoutFingerprint: 0xDEADBEEF12345678,
		},
		GBM: gbm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("first Put assigned version %d, want 1", ver)
	}

	a, err := r.Load(ver)
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Version != 1 || a.Meta.Source != "test" || a.Meta.HoldoutFingerprint != 0xDEADBEEF12345678 {
		t.Fatalf("meta mismatch: %+v", a.Meta)
	}
	if a.Meta.Trees != len(gbm.Trees) || a.Meta.NumFeatures != gbm.NumFeatures {
		t.Fatalf("shape meta mismatch: %+v", a.Meta)
	}

	// The stored ensemble must serve bit-identical predictions to the
	// in-memory one, interpreted and compiled.
	packed, loaded := treec.Pack(gbm), treec.Pack(a.GBM)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		v := make([]float64, gbm.NumFeatures)
		for j := range v {
			v[j] = rng.Float64() * 8
		}
		if got, want := a.GBM.Predict(v), gbm.Predict(v); got != want {
			t.Fatalf("loaded gbm predicts %v, want %v", got, want)
		}
		if got, want := loaded.Predict(v), packed.Predict(v); got != want {
			t.Fatalf("loaded ensemble compiles to predict %v, want %v", got, want)
		}
	}
}

func TestArtifactByteIdentity(t *testing.T) {
	// Encode(Decode(Encode(a))) must reproduce the file bytes exactly:
	// rollback is advertised as bit-identical restoration.
	a := &Artifact{Meta: Meta{FormatVersion: FormatVersion, Version: 1, CreatedUnixNs: 99, Source: "test"}, GBM: handModel()}
	a.Meta.Trees = len(a.GBM.Trees)
	a.Meta.NumFeatures = a.GBM.NumFeatures
	enc1, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("artifact does not round-trip byte-identically")
	}
}

func TestVersionsListLatestGC(t *testing.T) {
	r := openTemp(t)
	gbm := handModel()
	for i := 0; i < 5; i++ {
		ver, err := r.Put(&Artifact{Meta: Meta{CreatedUnixNs: int64(i), Source: "test"}, GBM: gbm})
		if err != nil {
			t.Fatal(err)
		}
		if ver != i+1 {
			t.Fatalf("Put %d assigned version %d", i, ver)
		}
	}
	metas, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 5 {
		t.Fatalf("List returned %d metas, want 5", len(metas))
	}
	for i, m := range metas {
		if m.Version != i+1 {
			t.Fatalf("List[%d].Version = %d, want ascending", i, m.Version)
		}
	}
	v, ok, err := r.Latest()
	if err != nil || !ok || v != 5 {
		t.Fatalf("Latest = (%d,%v,%v), want (5,true,nil)", v, ok, err)
	}

	removed, err := r.GC(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("GC removed %d, want 3", removed)
	}
	if _, err := r.Load(1); err == nil {
		t.Fatal("version 1 still loadable after GC")
	}
	if _, err := r.Load(4); err != nil {
		t.Fatalf("version 4 gone after GC(2): %v", err)
	}
	// Version numbering keeps ascending after GC.
	ver, err := r.Put(&Artifact{Meta: Meta{Source: "test"}, GBM: gbm})
	if err != nil || ver != 6 {
		t.Fatalf("post-GC Put = (%d,%v), want (6,nil)", ver, err)
	}
	// GC(0) never empties the registry.
	if n, err := r.GC(0); err != nil || n != 0 {
		t.Fatalf("GC(0) = (%d,%v), want no-op", n, err)
	}
}

// TestGCSparesNamedVersions pins that GC never deletes a version it is told
// to spare, however old: the controller passes its live and previous
// versions, and a rollback target older than the newest keep must survive.
func TestGCSparesNamedVersions(t *testing.T) {
	r := openTemp(t)
	for i := 0; i < 6; i++ {
		if _, err := r.Put(&Artifact{Meta: Meta{Source: "test"}, GBM: handModel()}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := r.GC(2, 1, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("GC removed %d, want 3 (versions 2-4)", removed)
	}
	metas, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	for _, m := range metas {
		kept = append(kept, m.Version)
	}
	if !slices.Equal(kept, []int{1, 5, 6}) {
		t.Fatalf("GC(2, spare 1 6 9) kept versions %v, want [1 5 6]", kept)
	}
}

// TestPutParentLatest: puts asking for ParentLatest, four writers at once,
// chain every version to the one before it, and the first to none.
func TestPutParentLatest(t *testing.T) {
	r := openTemp(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := r.Put(&Artifact{Meta: Meta{Source: "test", ParentVersion: ParentLatest}, GBM: handModel()}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	metas, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 12 {
		t.Fatalf("%d versions, want 12", len(metas))
	}
	for _, m := range metas {
		if m.ParentVersion != m.Version-1 {
			t.Fatalf("version %d records parent %d, want %d", m.Version, m.ParentVersion, m.Version-1)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	r := openTemp(t)
	ver, err := r.Put(&Artifact{Meta: Meta{Source: "test"}, GBM: handModel()})
	if err != nil {
		t.Fatal(err)
	}
	path := r.Path(ver)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	before := CorruptRejects.Value()

	// Single flipped byte in the middle: checksum rejection.
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(ver); err == nil {
		t.Fatal("corrupt artifact loaded without error")
	}

	// Truncation: also rejected.
	if err := os.WriteFile(path, orig[:len(orig)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(ver); err == nil {
		t.Fatal("truncated artifact loaded without error")
	}

	// Empty file.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(ver); err == nil {
		t.Fatal("empty artifact loaded without error")
	}

	if got := CorruptRejects.Value() - before; got != 3 {
		t.Fatalf("t3_registry_corrupt_total advanced by %d, want 3", got)
	}

	// Restoring the original bytes restores loadability — corruption
	// detection has no side effects on the artifact itself.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(ver); err != nil {
		t.Fatalf("restored artifact fails to load: %v", err)
	}
}

func TestListSkipsCorruptEntries(t *testing.T) {
	r := openTemp(t)
	gbm := handModel()
	for i := 0; i < 3; i++ {
		if _, err := r.Put(&Artifact{Meta: Meta{Source: "test"}, GBM: gbm}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(r.Path(2), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	metas, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Version != 1 || metas[1].Version != 3 {
		t.Fatalf("List over corrupt registry = %+v, want versions 1 and 3", metas)
	}
}

// TestArtifactGoldenRoundTrip pins the artifact byte format: the checked-in
// golden file must decode, and re-encoding the canonical artifact must
// reproduce it byte for byte. Gated on FormatVersion — bumping the format
// requires regenerating the golden with -update and reviewing the diff.
func TestArtifactGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "artifact_v2.t3m")
	a := &Artifact{
		Meta: Meta{
			FormatVersion:      FormatVersion,
			Version:            1,
			CreatedUnixNs:      1700000000000000000,
			Source:             "golden",
			TrainLabels:        12,
			HoldoutLabels:      4,
			HoldoutFingerprint: 0x0123456789ABCDEF,
			ParentVersion:      0,
			Note:               "format-v2 golden artifact",
		},
		GBM: handModel(),
	}
	a.Meta.Trees = len(a.GBM.Trees)
	a.Meta.NumFeatures = a.GBM.NumFeatures
	enc, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(enc))
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update after a deliberate format change): %v", err)
	}
	dec, err := Decode(want)
	if err != nil {
		t.Fatalf("golden artifact does not decode: %v", err)
	}
	if dec.Meta.FormatVersion != FormatVersion {
		t.Fatalf("golden has format version %d but code is at %d — regenerate with -update and review",
			dec.Meta.FormatVersion, FormatVersion)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding drifted from golden (%d vs %d bytes): the artifact format changed without a FormatVersion bump",
			len(enc), len(want))
	}
}

// TestV1ArtifactRefused: a file of the previous format (which carried a third,
// packed-blob section) is refused as a format-version skew — not read, and not
// misreported as a malformed section — and Load counts it as a reject.
func TestV1ArtifactRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "artifact_v1.t3m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v1); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Decode(v1 artifact) = %v, want a format-version error", err)
	}
	r := openTemp(t)
	if err := os.WriteFile(r.Path(1), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	before := CorruptRejects.Value()
	if _, err := r.Load(1); err == nil {
		t.Fatal("v1 artifact loaded")
	}
	if got := CorruptRejects.Value() - before; got != 1 {
		t.Fatalf("t3_registry_corrupt_total advanced by %d, want 1", got)
	}
}

// sharedChildModel is one tree of n nodes in which both children of every
// node are the next node: forward, in range, n+1 leaves — and 2ⁿ−1 nodes once
// a compiler follows both edges.
func sharedChildModel(n int) *gbdt.Model {
	tree := gbdt.Tree{Nodes: make([]gbdt.Node, n), Leaves: make([]float64, n+1)}
	for i := range tree.Nodes {
		tree.Nodes[i] = gbdt.Node{Left: int32(i + 1), Right: int32(i + 1)}
	}
	tree.Nodes[n-1] = gbdt.Node{Left: ^int32(0), Right: ^int32(1)}
	return &gbdt.Model{NumFeatures: 1, Trees: []gbdt.Tree{tree}}
}

// TestSharedChildModelRefused: a 600-byte model file must not be able to make
// the server compile 2⁴⁰ nodes. Both doors a model file comes in through
// refuse it. Validate is checked first and fatally: where it passes, compiling
// this model would take the machine down.
func TestSharedChildModelRefused(t *testing.T) {
	m := sharedChildModel(40)
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepts a node with two parents")
	}
	path := filepath.Join(t.TempDir(), "shared.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := gbdt.Load(path); err == nil {
		t.Fatal("gbdt.Load accepts a node with two parents")
	}
	enc, err := Encode(&Artifact{Meta: Meta{FormatVersion: FormatVersion, Version: 1}, GBM: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), "invalid model") {
		t.Fatalf("Decode(shared-child artifact) = %v, want an invalid-model error", err)
	}
}

// TestInexactThresholdRefused: a threshold between two float32s is outside
// input, since the trainer stores only float32 values. Both doors a model file
// comes in through refuse it, naming the tree and node, and Load counts it as
// a reject — the compiled model is not left to round it.
func TestInexactThresholdRefused(t *testing.T) {
	m := handModel()
	m.Trees[0].Nodes[1].Threshold = 0.1
	const want = "tree 0 node 1: threshold 0.1 is not a float32"
	path := filepath.Join(t.TempDir(), "inexact.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := gbdt.Load(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("gbdt.Load = %v, want an error containing %q", err, want)
	}
	enc, err := Encode(&Artifact{Meta: Meta{FormatVersion: FormatVersion, Version: 1}, GBM: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Decode = %v, want an error containing %q", err, want)
	}
	r := openTemp(t)
	if err := os.WriteFile(r.Path(1), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	before := CorruptRejects.Value()
	if _, err := r.Load(1); err == nil {
		t.Fatal("artifact with threshold 0.1 loaded")
	}
	if got := CorruptRejects.Value() - before; got != 1 {
		t.Fatalf("t3_registry_corrupt_total advanced by %d, want 1", got)
	}
}
