package treec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"t3/internal/gbdt"
)

// trainToy trains a small model on a nonlinear synthetic problem.
func trainToy(t *testing.T, rounds, leaves int, seed int64) *gbdt.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 100, float64(rng.Intn(7))}
		y := x[0] * 3
		if x[1] > 50 {
			y += 5
		}
		if x[2] == 2 {
			y -= 1
		}
		xs[i], ys[i] = x, y
	}
	p := gbdt.DefaultParams()
	p.NumRounds = rounds
	p.NumLeaves = leaves
	p.Objective = gbdt.ObjectiveL2
	p.Seed = seed
	m, _, err := gbdt.Train(p, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenGoEmitsExpectedShape(t *testing.T) {
	m := trainToy(t, 5, 4, 6)
	var buf bytes.Buffer
	if err := GenGo(m, "compiled", &buf); err != nil {
		t.Fatal(err)
	}
	src := buf.String()
	for _, want := range []string{
		"Code generated by t3compile",
		"package compiled",
		"func Predict(v []float64) float64",
		"func NumFeatures() int { return 3 }",
		"func tree0(v []float64) float64",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

// genGoHarness is the main package TestGenGoCompiles builds beside the
// generated packages: it rebuilds every probe vector from its bits, runs
// Predict on each and PredictBatch on all of them, and fails on any result
// whose bits differ from Packed.Predict's, or on a wrong NumFeatures or
// NumTrees. The test appends the models table.
const genGoHarness = `package main

import (
	"fmt"
	"math"
	"os"

%s)

type model struct {
	name            string
	numFeatures     func() int
	numTrees        func() int
	predict         func([]float64) float64
	predictBatch    func([][]float64) []float64
	features, trees int
	probes          [][]uint64 // each probe vector's bits
	want            []uint64   // Packed.Predict's bits on each probe
}

func main() {
	bad := 0
	for _, m := range models {
		if m.numFeatures() != m.features || m.numTrees() != m.trees {
			fmt.Printf("%%s: %%d features, %%d trees; want %%d, %%d\n", m.name, m.numFeatures(), m.numTrees(), m.features, m.trees)
			bad++
		}
		vs := make([][]float64, len(m.probes))
		for i, p := range m.probes {
			for _, b := range p {
				vs[i] = append(vs[i], math.Float64frombits(b))
			}
		}
		batch := m.predictBatch(vs)
		for i, v := range vs {
			for _, got := range []float64{m.predict(v), batch[i]} {
				if math.Float64bits(got) != m.want[i] {
					fmt.Printf("%%s probe %%d %%v: got %%v (%%#x), want %%v (%%#x)\n", m.name, i, v, got, math.Float64bits(got), math.Float64frombits(m.want[i]), m.want[i])
					bad++
				}
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}
`

// TestGenGoCompiles builds GenGo's output with the Go toolchain, runs it on
// probe vectors and compares every result bit for bit with Packed.Predict —
// the pin that the emitter and the serving tier are one function. The models:
// a trained one with constant trees spliced in before, between and after its
// multi-node trees, so the order Base folds them in is checked; and a
// one-node model whose threshold 1e39 rounds up to +Inf in float32, which
// the generated file can only spell through package math. The probes travel
// as bits, so NaN, ±Inf and -0 reach the generated code exactly (genGoProbes
// lists them).
func TestGenGoCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compile test in short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	trained := trainToy(t, 25, 16, 7)
	folded := *trained
	constant := func(x float64) gbdt.Tree { return gbdt.Tree{Leaves: []float64{x}} }
	mid := len(trained.Trees) / 2
	folded.Trees = slices.Concat([]gbdt.Tree{constant(0.1)}, trained.Trees[:mid],
		[]gbdt.Tree{constant(-0.7), constant(1e-3)}, trained.Trees[mid:], []gbdt.Tree{constant(0.3)})
	huge := &gbdt.Model{NumFeatures: 2, BaseScore: 0.5, Trees: []gbdt.Tree{
		{Nodes: []gbdt.Node{{Feature: 1, Threshold: 1e39, Left: ^0, Right: ^1}}, Leaves: []float64{1, 2}},
	}}
	if err := huge.Validate(); err != nil {
		t.Fatalf("the +Inf-threshold model is not a valid model file: %v", err)
	}

	dir := t.TempDir()
	write := func(name string, src []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", []byte("module gen\n\ngo 1.22\n"))
	var imports, table bytes.Buffer
	table.WriteString("\nvar models = []model{\n")
	rng := rand.New(rand.NewSource(8))
	for i, m := range []*gbdt.Model{&folded, huge} {
		pkg := fmt.Sprintf("m%d", i)
		var buf bytes.Buffer
		if err := GenGo(m, pkg, &buf); err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(pkg, "model.go"), buf.Bytes())
		fmt.Fprintf(&imports, "\t%q\n", "gen/"+pkg)

		packed := Pack(m)
		fmt.Fprintf(&table, "\t{%q, %[1]s.NumFeatures, %[1]s.NumTrees, %[1]s.Predict, %[1]s.PredictBatch, %d, %d,\n",
			pkg, m.NumFeatures, len(packed.Roots))
		var want []uint64
		table.WriteString("\t\t[][]uint64{\n")
		for _, v := range genGoProbes(rng, m) {
			table.WriteString("\t\t\t{")
			for j, x := range v {
				if j > 0 {
					table.WriteString(", ")
				}
				fmt.Fprintf(&table, "%#x", math.Float64bits(x))
			}
			table.WriteString("},\n")
			want = append(want, math.Float64bits(packed.Predict(v)))
		}
		table.WriteString("\t\t},\n\t\t[]uint64{")
		for j, w := range want {
			if j > 0 {
				table.WriteString(", ")
			}
			fmt.Fprintf(&table, "%#x", w)
		}
		table.WriteString("},\n\t},\n")
	}
	table.WriteString("}\n")
	write("main.go", append(fmt.Appendf(nil, genGoHarness, imports.String()), table.Bytes()...))

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GO111MODULE=on", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("generated code failed to build, or differs from Packed: %v\n%s", err, out)
	}
}

// genGoProbes returns TestGenGoCompiles' probe vectors for m: random vectors
// with one feature set to NaN, +Inf or -Inf, the all-NaN, all-+Inf and
// all--Inf vectors, and for every decision node random vectors whose split
// feature sits at the trained threshold, at its float32 round-up and at both
// float32 neighbours of the round-up.
func genGoProbes(rng *rand.Rand, m *gbdt.Model) [][]float64 {
	random := func() []float64 {
		v := make([]float64, m.NumFeatures)
		for j := range v {
			v[j] = rng.Float64()*240 - 20
		}
		return v
	}
	var vs [][]float64
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		all := make([]float64, m.NumFeatures)
		for j := range all {
			all[j] = x
			v := random()
			v[j] = x
			vs = append(vs, v)
		}
		vs = append(vs, all)
	}
	for ti := range m.Trees {
		for _, n := range m.Trees[ti].Nodes {
			up := RoundThreshold32(n.Threshold)
			for _, x := range []float64{
				n.Threshold,
				float64(up),
				float64(math.Nextafter32(up, float32(math.Inf(-1)))),
				float64(math.Nextafter32(up, float32(math.Inf(1)))),
			} {
				v := random()
				v[n.Feature] = x
				vs = append(vs, v)
			}
		}
	}
	return vs
}

func TestGofloatRoundtrip(t *testing.T) {
	prop := func(f float64) bool {
		if f != f { // NaN never appears in thresholds/leaves
			return true
		}
		s := gofloat(f)
		return s != "" && !strings.ContainsAny(s, " \t\n")
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if gofloat(3) != "3.0" {
		t.Errorf("gofloat(3) = %q", gofloat(3))
	}
}
