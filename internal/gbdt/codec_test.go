package gbdt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sameModel fails t at the first field in which got and want differ: floats by
// their bits, slices by nil-ness as well as content.
func sameModel(t *testing.T, what string, got, want *Model) {
	t.Helper()
	fail := func(field string, g, w any) { t.Helper(); t.Fatalf("%s: %s = %v, want %v", what, field, g, w) }
	sameFloat := func(field string, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			fail(field, g, w)
		}
	}
	sameNil := func(field string, g, w bool) {
		t.Helper()
		if g != w {
			fail(field+" is nil", g, w)
		}
	}
	sameFloat("BaseScore", got.BaseScore, want.BaseScore)
	sameNil("Trees", got.Trees == nil, want.Trees == nil)
	if len(got.Trees) != len(want.Trees) {
		fail("len(Trees)", len(got.Trees), len(want.Trees))
	}
	for ti := range got.Trees {
		g, w := &got.Trees[ti], &want.Trees[ti]
		sameNil("Nodes", g.Nodes == nil, w.Nodes == nil)
		sameNil("Leaves", g.Leaves == nil, w.Leaves == nil)
		if len(g.Nodes) != len(w.Nodes) || len(g.Leaves) != len(w.Leaves) {
			fail("tree shape", [2]int{len(g.Nodes), len(g.Leaves)}, [2]int{len(w.Nodes), len(w.Leaves)})
		}
		for ni, n := range g.Nodes {
			wn := w.Nodes[ni]
			sameFloat("Threshold", n.Threshold, wn.Threshold)
			if n.Feature != wn.Feature || n.Left != wn.Left || n.Right != wn.Right {
				fail("node", n, wn)
			}
		}
		for li := range g.Leaves {
			sameFloat("leaf", g.Leaves[li], w.Leaves[li])
		}
	}
	if got.NumFeatures != want.NumFeatures || got.BestIteration != want.BestIteration {
		fail("NumFeatures, BestIteration", [2]int{got.NumFeatures, got.BestIteration}, [2]int{want.NumFeatures, want.BestIteration})
	}
	sameNil("FeatureNames", got.FeatureNames == nil, want.FeatureNames == nil)
	if !slices.Equal(got.FeatureNames, want.FeatureNames) {
		fail("FeatureNames", got.FeatureNames, want.FeatureNames)
	}
	gp, wp := got.Params, want.Params
	sameFloat("LearningRate", gp.LearningRate, wp.LearningRate)
	sameFloat("Lambda", gp.Lambda, wp.Lambda)
	sameFloat("ValidationFraction", gp.ValidationFraction, wp.ValidationFraction)
	sameFloat("FeatureFraction", gp.FeatureFraction, wp.FeatureFraction)
	sameFloat("BaggingFraction", gp.BaggingFraction, wp.BaggingFraction)
	gp.LearningRate, gp.Lambda, gp.ValidationFraction, gp.FeatureFraction, gp.BaggingFraction = 0, 0, 0, 0, 0
	wp.LearningRate, wp.Lambda, wp.ValidationFraction, wp.FeatureFraction, wp.BaggingFraction = 0, 0, 0, 0, 0
	if gp != wp {
		fail("Params", gp, wp)
	}
}

// checkEncode holds AppendJSON to json.Marshal, bytes or error, and reads
// what it wrote back to m as encoding/json would read it: invalid UTF-8 bytes
// in a name become U+FFFD, an empty name list is omitted.
func checkEncode(t *testing.T, m *Model) {
	t.Helper()
	got, err := m.AppendJSON([]byte("prefix"))
	want, jerr := json.Marshal(m)
	if (err == nil) != (jerr == nil) || err != nil && err.Error() != jerr.Error() {
		t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, jerr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("AppendJSON returned %q with its error, want the prefix alone", got)
		}
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON wrote\n%s\njson.Marshal writes\n%s", got, want)
	}
	back, err := DecodeJSON(want)
	if err != nil {
		t.Fatalf("DecodeJSON(AppendJSON(m)): %v\n%s", err, want)
	}
	read := *m
	if len(read.FeatureNames) == 0 {
		read.FeatureNames = nil
	} else {
		read.FeatureNames = make([]string, len(m.FeatureNames))
		for i, s := range m.FeatureNames {
			read.FeatureNames[i] = string([]rune(s))
		}
	}
	read.Params.Objective = Objective([]rune(string(m.Params.Objective)))
	sameModel(t, "DecodeJSON(AppendJSON(m))", back, &read)
}

// randomModel draws a model no trainer writes: NaN, ±Inf, −0, exponent-form
// and subnormal floats, nil and empty slices, int extremes, and names that
// need every kind of escape.
func randomModel(rng *rand.Rand) *Model {
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, -1.5e-9, 1e20, 1e21, -3e22,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3}
	float := func() float64 {
		switch rng.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2, 3, 4, 5:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return floats[rng.Intn(len(floats))]
	}
	i32 := func() int32 {
		return []int32{0, -1, 1, math.MaxInt32, math.MinInt32, int32(rng.Uint32())}[rng.Intn(6)]
	}
	i64 := func() int64 {
		return []int64{0, -1, 7, math.MaxInt64, math.MinInt64, int64(rng.Uint64())}[rng.Intn(6)]
	}
	pieces := []string{"a", "Z9_", " ", "<", ">", "&", `"`, `\`, "/", "\n", "\r", "\t", "\b", "\f",
		"\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2029", "\U0001F600", "\xff", "\xed\xa0\x80", "\xe2\x82"}
	str := func() string {
		var s strings.Builder
		for range rng.Intn(5) {
			s.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return s.String()
	}
	m := &Model{BaseScore: float(), NumFeatures: int(i64()), BestIteration: int(i64())}
	if k := rng.Intn(5); k > 0 {
		m.Trees = make([]Tree, k-1)
	}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if k := rng.Intn(5); k > 0 {
			t.Nodes = make([]Node, k-1)
		}
		for ni := range t.Nodes {
			t.Nodes[ni] = Node{Feature: i32(), Threshold: float(), Left: i32(), Right: i32()}
		}
		if k := rng.Intn(5); k > 0 {
			t.Leaves = make([]float64, k-1)
		}
		for li := range t.Leaves {
			t.Leaves[li] = float()
		}
	}
	if k := rng.Intn(4); k > 0 {
		m.FeatureNames = make([]string, k-1)
	}
	for i := range m.FeatureNames {
		m.FeatureNames[i] = str()
	}
	m.Params = Params{
		NumRounds: int(i64()), NumLeaves: int(i64()), LearningRate: float(), MinDataInLeaf: int(i64()),
		Lambda: float(), MaxBins: int(i64()), Objective: Objective(str()), ValidationFraction: float(),
		EarlyStoppingRounds: int(i64()), FeatureFraction: float(), BaggingFraction: float(), Seed: i64(),
	}
	return m
}

// modelJSONSeeds are the fuzz target's seeds: the checked-in default model,
// the model section of the registry's golden artifact, a single-leaf tree, and
// a document with its keys reordered and whitespace everywhere.
func modelJSONSeeds(t testing.TB) [][]byte {
	def, err := os.ReadFile(filepath.Join("..", "..", "models", "t3_default.json"))
	if err != nil {
		t.Fatal(err)
	}
	art, err := os.ReadFile(filepath.Join("..", "registry", "testdata", "artifact_v2.t3m"))
	if err != nil {
		t.Fatal(err)
	}
	rest := art[8:] // magic, then length-prefixed meta and model sections
	rest = rest[4+binary.LittleEndian.Uint32(rest):]
	section := rest[4 : 4+binary.LittleEndian.Uint32(rest)]
	return [][]byte{
		def,
		section,
		[]byte(`{"base_score":0.5,"trees":[{"nodes":null,"leaves":[-1e-7]}],"num_features":1,"params":{"NumRounds":1,"NumLeaves":2,"LearningRate":0.1,"MinDataInLeaf":1,"Lambda":1,"MaxBins":16,"Objective":"l2","ValidationFraction":0,"EarlyStoppingRounds":0,"FeatureFraction":1,"BaggingFraction":1,"Seed":0},"best_iteration":1}`),
		[]byte(" \n{ \"best_iteration\" : 2 ,\t\"params\":{ \"Seed\":-3, \"Objective\" : \"mape\" } , \"feature_names\" : [ \"a\\u003cb\" , \"\\ud83d\\ude00\\/\" ] ,\r\n" +
			"\"num_features\":3,\"trees\":[ { \"leaves\" : [ 1E+2 , -0 , 0.5e-3 ] , \"nodes\" : [ { \"r\":-2 , \"l\":-1 , \"t\": 2.5 , \"f\":1 } ] } , { } ] , \"base_score\" : -0.0 } \n"),
	}
}

// FuzzModelJSON holds the model codec to encoding/json. Any input DecodeJSON
// reads, json.Unmarshal reads to the same model; AppendJSON writes what
// json.Marshal writes, for every model so read and for a random model the
// input seeds, bytes or error; and DecodeJSON reads that back.
func FuzzModelJSON(f *testing.F) {
	for _, s := range modelJSONSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeJSON(data); err == nil {
			var want Model
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("DecodeJSON reads what json.Unmarshal refuses: %v", err)
			}
			sameModel(t, "DecodeJSON", m, &want)
			checkEncode(t, m)
		}
		h := fnv.New64a()
		h.Write(data)
		checkEncode(t, randomModel(rand.New(rand.NewSource(int64(h.Sum64())))))
	})
}

// TestModelJSONMany is FuzzModelJSON's encoding half as a deterministic
// test: 2 000 random models, about half of which hold a NaN or ±Inf and must
// fail as json.Marshal does.
func TestModelJSONMany(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		checkEncode(t, randomModel(rng))
	}
}

// TestModelJSONSeedsDecode: every seed is one DecodeJSON reads, so the fuzz
// target starts from the decoding side of its property and not only the
// encoding side.
func TestModelJSONSeedsDecode(t *testing.T) {
	for i, s := range modelJSONSeeds(t) {
		if _, err := DecodeJSON(s); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}

// TestDecodeJSONRefuses lists what DecodeJSON refuses: integers beyond their
// field or with a fraction, trailing bytes and malformed JSON, which
// json.Unmarshal refuses too; and the looser key matching and nulls
// json.Unmarshal reads.
func TestDecodeJSONRefuses(t *testing.T) {
	for _, c := range []struct {
		doc     string
		jsonToo bool
	}{
		{`{"trees":[{"nodes":[{"f":2147483648,"t":1,"l":-1,"r":-2}],"leaves":[1,2]}]}`, true},
		{`{"trees":[{"nodes":[{"f":1.0,"t":1,"l":-1,"r":-2}],"leaves":[1,2]}]}`, true},
		{`{"trees":[{"nodes":[{"f":1e2,"t":1,"l":-1,"r":-2}],"leaves":[1,2]}]}`, true},
		{`{"num_features":9223372036854775808}`, true},
		{`{"base_score":1e400}`, true},
		{`{"base_score":01}`, true},
		{`{"base_score":1.}`, true},
		{`{"base_score":-}`, true},
		{`{"base_score":1} x`, true},
		{`{"base_score":1}{}`, true},
		{`{"base_score":1,}`, true},
		{"{\"feature_names\":[\"a\x01\"]}", true},
		{`{"feature_names":["\u12"]}`, true},
		{`{"feature_names":["\x"]}`, true},
		{`{"params":{"Objective":"mape}}`, true},
		{`{"base_score`, true},
		{`[]`, true},
		{``, true},
		{`{"BASE_SCORE":1}`, false},
		{`{"b\u0061se_score":1}`, false},
		{`{"base_score":1,"base_score":2}`, false},
		{`{"extra":1}`, false},
		{`{"params":{"Workers":2}}`, false},
		{`{"base_score":null}`, false},
		{`{"params":null}`, false},
		{`null`, false},
	} {
		if _, err := DecodeJSON([]byte(c.doc)); err == nil {
			t.Errorf("DecodeJSON(%s) succeeded", c.doc)
		}
		var m Model
		if err := json.Unmarshal([]byte(c.doc), &m); (err != nil) != c.jsonToo {
			t.Errorf("json.Unmarshal(%s) = %v, want an error: %v", c.doc, err, c.jsonToo)
		}
	}
}
