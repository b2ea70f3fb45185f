package wire

import (
	"math"
	"testing"

	"t3/internal/engine/exec"
	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/workload"
)

// benchPlans returns annotated multi-pipeline plans covering joins,
// filters, group-bys, sorts, and windows.
func benchPlans(t *testing.T) []*plan.Node {
	t.Helper()
	in := workload.MustGenerate(workload.TPCHSpec("tpch_wire", 0.01, 3))
	qs := workload.TPCHBenchmarkQueries(in)
	roots := make([]*plan.Node, 0, len(qs))
	for _, q := range qs {
		if err := exec.AnnotateTrueCards(q.Root); err != nil {
			t.Fatal(err)
		}
		roots = append(roots, q.Root)
	}
	return roots
}

func TestFrameRoundtripPreservesFeatureVectors(t *testing.T) {
	reg := feature.NewDefaultRegistry()
	var dec Decoder
	for qi, root := range benchPlans(t) {
		for _, mode := range []plan.CardMode{plan.TrueCards, plan.EstCards} {
			frame := AppendFrame(nil, root, mode)
			gotMode, n, err := ParseHeader(frame)
			if err != nil {
				t.Fatalf("q%d: %v", qi, err)
			}
			if gotMode != mode {
				t.Fatalf("q%d: mode %d -> %d", qi, mode, gotMode)
			}
			if n != len(frame)-HeaderSize {
				t.Fatalf("q%d: header says %d payload bytes, frame has %d", qi, n, len(frame)-HeaderSize)
			}
			back, err := dec.Decode(frame[HeaderSize:])
			if err != nil {
				t.Fatalf("q%d: decode: %v", qi, err)
			}
			origVecs, origPs := reg.PlanVectors(root, mode)
			backVecs, backPs := reg.PlanVectors(back, mode)
			if len(origVecs) != len(backVecs) {
				t.Fatalf("q%d: pipeline count %d -> %d", qi, len(origVecs), len(backVecs))
			}
			for p := range origVecs {
				if feature.SourceCard(origPs[p], mode) != feature.SourceCard(backPs[p], mode) {
					t.Fatalf("q%d pipeline %d: source card changed", qi, p)
				}
				for f := range origVecs[p] {
					if origVecs[p][f] != backVecs[p][f] {
						t.Fatalf("q%d pipeline %d feature %d: %v -> %v",
							qi, p, f, origVecs[p][f], backVecs[p][f])
					}
				}
			}
		}
	}
}

func TestWireSmallerThanJSON(t *testing.T) {
	for qi, root := range benchPlans(t) {
		bin := AppendPlan(nil, root)
		nodes := root.Count()
		if len(bin) > nodes*64 {
			t.Errorf("q%d: %d nodes encode to %d bytes (> 64 B/node)", qi, nodes, len(bin))
		}
	}
}

func TestDecoderReuseIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	root := benchPlans(t)[2]
	payload := AppendPlan(nil, root)
	var dec Decoder
	for i := 0; i < 4; i++ { // warm the arena
		if _, err := dec.Decode(payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Decode allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestPlanKeyContract(t *testing.T) {
	roots := benchPlans(t)
	a, b := roots[0], roots[1]

	ka := PlanKey(a, plan.TrueCards)
	if ka != PlanKey(a, plan.TrueCards) {
		t.Fatal("PlanKey is not deterministic")
	}

	// Different structure: Struct differs.
	kb := PlanKey(b, plan.TrueCards)
	if ka.Struct == kb.Struct {
		t.Fatal("different plans share a structural fingerprint")
	}

	// Same structure, different cardinality annotation: Struct equal,
	// Cards differ.
	var dec Decoder
	clone, err := dec.Decode(AppendPlan(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	kc := PlanKey(clone, plan.TrueCards)
	if kc != ka {
		t.Fatalf("decoded clone keys differently: %+v vs %+v", kc, ka)
	}
	clone.OutCard.True *= 2
	kd := PlanKey(clone, plan.TrueCards)
	if kd.Struct != ka.Struct {
		t.Fatal("cardinality change altered the structural fingerprint")
	}
	if kd.Cards == ka.Cards {
		t.Fatal("cardinality change did not alter the annotation hash")
	}

	// Same plan under the other card mode: Cards differ (mode is folded in).
	ke := PlanKey(a, plan.EstCards)
	if ke.Cards == ka.Cards {
		t.Fatal("card mode is not part of the annotation hash")
	}
	if ke.Struct != ka.Struct {
		t.Fatal("card mode altered the structural fingerprint")
	}
}

func TestPlanKeyIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	root := benchPlans(t)[2]
	allocs := testing.AllocsPerRun(100, func() { PlanKey(root, plan.TrueCards) })
	if allocs != 0 {
		t.Fatalf("PlanKey allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestResponseRoundtrip(t *testing.T) {
	resp := AppendResponse(nil, 123456789)
	ns, err := ParseResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ns != 123456789 {
		t.Fatalf("predicted ns %d, want 123456789", ns)
	}

	eresp := AppendErrorResponse(nil, StatusBadRequest, "boom")
	if _, err := ParseResponse(eresp); err == nil {
		t.Fatal("error response parsed as success")
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	root := benchPlans(t)[0]
	payload := AppendPlan(nil, root)
	var dec Decoder
	cases := map[string][]byte{
		"empty":     {},
		"truncated": payload[:len(payload)/2],
		"trailing":  append(append([]byte{}, payload...), 0xAB),
		"bad op":    {0xEE, 0},
		// A scan (one int64 column) under a scan: a leaf with an input.
		"scan with input": append(leafScan(flagLeft), leafScan(0)...),
	}
	if _, err := dec.Decode(leafScan(0)); err != nil {
		t.Errorf("a bare scan: %v", err)
	}
	for name, data := range cases {
		if _, err := dec.Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, _, err := ParseHeader([]byte("XXXXXXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	big := make([]byte, HeaderSize)
	PutHeader(big, plan.TrueCards, MaxPayload+1)
	if _, _, err := ParseHeader(big); err == nil {
		t.Error("oversized payload length accepted")
	}
}

// leafScan encodes a table scan of one int64 column with zero cardinalities
// and no predicates, with extra flag bits set.
func leafScan(flags byte) []byte {
	return append([]byte{byte(plan.TableScanOp), flagCols | flags, 1, 0}, make([]byte, 8+8+8+1)...)
}

func TestHeaderModeValidation(t *testing.T) {
	h := make([]byte, HeaderSize)
	PutHeader(h, plan.EstCards, 0)
	mode, _, err := ParseHeader(h)
	if err != nil || mode != plan.EstCards {
		t.Fatalf("mode = %v, err = %v", mode, err)
	}
	h[3] = 7
	if _, _, err := ParseHeader(h); err == nil {
		t.Error("bad card mode accepted")
	}
	if math.Float64bits(0) != 0 { // paranoia anchor for the fixed-width float encoding
		t.Fatal("float64 encoding assumption broken")
	}
}

// TestDecodeIsTheSameWarmAndCold: an explicit but empty column list must not
// decode as "inherit the child's columns" in a decoder that has never seen a
// column and as "no columns" in one that has.
func TestDecodeIsTheSameWarmAndCold(t *testing.T) {
	f64 := make([]byte, 8)
	filter := append(append([]byte{byte(plan.FilterOp), flagLeft | flagCols, 0}, append(f64, f64...)...), leafScan(0)...)

	var cold, warm Decoder
	if _, err := warm.Decode(AppendPlan(nil, benchPlans(t)[0])); err != nil {
		t.Fatal(err)
	}
	a, err := cold.Decode(filter)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.Decode(filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Schema) != 0 || len(b.Schema) != 0 {
		t.Fatalf("explicit empty column list decoded to %d columns cold, %d warm; want 0 and 0", len(a.Schema), len(b.Schema))
	}
	if PlanKey(a, plan.TrueCards) != PlanKey(b, plan.TrueCards) {
		t.Fatal("the same payload keys differently in a cold and a warm decoder")
	}
}

// TestDecodeNextKeepsEarlierPlans: the plans of a batch share one arena;
// decoding the next one, or failing to, must leave the earlier ones as they
// were, and a warm arena must take a whole batch without allocating.
func TestDecodeNextKeepsEarlierPlans(t *testing.T) {
	roots := benchPlans(t)
	var payloads [][]byte
	for _, root := range roots {
		payloads = append(payloads, AppendPlan(nil, root))
	}
	var dec Decoder
	decodeAll := func() []*plan.Node {
		dec.Reset()
		got := make([]*plan.Node, 0, len(payloads))
		for i, p := range payloads {
			if _, err := dec.DecodeNext(p[:len(p)/2]); err == nil {
				t.Fatalf("q%d: half a payload decoded", i)
			}
			n, err := dec.DecodeNext(p)
			if err != nil {
				t.Fatalf("q%d: %v", i, err)
			}
			got = append(got, n)
		}
		return got
	}
	for pass := range 2 { // cold, then over the reused arena
		for i, n := range decodeAll() {
			if PlanKey(n, plan.TrueCards) != PlanKey(roots[i], plan.TrueCards) {
				t.Fatalf("pass %d: plan %d of the batch no longer keys like its original", pass, i)
			}
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dec.Reset()
		for _, p := range payloads {
			if _, err := dec.DecodeNext(p); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("a warm arena allocates %.1f times per %d-plan batch, want 0", allocs, len(payloads))
	}
}
