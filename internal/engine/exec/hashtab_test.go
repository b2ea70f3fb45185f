package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// chain collects the entry ids stored under hash h in insertion order.
func (t *hashTab) chain(h uint64) []int32 {
	var out []int32
	for e := t.lookup(h); e >= 0; e = t.next[e] {
		out = append(out, e)
	}
	return out
}

func TestHashTabBasic(t *testing.T) {
	ht := hashTab{ar: &arena{}}
	ht.reset(0)
	if got := ht.lookup(42); got != -1 {
		t.Fatalf("lookup in empty table = %d, want -1", got)
	}
	// Duplicate hashes chain in insertion order.
	for i := 0; i < 5; i++ {
		ht.insert(7)
	}
	ht.insert(9)
	if got := ht.chain(7); len(got) != 5 {
		t.Fatalf("chain(7) = %v, want 5 sequential entries", got)
	} else {
		for i, e := range got {
			if int(e) != i {
				t.Fatalf("chain(7)[%d] = %d, want %d", i, e, i)
			}
		}
	}
	if got := ht.chain(9); len(got) != 1 || got[0] != 5 {
		t.Fatalf("chain(9) = %v, want [5]", got)
	}
}

// TestHashTabVsMap is the kernel-level property test: for random hash
// streams with heavy duplication, the open-addressing table must store
// exactly the chains the previous map[uint64][]int32 representation stored.
func TestHashTabVsMap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		distinct := 1 + rng.Intn(n)
		// Deliberately undersize half the time to force growth paths.
		expected := 0
		if rng.Intn(2) == 0 {
			expected = n
		}
		ht := hashTab{ar: &arena{}}
		ht.reset(expected)
		ref := map[uint64][]int32{}
		for i := 0; i < n; i++ {
			// Low-entropy hashes cluster slots and exercise linear probing.
			h := uint64(rng.Intn(distinct)) * 64
			ht.insert(h)
			ref[h] = append(ref[h], int32(i))
		}
		if len(ref) != ht.used {
			t.Fatalf("seed %d: used = %d, want %d distinct hashes", seed, ht.used, len(ref))
		}
		for h, want := range ref {
			got := ht.chain(h)
			if len(got) != len(want) {
				t.Fatalf("seed %d: chain(%d) has %d entries, want %d", seed, h, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: chain(%d)[%d] = %d, want %d", seed, h, i, got[i], want[i])
				}
			}
		}
		// A never-inserted hash must miss.
		if got := ht.lookup(uint64(distinct)*64 + 1); got != -1 {
			t.Fatalf("seed %d: lookup of absent hash = %d", seed, got)
		}
	}
}

// TestHashTabResetReuse verifies a pooled table is fully usable after reset.
func TestHashTabResetReuse(t *testing.T) {
	ht := hashTab{ar: &arena{}}
	for round := 0; round < 3; round++ {
		ht.reset(4)
		for i := 0; i < 100; i++ {
			ht.insert(uint64(i % 10))
		}
		for h := 0; h < 10; h++ {
			if got := ht.chain(uint64(h)); len(got) != 10 {
				t.Fatalf("round %d: chain(%d) = %v, want 10 entries", round, h, got)
			}
		}
	}
}

// randKeyTable builds a table with an int64 key (heavy duplicates), a string
// key, a float64 key, and a float payload.
func randKeyTable(name string, n int, rng *rand.Rand) *storage.Table {
	keys := make([]int64, n)
	words := make([]string, n)
	fkeys := make([]float64, n)
	vals := make([]float64, n)
	dict := []string{"a", "b", "c", "dd", "ee", "fff"}
	for i := 0; i < n; i++ {
		keys[i] = int64(rng.Intn(n/3 + 1))
		words[i] = dict[rng.Intn(len(dict))]
		fkeys[i] = float64(rng.Intn(7))
		vals[i] = rng.Float64() * 100
	}
	return storage.MustNewTable(name,
		storage.Column{Name: "k", Kind: storage.Int64, Ints: keys},
		storage.Column{Name: "w", Kind: storage.String, Strs: words},
		storage.Column{Name: "f", Kind: storage.Float64, Flts: fkeys},
		storage.Column{Name: "v", Kind: storage.Float64, Flts: vals},
	)
}

// rowKey renders row i of the given columns as a composite string key.
func rowKey(cols []storage.Column, idxs []int, i int) string {
	var sb strings.Builder
	for _, ci := range idxs {
		c := &cols[ci]
		switch c.Kind {
		case storage.Int64:
			fmt.Fprintf(&sb, "i%d|", c.Ints[i])
		case storage.Float64:
			fmt.Fprintf(&sb, "f%v|", c.Flts[i])
		case storage.String:
			fmt.Fprintf(&sb, "s%s|", c.Strs[i])
		}
	}
	return sb.String()
}

// fmtRow renders one output row for comparison.
func fmtRow(m *Materialized, i int) string {
	var sb strings.Builder
	for c := range m.Cols {
		col := &m.Cols[c]
		switch col.Kind {
		case storage.Int64:
			fmt.Fprintf(&sb, "%d|", col.Ints[i])
		case storage.Float64:
			fmt.Fprintf(&sb, "%v|", col.Flts[i])
		case storage.String:
			fmt.Fprintf(&sb, "%s|", col.Strs[i])
		}
	}
	return sb.String()
}

// TestJoinKernelVsReference compares hash-join results against a map-based
// reference join over the same inputs, across key types, sizes, and batch
// sizes. The engine's output order (probe-row-major, build insertion order
// within a key) is part of the contract the reference reproduces.
func TestJoinKernelVsReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		nb := 1 + rng.Intn(800)
		np := 1 + rng.Intn(3000)
		build := randKeyTable("b", nb, rng)
		probe := randKeyTable("p", np, rng)
		keyCol := rng.Intn(3) // k, w, or f
		bs := []int{1, 7, 256, 1024, 4096}[rng.Intn(5)]

		sb := plan.NewTableScan(build, []int{0, 1, 2, 3})
		sp := plan.NewTableScan(probe, []int{0, 1, 2, 3})
		join := plan.NewHashJoin(sb, sp, []int{keyCol}, []int{keyCol}, []int{3})
		res, err := (&Executor{BatchSize: bs}).Run(plan.NewMaterialize(join), false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Map-based reference join.
		ref := map[string][]int{}
		for i := 0; i < nb; i++ {
			k := rowKey(build.Columns, []int{keyCol}, i)
			ref[k] = append(ref[k], i)
		}
		var want []string
		for i := 0; i < np; i++ {
			k := rowKey(probe.Columns, []int{keyCol}, i)
			for _, bi := range ref[k] {
				want = append(want, fmt.Sprintf("%d|%s|%v|%v|%v|",
					probe.Columns[0].Ints[i], probe.Columns[1].Strs[i],
					probe.Columns[2].Flts[i], probe.Columns[3].Flts[i],
					build.Columns[3].Flts[bi]))
			}
		}
		if res.Rows != len(want) {
			t.Fatalf("seed %d: %d rows, want %d", seed, res.Rows, len(want))
		}
		for i := range want {
			if got := fmtRow(res.Output, i); got != want[i] {
				t.Fatalf("seed %d row %d: got %q want %q", seed, i, got, want[i])
			}
		}
	}
}

// TestGroupByKernelVsReference compares hash aggregation against a map-based
// reference over the same inputs: group discovery order, sums, counts,
// averages, and string min/max must all match.
func TestGroupByKernelVsReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		n := 1 + rng.Intn(5000)
		tab := randKeyTable("t", n, rng)
		bs := []int{1, 7, 256, 1024, 4096}[rng.Intn(5)]
		groupCols := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}}[rng.Intn(5)]

		scan := plan.NewTableScan(tab, []int{0, 1, 2, 3})
		gb := plan.NewGroupBy(scan, groupCols, []plan.Agg{
			{Fn: plan.AggSum, Col: 3},
			{Fn: plan.AggCount},
			{Fn: plan.AggMin, Col: 1}, // string min
			{Fn: plan.AggMax, Col: 1}, // string max
			{Fn: plan.AggAvg, Col: 3},
			{Fn: plan.AggMin, Col: 0}, // int min
		}, []string{"s", "c", "wmn", "wmx", "av", "kmn"})
		res, err := (&Executor{BatchSize: bs}).Run(gb, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Map-based reference aggregation in first-appearance order.
		type acc struct {
			sum        float64
			cnt        int64
			wmn, wmx   string
			kmn        int64
			rows       int64
			firstOrder int
		}
		ref := map[string]*acc{}
		var order []string
		for i := 0; i < n; i++ {
			k := rowKey(tab.Columns, groupCols, i)
			a, ok := ref[k]
			if !ok {
				a = &acc{wmn: tab.Columns[1].Strs[i], wmx: tab.Columns[1].Strs[i], kmn: tab.Columns[0].Ints[i], firstOrder: len(order)}
				ref[k] = a
				order = append(order, k)
			}
			a.sum += tab.Columns[3].Flts[i]
			a.cnt++
			if w := tab.Columns[1].Strs[i]; w < a.wmn {
				a.wmn = w
			}
			if w := tab.Columns[1].Strs[i]; w > a.wmx {
				a.wmx = w
			}
			if v := tab.Columns[0].Ints[i]; v < a.kmn {
				a.kmn = v
			}
			a.rows++
		}
		if res.Rows != len(order) {
			t.Fatalf("seed %d: %d groups, want %d", seed, res.Rows, len(order))
		}
		ng := len(groupCols)
		for g, k := range order {
			a := ref[k]
			if got := res.Output.Cols[ng+1].Ints[g]; got != a.cnt {
				t.Fatalf("seed %d group %d: count %d want %d", seed, g, got, a.cnt)
			}
			if got := res.Output.Cols[ng+2].Strs[g]; got != a.wmn {
				t.Fatalf("seed %d group %d: strmin %q want %q", seed, g, got, a.wmn)
			}
			if got := res.Output.Cols[ng+3].Strs[g]; got != a.wmx {
				t.Fatalf("seed %d group %d: strmax %q want %q", seed, g, got, a.wmx)
			}
			if got := res.Output.Cols[ng+5].Ints[g]; got != a.kmn {
				t.Fatalf("seed %d group %d: intmin %d want %d", seed, g, got, a.kmn)
			}
			// Sum/avg accumulate in identical (scan) order in both paths, so
			// exact equality is expected.
			if got := res.Output.Cols[ng].Flts[g]; got != a.sum {
				t.Fatalf("seed %d group %d: sum %v want %v", seed, g, got, a.sum)
			}
			if got, want := res.Output.Cols[ng+4].Flts[g], a.sum/float64(a.rows); got != want {
				t.Fatalf("seed %d group %d: avg %v want %v", seed, g, got, want)
			}
		}
	}
}

// TestGroupByLazyStringAccumulators verifies only string MIN/MAX aggregates
// allocate per-group string accumulators.
func TestGroupByLazyStringAccumulators(t *testing.T) {
	tab := mkTable("t", 100, 31)
	in := plan.NewTableScan(tab, []int{1, 2, 3})
	n := plan.NewGroupBy(in, []int{0}, []plan.Agg{
		{Fn: plan.AggSum, Col: 1},
		{Fn: plan.AggCount},
		{Fn: plan.AggMin, Col: 2}, // string
		{Fn: plan.AggMax, Col: 1}, // float
	}, []string{"s", "c", "mn", "mx"})
	rt := &runtime{batchSize: 64, states: map[*plan.Node]any{}, counts: map[*plan.Node]*nodeCount{}, scratch: &execScratch{}}
	build := plan.Decompose(n)[0]
	if err := rt.openTerminal(build, n, nil, tab.NumRows()); err != nil {
		t.Fatal(err)
	}
	st := rt.states[n].(*groupState)
	if st.strMin[0] != nil || st.strMin[1] != nil || st.strMin[3] != nil {
		t.Fatal("non-string aggregates must not allocate string accumulators")
	}
	if st.strMin[2] == nil || st.strMax[2] == nil {
		t.Fatal("string MIN aggregate must have string accumulators")
	}
	if err := rt.feed(build, nil, 0, tab.NumRows()); err != nil {
		t.Fatal(err)
	}
	rt.finalize()
	out := rt.states[n].(*Materialized)
	if out.N == 0 {
		t.Fatal("no groups produced")
	}
	// The string column of every group must hold a real word.
	for g := 0; g < out.N; g++ {
		if out.Cols[3].Strs[g] == "" {
			t.Fatalf("group %d: empty string min", g)
		}
	}
}

// TestJoinPresizeFromAnnotations runs an annotated plan twice and checks the
// second (steady-state) run sees a table already sized for the build side.
func TestJoinPresizeFromAnnotations(t *testing.T) {
	build := mkTable("b", 3000, 32)
	probe := mkTable("p", 9000, 33)
	sb := plan.NewTableScan(build, []int{1, 2})
	sp := plan.NewTableScan(probe, []int{1, 2})
	join := plan.NewHashJoin(sb, sp, []int{0}, []int{0}, []int{1})
	root := plan.NewGroupBy(join, nil, []plan.Agg{{Fn: plan.AggCount}}, []string{"c"})
	if _, err := Run(root, true); err != nil {
		t.Fatal(err)
	}
	if sb.OutCard.True != 3000 {
		t.Fatalf("build-side annotation = %v, want 3000", sb.OutCard.True)
	}
	if got := expectedCard(sb.OutCard); got != 3000 {
		t.Fatalf("expectedCard = %d, want 3000", got)
	}
	// Presized capacity covers the annotated build rows at <= 1/2 load.
	ht := hashTab{ar: &arena{}}
	ht.reset(expectedCard(sb.OutCard))
	if len(ht.slots) < 2*3000 {
		t.Fatalf("presized capacity %d < 2x annotated rows", len(ht.slots))
	}
	before := len(ht.slots)
	for i := 0; i < 3000; i++ {
		ht.insert(mix(fnvOffset, uint64(i)))
	}
	if len(ht.slots) != before {
		t.Fatalf("presized table grew from %d to %d slots", before, len(ht.slots))
	}
	if _, err := Run(root, false); err != nil {
		t.Fatal(err)
	}
}

// TestExpectedCard covers annotation fallbacks.
func TestExpectedCard(t *testing.T) {
	cases := []struct {
		card plan.Card
		want int
	}{
		{plan.Card{}, 0},
		{plan.Card{True: 100}, 100},
		{plan.Card{Est: 50}, 50},
		{plan.Card{True: 100, Est: 50}, 100},
		{plan.Card{True: 1 << 30}, 1 << 22},
	}
	for _, c := range cases {
		if got := expectedCard(c.card); got != c.want {
			t.Errorf("expectedCard(%+v) = %d, want %d", c.card, got, c.want)
		}
	}
	if got := nextPow2(0); got != htMinCap {
		t.Errorf("nextPow2(0) = %d, want %d", got, htMinCap)
	}
	for _, n := range []int{15, 16, 17, 1000} {
		p := nextPow2(n)
		if p < n || p&(p-1) != 0 {
			t.Errorf("nextPow2(%d) = %d", n, p)
		}
	}
}

// TestExecScratchArenaReuse verifies the arena contract: checkouts within
// one run are distinct objects holding distinct arrays, begin() hands every
// array back, and a later run's checkout that fits in a returned array draws
// that array instead of allocating. Arrays belong to the arena, not to a
// checkout position: which checkout receives a returned array depends only
// on kind and size.
func TestExecScratchArenaReuse(t *testing.T) {
	s := &execScratch{}
	meta := []plan.ColMeta{{Name: "k", Kind: storage.Int64}, {Name: "w", Kind: storage.String}}
	var firstInts *int64
	var firstSlots *htSlot
	for round := 0; round < 3; round++ {
		s.begin()
		bb := s.batchMeta(meta, 64)
		ht := s.table(100)
		if len(bb.cols) != 2 || bb.cols[0].Kind != storage.Int64 || len(bb.cols[0].Ints) != 0 ||
			cap(bb.cols[0].Ints) < 64 || cap(bb.cols[1].Strs) < 64 {
			t.Fatalf("round %d: buffer not shaped clean: %+v", round, bb.cols)
		}
		if bb.cols[0].Flts != nil || bb.cols[0].Strs != nil || bb.cols[1].Ints != nil {
			t.Fatalf("round %d: a column holds an array of another kind", round)
		}
		ints, slots := unsafe.SliceData(bb.cols[0].Ints[:1]), unsafe.SliceData(ht.slots)
		if round == 0 {
			firstInts, firstSlots = ints, slots
		} else if ints != firstInts || slots != firstSlots {
			t.Fatal("a checkout that fits a returned array did not reuse it across runs")
		}
		bb.cols[0].Ints = append(bb.cols[0].Ints, 1, 2, 3)
		bb.cols[1].Strs = append(bb.cols[1].Strs, "a", "b", "c")
		b := bb.attach(3)
		if b.N != 3 || len(b.Cols) != 2 || b.Cols[0].Ints[2] != 3 {
			t.Fatalf("round %d: attach produced %+v", round, b)
		}
		if got := ht.lookup(7); got != -1 {
			t.Fatalf("round %d: reused table kept stale entries", round)
		}
		ht.insert(7)
	}
	// Releasing clears the published headers with the arrays.
	s.begin()
	if got := s.arena().freeBytes(); got == 0 {
		t.Fatal("begin returned no array to the arena")
	}
	for _, bb := range s.batches {
		if len(bb.hdr) != 0 || bb.b.Cols != nil || bb.cols[0].Ints != nil {
			t.Fatal("a released batch buffer still reaches an array")
		}
	}
	// Distinct checkouts within one run hand out distinct objects and
	// arrays, even when one array would fit both.
	if a, b := s.table(1), s.table(1); a == b || unsafe.SliceData(a.slots) == unsafe.SliceData(b.slots) {
		t.Fatal("two checkouts in one run alias the same table")
	}
	x, y := s.batchMeta(meta, 8), s.batchMeta(meta, 8)
	if x == y || unsafe.SliceData(x.cols[0].Ints[:1]) == unsafe.SliceData(y.cols[0].Ints[:1]) {
		t.Fatal("two checkouts in one run alias the same batch buffer")
	}
	if h1, h2 := s.hashBuf(4), s.hashBuf(4); &h1[0] == &h2[0] {
		t.Fatal("hashBuf checkouts alias each other")
	}
	// Selection vectors stay with their checkout position: distinct within a
	// run (a scan and the filter stages it feeds hold theirs simultaneously),
	// retained with their capacity across runs.
	small := s.selBuf(8)
	big := s.selBuf(1024)
	if len(big) != 1024 {
		t.Fatalf("selBuf(1024) has len %d", len(big))
	}
	small[0] = true
	big[0] = true
	if !small[0] || !big[0] {
		t.Fatal("selBuf checkouts alias each other")
	}
	s.begin()
	if again := s.selBuf(4); cap(again) < 8 {
		t.Fatal("selBuf shrank its retained capacity across runs")
	}
	if again := s.selBuf(16); cap(again) < 1024 {
		t.Fatal("selBuf did not reuse the second retained vector")
	}
}

// TestExpectedCardHostile covers the adversarial annotation values genplan
// produces: negative, NaN, and infinite cardinalities must never reach
// int(v) unclamped.
func TestExpectedCardHostile(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		card plan.Card
		want int
	}{
		{plan.Card{True: -5, Est: -7}, 0},
		{plan.Card{True: nan, Est: nan}, 0},
		{plan.Card{True: nan, Est: 40}, 40},
		{plan.Card{True: -1, Est: 40}, 40},
		{plan.Card{True: math.Inf(1)}, maxPresize},
		{plan.Card{True: math.Inf(-1), Est: math.Inf(-1)}, 0},
		{plan.Card{True: 1e18}, maxPresize},
	}
	for _, c := range cases {
		if got := expectedCard(c.card); got != c.want {
			t.Errorf("expectedCard(%+v) = %d, want %d", c.card, got, c.want)
		}
	}
}

// TestInputBound checks the annotation-independent presize bound.
func TestInputBound(t *testing.T) {
	small := mkTable("s", 3, 1)
	big := mkTable("b", 500, 2)
	scanS := plan.NewTableScan(small, []int{0, 1})
	scanB := plan.NewTableScan(big, []int{0, 1})

	if got := inputBound(scanS); got != 3 {
		t.Errorf("inputBound(scan 3 rows) = %d, want 3", got)
	}
	if got := inputBound(plan.NewFilter(scanS, nil)); got != 3 {
		t.Errorf("inputBound(filter) = %d, want 3", got)
	}
	if got := inputBound(plan.NewLimit(scanB, 7)); got != 7 {
		t.Errorf("inputBound(limit 7) = %d, want 7", got)
	}
	if got := inputBound(plan.NewLimit(scanS, 1000)); got != 3 {
		t.Errorf("inputBound(limit 1000 over 3) = %d, want 3", got)
	}
	if got := inputBound(plan.NewLimit(scanS, -2)); got != 0 {
		t.Errorf("inputBound(limit -2) = %d, want 0", got)
	}
	join := plan.NewHashJoin(scanS, scanB, []int{0}, []int{0}, []int{1})
	if got := inputBound(join); got != 1500 {
		t.Errorf("inputBound(join 3x500) = %d, want 1500", got)
	}
	// Unbound scans (deserialized plans) must fall back to the cap, not 0.
	if got := inputBound(&plan.Node{Op: plan.TableScanOp}); got != maxPresize {
		t.Errorf("inputBound(unbound scan) = %d, want maxPresize", got)
	}
	// Nested join products saturate at the cap instead of overflowing.
	deep := join
	for i := 0; i < 12; i++ {
		deep = plan.NewHashJoin(deep, scanB, []int{0}, []int{0}, nil)
	}
	if got := inputBound(deep); got != maxPresize {
		t.Errorf("inputBound(deep join chain) = %d, want maxPresize", got)
	}
}

// TestPresizeClampedByInput is the regression test for hostile cardinality
// annotations: a 3-row build annotated with 1e18 (or NaN) rows must presize
// from the input bound, not the annotation, and the plan must still execute
// correctly.
func TestPresizeClampedByInput(t *testing.T) {
	build := mkTable("b", 3, 11)
	probe := mkTable("p", 40, 12)
	sb := plan.NewTableScan(build, []int{0, 1})
	sp := plan.NewTableScan(probe, []int{0, 1})
	join := plan.NewHashJoin(sb, sp, []int{0}, []int{0}, []int{1})

	for _, hostile := range []float64{1e18, math.Inf(1), math.NaN(), -42} {
		sb.OutCard = plan.Card{True: hostile, Est: hostile}
		got := presize(sb.OutCard, sb)
		if got > 3 {
			t.Fatalf("presize with annotation %v = %d, want <= 3 (input rows)", hostile, got)
		}
		ht := hashTab{ar: &arena{}}
		ht.reset(got)
		if len(ht.slots) != htMinCap {
			t.Fatalf("annotation %v: presized %d slots, want minimum %d", hostile, len(ht.slots), htMinCap)
		}
		res, err := Run(join, false)
		if err != nil {
			t.Fatalf("annotation %v: %v", hostile, err)
		}
		if res.Rows == 0 {
			t.Fatalf("annotation %v: join produced no rows", hostile)
		}
	}

	// Group-by: the group count is bounded by the input rows, not by the
	// hostile output annotation.
	gb := plan.NewGroupBy(plan.NewTableScan(build, []int{0, 1}), []int{0},
		[]plan.Agg{{Fn: plan.AggCount}}, []string{"c"})
	gb.OutCard = plan.Card{True: 1e18, Est: math.NaN()}
	if got := presize(gb.OutCard, gb.Left); got > 3 {
		t.Fatalf("group-by presize = %d, want <= 3", got)
	}
	if _, err := Run(gb, false); err != nil {
		t.Fatal(err)
	}
}
