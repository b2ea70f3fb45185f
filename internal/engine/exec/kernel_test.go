package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// hashRow is the row-at-a-time hash the engine used before hashCols: the
// oracle hashCols is held to.
func hashRow(cols []storage.Column, idxs []int, i int) uint64 {
	h := fnvOffset
	for _, ci := range idxs {
		c := &cols[ci]
		switch c.Kind {
		case storage.Int64:
			h = mix(h, uint64(c.Ints[i]))
		case storage.Float64:
			h = mix(h, math.Float64bits(c.Flts[i]))
		case storage.String:
			h = hashString(h, c.Strs[i])
		}
	}
	return h
}

// TestHashColsMatchesHashRow: filling a hash vector one key column at a time
// gives every row the hash hashRow gives it, for every key kind and
// combination — including NaN payloads, both zeros, both infinities, the
// empty string, and no key columns at all — and over a prefix of the rows.
func TestHashColsMatchesHashRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 200
	ints := make([]int64, n)
	flts := make([]float64, n)
	strs := make([]string, n)
	specialF := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5}
	specialI := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	specialS := []string{"", "a", "ab", "\x00", "naïve"}
	for i := 0; i < n; i++ {
		ints[i] = rng.Int63() - rng.Int63()
		flts[i] = rng.NormFloat64() * 1e6
		strs[i] = fmt.Sprintf("w%d", rng.Intn(50))
		if i%3 == 0 {
			ints[i] = specialI[i%len(specialI)]
			flts[i] = specialF[i%len(specialF)]
			strs[i] = specialS[i%len(specialS)]
		}
	}
	cols := []storage.Column{
		{Kind: storage.Int64, Ints: ints},
		{Kind: storage.Float64, Flts: flts},
		{Kind: storage.String, Strs: strs},
	}
	for _, keys := range [][]int{nil, {0}, {1}, {2}, {0, 1, 2}, {2, 2, 0}, {1, 0}} {
		for _, rows := range []int{n, 37, 0} {
			hs := make([]uint64, rows)
			hashCols(cols, keys, hs)
			for i, h := range hs {
				if want := hashRow(cols, keys, i); h != want {
					t.Fatalf("keys %v, %d rows: row %d hashes to %x, hashRow %x", keys, rows, i, h, want)
				}
			}
		}
	}
}

// refProbeLimit replays scan → probe → LIMIT one row at a time, as the
// engine's contract describes it: the scan pushes batches of bs probe rows
// until the pipeline stops; the probe starts no probe row once it has
// stopped, emits a row's matches in build order, and pushes every bs pairs
// and the rest at the end of the batch; the LIMIT passes pairs until it holds
// limit of them and stops the pipeline then. It returns the rows the scan and
// the probe emitted and the (probe row, build row) pairs the LIMIT passed.
func refProbeLimit(build, probe []int64, limit, bs int) (scanOut, joinOut int, out [][2]int) {
	byKey := map[int64][]int{}
	for j, k := range build {
		byKey[k] = append(byKey[k], j)
	}
	stop, remaining := false, limit
	push := func(pairs [][2]int) {
		if remaining <= 0 {
			stop = true
			return
		}
		if len(pairs) > remaining {
			pairs = pairs[:remaining]
		}
		remaining -= len(pairs)
		stop = remaining <= 0
		out = append(out, pairs...)
	}
	for off := 0; off < len(probe) && !stop; off += bs {
		end := min(off+bs, len(probe))
		scanOut += end - off
		var pending [][2]int
		flush := func() {
			if len(pending) > 0 {
				joinOut += len(pending)
				push(pending)
				pending = nil
			}
		}
		for i := off; i < end && !stop; i++ {
			for _, j := range byKey[probe[i]] {
				pending = append(pending, [2]int{i, j})
				if len(pending) >= bs {
					flush()
				}
			}
		}
		flush()
	}
	return scanOut, joinOut, out
}

// TestProbeUnderLimitStopsAtSerialRow: a probe feeding a LIMIT collects its
// (probe row, build entry) pairs column-at-a-time, yet flushes at the same
// boundaries and starts no probe row after the LIMIT stops the pipeline, so
// its output and the scan, probe and limit cardinalities equal the
// row-at-a-time reference at every batch size.
func TestProbeUnderLimitStopsAtSerialRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buildKeys := make([]int64, 60)
	for i := range buildKeys {
		buildKeys[i] = int64(rng.Intn(12)) // ~5 duplicates per key
	}
	probeKeys := make([]int64, 3000)
	for i := range probeKeys {
		probeKeys[i] = int64(rng.Intn(16)) // a quarter miss
	}
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	build := storage.MustNewTable("b",
		storage.Column{Name: "k", Kind: storage.Int64, Ints: buildKeys},
		storage.Column{Name: "id", Kind: storage.Int64, Ints: seq(len(buildKeys))})
	probe := storage.MustNewTable("p",
		storage.Column{Name: "k", Kind: storage.Int64, Ints: probeKeys},
		storage.Column{Name: "id", Kind: storage.Int64, Ints: seq(len(probeKeys))})

	for _, bs := range []int{1, 7, 1024} {
		for _, limit := range []int{0, 1, 5, 37, 1500, 1 << 20} {
			sb := plan.NewTableScan(build, []int{0, 1})
			sp := plan.NewTableScan(probe, []int{0, 1})
			join := plan.NewHashJoin(sb, sp, []int{0}, []int{0}, []int{1})
			lim := plan.NewLimit(join, limit)
			res, err := (&Executor{BatchSize: bs}).Run(lim, true)
			if err != nil {
				t.Fatal(err)
			}
			scanOut, joinOut, want := refProbeLimit(buildKeys, probeKeys, limit, bs)
			if got := int(sp.OutCard.True); got != scanOut {
				t.Errorf("batch %d limit %d: probe scan emitted %d rows, reference %d", bs, limit, got, scanOut)
			}
			if got := int(join.OutCard.True); got != joinOut {
				t.Errorf("batch %d limit %d: probe emitted %d rows, reference %d", bs, limit, got, joinOut)
			}
			if got := int(lim.OutCard.True); got != len(want) {
				t.Errorf("batch %d limit %d: limit passed %d rows, reference %d", bs, limit, got, len(want))
			}
			if res.Rows != len(want) {
				t.Fatalf("batch %d limit %d: %d result rows, reference %d", bs, limit, res.Rows, len(want))
			}
			out := res.Output.Cols
			for r, p := range want {
				if out[1].Ints[r] != int64(p[0]) || out[2].Ints[r] != int64(p[1]) || out[0].Ints[r] != probeKeys[p[0]] {
					t.Fatalf("batch %d limit %d: row %d is (%d, probe %d, build %d), reference (probe %d, build %d)",
						bs, limit, r, out[0].Ints[r], out[1].Ints[r], out[2].Ints[r], p[0], p[1])
				}
			}
		}
	}
}
