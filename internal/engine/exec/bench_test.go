package exec

import (
	"fmt"
	"testing"

	"t3/internal/engine/expr"
	"t3/internal/engine/plan"
	"t3/internal/engine/storage"
)

// Engine micro-benchmarks: per-operator throughput of the execution
// substrate. These are not paper experiments; they document the engine's
// performance characteristics (the non-linearities T3 must learn).

func benchTable(n int) *storage.Table {
	return mkTable("bench", n, 99)
}

func BenchmarkTableScan(b *testing.B) {
	tab := benchTable(100000)
	scan := plan.NewTableScan(tab, []int{0, 1, 2})
	gb := plan.NewGroupBy(scan, nil, []plan.Agg{{Fn: plan.AggCount}}, []string{"c"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(gb, false); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tab.NumRows() * 24))
}

func BenchmarkTableScanWithPredicates(b *testing.B) {
	tab := benchTable(100000)
	scan := plan.NewTableScan(tab, []int{0, 1, 2},
		expr.NewCmp(expr.Lt, expr.Col(1, "key", storage.Int64), expr.ConstInt(10000)),
		expr.NewBetween(expr.Col(2, "val", storage.Float64), expr.ConstFloat(10), expr.ConstFloat(90)),
	)
	gb := plan.NewGroupBy(scan, nil, []plan.Agg{{Fn: plan.AggCount}}, []string{"c"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(gb, false); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tab.NumRows() * 24))
}

// benchHashes precomputes realistic build/probe hash streams so the kernel
// sub-benchmarks compare the open-addressing table and the Go-map baseline on
// byte-identical inputs, isolating the table from expression evaluation.
func benchHashes(nBuild, nProbe, dup int) (build, probe []uint64) {
	distinct := nBuild / dup
	if distinct < 1 {
		distinct = 1
	}
	build = make([]uint64, nBuild)
	for i := range build {
		build[i] = mix(fnvOffset, uint64(i%distinct))
	}
	probe = make([]uint64, nProbe)
	for i := range probe {
		// Half the probes miss: keys drawn from twice the build key space.
		probe[i] = mix(fnvOffset, uint64((i*7919)%(2*distinct)))
	}
	return build, probe
}

// BenchmarkHashJoin has three faces: "engine" runs a full build+probe join
// plan end to end; "kernel-open" and "kernel-map" run just the join kernel —
// insert every build hash, then walk each probe hash's chain — over the
// open-addressing table and the map[uint64][]int32 it replaced, on the same
// precomputed hashes.
func BenchmarkHashJoin(b *testing.B) {
	b.Run("engine", func(b *testing.B) {
		build := benchTable(10000)
		probe := benchTable(100000)
		sb := plan.NewTableScan(build, []int{1, 2})
		sp := plan.NewTableScan(probe, []int{1, 2})
		join := plan.NewHashJoin(sb, sp, []int{0}, []int{0}, []int{1})
		gb := plan.NewGroupBy(join, nil, []plan.Agg{{Fn: plan.AggCount}}, []string{"c"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(gb, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	bh, ph := benchHashes(10000, 100000, 4)
	b.Run("kernel-open", func(b *testing.B) {
		ht := hashTab{ar: &arena{}}
		sink := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ht.reset(len(bh))
			for _, h := range bh {
				ht.insert(h)
			}
			for _, h := range ph {
				for e := ht.lookup(h); e >= 0; e = ht.next[e] {
					sink += e
				}
			}
		}
		_ = sink
	})
	b.Run("kernel-map", func(b *testing.B) {
		sink := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := make(map[uint64][]int32, len(bh))
			for j, h := range bh {
				m[h] = append(m[h], int32(j))
			}
			for _, h := range ph {
				for _, e := range m[h] {
					sink += e
				}
			}
		}
		_ = sink
	})
}

// BenchmarkGroupBy mirrors BenchmarkHashJoin for aggregation: "engine" runs a
// grouped aggregation plan, and the kernel pair measures group lookup-or-add
// — one chain probe per row, appending a fresh group on miss — against the
// map-based variant on the same hash stream.
func BenchmarkGroupBy(b *testing.B) {
	b.Run("engine", func(b *testing.B) {
		tab := benchTable(100000)
		scan := plan.NewTableScan(tab, []int{1, 2})
		gb := plan.NewGroupBy(scan, []int{0},
			[]plan.Agg{{Fn: plan.AggSum, Col: 1}, {Fn: plan.AggCount}}, []string{"s", "c"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(gb, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	rows, _ := benchHashes(100000, 0, 50) // 100k rows over 2k groups
	b.Run("kernel-open", func(b *testing.B) {
		ht := hashTab{ar: &arena{}}
		groups := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ht.reset(4096)
			groups = 0
			for _, h := range rows {
				if ht.lookup(h) < 0 {
					ht.insert(h)
					groups++
				}
			}
		}
		if groups != 2000 {
			b.Fatalf("groups = %d, want 2000", groups)
		}
	})
	b.Run("kernel-map", func(b *testing.B) {
		groups := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := make(map[uint64][]int32, 4096)
			groups = 0
			for _, h := range rows {
				if _, ok := m[h]; !ok {
					m[h] = append(m[h], int32(groups))
					groups++
				}
			}
		}
		if groups != 2000 {
			b.Fatalf("groups = %d, want 2000", groups)
		}
	})
}

func BenchmarkSort(b *testing.B) {
	tab := benchTable(100000)
	scan := plan.NewTableScan(tab, []int{1, 2})
	srt := plan.NewSort(scan, []int{1}, []bool{false})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(srt, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelPipeline measures morsel-driven intra-query parallelism on
// a single large join + group-by query at several worker counts. workers=1
// is the serial engine; higher counts split the probe pipeline into morsels
// over a shared pool. Reuse is set, as in label collection, so the loop
// measures steady-state execution, not allocation.
func BenchmarkParallelPipeline(b *testing.B) {
	build := mkTable("build", 50000, 7)
	probe := mkTable("probe", 400000, 8)
	mk := func() *plan.Node {
		sb := plan.NewTableScan(build, []int{1, 2})
		sp := plan.NewTableScan(probe, []int{1, 2})
		join := plan.NewHashJoin(sb, sp, []int{0}, []int{0}, []int{1})
		return plan.NewGroupBy(join, []int{0},
			[]plan.Agg{{Fn: plan.AggCount}, {Fn: plan.AggSum, Col: 1}}, []string{"c", "s"})
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := &Executor{Workers: workers, Reuse: true}
			root := mk()
			if _, err := e.Run(root, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(root, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(probe.NumRows())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}
