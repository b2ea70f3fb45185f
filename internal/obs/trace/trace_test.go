package trace

import (
	"sync"
	"testing"
	"time"
)

func TestStageAndKindNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		n := s.String()
		if n == "" || n == "unknown" {
			t.Fatalf("stage %d has no name", s)
		}
		if seen[n] {
			t.Fatalf("duplicate stage name %q", n)
		}
		seen[n] = true
	}
	if NumStages.String() != "unknown" {
		t.Fatalf("out-of-range stage should be unknown")
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Record(StageWireDecode, time.Now(), 0) // must not panic
	r := NewRecorder(4, 16)
	r.Publish(nil)
	r.Discard(nil)
}

func TestSpanOverflowKeepsEarliest(t *testing.T) {
	r := NewRecorder(4, 1)
	tr := r.ForceBegin(KindPredict, 0)
	for i := 0; i < MaxSpans+10; i++ {
		tr.Record(StageTreeEval, tr.Start(), uint32(i))
	}
	if tr.NSpans != MaxSpans {
		t.Fatalf("NSpans = %d, want %d", tr.NSpans, MaxSpans)
	}
	if tr.Spans[0].Arg != 0 || tr.Spans[MaxSpans-1].Arg != MaxSpans-1 {
		t.Fatalf("overflow dropped the wrong spans")
	}
	r.Discard(tr)
}

func TestRingRoundtrip(t *testing.T) {
	r := NewRecorder(8, 1)
	tr := r.ForceBegin(KindServeBin, 2)
	tr.Flags = FlagCacheHit | FlagBatched
	tr.Fingerprint = 0xdeadbeefcafe
	tr.PredictedNs = 12345
	tr.ActualNs = 23456
	tr.QErrorMilli = 1900
	start := tr.StartUnixNs
	wantSpans := []Span{
		{StageWireDecode, 0, 10, 20},
		{StageCacheLookup, 0, 35, 5},
		{StageBatchEval, 32, 50, 1000},
	}
	tr.NSpans = uint8(copy(tr.Spans[:], wantSpans))
	r.Publish(tr)

	got := r.Snapshot(nil)
	if len(got) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(got))
	}
	g := got[0]
	if g.ID != 1 || g.Kind != KindServeBin || g.Mode != 2 ||
		g.Flags != FlagCacheHit|FlagBatched || g.NSpans != 3 {
		t.Fatalf("header mangled: %+v", g)
	}
	if g.StartUnixNs != start || g.TotalNs < 0 {
		t.Fatalf("timing mangled: start %d -> %d, total %d", start, g.StartUnixNs, g.TotalNs)
	}
	if g.Fingerprint != 0xdeadbeefcafe || g.PredictedNs != 12345 ||
		g.ActualNs != 23456 || g.QErrorMilli != 1900 {
		t.Fatalf("outcome mangled: %+v", g)
	}
	for i, w := range wantSpans {
		if g.Spans[i] != w {
			t.Fatalf("span %d = %+v, want %+v", i, g.Spans[i], w)
		}
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	const size = 8
	r := NewRecorder(size, 1)
	for i := 0; i < 3*size; i++ {
		tr := r.ForceBegin(KindPredict, 0)
		tr.Fingerprint = uint64(i + 1)
		r.Publish(tr)
	}
	got := r.Snapshot(nil)
	if len(got) != size {
		t.Fatalf("snapshot has %d traces, want %d", len(got), size)
	}
	// Newest first: fingerprints 24, 23, ... 17; IDs strictly descending.
	for i, g := range got {
		if want := uint64(3*size - i); g.Fingerprint != want {
			t.Fatalf("trace %d fingerprint = %d, want %d", i, g.Fingerprint, want)
		}
		if i > 0 && got[i-1].ID <= g.ID {
			t.Fatalf("IDs not descending: %d then %d", got[i-1].ID, g.ID)
		}
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(4, 16)
	admitted := 0
	for i := 0; i < 1600; i++ {
		if tr := r.Begin(KindPredict, 0); tr != nil {
			admitted++
			r.Discard(tr)
		}
	}
	if admitted != 100 {
		t.Fatalf("1-in-16 sampler admitted %d of 1600", admitted)
	}
}

func TestSnapshotReuseBuffer(t *testing.T) {
	r := NewRecorder(4, 1)
	for i := 0; i < 2; i++ {
		r.Publish(r.ForceBegin(KindRun, 0))
	}
	buf := make([]Trace, 0, 8)
	got := r.Snapshot(buf[:0])
	if len(got) != 2 || cap(got) != 8 {
		t.Fatalf("snapshot did not reuse buffer: len %d cap %d", len(got), cap(got))
	}
}

// TestConcurrentPublishSnapshot hammers the ring from publisher and reader
// goroutines; under -race this is the data-race certification of the
// atomic-word seqlock, and in any mode it checks snapshots never observe a
// torn trace (fingerprint and spans written from the same value).
func TestConcurrentPublishSnapshot(t *testing.T) {
	r := NewRecorder(16, 1)
	const writers = 4
	iters := 5000
	if testing.Short() {
		iters = 500
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				tr := r.ForceBegin(Kind(w%int(NumKinds)), uint8(w))
				v := uint64(w)<<32 | uint64(i)
				tr.Fingerprint = v
				tr.PredictedNs = int64(v)
				tr.Spans[0] = Span{Stage: StageTreeEval, Arg: uint32(i), StartNs: int64(v), DurNs: int64(v)}
				tr.NSpans = 1
				r.Publish(tr)
			}
		}(w)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var buf []Trace
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = r.Snapshot(buf[:0])
			for _, g := range buf {
				if g.PredictedNs != int64(g.Fingerprint) {
					t.Errorf("torn trace: fingerprint %x predicted %x", g.Fingerprint, g.PredictedNs)
					return
				}
				if g.NSpans != 1 || g.Spans[0].StartNs != int64(g.Fingerprint) {
					t.Errorf("torn spans: %+v", g)
					return
				}
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}

// TestRecordPublishIsAllocationFree is the tentpole guarantee: a traced
// query costs zero heap allocations once the pool is warm.
func TestRecordPublishIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRecorder(32, 16)
	// Warm the pool.
	for i := 0; i < 64; i++ {
		r.Publish(r.ForceBegin(KindPredict, 0))
	}
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := r.Begin(KindServeBin, 0) // nil 15 of 16 times
		tr.Record(StageWireDecode, start, 0)
		tr.Record(StageCacheLookup, start, 0)
		if tr != nil {
			tr.Fingerprint = 42
			tr.Flags = FlagCacheHit
		}
		r.Publish(tr)
	})
	if allocs != 0 {
		t.Fatalf("traced request path allocates %.2f allocs/op, want 0", allocs)
	}
}
