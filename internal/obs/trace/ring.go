package trace

import "sync/atomic"

// The flight-recorder ring: the most recent N published traces, readable
// at any time without stopping writers.
//
// Each slot is a fixed array of atomic words guarded by a sequence counter
// (even = stable, odd = write in progress). Publishing claims a slot by a
// global cursor, CASes its sequence odd, stores the trace word by word,
// and releases the sequence even; a snapshot reads the sequence, copies the
// words, and re-reads the sequence, retrying on instability. Every shared
// access is an atomic operation on a fixed-size array — no locks, no
// allocation, no retained pointers — and a reader can never block a writer
// (at worst it discards a torn slot and moves on).
//
// Two writers can race for the same slot only when they publish ring-size
// claims apart while one is still mid-store; the CAS makes the late writer
// drop its trace rather than interleave words.

// traceWords is the published size of one trace in 8-byte words: 8 header
// words plus 3 per span.
const traceWords = 8 + 3*MaxSpans

// slot is one ring entry.
type slot struct {
	seq atomic.Uint64
	w   [traceWords]atomic.Uint64
}

// Ring is a fixed-capacity ring of published traces. Safe for concurrent
// publish and snapshot.
type Ring struct {
	slots []slot
	cur   atomic.Uint64 // total slot claims ever
}

// NewRing returns a ring retaining the most recent n traces (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]slot, n)}
}

// Published returns the total number of slot claims (publishes attempted).
func (r *Ring) Published() uint64 { return r.cur.Load() }

// publish copies t into the next slot.
func (r *Ring) publish(t *Trace) {
	i := r.cur.Add(1) - 1
	s := &r.slots[i%uint64(len(r.slots))]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		// Another writer lapped the ring into this slot mid-store; dropping
		// one trace beats interleaving two.
		return
	}
	storeTrace(&s.w, t)
	s.seq.Store(seq + 2)
}

// storeTrace serializes t into a slot's word array. Only the header and
// the NSpans live spans are stored; stale tail words from a previous
// occupant are ignored by loadTrace.
func storeTrace(w *[traceWords]atomic.Uint64, t *Trace) {
	w[0].Store(t.ID)
	w[1].Store(uint64(t.Kind) | uint64(t.Mode)<<8 | uint64(t.Flags)<<16 | uint64(t.NSpans)<<24)
	w[2].Store(uint64(t.StartUnixNs))
	w[3].Store(uint64(t.TotalNs))
	w[4].Store(t.Fingerprint)
	w[5].Store(uint64(t.PredictedNs))
	w[6].Store(uint64(t.ActualNs))
	w[7].Store(t.QErrorMilli)
	for i := 0; i < int(t.NSpans) && i < MaxSpans; i++ {
		sp := &t.Spans[i]
		base := 8 + 3*i
		w[base].Store(uint64(sp.Stage) | uint64(sp.Arg)<<32)
		w[base+1].Store(uint64(sp.StartNs))
		w[base+2].Store(uint64(sp.DurNs))
	}
}

// loadTrace deserializes a slot's words into t.
func loadTrace(w *[traceWords]atomic.Uint64, t *Trace) {
	t.ID = w[0].Load()
	meta := w[1].Load()
	t.Kind = Kind(meta)
	t.Mode = uint8(meta >> 8)
	t.Flags = uint8(meta >> 16)
	t.NSpans = uint8(meta >> 24)
	if t.NSpans > MaxSpans {
		t.NSpans = MaxSpans // torn read; the seq re-check will reject it
	}
	t.StartUnixNs = int64(w[2].Load())
	t.TotalNs = int64(w[3].Load())
	t.Fingerprint = w[4].Load()
	t.PredictedNs = int64(w[5].Load())
	t.ActualNs = int64(w[6].Load())
	t.QErrorMilli = w[7].Load()
	for i := 0; i < int(t.NSpans); i++ {
		base := 8 + 3*i
		sa := w[base].Load()
		t.Spans[i] = Span{
			Stage:   Stage(sa),
			Arg:     uint32(sa >> 32),
			StartNs: int64(w[base+1].Load()),
			DurNs:   int64(w[base+2].Load()),
		}
	}
}

// Snapshot appends the ring's stable traces to dst, newest first, and
// returns the extended slice. Slots being written concurrently are retried
// a few times and then skipped — a snapshot is a point-in-time sample, not
// a barrier.
func (r *Ring) Snapshot(dst []Trace) []Trace {
	cur := r.cur.Load()
	n := uint64(len(r.slots))
	count := cur
	if count > n {
		count = n
	}
	for k := uint64(0); k < count; k++ {
		s := &r.slots[(cur-1-k)%n]
		var t Trace
		for attempt := 0; attempt < 4; attempt++ {
			seq := s.seq.Load()
			if seq == 0 { // never written (publish dropped on collision)
				break
			}
			if seq&1 != 0 {
				continue // mid-write; retry
			}
			loadTrace(&s.w, &t)
			if s.seq.Load() == seq {
				dst = append(dst, t)
				break
			}
		}
	}
	return dst
}
