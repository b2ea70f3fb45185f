// Package trace is the per-query flight recorder and drift sensor layer on
// top of internal/obs: it answers "where did THIS query's microseconds go",
// "is accuracy drifting NOW", and "which plans do we mispredict worst" —
// the three questions process-lifetime aggregates cannot.
//
// Three cooperating pieces:
//
//   - Flight recorder (this file + ring.go): pooled fixed-capacity Trace
//     values record begin/end span pairs with numeric stage ids — no
//     strings, no maps, no allocation on the hot path — along the serving
//     path (wire decode → cache lookup → batch evaluation, or for a
//     lone miss decompose → featurize → tree eval).
//     Completed traces are published into a lock-free ring of the most
//     recent queries; sampling reuses obs.Sampler so the always-on cost of
//     an untraced query is one atomic add.
//   - Windowed drift (window.go, drift.go): a ring of epoch snapshots of
//     the online q-error histogram yields sliding percentiles by snapshot
//     subtraction (obs.HistSnapshot.Sub), so recent drift is visible even
//     when the lifetime histogram is dominated by old mass. A Detector
//     applies threshold + hysteresis and exposes t3_drift_alarm plus a
//     registered-callback hook for the future retrain controller.
//   - Misprediction exemplars (exemplar.go): the top-K worst predictions by
//     q-error, each captured as a replayable internal/wire request frame.
//
// Everything is stdlib-only and safe for concurrent use; the recording
// side never locks and never allocates in steady state.
package trace

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"t3/internal/obs"
	"t3/internal/wire"
)

// Stage identifies what one span of a trace measured. Spans carry stage
// ids, not strings: names are resolved only at export time.
type Stage uint8

// Span stages, in rough serving-path order.
const (
	// StageWireDecode is binary frame payload → plan arena decode.
	StageWireDecode Stage = iota
	// StageCacheLookup is plan fingerprinting plus the prediction-cache
	// probe.
	StageCacheLookup
	// StageBatchEval is the one model call that priced every cache miss of
	// the request's batch (Arg carries how many plans it priced).
	StageBatchEval
	// StageDecompose is plan → pipeline decomposition.
	StageDecompose
	// StageFeaturize is pipeline → feature-vector encoding.
	StageFeaturize
	// StageTreeEval is packed-ensemble evaluation plus the per-pipeline sum
	// (Arg carries the pipeline count).
	StageTreeEval
	// NumStages is the number of defined stages.
	NumStages
)

var stageNames = [NumStages]string{
	"wire_decode", "cache_lookup", "batch_eval", "decompose", "featurize",
	"tree_eval",
}

// String returns the export name of the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Kind identifies the entry point that recorded a trace.
type Kind uint8

// Trace kinds.
const (
	// KindPredict is Model.PredictPlanScratch called directly.
	KindPredict Kind = iota
	// KindServeBin is the binary serving path (/predict.bin or raw TCP).
	KindServeBin
	// KindRun is a prediction scored against a caller-measured execution
	// time (cmd/t3serve's /run).
	KindRun
	// NumKinds is the number of defined kinds.
	NumKinds
)

var kindNames = [NumKinds]string{"predict", "serve_bin", "run"}

// String returns the export name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Trace flag bits.
const (
	// FlagCacheHit marks a request answered from the prediction cache.
	FlagCacheHit = 1 << iota
	// FlagBatched marks a request whose miss was priced together with
	// other misses of the same read (see StageBatchEval).
	FlagBatched
	// FlagError marks a request whose plan failed to decode.
	FlagError
)

// FlagNames renders set flag bits as names, for debug endpoints.
func FlagNames(flags uint8) []string {
	var names []string
	if flags&FlagCacheHit != 0 {
		names = append(names, "cache_hit")
	}
	if flags&FlagBatched != 0 {
		names = append(names, "batched")
	}
	if flags&FlagError != 0 {
		names = append(names, "error")
	}
	return names
}

// MaxSpans is the fixed span capacity of a trace; spans past the capacity
// are dropped (a trace that overflows still keeps its earliest — outermost
// — spans). The deepest path records five: a traced lone serve miss
// (decode, lookup, decompose, featurize, tree eval).
const MaxSpans = 8

// Span is one begin/end pair inside a trace. Offsets are relative to the
// trace start, so spans nest visibly without absolute timestamps.
type Span struct {
	// Stage identifies what was measured.
	Stage Stage
	// Arg is stage-specific payload (batch size, pipeline count, bytes).
	Arg uint32
	// StartNs is the span start offset from the trace start.
	StartNs int64
	// DurNs is the span duration.
	DurNs int64
}

// Trace is one query's flight record: identity, outcome, and up to
// MaxSpans timed spans. It contains no pointers, so a published copy can
// never retain memory; the unexported start time is recorder-side state
// that is not published.
type Trace struct {
	// ID is a process-unique publish sequence number (1-based).
	ID uint64
	// Kind is the entry point that recorded the trace.
	Kind Kind
	// Mode is the plan.CardMode the prediction used.
	Mode uint8
	// Flags holds Flag* bits.
	Flags uint8
	// NSpans is the number of valid entries in Spans.
	NSpans uint8
	// StartUnixNs is the trace start in Unix nanoseconds.
	StartUnixNs int64
	// TotalNs is the end-to-end duration, set at publish.
	TotalNs int64
	// Fingerprint identifies the plan (see KeyFingerprint); 0 if unknown.
	Fingerprint uint64
	// PredictedNs is the predicted execution time; 0 if none.
	PredictedNs int64
	// ActualNs is the caller-measured execution time; 0 if none.
	ActualNs int64
	// QErrorMilli is the q-error vs ActualNs in 1/1000ths; 0 if unknown.
	QErrorMilli uint64
	// Spans are the recorded spans, in recording order.
	Spans [MaxSpans]Span

	start time.Time
}

// Start returns the trace's start time — the zero offset its spans are
// relative to.
func (t *Trace) Start() time.Time { return t.start }

// Record appends a span that began at start and ends now. Safe to call on
// a nil trace (no-op), so call sites gate only their clock reads.
func (t *Trace) Record(stage Stage, start time.Time, arg uint32) {
	if t == nil || int(t.NSpans) >= MaxSpans {
		return
	}
	t.Spans[t.NSpans] = Span{Stage: stage, Arg: arg,
		StartNs: start.Sub(t.start).Nanoseconds(), DurNs: time.Since(start).Nanoseconds()}
	t.NSpans++
}

// KeyFingerprint folds a wire.Key into the single-word plan fingerprint
// traces and exemplars carry. The rotate keeps the structural and
// cardinality halves from cancelling when they collide.
func KeyFingerprint(k wire.Key) uint64 {
	return k.Struct ^ bits.RotateLeft64(k.Cards, 31)
}

// Defaults of the package-level recorder.
const (
	// DefaultRingSize is how many recent traces the default recorder
	// retains (~66 KiB of ring at 264 B per slot: 32 trace words and the
	// slot's sequence word).
	DefaultRingSize = 256
	// DefaultSampleEvery is the default sampling rate: one traced query in
	// every 16.
	DefaultSampleEvery = 16
)

// Recorder hands out pooled traces, samples admission, and publishes
// completed traces into its ring. Safe for concurrent use.
type Recorder struct {
	sampler *obs.Sampler
	ring    *Ring
	pool    sync.Pool
	ids     atomic.Uint64
}

// NewRecorder builds a recorder retaining ringSize traces and admitting
// one in every sampleEvery Begin calls (rounded up to a power of two;
// <= 1 admits every call).
func NewRecorder(ringSize, sampleEvery int) *Recorder {
	return &Recorder{sampler: obs.NewSampler(sampleEvery), ring: NewRing(ringSize)}
}

// Default is the process-wide recorder: the predict and serving paths
// record into it, and cmd/t3serve's /debug/queries reads it.
var Default = NewRecorder(DefaultRingSize, DefaultSampleEvery)

// Published counts traces published into the default recorder's ring.
var Published = obs.Default.NewCounter("t3_trace_published_total",
	"Flight-recorder traces published.")

// Begin starts a trace if this call is sampled, else returns nil. The
// unsampled cost is one atomic add; the sampled path reuses pooled traces
// and does not allocate in steady state.
func (r *Recorder) Begin(kind Kind, mode uint8) *Trace {
	if !r.sampler.Sample() {
		return nil
	}
	return r.begin(kind, mode)
}

// ForceBegin starts a trace unconditionally — for paths where every event
// matters: a prediction scored against a measured execution time is ground
// truth, and rare next to plain predictions.
func (r *Recorder) ForceBegin(kind Kind, mode uint8) *Trace {
	return r.begin(kind, mode)
}

func (r *Recorder) begin(kind Kind, mode uint8) *Trace {
	t, ok := r.pool.Get().(*Trace)
	if !ok {
		t = new(Trace)
	}
	*t = Trace{Kind: kind, Mode: mode, start: time.Now()}
	t.StartUnixNs = t.start.UnixNano()
	return t
}

// Publish finalizes the trace (TotalNs, ID), copies it into the ring, and
// recycles it. The trace must not be used afterwards. Nil-safe.
func (r *Recorder) Publish(t *Trace) {
	if t == nil {
		return
	}
	t.TotalNs = time.Since(t.start).Nanoseconds()
	t.ID = r.ids.Add(1)
	r.ring.publish(t)
	if r == Default {
		Published.Inc()
	}
	r.pool.Put(t)
}

// Discard recycles a trace without publishing it. Nil-safe.
func (r *Recorder) Discard(t *Trace) {
	if t != nil {
		r.pool.Put(t)
	}
}

// Snapshot appends the ring's current traces to dst, newest first, and
// returns the extended slice. See Ring.Snapshot for consistency semantics.
func (r *Recorder) Snapshot(dst []Trace) []Trace { return r.ring.Snapshot(dst) }
