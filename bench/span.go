package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test is not instrumented). Spans of one op share
// its op id; parent is the index of the enclosing span, or -1 for a root.
type span struct {
	op     int32
	parent int32
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer collects spans in memory. It is used by one goroutine; a workload
// with several connections keeps one tracer per connection and merges them
// when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextOp starts a new op: spans begun from here on carry its id.
func (t *tracer) nextOp(op int) { t.op = int32(op) }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := t.add(parent, name, t.now(), 0)
	t.stack = append(t.stack, i)
	return i
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = t.now()
}

// endAs closes the innermost open span under another name, for a call whose
// kind is known only from its result (a cache hit or a miss).
func (t *tracer) endAs(name string) {
	i := t.stack[len(t.stack)-1]
	t.end()
	t.spans[i].name = name
}

// add records an already-measured span under the given parent (-1 for a
// root) and returns its index. It serves timings taken without the tracer:
// a round trip timed by the load loop, or the per-pipeline durations the
// executor reports itself.
func (t *tracer) add(parent int32, name string, start, end int64) int32 {
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: name, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// layerTotals is the aggregate of every span with one name.
type layerTotals struct {
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// traceSummary is what a set of spans adds up to. A span's self time is its
// duration minus the part of it its child spans cover, so over any tree the
// self times sum to the root's duration; SelfOverRoot states how close the
// recorded spans come to that (children that overlap or outlive their parent
// would move it away from 1).
type traceSummary struct {
	Ops          int                    `json:"ops"`
	Spans        int                    `json:"spans"`
	RootNs       int64                  `json:"root_ns"`
	SelfNs       int64                  `json:"self_ns"`
	SelfOverRoot float64                `json:"self_over_root"`
	Layers       map[string]layerTotals `json:"layers"`
}

// selfTimes returns each span's self time: duration minus the length of the
// union of its children's intervals, clipped to the span itself.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		slices.SortFunc(kids, func(a, b int32) int { return int(spans[a].start - spans[b].start) })
		covered := s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, covered), min(spans[k].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

func summariseSpans(spans []span) traceSummary {
	sum := traceSummary{Spans: len(spans), Layers: map[string]layerTotals{}}
	ops := map[int32]bool{}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		ops[s.op] = true
		l := sum.Layers[s.name]
		l.Count++
		l.TotalNs += s.end - s.start
		l.SelfNs += self
		sum.Layers[s.name] = l
		sum.SelfNs += self
		if s.parent < 0 {
			sum.RootNs += s.end - s.start
		}
	}
	for name, l := range sum.Layers {
		l.MeanNs = float64(l.TotalNs) / float64(l.Count)
		sum.Layers[name] = l
	}
	sum.Ops = len(ops)
	if sum.RootNs > 0 {
		sum.SelfOverRoot = float64(sum.SelfNs) / float64(sum.RootNs)
	}
	return sum
}

// mergeTracers concatenates per-connection tracers into one span list,
// rebasing parent indices.
func mergeTracers(ts []*tracer) []span {
	var all []span
	for _, t := range ts {
		base := int32(len(all))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// traceFile is the layout of out/trace.<workload>.json. Spans are rows of
// [op, id, parent, name index, start ns, end ns]; id is the row number and
// parent is -1 for a root.
type traceFile struct {
	Workload string       `json:"workload"`
	Summary  traceSummary `json:"summary"`
	Names    []string     `json:"names"`
	Columns  []string     `json:"columns"`
	Spans    [][6]int64   `json:"spans"`
}

func writeTrace(path, workload string, spans []span) (traceSummary, error) {
	tf := traceFile{
		Workload: workload,
		Summary:  summariseSpans(spans),
		Columns:  []string{"op", "id", "parent", "name", "start_ns", "end_ns"},
		Spans:    make([][6]int64, len(spans)),
	}
	index := map[string]int64{}
	for i, s := range spans {
		ni, ok := index[s.name]
		if !ok {
			ni = int64(len(tf.Names))
			index[s.name] = ni
			tf.Names = append(tf.Names, s.name)
		}
		tf.Spans[i] = [6]int64{int64(s.op), int64(i), int64(s.parent), ni, s.start, s.end}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return tf.Summary, fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return tf.Summary, fmt.Errorf("writing trace: %w", err)
	}
	return tf.Summary, nil
}
