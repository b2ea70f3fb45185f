package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"t3/internal/obs/trace"
)

// The /debug observability surface of the flight recorder:
//
//	GET /debug/queries          recent traced queries, newest first (?n= cap)
//	GET /debug/worst            worst mispredictions by q-error, with
//	                            replayable wire frames
//	GET /debug/worst/frame?rank=N   one exemplar's raw request frame —
//	                            POST it back to /predict.bin to replay
//	GET /debug/drift            windowed vs lifetime q-error and alarm state

// traceJSON is the /debug/queries rendering of one trace: numeric ids
// resolved to names, offsets kept in nanoseconds for tooling.
type traceJSON struct {
	ID          uint64     `json:"id"`
	Kind        string     `json:"kind"`
	Mode        uint8      `json:"mode"`
	Flags       []string   `json:"flags,omitempty"`
	Start       time.Time  `json:"start"`
	TotalNs     int64      `json:"total_ns"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	PredictedNs int64      `json:"predicted_ns,omitempty"`
	ActualNs    int64      `json:"actual_ns,omitempty"`
	QError      float64    `json:"qerror,omitempty"`
	Spans       []spanJSON `json:"spans"`
}

type spanJSON struct {
	Stage   string `json:"stage"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	// Arg is the raw stage argument (payload bytes, pipeline count, ...).
	Arg uint32 `json:"arg,omitempty"`
}

func renderTrace(t trace.Trace) traceJSON {
	out := traceJSON{
		ID:          t.ID,
		Kind:        t.Kind.String(),
		Mode:        t.Mode,
		Flags:       trace.FlagNames(t.Flags),
		Start:       time.Unix(0, t.StartUnixNs),
		TotalNs:     t.TotalNs,
		PredictedNs: t.PredictedNs,
		ActualNs:    t.ActualNs,
		QError:      float64(t.QErrorMilli) / 1000,
		Spans:       make([]spanJSON, 0, t.NSpans),
	}
	if t.Fingerprint != 0 {
		out.Fingerprint = fmt.Sprintf("%016x", t.Fingerprint)
	}
	for _, sp := range t.Spans[:t.NSpans] {
		out.Spans = append(out.Spans, spanJSON{Stage: sp.Stage.String(), StartNs: sp.StartNs, DurNs: sp.DurNs, Arg: sp.Arg})
	}
	return out
}

// handleDebugQueries serves the flight-recorder ring, newest first.
func handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	limit := trace.DefaultRingSize
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		limit = n
	}
	traces := trace.Default.Snapshot(nil)
	if len(traces) > limit {
		traces = traces[:limit]
	}
	out := struct {
		Count   int         `json:"count"`
		Sampled string      `json:"sampling"`
		Traces  []traceJSON `json:"traces"`
	}{
		Count:   len(traces),
		Sampled: fmt.Sprintf("1 in %d serve/predict calls; all /run rounds", trace.DefaultSampleEvery),
		Traces:  make([]traceJSON, 0, len(traces)),
	}
	for _, t := range traces {
		out.Traces = append(out.Traces, renderTrace(t))
	}
	writeJSON(w, out)
}

// worstJSON is the /debug/worst rendering of one exemplar.
type worstJSON struct {
	Rank        int       `json:"rank"`
	QError      float64   `json:"qerror"`
	Fingerprint string    `json:"fingerprint"`
	Mode        uint8     `json:"mode"`
	PredictedNs int64     `json:"predicted_ns"`
	ActualNs    int64     `json:"actual_ns"`
	At          time.Time `json:"at"`
	FrameBytes  int       `json:"frame_bytes"`
	FrameURL    string    `json:"frame_url"`
}

// handleDebugWorst lists the worst-misprediction exemplars.
func handleDebugWorst(w http.ResponseWriter, _ *http.Request) {
	ex := trace.Exemplars.Snapshot()
	out := struct {
		Count  int         `json:"count"`
		Replay string      `json:"replay"`
		Worst  []worstJSON `json:"worst"`
	}{
		Count:  len(ex),
		Replay: "curl -s --data-binary @frame.bin $HOST/predict.bin",
		Worst:  make([]worstJSON, 0, len(ex)),
	}
	for i, e := range ex {
		out.Worst = append(out.Worst, worstJSON{
			Rank:        i,
			QError:      e.QError,
			Fingerprint: fmt.Sprintf("%016x", e.Fingerprint),
			Mode:        e.Mode,
			PredictedNs: e.PredictedNs,
			ActualNs:    e.ActualNs,
			At:          time.Unix(0, e.AtUnixNs),
			FrameBytes:  len(e.Frame),
			FrameURL:    fmt.Sprintf("/debug/worst/frame?rank=%d", i),
		})
	}
	writeJSON(w, out)
}

// handleDebugWorstFrame downloads one exemplar's raw wire request frame.
func handleDebugWorstFrame(w http.ResponseWriter, r *http.Request) {
	rank, err := strconv.Atoi(r.URL.Query().Get("rank"))
	if err != nil || rank < 0 {
		httpError(w, http.StatusBadRequest, "rank must be a non-negative integer")
		return
	}
	frame := trace.Exemplars.Frame(rank)
	if frame == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no exemplar at rank %d", rank))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=\"t3-worst-%d.bin\"", rank))
	_, _ = w.Write(frame)
}

// handleDebugDrift reports the drift detector's windowed view and alarm.
func (s *server) handleDebugDrift(w http.ResponseWriter, _ *http.Request) {
	st := s.drift.Status()
	writeJSON(w, struct {
		Raised           bool       `json:"alarm_raised"`
		WindowQuantile   float64    `json:"window_qerror"`
		WindowCount      uint64     `json:"window_observations"`
		WindowSpan       string     `json:"window_span"`
		LifetimeQuantile float64    `json:"lifetime_qerror"`
		LifetimeCount    uint64     `json:"lifetime_observations"`
		Ticks            uint64     `json:"ticks"`
		LastTransition   *time.Time `json:"last_transition,omitempty"`
		WatchedQuantile  float64    `json:"watched_quantile"`
		Threshold        float64    `json:"threshold"`
		Clear            float64    `json:"clear"`
		MinCount         uint64     `json:"min_observations"`
		Epochs           int        `json:"window_epochs"`
	}{
		Raised:           st.Raised,
		WindowQuantile:   st.WindowQuantile,
		WindowCount:      st.WindowCount,
		WindowSpan:       st.WindowSpan.String(),
		LifetimeQuantile: st.LifetimeQuantile,
		LifetimeCount:    st.LifetimeCount,
		Ticks:            st.Ticks,
		LastTransition:   nilIfZero(st.LastTransition),
		WatchedQuantile:  trace.DriftQuantile,
		Threshold:        trace.DriftThreshold,
		Clear:            trace.DriftClear,
		MinCount:         trace.DriftMinCount,
		Epochs:           trace.DriftEpochs,
	})
}

// handleDebugCtrl reports the retrain control plane's state. POST with
// ?action=retrain starts an episode by hand (e.g. after deploying a new
// workload); ?action=rollback restores the previous registry version.
func (s *server) handleDebugCtrl(w http.ResponseWriter, r *http.Request) {
	if s.ctrl == nil {
		httpError(w, http.StatusNotFound, "retraining disabled (start t3serve with -retrain-registry)")
		return
	}
	if r.Method == http.MethodPost {
		switch action := r.URL.Query().Get("action"); action {
		case "retrain":
			res, err := s.ctrl.Retrain(time.Now(), "manual via /debug/ctrl")
			if err != nil {
				httpError(w, http.StatusConflict, err.Error())
				return
			}
			writeJSON(w, res)
			return
		case "rollback":
			ver, err := s.ctrl.Rollback()
			if err != nil {
				httpError(w, http.StatusConflict, err.Error())
				return
			}
			writeJSON(w, map[string]int{"restored_version": ver})
			return
		default:
			httpError(w, http.StatusBadRequest, "action must be retrain or rollback")
			return
		}
	}
	writeJSON(w, s.ctrl.Status())
}

func nilIfZero(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}
