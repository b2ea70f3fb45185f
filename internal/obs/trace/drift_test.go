package trace

import (
	"math"
	"testing"
	"time"

	"t3/internal/obs"
)

// The drift tests run the detector at its production policy and spell that
// policy out in literals, so each test fails if the constant it covers
// changes. The histogram's octave buckets place the q-error 0.9 in
// [0.512, 1.024), 1.5 in [1.024, 2.048), 3 in [2.048, 4.096), and 8 and 100
// far above; a quantile interpolates linearly inside its bucket, which is
// how the mixes below aim at a windowed p90.

// driftHarness drives a detector over a private q-error histogram, one
// second per tick.
type driftHarness struct {
	h   *obs.Histogram
	d   *Detector
	now time.Time
}

func newDriftHarness() *driftHarness {
	h := obs.NewHistogram("t3_test_drift", "test", obs.UnitMilli)
	return &driftHarness{h: h, d: NewDetector(h), now: time.Unix(10000, 0)}
}

// tick records n q-error observations of value q, then advances one epoch.
func (dh *driftHarness) tick(n int, q float64) {
	dh.mix(map[float64]int{q: n})
}

// idle advances one epoch with no observations.
func (dh *driftHarness) idle() { dh.mix(nil) }

// mix records count observations of each q-error value, then advances one
// epoch.
func (dh *driftHarness) mix(counts map[float64]int) {
	for q, n := range counts {
		for i := 0; i < n; i++ {
			dh.h.ObserveFloat(q)
		}
	}
	dh.now = dh.now.Add(time.Second)
	dh.d.Tick(dh.now)
}

// raise takes a fresh harness to a raised alarm: a baseline tick, then two
// ticks whose window holds 200 q-errors of 8.
func (dh *driftHarness) raise(t *testing.T) {
	t.Helper()
	dh.idle()
	dh.tick(200, 8)
	dh.idle()
	if !dh.d.Status().Raised {
		t.Fatalf("setup: alarm not raised: %+v", dh.d.Status())
	}
}

// wantWindowQ fails unless the last tick's windowed p90 is want, to the
// precision the mixes aim at.
func wantWindowQ(t *testing.T, st DriftStatus, want float64) {
	t.Helper()
	if math.Abs(st.WindowQuantile-want) > 0.001 {
		t.Fatalf("setup: windowed p90 %.4f, want %.4f", st.WindowQuantile, want)
	}
}

func TestDriftDetectorFiresAndClears(t *testing.T) {
	dh := newDriftHarness()
	var events []DriftEvent
	dh.d.OnAlarm(func(ev DriftEvent) { events = append(events, ev) })

	// Healthy regime: three epochs of accurate predictions.
	for i := 0; i < 3; i++ {
		dh.tick(100, 0.9)
		if st := dh.d.Status(); st.Raised {
			t.Fatalf("alarm raised on healthy tick %d: %+v", i, st)
		}
	}

	// Drift: two epochs dominated by 8x mispredictions. The first bad tick
	// arms, the second fires: two ticks, no fewer.
	dh.tick(200, 8)
	if dh.d.Status().Raised {
		t.Fatal("alarm fired after one bad tick")
	}
	dh.tick(200, 8)
	st := dh.d.Status()
	if !st.Raised {
		t.Fatalf("alarm did not fire after two bad ticks: %+v", st)
	}
	if st.WindowQuantile <= 2 {
		t.Fatalf("fired with window quantile %v <= 2", st.WindowQuantile)
	}
	if len(events) != 1 || !events[0].Raised || !events[0].At.Equal(dh.now) {
		t.Fatalf("events after fire: %+v", events)
	}
	if DriftAlarm.Value() != 1 {
		t.Fatalf("t3_drift_alarm = %v after fire, want 1", DriftAlarm.Value())
	}

	// Recovery: 4000 healthy q-errors outweigh the 400 drifted ones still
	// in the window, so the window is under the clear level at once; the
	// alarm clears on the second such tick, no sooner and no later.
	dh.tick(4000, 0.9)
	if st := dh.d.Status(); !st.Raised || st.WindowQuantile >= 1.6 {
		t.Fatalf("after one healthy tick: %+v, want raised under 1.6", st)
	}
	dh.idle()
	if st := dh.d.Status(); st.Raised {
		t.Fatalf("alarm did not clear after two healthy ticks: %+v", st)
	}
	if len(events) != 2 || events[1].Raised {
		t.Fatalf("events after clear: %+v", events)
	}
	if DriftAlarm.Value() != 0 {
		t.Fatalf("t3_drift_alarm = %v after clear, want 0", DriftAlarm.Value())
	}
}

// TestDriftDetectorHoldsOnSparseWindow pins the minimum count: a window of
// 19 terrible q-errors holds, one of 20 counts.
func TestDriftDetectorHoldsOnSparseWindow(t *testing.T) {
	dh := newDriftHarness()
	dh.idle()
	dh.tick(19, 100)
	dh.idle()
	if st := dh.d.Status(); st.Raised || st.WindowCount != 19 {
		t.Fatalf("two ticks over a 19-observation window: %+v, want held", st)
	}
	// The twentieth observation makes the window count: two ticks over it
	// fire.
	dh.tick(1, 100)
	if st := dh.d.Status(); st.Raised || st.WindowCount != 20 {
		t.Fatalf("one tick over a 20-observation window: %+v, want armed only", st)
	}
	dh.idle()
	if !dh.d.Status().Raised {
		t.Fatal("alarm did not fire on two ticks over a 20-observation window")
	}
}

// TestDriftDetectorLevels pins the threshold (2) and the clear level (1.6)
// from both sides: a windowed p90 of 1.98 never raises and 2.02 does; once
// raised, 1.62 holds the alarm and 1.58 clears it. Each window holds 1000
// q-errors for two ticks.
func TestDriftDetectorLevels(t *testing.T) {
	for _, tc := range []struct {
		counts map[float64]int
		q      float64
		raised bool
	}{
		{map[float64]int{1.5: 964, 3: 36}, 1.9800, false},
		{map[float64]int{1.5: 925, 3: 75}, 2.0203, true},
	} {
		dh := newDriftHarness()
		dh.idle()
		dh.mix(tc.counts)
		dh.idle()
		st := dh.d.Status()
		wantWindowQ(t, st, tc.q)
		if st.Raised != tc.raised {
			t.Errorf("fresh detector at p90 %.4f: raised %v, want %v", st.WindowQuantile, st.Raised, tc.raised)
		}
	}
	for _, tc := range []struct {
		counts map[float64]int
		q      float64
		raised bool
	}{
		{map[float64]int{0.9: 761, 1.5: 239}, 1.6196, true},
		{map[float64]int{0.9: 781, 1.5: 219}, 1.5804, false},
	} {
		dh := newDriftHarness()
		dh.raise(t)
		// Ten empty ticks slide the drifted mass out of the window, whose
		// empty view holds the alarm.
		for i := 0; i < 10; i++ {
			dh.idle()
		}
		if st := dh.d.Status(); !st.Raised || st.WindowCount != 0 {
			t.Fatalf("setup: after the drifted mass left: %+v", st)
		}
		dh.mix(tc.counts)
		dh.idle()
		st := dh.d.Status()
		wantWindowQ(t, st, tc.q)
		if st.Raised != tc.raised {
			t.Errorf("raised detector at p90 %.4f: raised %v, want %v", st.WindowQuantile, st.Raised, tc.raised)
		}
	}
}

// TestDriftDetectorWindowSpan pins the window at 12 epochs: observations
// count for the 11 ticks after the one that follows them, and not after.
func TestDriftDetectorWindowSpan(t *testing.T) {
	dh := newDriftHarness()
	dh.idle()
	dh.tick(50, 0.9)
	for i := 1; i <= 10; i++ {
		dh.idle()
		if st := dh.d.Status(); st.WindowCount != 50 || st.WindowSpan != time.Duration(i+1)*time.Second {
			t.Fatalf("%d ticks after the observations: window %d observations over %v, want 50 over %v",
				i+1, st.WindowCount, st.WindowSpan, time.Duration(i+1)*time.Second)
		}
	}
	dh.idle()
	if st := dh.d.Status(); st.WindowCount != 0 || st.WindowSpan != 11*time.Second {
		t.Fatalf("12 ticks after the observations: window %d observations over %v, want 0 over 11s",
			st.WindowCount, st.WindowSpan)
	}
}

// TestDriftDetectorDefaults pins the policy constants and a fresh
// detector's state.
func TestDriftDetectorDefaults(t *testing.T) {
	if DriftEpochs != 12 || DriftQuantile != 0.9 || DriftThreshold != 2.0 || DriftClear != 1.6 ||
		DriftMinCount != 20 || fireAfter != 2 || clearAfter != 2 {
		t.Fatalf("policy = epochs %d, p%v, threshold %v, clear %v, min %d, fire after %d, clear after %d",
			DriftEpochs, DriftQuantile, DriftThreshold, DriftClear, DriftMinCount, fireAfter, clearAfter)
	}
	d := NewDetector(obs.QErrorDrift)
	if d.window.Span() != 11 {
		t.Fatalf("window spans %d ticks, want 11", d.window.Span())
	}
	if st := d.Status(); st.Raised || st.Ticks != 0 {
		t.Fatalf("fresh detector status = %+v", st)
	}
}

// TestDriftDetectorRunStops pins that Run ticks until stop closes, then
// returns.
func TestDriftDetectorRunStops(t *testing.T) {
	d := NewDetector(obs.NewHistogram("t3_test_drift_run", "test", obs.UnitMilli))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { d.Run(time.Millisecond, stop); close(done) }()
	for deadline := time.Now().Add(time.Second); d.Status().Ticks == 0; {
		if time.Now().After(deadline) {
			t.Fatal("Run never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not stop")
	}
}

// TestDetectorTickZeroAlloc pins the steady-state tick path at zero
// allocations: drift detection must be free to run at high frequency inside
// the serving process. (Alarm transitions may allocate for the callback
// snapshot; steady state must not.)
func TestDetectorTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	h := obs.NewHistogram("t3_test_drift_alloc", "test", obs.UnitMilli)
	d := NewDetector(h)
	for i := 0; i < 500; i++ {
		h.ObserveFloat(1.5)
	}
	now := time.Unix(7000, 0)
	d.Tick(now) // warm the window
	allocs := testing.AllocsPerRun(500, func() {
		now = now.Add(time.Second)
		h.ObserveFloat(1.5)
		d.Tick(now)
	})
	if allocs != 0 {
		t.Fatalf("Detector.Tick allocates %v times per call, want 0", allocs)
	}
}
