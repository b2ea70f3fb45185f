package trace

import (
	"sync"
	"time"

	"t3/internal/obs"
)

// Drift detection: a Detector watches a windowed quantile of the online
// q-error histogram (t3_qerror_drift, fed by t3.RecordObserved) and trips
// an alarm when recent accuracy degrades past a threshold. Hysteresis on
// both edges — fireAfter consecutive bad ticks to raise, clearAfter good
// ticks to clear, and a minimum observation count per window — keeps a
// single slow outlier query or an idle window from flapping the alarm.

// Drift gauges on the default registry. The alarm gauge is the alerting
// surface; the window gauges make "what did the detector see" one scrape
// away instead of a log dive.
var (
	// DriftAlarm is 1 while the drift detector's alarm is raised, else 0.
	DriftAlarm = obs.Default.NewGauge("t3_drift_alarm",
		"1 while windowed q-error drift exceeds the alarm threshold.")
	// DriftWindowQuantile is the watched windowed q-error quantile at the
	// last detector tick.
	DriftWindowQuantile = obs.Default.NewGauge("t3_drift_window_qerror",
		"Watched windowed q-error quantile at the last drift tick.")
	// DriftWindowCount is the number of q-error observations inside the
	// window at the last detector tick.
	DriftWindowCount = obs.Default.NewGauge("t3_drift_window_observations",
		"Q-error observations inside the drift window at the last tick.")
	// DriftAlarms counts raise transitions of the drift alarm.
	DriftAlarms = obs.Default.NewCounter("t3_drift_alarms_total",
		"Drift alarm raise transitions.")
)

// The detector's fixed policy. /debug/drift reports the exported values.
const (
	// DriftEpochs is the number of snapshots the window retains; with tick
	// period p the sliding span is (DriftEpochs-1) x p.
	DriftEpochs = 12
	// DriftQuantile is the watched q-error quantile.
	DriftQuantile = 0.9
	// DriftThreshold raises the alarm when the windowed quantile exceeds it:
	// predictions off by more than 2x at the watched tail.
	DriftThreshold = 2.0
	// DriftClear re-arms the alarm when the windowed quantile falls below it.
	DriftClear = 1.6
	// DriftMinCount is the minimum observations a window needs before its
	// quantile is trusted; sparser windows hold the previous state.
	DriftMinCount = 20
	// fireAfter consecutive over-threshold ticks raise the alarm, and
	// clearAfter consecutive under-clear ticks clear it.
	fireAfter  = 2
	clearAfter = 2
)

// DriftEvent describes one alarm transition, passed to OnAlarm callbacks.
type DriftEvent struct {
	// Raised is true when the alarm fired, false when it cleared.
	Raised bool
	// At is the tick time of the transition.
	At time.Time
	// Quantile is the watched windowed q-error quantile at the transition.
	Quantile float64
	// Count is the window's observation count at the transition.
	Count uint64
}

// DriftStatus is a point-in-time view of the detector, for /debug/drift.
type DriftStatus struct {
	// Raised is whether the alarm is currently raised.
	Raised bool
	// WindowQuantile is the watched quantile over the window at the last
	// tick (0 until the window has two epochs).
	WindowQuantile float64
	// WindowCount is the window's observation count at the last tick.
	WindowCount uint64
	// WindowSpan is the wall time the window covered at the last tick.
	WindowSpan time.Duration
	// LifetimeQuantile is the same quantile over the full histogram.
	LifetimeQuantile float64
	// LifetimeCount is the full histogram's observation count.
	LifetimeCount uint64
	// Ticks is the number of detector ticks so far.
	Ticks uint64
	// LastTransition is the time of the most recent raise/clear (zero if
	// none yet).
	LastTransition time.Time
}

// Detector watches a windowed quantile of a histogram and raises/clears an
// alarm with hysteresis. Drive it with Tick from one ticker goroutine;
// Status and OnAlarm are safe from any goroutine.
type Detector struct {
	window *Window

	mu        sync.Mutex
	raised    bool
	overRuns  int // consecutive ticks over DriftThreshold
	underRuns int // consecutive ticks under DriftClear
	last      DriftStatus
	callbacks []func(DriftEvent)
}

// NewDetector builds a detector over src: obs.QErrorDrift, the online
// q-error histogram, in production; a private histogram in tests.
func NewDetector(src *obs.Histogram) *Detector {
	return &Detector{window: NewWindow(src, DriftEpochs)}
}

// OnAlarm registers a callback invoked (synchronously, from Tick) on every
// raise and clear transition. The retrain controller hook.
func (d *Detector) OnAlarm(fn func(DriftEvent)) {
	d.mu.Lock()
	d.callbacks = append(d.callbacks, fn)
	d.mu.Unlock()
}

// Tick advances the window one epoch and evaluates the alarm. Call at a
// fixed period from a single goroutine.
func (d *Detector) Tick(now time.Time) {
	d.window.Tick(now)
	delta, span, ok := d.window.Delta()

	d.mu.Lock()
	d.last.Ticks++
	life := d.window.Lifetime()
	d.last.LifetimeQuantile = life.Quantile(DriftQuantile)
	d.last.LifetimeCount = life.Count

	var q float64
	if ok {
		q = delta.Quantile(DriftQuantile)
		d.last.WindowQuantile = q
		d.last.WindowCount = delta.Count
		d.last.WindowSpan = span
	}
	DriftWindowQuantile.Set(d.last.WindowQuantile)
	DriftWindowCount.Set(float64(d.last.WindowCount))

	var fired []func(DriftEvent)
	var ev DriftEvent
	if ok && delta.Count >= DriftMinCount {
		if q > DriftThreshold {
			d.overRuns++
			d.underRuns = 0
		} else if q < DriftClear {
			d.underRuns++
			d.overRuns = 0
		} else {
			// Inside the hysteresis band: hold state, reset both runs.
			d.overRuns, d.underRuns = 0, 0
		}
		transition := false
		if !d.raised && d.overRuns >= fireAfter {
			d.raised = true
			transition = true
			DriftAlarms.Inc()
		} else if d.raised && d.underRuns >= clearAfter {
			d.raised = false
			transition = true
		}
		if transition {
			d.overRuns, d.underRuns = 0, 0
			d.last.LastTransition = now
			ev = DriftEvent{Raised: d.raised, At: now, Quantile: q, Count: delta.Count}
			fired = append(fired, d.callbacks...)
		}
	}
	d.last.Raised = d.raised
	if d.raised {
		DriftAlarm.Set(1)
	} else {
		DriftAlarm.Set(0)
	}
	d.mu.Unlock()

	// Callbacks run outside the lock so they may call Status / OnAlarm.
	for _, fn := range fired {
		fn(ev)
	}
}

// Status returns the detector's view as of the last tick.
func (d *Detector) Status() DriftStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Run ticks the detector every period until the stop channel closes —
// convenience wrapper for servers. Tests call Tick with the time they want.
func (d *Detector) Run(period time.Duration, stop <-chan struct{}) {
	if period <= 0 {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			d.Tick(now)
		case <-stop:
			return
		}
	}
}
