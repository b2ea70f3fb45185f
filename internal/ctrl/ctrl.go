// Package ctrl is the continuous-learning control plane: it closes the loop
// between the drift detector (internal/obs/trace), label collection
// (internal/workload), training (t3.Train), the versioned model registry
// (internal/registry), and the serving tier's atomic model swap
// (internal/serve).
//
// One retrain episode runs: collect fresh labels → deterministic
// train/holdout split → train a candidate → shadow-evaluate candidate vs
// live on the held-out labels plus the worst-misprediction exemplars →
// promote only on a configurable q-error win, writing the artifact to the
// registry first so rollback can restore the previous version
// bit-identically. Every stage failure leaves the live model untouched and
// increments a t3_ctrl_* counter.
//
// The controller is testable-first: its clock, label source, trainer, and
// swap target are all injected, so the whole drift → retrain → shadow →
// promote → rollback loop runs deterministically in-process with no sleeps.
package ctrl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"t3/internal/clock"
	"t3/internal/obs"
	"t3/internal/obs/trace"
	"t3/internal/registry"
	"t3/internal/workload"

	t3 "t3"
)

// Control-plane counters and gauges on the default registry. Each failure
// mode has its own counter so a dashboard can tell "label collection broke"
// from "candidates keep losing the shadow comparison".
var (
	// Retrains counts started retrain episodes.
	Retrains = obs.Default.NewCounter("t3_ctrl_retrains_total",
		"Retrain episodes started by the control plane.")
	// RetrainFailures counts episodes that failed before shadow evaluation
	// (label collection or training errors).
	RetrainFailures = obs.Default.NewCounter("t3_ctrl_retrain_failures_total",
		"Retrain episodes failed in collection or training.")
	// ShadowRejects counts candidates rejected by the shadow comparison.
	ShadowRejects = obs.Default.NewCounter("t3_ctrl_shadow_rejects_total",
		"Candidate models rejected by shadow evaluation.")
	// Promotions counts successful model swaps.
	Promotions = obs.Default.NewCounter("t3_ctrl_promotions_total",
		"Candidate models promoted to serving.")
	// Rollbacks counts restorations of a previous registry version.
	Rollbacks = obs.Default.NewCounter("t3_ctrl_rollbacks_total",
		"Rollbacks to a previous registry version.")
	// RegistryErrors counts registry read/write failures seen by the
	// controller (corrupt artifacts, IO errors).
	RegistryErrors = obs.Default.NewCounter("t3_ctrl_registry_errors_total",
		"Registry failures observed by the control plane.")
	// ShadowLiveQ and ShadowCandQ are the watched shadow q-error quantiles
	// of the last completed shadow evaluation.
	ShadowLiveQ = obs.Default.NewGauge("t3_ctrl_shadow_live_qerror",
		"Live model's shadow q-error quantile at the last evaluation.")
	ShadowCandQ = obs.Default.NewGauge("t3_ctrl_shadow_candidate_qerror",
		"Candidate model's shadow q-error quantile at the last evaluation.")
	// LiveVersion is the registry version currently being served (0 when
	// the served model is not registry-backed).
	LiveVersion = obs.Default.NewGauge("t3_ctrl_live_version",
		"Registry version of the model currently serving.")
)

// LabelSource supplies fresh training labels for one retrain episode.
// attempt is the number of episodes started before this one, so a source
// can rotate seeds or workload slices across episodes.
type LabelSource interface {
	CollectLabels(attempt int) (*workload.LabelSet, error)
}

// WorkloadSource is the production LabelSource: it runs the configured
// workload through the parallel label runner, bumping the generation seed
// each attempt so successive retrains see fresh query instances.
type WorkloadSource struct {
	Instance *workload.Instance
	Config   workload.CollectConfig
}

// CollectLabels implements LabelSource.
func (s *WorkloadSource) CollectLabels(attempt int) (*workload.LabelSet, error) {
	cfg := s.Config
	cfg.Seed += int64(attempt)
	return workload.CollectLabels(s.Instance, cfg)
}

// Swapper is the serving-side swap target. *serve.Server implements it.
type Swapper interface {
	Model() *t3.Model
	SetModel(*t3.Model)
}

// TrainFunc builds a candidate model from training labels. The default wraps
// t3.Train; tests inject failures and degenerate models.
type TrainFunc func(labels []*workload.Label) (*t3.Model, error)

// Config configures a Controller. Zero fields take defaults.
type Config struct {
	// Registry is the versioned artifact store. Required.
	Registry *registry.Registry
	// Source supplies labels for retraining. Required.
	Source LabelSource
	// Swapper is the serving tier whose model the controller manages.
	// Required.
	Swapper Swapper
	// Clock supplies time for debounce and artifact timestamps. Default
	// clock.Real.
	Clock clock.Clock
	// Train builds the candidate model. Default: t3.Train with
	// TrainOptions.
	Train TrainFunc
	// TrainOptions parameterize the default trainer.
	TrainOptions t3.TrainOptions
	// Exemplars is the misprediction store whose frames are replayed during
	// shadow evaluation (nil disables replay; trace.Exemplars is the
	// process-wide store).
	Exemplars *trace.ExemplarStore
	// HoldoutFraction of collected labels is held out of training and used
	// for shadow evaluation. Default 0.25, clamped to [0, 0.5].
	HoldoutFraction float64
	// ShadowQuantile is the q-error quantile the shadow comparison judges
	// on. Default 0.9.
	ShadowQuantile float64
	// PromoteRatio gates promotion: the candidate wins when its shadow
	// quantile is <= PromoteRatio x the live model's. Default 0.95; values
	// > 1 accept mild regressions, < 1 demand improvement.
	PromoteRatio float64
	// MinInterval debounces drift-triggered retrains. Default 1m (tests
	// with fake clocks set it explicitly).
	MinInterval time.Duration
	// RollbackWindow: a drift alarm raised within this span after a
	// promotion rolls the promotion back instead of retraining again (the
	// shadow gate passed but production disagreed). Default 0 = disabled.
	RollbackWindow time.Duration
	// KeepVersions bounds the registry via GC after each write. Default 8.
	KeepVersions int
	// Synchronous makes drift alarms run the episode inline in the alarm
	// callback instead of waking a background goroutine — the deterministic
	// test mode.
	Synchronous bool
}

func (c *Config) defaults() error {
	if c.Registry == nil || c.Source == nil || c.Swapper == nil {
		return errors.New("ctrl: Registry, Source, and Swapper are required")
	}
	if c.Clock == nil {
		c.Clock = clock.Real
	}
	if c.Train == nil {
		opts := c.TrainOptions
		c.Train = func(labels []*workload.Label) (*t3.Model, error) {
			return t3.Train(labels, opts)
		}
	}
	if c.HoldoutFraction == 0 {
		c.HoldoutFraction = 0.25
	}
	if c.ShadowQuantile == 0 {
		c.ShadowQuantile = 0.9
	}
	if c.PromoteRatio == 0 {
		c.PromoteRatio = 0.95
	}
	if c.MinInterval == 0 {
		c.MinInterval = time.Minute
	}
	if c.KeepVersions == 0 {
		c.KeepVersions = 8
	}
	return nil
}

// Status is a point-in-time view of the controller, for /debug/ctrl.
type Status struct {
	// State is "idle", "collecting", "training", or "shadowing".
	State string `json:"state"`
	// LiveVersion is the registry version currently serving (0 if the boot
	// model was never registered).
	LiveVersion int `json:"live_version"`
	// PreviousVersion is the registry version Rollback would restore (0 if
	// none).
	PreviousVersion int `json:"previous_version"`
	// Episodes counts retrain episodes started.
	Episodes int `json:"episodes"`
	// Promotions, ShadowRejects, Failures, Rollbacks count outcomes.
	Promotions    int `json:"promotions"`
	ShadowRejects int `json:"shadow_rejects"`
	Failures      int `json:"failures"`
	Rollbacks     int `json:"rollbacks"`
	// LastShadow is the most recent shadow comparison (zero until one ran).
	LastShadow ShadowResult `json:"last_shadow"`
	// LastEpisodeUnixNs is when the last episode started (controller
	// clock), 0 if none.
	LastEpisodeUnixNs int64 `json:"last_episode_unix_ns"`
	// LastPromotionUnixNs is when the last promotion happened, 0 if none.
	LastPromotionUnixNs int64 `json:"last_promotion_unix_ns"`
	// LastError is the last episode failure message ("" when the last
	// episode succeeded).
	LastError string `json:"last_error,omitempty"`
}

// Controller runs the drift → retrain → shadow → promote loop.
type Controller struct {
	cfg Config

	mu     sync.Mutex
	status Status
	// busy serializes episodes: alarms arriving mid-episode are dropped
	// (the running episode already reflects the drifted workload).
	busy bool
	// lastEpisode and lastPromotion drive debounce and rollback-window
	// decisions on the controller clock.
	lastEpisode   time.Time
	lastPromotion time.Time

	// trigger wakes the background loop in asynchronous mode (capacity 1:
	// coalescing, never blocking the alarm path).
	trigger chan string
}

// New builds a controller. If the registry is empty and the swapper already
// serves a boot model, that model is registered as version 1 so the first
// rollback target exists.
func New(cfg Config) (*Controller, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, trigger: make(chan string, 1)}
	c.status.State = "idle"

	latest, ok, err := cfg.Registry.Latest()
	if err != nil {
		RegistryErrors.Inc()
		return nil, fmt.Errorf("ctrl: reading registry: %w", err)
	}
	if ok {
		c.status.LiveVersion = latest
	} else if boot := cfg.Swapper.Model(); boot != nil {
		ver, err := cfg.Registry.Put(&registry.Artifact{
			Meta: registry.Meta{
				CreatedUnixNs: cfg.Clock.Now().UnixNano(),
				Source:        "seed",
				Note:          "boot model registered by the controller",
			},
			GBM: boot.Boosted(),
		})
		if err != nil {
			RegistryErrors.Inc()
			return nil, fmt.Errorf("ctrl: seeding registry: %w", err)
		}
		c.status.LiveVersion = ver
	}
	LiveVersion.Set(float64(c.status.LiveVersion))
	return c, nil
}

// Attach subscribes the controller to a drift detector: raised alarms
// trigger retrain episodes (or a rollback, inside the rollback window).
// Clear transitions are ignored.
func (c *Controller) Attach(d *trace.Detector) {
	d.OnAlarm(func(ev trace.DriftEvent) {
		if !ev.Raised {
			return
		}
		c.OnDrift(ev)
	})
}

// OnDrift handles one raised drift alarm: debounce, rollback-window check,
// then either an inline episode (Synchronous) or a wakeup of Run's loop.
func (c *Controller) OnDrift(ev trace.DriftEvent) {
	now := c.cfg.Clock.Now()

	c.mu.Lock()
	if c.busy {
		c.mu.Unlock()
		return
	}
	// A drift alarm shortly after a promotion means the shadow gate passed
	// but production regressed: undo the promotion instead of training
	// again on the same evidence.
	rollback := c.cfg.RollbackWindow > 0 && !c.lastPromotion.IsZero() &&
		now.Sub(c.lastPromotion) <= c.cfg.RollbackWindow && c.status.PreviousVersion != 0
	if !rollback && !c.lastEpisode.IsZero() && now.Sub(c.lastEpisode) < c.cfg.MinInterval {
		c.mu.Unlock()
		return
	}
	if rollback {
		// The rollback consumes this drift evidence; restart the debounce
		// so the next alarm doesn't immediately retrain on the same signal.
		c.lastEpisode = now
	}
	c.mu.Unlock()

	if rollback {
		_, _ = c.Rollback()
		return
	}
	reason := fmt.Sprintf("drift q%.2f=%.3f over %d obs", c.cfg.ShadowQuantile, ev.Quantile, ev.Count)
	if c.cfg.Synchronous {
		_, _ = c.Retrain(reason)
		return
	}
	select {
	case c.trigger <- reason:
	default: // an episode is already queued
	}
}

// Run services asynchronous drift triggers until stop closes. Synchronous
// controllers never need it.
func (c *Controller) Run(stop <-chan struct{}) {
	for {
		select {
		case reason := <-c.trigger:
			_, _ = c.Retrain(reason)
		case <-stop:
			return
		}
	}
}

// Status returns the controller's current view.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// begin claims the single episode slot; it returns false when an episode is
// already running.
func (c *Controller) begin(now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.busy {
		return false
	}
	c.busy = true
	c.lastEpisode = now
	c.status.Episodes++
	c.status.LastEpisodeUnixNs = now.UnixNano()
	c.status.State = "collecting"
	c.status.LastError = ""
	return true
}

func (c *Controller) setState(s string) {
	c.mu.Lock()
	c.status.State = s
	c.mu.Unlock()
}

func (c *Controller) fail(stage string, err error) error {
	err = fmt.Errorf("ctrl: %s: %w", stage, err)
	RetrainFailures.Inc()
	c.mu.Lock()
	c.busy = false
	c.status.State = "idle"
	c.status.Failures++
	c.status.LastError = err.Error()
	c.mu.Unlock()
	return err
}

// RetrainResult reports one completed (not failed) retrain episode.
type RetrainResult struct {
	// Promoted is whether the candidate replaced the live model.
	Promoted bool `json:"promoted"`
	// Version is the registry version of the promoted artifact (0 when not
	// promoted).
	Version int `json:"version"`
	// Shadow is the shadow comparison that decided the episode.
	Shadow ShadowResult `json:"shadow"`
	// TrainLabels and HoldoutLabels count the split sizes.
	TrainLabels   int `json:"train_labels"`
	HoldoutLabels int `json:"holdout_labels"`
}

// Retrain runs one full episode: collect → split → train → shadow →
// promote/reject. It is safe to call from any goroutine; concurrent calls
// beyond the first return ErrBusy. Failures at any stage leave the live
// model untouched.
func (c *Controller) Retrain(reason string) (RetrainResult, error) {
	now := c.cfg.Clock.Now()
	if !c.begin(now) {
		return RetrainResult{}, ErrBusy
	}
	Retrains.Inc()

	attempt := c.Status().Episodes - 1
	labels, err := c.cfg.Source.CollectLabels(attempt)
	if err != nil {
		return RetrainResult{}, c.fail("collecting labels", err)
	}
	trainSet, holdout := labels.Split(c.cfg.HoldoutFraction)
	if len(trainSet.Labels) == 0 {
		return RetrainResult{}, c.fail("collecting labels", errors.New("empty label set"))
	}

	c.setState("training")
	cand, err := c.cfg.Train(trainSet.Labels)
	if err != nil {
		return RetrainResult{}, c.fail("training candidate", err)
	}

	c.setState("shadowing")
	live := c.cfg.Swapper.Model()
	shadow := c.shadowEval(live, cand, holdout)
	ShadowLiveQ.Set(shadow.LiveQ)
	ShadowCandQ.Set(shadow.CandidateQ)

	res := RetrainResult{
		Shadow:        shadow,
		TrainLabels:   len(trainSet.Labels),
		HoldoutLabels: len(holdout.Labels),
	}

	if live != nil && !shadow.Win(c.cfg.PromoteRatio) {
		ShadowRejects.Inc()
		c.mu.Lock()
		c.busy = false
		c.status.State = "idle"
		c.status.ShadowRejects++
		c.status.LastShadow = shadow
		c.mu.Unlock()
		return res, nil
	}

	// Candidate won: registry first, swap second. If the artifact cannot be
	// persisted the swap does not happen — an unregistered live model would
	// have no rollback target.
	c.mu.Lock()
	parent := c.status.LiveVersion
	c.mu.Unlock()
	ver, err := c.cfg.Registry.Put(&registry.Artifact{
		Meta: registry.Meta{
			CreatedUnixNs:      now.UnixNano(),
			Source:             "ctrl",
			TrainLabels:        len(trainSet.Labels),
			HoldoutLabels:      len(holdout.Labels),
			HoldoutFingerprint: holdout.Fingerprint(),
			ParentVersion:      parent,
			Note:               reason,
		},
		GBM: cand.Boosted(),
	})
	if err != nil {
		RegistryErrors.Inc()
		return RetrainResult{}, c.fail("writing artifact", err)
	}
	c.cfg.Swapper.SetModel(cand)
	Promotions.Inc()
	if _, err := c.cfg.Registry.GC(c.cfg.KeepVersions); err != nil {
		RegistryErrors.Inc()
	}

	c.mu.Lock()
	c.busy = false
	c.status.State = "idle"
	c.status.Promotions++
	c.status.LastShadow = shadow
	c.status.PreviousVersion = parent
	c.status.LiveVersion = ver
	c.status.LastPromotionUnixNs = now.UnixNano()
	c.lastPromotion = now
	c.mu.Unlock()
	LiveVersion.Set(float64(ver))

	res.Promoted = true
	res.Version = ver
	return res, nil
}

// ErrBusy is returned by Retrain when an episode is already running.
var ErrBusy = errors.New("ctrl: retrain already in progress")

// Rollback restores the previous registry version: the artifact is loaded
// (full checksum + cross-representation verification), rebuilt into a
// serving model, and swapped in. On any failure the live model is
// untouched. Returns the restored version.
func (c *Controller) Rollback() (int, error) {
	c.mu.Lock()
	if c.busy {
		c.mu.Unlock()
		return 0, ErrBusy
	}
	prev := c.status.PreviousVersion
	cur := c.status.LiveVersion
	c.mu.Unlock()
	if prev == 0 {
		return 0, errors.New("ctrl: no previous version to roll back to")
	}

	art, err := c.cfg.Registry.Load(prev)
	if err != nil {
		RegistryErrors.Inc()
		return 0, fmt.Errorf("ctrl: loading version %d: %w", prev, err)
	}
	m, err := t3.NewModel(art.GBM)
	if err != nil {
		RegistryErrors.Inc()
		return 0, fmt.Errorf("ctrl: rebuilding version %d: %w", prev, err)
	}
	c.cfg.Swapper.SetModel(m)
	Rollbacks.Inc()

	c.mu.Lock()
	c.status.Rollbacks++
	c.status.LiveVersion = prev
	c.status.PreviousVersion = cur
	// A rollback consumes the promotion it undid: further alarms retrain.
	c.lastPromotion = time.Time{}
	c.status.LastPromotionUnixNs = 0
	c.mu.Unlock()
	LiveVersion.Set(float64(prev))
	return prev, nil
}
