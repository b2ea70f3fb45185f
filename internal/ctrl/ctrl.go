// Package ctrl is the continuous-learning control plane: it closes the loop
// between the drift detector (internal/obs/trace), label collection
// (internal/workload), training (t3.Train), the versioned model registry
// (internal/registry), and the serving tier's atomic model swap
// (internal/serve).
//
// One retrain episode runs: collect fresh labels → deterministic
// train/holdout split → train a candidate → shadow-evaluate candidate vs
// live on the held-out labels plus the worst-misprediction exemplars →
// promote only on a q-error win, writing the artifact to the registry first
// so rollback can restore the previous version bit-identically. Every stage
// failure leaves the live model untouched and increments a t3_ctrl_*
// counter.
//
// A raised alarm runs its episode inline, on the goroutine that ticks the
// detector: there is one episode path, and it is the one the tests drive.
// Time comes in as an argument (the alarm's tick time, or the caller's) and
// the label source, trainer and swap target are injected, so the whole
// drift → retrain → shadow → promote → rollback loop runs deterministically
// in-process with no sleeps.
package ctrl

import (
	"errors"
	"fmt"
	"sync"
	"time"

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

// TrainFunc builds a candidate model from training labels. The default is
// t3.Train with default parameters; tests inject small or pinned parameters,
// failures and degenerate models.
type TrainFunc func(labels []*workload.Label) (*t3.Model, error)

// The episode's fixed policy.
const (
	// holdoutFraction of collected labels is held out of training and used
	// for shadow evaluation.
	holdoutFraction = 0.25
	// shadowQuantile is the q-error quantile the shadow comparison judges on.
	shadowQuantile = 0.9
	// promoteRatio gates promotion: the candidate wins when its shadow
	// quantile is <= promoteRatio x the live model's.
	promoteRatio = 0.95
	// minInterval debounces drift-triggered episodes.
	minInterval = 10 * time.Minute
	// keepVersions bounds the registry via GC after each promotion; the live
	// and previous versions are kept beyond it.
	keepVersions = 8
)

// Config configures a Controller. Zero fields take defaults.
type Config struct {
	// Registry is the versioned artifact store. Required.
	Registry *registry.Registry
	// Source supplies labels for retraining. Required.
	Source LabelSource
	// Swapper is the serving tier whose model the controller manages.
	// Required.
	Swapper Swapper
	// Train builds the candidate model. Default: t3.Train with default
	// parameters.
	Train TrainFunc
	// Exemplars is the misprediction store whose frames are replayed during
	// shadow evaluation (nil disables replay; trace.Exemplars is the
	// process-wide store).
	Exemplars *trace.ExemplarStore
}

func (c *Config) defaults() error {
	if c.Registry == nil || c.Source == nil || c.Swapper == nil {
		return errors.New("ctrl: Registry, Source, and Swapper are required")
	}
	if c.Train == nil {
		c.Train = func(labels []*workload.Label) (*t3.Model, error) {
			return t3.Train(labels, t3.TrainOptions{})
		}
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
	// LastEpisodeUnixNs is when the last episode started, 0 if none.
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
	// lastEpisode is the start time of the last episode, against which
	// drift alarms are debounced.
	lastEpisode time.Time
}

// New builds a controller. A registry that holds versions is the source of
// truth: its latest version is loaded, verified and swapped in, replacing
// whatever the swapper served at boot, and the version it was promoted over
// becomes the rollback target. An empty registry is seeded with the boot
// model as version 1, so the first rollback target exists.
func New(cfg Config) (*Controller, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg}
	c.status.State = "idle"

	latest, ok, err := cfg.Registry.Latest()
	if err != nil {
		RegistryErrors.Inc()
		return nil, fmt.Errorf("ctrl: reading registry: %w", err)
	}
	if ok {
		m, meta, err := c.load(latest)
		if err != nil {
			return nil, err
		}
		cfg.Swapper.SetModel(m)
		c.status.LiveVersion = latest
		c.status.PreviousVersion = meta.ParentVersion
	} else if boot := cfg.Swapper.Model(); boot != nil {
		ver, err := cfg.Registry.Put(&registry.Artifact{
			Meta: registry.Meta{
				CreatedUnixNs: time.Now().UnixNano(),
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
// run retrain episodes on the goroutine that ticks d. Clear transitions are
// ignored.
func (c *Controller) Attach(d *trace.Detector) {
	d.OnAlarm(func(ev trace.DriftEvent) {
		if !ev.Raised {
			return
		}
		c.OnDrift(ev)
	})
}

// OnDrift handles one raised drift alarm: unless an episode started less
// than minInterval before the alarm's tick time ev.At, it runs one inline,
// starting at ev.At, and returns when it is over. An alarm that finds an
// episode running is dropped.
func (c *Controller) OnDrift(ev trace.DriftEvent) {
	c.mu.Lock()
	debounced := !c.lastEpisode.IsZero() && ev.At.Sub(c.lastEpisode) < minInterval
	c.mu.Unlock()
	if debounced {
		return
	}
	_, _ = c.Retrain(ev.At, fmt.Sprintf("drift q%.2f=%.3f over %d obs", trace.DriftQuantile, ev.Quantile, ev.Count))
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

// Retrain runs one full episode, started at now: collect → split → train →
// shadow → promote/reject. now stamps the episode and a promoted artifact.
// It is safe to call from any goroutine; concurrent calls beyond the first
// return ErrBusy. Failures at any stage leave the live model untouched.
func (c *Controller) Retrain(now time.Time, reason string) (RetrainResult, error) {
	if !c.begin(now) {
		return RetrainResult{}, ErrBusy
	}
	Retrains.Inc()

	attempt := c.Status().Episodes - 1
	labels, err := c.cfg.Source.CollectLabels(attempt)
	if err != nil {
		return RetrainResult{}, c.fail("collecting labels", err)
	}
	trainSet, holdout := labels.Split(holdoutFraction)
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

	if live != nil && !shadow.Win() {
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
	if _, err := c.cfg.Registry.GC(keepVersions, ver, parent); err != nil {
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

	m, _, err := c.load(prev)
	if err != nil {
		return 0, err
	}
	c.cfg.Swapper.SetModel(m)
	Rollbacks.Inc()

	c.mu.Lock()
	c.status.Rollbacks++
	c.status.LiveVersion = prev
	c.status.PreviousVersion = cur
	c.mu.Unlock()
	LiveVersion.Set(float64(prev))
	return prev, nil
}

// load reads and verifies one registry version (full checksum and
// structural validation) and rebuilds it into a serving model.
func (c *Controller) load(version int) (*t3.Model, registry.Meta, error) {
	art, err := c.cfg.Registry.Load(version)
	if err != nil {
		RegistryErrors.Inc()
		return nil, registry.Meta{}, fmt.Errorf("ctrl: loading version %d: %w", version, err)
	}
	m, err := t3.NewModel(art.GBM)
	if err != nil {
		RegistryErrors.Inc()
		return nil, registry.Meta{}, fmt.Errorf("ctrl: rebuilding version %d: %w", version, err)
	}
	return m, art.Meta, nil
}
