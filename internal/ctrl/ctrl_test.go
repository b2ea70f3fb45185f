package ctrl

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"t3/internal/workload"

	t3 "t3"
)

func TestRetrainPromotesOnShadowWin(t *testing.T) {
	c, sw := newHarness(t, nil)
	boot := sw.Model()

	retrains0, promotions0 := Retrains.Value(), Promotions.Value()
	res, err := c.Retrain(t0, "test drift")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("candidate trained on the drifted workload was not promoted: %+v", res)
	}
	if res.Shadow.CandidateQ >= res.Shadow.LiveQ {
		t.Fatalf("shadow did not show a win: %+v", res.Shadow)
	}
	if res.Shadow.HoldoutN == 0 {
		t.Fatal("shadow evaluated zero holdout labels")
	}
	if sw.Model() == boot || sw.swaps != 1 {
		t.Fatalf("swapper not driven: swaps=%d", sw.swaps)
	}
	if Retrains.Value()-retrains0 != 1 || Promotions.Value()-promotions0 != 1 {
		t.Fatal("t3_ctrl_retrains_total / t3_ctrl_promotions_total did not advance")
	}

	// The promotion landed in the registry: boot model is version 1, the
	// candidate version 2, with full provenance.
	st := c.Status()
	if st.LiveVersion != 2 || st.PreviousVersion != 1 || st.Promotions != 1 {
		t.Fatalf("status after promotion: %+v", st)
	}
	art, err := c.cfg.Registry.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.Source != "ctrl" || art.Meta.ParentVersion != 1 || art.Meta.Note != "test drift" {
		t.Fatalf("artifact meta: %+v", art.Meta)
	}
	if art.Meta.TrainLabels != res.TrainLabels || art.Meta.HoldoutLabels != res.HoldoutLabels {
		t.Fatalf("artifact label counts %d/%d, episode reported %d/%d",
			art.Meta.TrainLabels, art.Meta.HoldoutLabels, res.TrainLabels, res.HoldoutLabels)
	}
	if art.Meta.HoldoutFingerprint == 0 {
		t.Fatal("artifact missing holdout fingerprint")
	}

	// The artifact reloads into a model that predicts bit-identically to
	// the one being served.
	reloaded, err := t3.NewModel(art.GBM)
	if err != nil {
		t.Fatal(err)
	}
	roots := samplePlans(t)
	if a, b := predictAll(sw.Model(), roots), predictAll(reloaded, roots); !equalDurations(a, b) {
		t.Fatal("registry artifact predicts differently from the promoted model")
	}
}

func TestRetrainArtifactDeterministicAcrossWorkers(t *testing.T) {
	// Two controllers, identical episode time and seeds, different label
	// collection worker counts: the promoted artifact files must be
	// byte-identical.
	var files [][]byte
	for _, workers := range []int{1, 4} {
		c, _ := newHarness(t, func(cfg *Config) {
			cfg.Source = &scaledSource{inst: ctrlInstance(t), scale: 4, workers: workers}
		})
		res, err := c.Retrain(t0, "determinism probe")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Promoted {
			t.Fatalf("workers=%d: not promoted", workers)
		}
		b, err := os.ReadFile(c.cfg.Registry.Path(res.Version))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("promoted artifacts differ across worker counts")
	}
}

func TestRetrainFailsOnLabelCollectionError(t *testing.T) {
	boom := errors.New("storage offline")
	c, sw := newHarness(t, func(cfg *Config) {
		cfg.Source = &scaledSource{err: boom}
	})
	boot := sw.Model()

	fails0 := RetrainFailures.Value()
	if _, err := c.Retrain(t0, "doomed"); !errors.Is(err, boom) {
		t.Fatalf("Retrain error = %v, want wrapped %v", err, boom)
	}
	if RetrainFailures.Value()-fails0 != 1 {
		t.Fatal("t3_ctrl_retrain_failures_total did not advance")
	}
	if sw.Model() != boot || sw.swaps != 0 {
		t.Fatal("failed retrain touched the live model")
	}
	st := c.Status()
	if st.State != "idle" || st.Failures != 1 || !strings.Contains(st.LastError, "storage offline") {
		t.Fatalf("status after failure: %+v", st)
	}
	// The controller recovers: fix the source, retrain succeeds.
	c.cfg.Source = &scaledSource{inst: ctrlInstance(t), scale: 4, workers: 2}
	if res, err := c.Retrain(t0, "recovered"); err != nil || !res.Promoted {
		t.Fatalf("post-failure retrain = (%+v, %v)", res, err)
	}
}

func TestShadowRegressionRejectsCandidate(t *testing.T) {
	// A trainer that learns from durations inflated 50x produces a model
	// predicting far slower than reality: it must lose the shadow
	// comparison and never reach serving.
	c, sw := newHarness(t, func(cfg *Config) {
		cfg.Train = func(labels []*workload.Label) (*t3.Model, error) {
			for _, l := range labels {
				for r := range l.PipelineRuns {
					for p := range l.PipelineRuns[r] {
						l.PipelineRuns[r][p] *= 50
					}
					l.Totals[r] *= 50
				}
			}
			return t3.Train(labels, t3.TrainOptions{Params: testParams()})
		}
	})
	boot := sw.Model()

	rejects0 := ShadowRejects.Value()
	res, err := c.Retrain(t0, "bad candidate")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatalf("regressing candidate was promoted: %+v", res.Shadow)
	}
	if res.Shadow.CandidateQ <= res.Shadow.LiveQ {
		t.Fatalf("shadow numbers do not show the regression: %+v", res.Shadow)
	}
	if ShadowRejects.Value()-rejects0 != 1 {
		t.Fatal("t3_ctrl_shadow_rejects_total did not advance")
	}
	if sw.Model() != boot || sw.swaps != 0 {
		t.Fatal("rejected candidate reached the live model")
	}
	st := c.Status()
	if st.LiveVersion != 1 || st.ShadowRejects != 1 {
		t.Fatalf("status after reject: %+v", st)
	}
	// Nothing but the boot seed landed in the registry.
	if v, ok, err := c.cfg.Registry.Latest(); err != nil || !ok || v != 1 {
		t.Fatalf("registry after reject: (%d,%v,%v), want boot-only", v, ok, err)
	}
}

// zeroedSource collects the harness's labels and zeroes every measured
// query total, as a source whose timer broke would.
type zeroedSource struct{ scaledSource }

func (s *zeroedSource) CollectLabels(attempt int) (*workload.LabelSet, error) {
	ls, err := s.scaledSource.CollectLabels(attempt)
	if err != nil {
		return nil, err
	}
	for _, l := range ls.Labels {
		clear(l.Totals)
	}
	return ls, nil
}

// TestShadowWithoutEvidenceRejectsCandidate pins that a hold-out whose
// measured times are all zero is no evidence: nothing is scored, the
// candidate is not promoted, and the live model and the registry stay as
// they were.
func TestShadowWithoutEvidenceRejectsCandidate(t *testing.T) {
	c, sw := newHarness(t, func(cfg *Config) {
		cfg.Source = &zeroedSource{scaledSource{inst: ctrlInstance(t), scale: 4, workers: 2}}
	})
	boot := sw.Model()

	rejects0 := ShadowRejects.Value()
	res, err := c.Retrain(t0, "no evidence")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted || res.HoldoutLabels == 0 || res.Shadow.HoldoutN != 0 || res.Shadow.ExemplarN != 0 {
		t.Fatalf("zero-duration hold-out of %d labels: promoted %v, shadow %+v, want nothing scored and no promotion",
			res.HoldoutLabels, res.Promoted, res.Shadow)
	}
	if ShadowRejects.Value()-rejects0 != 1 {
		t.Fatal("t3_ctrl_shadow_rejects_total did not advance")
	}
	if sw.Model() != boot || sw.swaps != 0 {
		t.Fatal("a candidate with no evidence reached the live model")
	}
	if v, ok, err := c.cfg.Registry.Latest(); err != nil || !ok || v != 1 {
		t.Fatalf("registry after reject: (%d,%v,%v), want boot-only", v, ok, err)
	}
}

func TestRollbackRestoresPreviousVersionBitIdentically(t *testing.T) {
	c, sw := newHarness(t, nil)
	roots := samplePlans(t)
	bootPreds := predictAll(sw.Model(), roots)

	if res, err := c.Retrain(t0, "promote first"); err != nil || !res.Promoted {
		t.Fatalf("setup promotion failed: %v", err)
	}
	promoted := sw.Model()
	if equalDurations(predictAll(promoted, roots), bootPreds) {
		t.Fatal("promotion did not change served predictions; rollback test is vacuous")
	}

	rollbacks0 := Rollbacks.Value()
	ver, err := c.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("rolled back to version %d, want 1", ver)
	}
	if Rollbacks.Value()-rollbacks0 != 1 {
		t.Fatal("t3_ctrl_rollbacks_total did not advance")
	}
	// Bit-identical restoration: the registry round-trip loses nothing.
	if !equalDurations(predictAll(sw.Model(), roots), bootPreds) {
		t.Fatal("rolled-back model does not predict identically to the original")
	}
	st := c.Status()
	if st.LiveVersion != 1 || st.PreviousVersion != 2 || st.Rollbacks != 1 {
		t.Fatalf("status after rollback: %+v", st)
	}
	// Roll forward again: PreviousVersion now points at the promotion.
	if ver, err := c.Rollback(); err != nil || ver != 2 {
		t.Fatalf("roll-forward = (%d,%v), want (2,nil)", ver, err)
	}
	if !equalDurations(predictAll(sw.Model(), roots), predictAll(promoted, roots)) {
		t.Fatal("roll-forward did not restore the promoted model")
	}
}

func TestRollbackRejectsCorruptArtifact(t *testing.T) {
	c, sw := newHarness(t, nil)
	if res, err := c.Retrain(t0, "promote"); err != nil || !res.Promoted {
		t.Fatalf("setup promotion failed: %v", err)
	}
	live := sw.Model()

	// Rot the rollback target on disk.
	path := c.cfg.Registry.Path(1)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), orig...)
	bad[len(bad)/3] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	regErrs0 := RegistryErrors.Value()
	if _, err := c.Rollback(); err == nil {
		t.Fatal("rollback to a corrupt artifact succeeded")
	}
	if RegistryErrors.Value()-regErrs0 != 1 {
		t.Fatal("t3_ctrl_registry_errors_total did not advance")
	}
	if sw.Model() != live {
		t.Fatal("failed rollback touched the live model")
	}
	if st := c.Status(); st.LiveVersion != 2 || st.Rollbacks != 0 {
		t.Fatalf("status after failed rollback: %+v", st)
	}

	// Restore the bytes: rollback works again — the failure had no side
	// effects on controller state.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if ver, err := c.Rollback(); err != nil || ver != 1 {
		t.Fatalf("rollback after restore = (%d,%v)", ver, err)
	}
}

// TestOnDriftDebounce pins that a raised alarm runs one episode inline and
// that alarms ticked within minInterval (10 m) of the last episode's start
// are dropped. Time is the alarm's own: DriftEvent.At.
func TestOnDriftDebounce(t *testing.T) {
	c, _ := newHarness(t, nil)

	// First alarm: the episode has run, and promoted, when OnDrift returns.
	c.OnDrift(driftEvent(t0))
	// It started at the alarm's tick time.
	if st := c.Status(); st.Episodes != 1 || st.Promotions != 1 || st.State != "idle" || st.LastEpisodeUnixNs != t0.UnixNano() {
		t.Fatalf("first alarm at %d ns: %+v", t0.UnixNano(), st)
	}

	// Alarms inside the debounce interval do nothing, up to its last
	// nanosecond.
	c.OnDrift(driftEvent(t0.Add(2 * time.Minute)))
	c.OnDrift(driftEvent(t0.Add(10*time.Minute - time.Nanosecond)))
	if st := c.Status(); st.Episodes != 1 || st.Rollbacks != 0 {
		t.Fatalf("debounced alarm still acted: %+v", st)
	}

	// Ten minutes after the last episode began, an alarm runs the next.
	c.OnDrift(driftEvent(t0.Add(10 * time.Minute)))
	if st := c.Status(); st.Episodes != 2 {
		t.Fatalf("post-debounce alarm did not retrain: %+v", st)
	}
}

// TestNewServesLatestRegistryVersion pins that a controller opened on a
// registry that already holds promotions serves the latest version, not the
// model the server booted with, and can roll back to the version that one
// was promoted over.
func TestNewServesLatestRegistryVersion(t *testing.T) {
	first, sw := newHarness(t, nil)
	if res, err := first.Retrain(t0, "promote before restart"); err != nil || !res.Promoted {
		t.Fatalf("setup promotion = (%+v, %v)", res, err)
	}
	roots := samplePlans(t)
	promoted := predictAll(sw.Model(), roots)

	// A restart: a fresh server boots on the seed model again.
	boot := seedModel(t)
	rebooted := &fakeSwapper{m: boot}
	c, err := New(Config{
		Registry: first.cfg.Registry,
		Source:   first.cfg.Source,
		Swapper:  rebooted,
		Train:    first.cfg.Train,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.LiveVersion != 2 || st.PreviousVersion != 1 {
		t.Fatalf("status after restart: %+v, want live 2 previous 1", st)
	}
	if rebooted.swaps != 1 || !equalDurations(predictAll(rebooted.Model(), roots), promoted) {
		t.Fatalf("restart does not serve registry version 2 (swaps=%d)", rebooted.swaps)
	}
	if ver, err := c.Rollback(); err != nil || ver != 1 {
		t.Fatalf("rollback after restart = (%d,%v), want (1,nil)", ver, err)
	}
	if !equalDurations(predictAll(rebooted.Model(), roots), predictAll(boot, roots)) {
		t.Fatal("rollback after restart does not restore the seed model")
	}
}

// TestGCSparesRollbackTarget pins that registry GC never deletes the
// version a rollback would restore: eight promote → rollback rounds from
// version 1 leave nine versions, more than keepVersions, and version 1 is
// still the rollback target of every one of them.
func TestGCSparesRollbackTarget(t *testing.T) {
	c, _ := newHarness(t, nil)
	for round := 1; round <= keepVersions; round++ {
		res, err := c.Retrain(t0, "promote")
		if err != nil || !res.Promoted {
			t.Fatalf("round %d: promotion = (%+v, %v)", round, res, err)
		}
		if ver, err := c.Rollback(); err != nil || ver != 1 {
			t.Fatalf("round %d: rollback = (%d,%v), want (1,nil)", round, ver, err)
		}
	}
	if st := c.Status(); st.LiveVersion != 1 || st.PreviousVersion != keepVersions+1 {
		t.Fatalf("status after %d rounds: %+v", keepVersions, st)
	}
}

func TestNewSeedsRegistryFromBootModel(t *testing.T) {
	c, sw := newHarness(t, nil)
	v, ok, err := c.cfg.Registry.Latest()
	if err != nil || !ok || v != 1 {
		t.Fatalf("registry after New = (%d,%v,%v), want seeded v1", v, ok, err)
	}
	art, err := c.cfg.Registry.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.Source != "seed" {
		t.Fatalf("seed artifact source = %q", art.Meta.Source)
	}
	roots := samplePlans(t)
	m, err := t3.NewModel(art.GBM)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDurations(predictAll(m, roots), predictAll(sw.Model(), roots)) {
		t.Fatal("seeded artifact does not match the boot model")
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
