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
	c, sw, _ := newHarness(t, nil)
	boot := sw.Model()

	retrains0, promotions0 := Retrains.Value(), Promotions.Value()
	res, err := c.Retrain("test drift")
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
	// Two controllers, identical fake time and seeds, different collection
	// and training worker counts: the promoted artifact files must be
	// byte-identical.
	var files [][]byte
	for _, workers := range []int{1, 4} {
		c, _, _ := newHarness(t, func(cfg *Config) {
			cfg.Source = &scaledSource{inst: ctrlInstance(t), scale: 4, workers: workers}
			p := testParams()
			p.Workers = workers
			cfg.TrainOptions = t3.TrainOptions{Params: p}
			cfg.Train = nil // rebuild the default trainer from TrainOptions
		})
		res, err := c.Retrain("determinism probe")
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
	c, sw, _ := newHarness(t, func(cfg *Config) {
		cfg.Source = &scaledSource{err: boom}
	})
	boot := sw.Model()

	fails0 := RetrainFailures.Value()
	if _, err := c.Retrain("doomed"); !errors.Is(err, boom) {
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
	if res, err := c.Retrain("recovered"); err != nil || !res.Promoted {
		t.Fatalf("post-failure retrain = (%+v, %v)", res, err)
	}
}

func TestShadowRegressionRejectsCandidate(t *testing.T) {
	// A trainer that learns from durations inflated 50x produces a model
	// predicting far slower than reality: it must lose the shadow
	// comparison and never reach serving.
	c, sw, _ := newHarness(t, func(cfg *Config) {
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
	res, err := c.Retrain("bad candidate")
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

func TestRollbackRestoresPreviousVersionBitIdentically(t *testing.T) {
	c, sw, _ := newHarness(t, nil)
	roots := samplePlans(t)
	bootPreds := predictAll(sw.Model(), roots)

	if res, err := c.Retrain("promote first"); err != nil || !res.Promoted {
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
	c, sw, _ := newHarness(t, nil)
	if res, err := c.Retrain("promote"); err != nil || !res.Promoted {
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

func TestOnDriftDebounceAndRollbackWindow(t *testing.T) {
	c, sw, fake := newHarness(t, func(cfg *Config) {
		cfg.MinInterval = time.Minute
		cfg.RollbackWindow = 5 * time.Minute
	})
	ev := driftEvent()

	// First alarm: retrains and promotes.
	c.OnDrift(ev)
	if st := c.Status(); st.Episodes != 1 || st.Promotions != 1 {
		t.Fatalf("first alarm: %+v", st)
	}
	promoted := sw.Model()

	// A second alarm inside the rollback window undoes the promotion
	// instead of training again.
	fake.Advance(2 * time.Minute)
	c.OnDrift(ev)
	st := c.Status()
	if st.Rollbacks != 1 || st.Episodes != 1 {
		t.Fatalf("alarm inside rollback window: %+v", st)
	}
	if sw.Model() == promoted {
		t.Fatal("rollback window alarm did not swap the model back")
	}

	// Immediately after (inside MinInterval since the last episode): the
	// alarm is debounced.
	c.OnDrift(ev)
	if st := c.Status(); st.Episodes != 1 || st.Rollbacks != 1 {
		t.Fatalf("debounced alarm still acted: %+v", st)
	}

	// Past the debounce, with the rollback consumed: a fresh episode runs.
	fake.Advance(10 * time.Minute)
	c.OnDrift(ev)
	if st := c.Status(); st.Episodes != 2 {
		t.Fatalf("post-debounce alarm did not retrain: %+v", st)
	}
}

func TestNewSeedsRegistryFromBootModel(t *testing.T) {
	c, sw, _ := newHarness(t, nil)
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
