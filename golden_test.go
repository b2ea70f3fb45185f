package t3

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"t3/internal/qerror"
	"t3/internal/testutil"
)

// The served-function goldens. Both are amd64 values, which is what CI runs:
// elsewhere the compiler may fuse multiply-adds, so training and the
// tuple-centric scaling can round differently.

// TestDefaultModelPackedGolden pins the function models/t3_default.json
// serves: a SHA-256 over what Pack compiles it to — the base score, every
// packed node (float32 threshold bits, feature, children) and every leaf's
// bits. A change that moves it changed a served prediction; re-capture it only
// for a deliberate change of the default model, and say so.
func TestDefaultModelPackedGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("served-function goldens are amd64 values; GOARCH=%s", runtime.GOARCH)
	}
	const want = "bd195b91cee26e0f294359aef609a91feed0c4e48518aacafa718ef83130564b"
	m, err := Load("models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	p := m.Packed()
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(p.Base))
	for _, n := range p.Nodes {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(n.Thr))
		b = binary.LittleEndian.AppendUint16(b, n.Feature)
		b = binary.LittleEndian.AppendUint32(b, uint32(n.Left))
		b = binary.LittleEndian.AppendUint32(b, uint32(n.Right))
	}
	for _, l := range p.Leaves {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l))
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Pack(models/t3_default.json) = %s, want %s (%d nodes, %d leaves)", got, want, len(p.Nodes), len(p.Leaves))
	}
}

// TestCorpusModelGolden pins the model DefaultParams trains on the checked-in
// corpus (testutil.SmallCorpus): the SHA-256 of its JSON, as json.Marshal and
// the model's own AppendJSON both write it, and the q-error p50/p90/mean of
// its predictions on the training plans and on the held-out TPC-DS plans,
// exactly. Training is deterministic, so any change is a change to the
// trainer, the features or the served function.
// A change that moves the q-errors updates them here and puts before → after
// in CHANGES.md.
func TestCorpusModelGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("served-function goldens are amd64 values; GOARCH=%s", runtime.GOARCH)
	}
	const wantJSON = "e84886b6691847f1f7333c9f2649030e20772f471a5a4eb05f42bbca03fb67f0"
	type quality struct{ P50, P90, Mean float64 }
	wantTrain := quality{1.1070358417505979, 1.6829240106632946, 1.2920873918748714}
	wantTest := quality{1.383022428038854, 2.429924778187479, 1.7604139421852059}

	c := testutil.SmallCorpus(t)
	m, err := Train(c.AllTrain(), TrainOptions{Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(m.Boosted())
	if err != nil {
		t.Fatal(err)
	}
	// The pin is on the bytes the registry and Save write, which are
	// encoding/json's.
	if own, err := m.Boosted().AppendJSON(nil); err != nil || !bytes.Equal(own, js) {
		t.Errorf("AppendJSON = %d bytes (err %v), json.Marshal %d bytes: they differ", len(own), err, len(js))
	}
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != wantJSON {
		t.Errorf("model JSON SHA-256 = %s, want %s", got, wantJSON)
	}
	score := func(labels []*Label) quality {
		es := make([]float64, 0, len(labels))
		for _, l := range labels {
			pred, _ := m.PredictPlan(l.Root, TrueCards)
			es = append(es, qerror.QError(pred.Seconds(), l.MedianTotal().Seconds()))
		}
		s := qerror.Summarize(es)
		return quality{s.P50, s.P90, s.Avg}
	}
	if got := score(c.AllTrain()); got != wantTrain {
		t.Errorf("train q-error = %#v, want %#v", got, wantTrain)
	}
	if got := score(c.AllTest()); got != wantTest {
		t.Errorf("hold-out q-error = %#v, want %#v", got, wantTest)
	}
}
