package benchdata

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"t3/internal/engine/plan"
	"t3/internal/feature"
	"t3/internal/workload"
)

// buildTinyCorpus makes a minimal corpus for persistence tests.
func buildTinyCorpus(t *testing.T) *Corpus {
	t.Helper()
	set, err := BenchmarkInstance(smallInstance(t), Config{PerGroup: 1, Runs: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return &Corpus{Train: []*workload.LabelSet{set}, Test: []*workload.LabelSet{{Instance: "empty"}}}
}

func TestCorpusRoundtrip(t *testing.T) {
	c := buildTinyCorpus(t)
	for _, path := range []string{
		filepath.Join(t.TempDir(), "corpus.json"),
		filepath.Join(t.TempDir(), "corpus.json.gz"),
	} {
		if err := SaveCorpus(c, path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCorpus(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Train) != 1 || back.Train[0].Instance != c.Train[0].Instance {
			t.Fatalf("%s: structure lost", path)
		}
		orig := c.Train[0].Labels
		got := back.Train[0].Labels
		if len(got) != len(orig) {
			t.Fatalf("%s: %d queries, want %d", path, len(got), len(orig))
		}
		// Source rows survive, so the one fingerprint does too.
		if back.Train[0].Fingerprint() != c.Train[0].Fingerprint() {
			t.Fatalf("%s: fingerprint changed across save/load", path)
		}
		reg := feature.NewDefaultRegistry()
		for i := range orig {
			if got[i].Name != orig[i].Name || got[i].Group != orig[i].Group {
				t.Fatalf("query %d metadata lost", i)
			}
			if got[i].MedianTotal() != orig[i].MedianTotal() || !slices.Equal(got[i].SourceRows, orig[i].SourceRows) {
				t.Fatalf("query %d timings or source rows lost", i)
			}
			// The training examples derived from the loaded corpus must be
			// identical: same vectors, same targets.
			ox, oy := Examples(reg, orig[i:i+1], plan.TrueCards, 0)
			gx, gy := Examples(reg, got[i:i+1], plan.TrueCards, 0)
			if len(ox) != len(gx) {
				t.Fatalf("query %d: example count changed", i)
			}
			for p := range ox {
				if oy[p] != gy[p] {
					t.Fatalf("query %d pipeline %d: target %v != %v", i, p, gy[p], oy[p])
				}
				for f := range ox[p] {
					if ox[p][f] != gx[p][f] {
						t.Fatalf("query %d pipeline %d feature %d changed", i, p, f)
					}
				}
			}
		}
	}
}

// TestCheckedInCorpusRoundTrip: loading the checked-in corpus and saving it
// again reproduces the file byte for byte, gzip included. The file predates
// source rows, so this also pins that their absence stays absent, and that
// a set without them fingerprints deterministically.
func TestCheckedInCorpusRoundTrip(t *testing.T) {
	const path = "../experiments/testdata/corpus.json.gz"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corpus.json.gz")
	if err := SaveCorpus(c, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved corpus differs from %s: %d bytes, want %d", path, len(got), len(want))
	}
	again, err := LoadCorpus(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Test {
		if s.Fingerprint() != again.Test[i].Fingerprint() {
			t.Fatalf("test set %s: fingerprint differs between two loads", s.Instance)
		}
	}
}

func TestLoadCorpusErrors(t *testing.T) {
	if _, err := LoadCorpus(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, `{"version": 99}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(bad); err == nil {
		t.Error("unsupported version should fail")
	}
	notJSON := filepath.Join(t.TempDir(), "garbage.json")
	if err := writeFile(notJSON, "{]"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(notJSON); err == nil {
		t.Error("garbage should fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
