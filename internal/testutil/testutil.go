// Package testutil provides shared fixtures for tests: the checked-in
// benchmarked corpus, loaded once per test binary.
package testutil

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"t3/internal/benchdata"
)

var (
	once   sync.Once
	corpus *benchdata.Corpus
	err    error
)

// SmallCorpus returns the checked-in corpus
// internal/experiments/testdata/corpus.json.gz (22 training instances and 3
// TPC-DS test sets; 728 and 154 labels), loaded once per test binary. Its
// labels were timed once, when the file was written, so every model trained
// from it is bit-reproducible and no test depends on how loaded the machine
// is. Its plans are featurizable but not executable. Callers share it and
// must not modify it.
func SmallCorpus(t testing.TB) *benchdata.Corpus {
	t.Helper()
	once.Do(func() {
		_, file, _, _ := runtime.Caller(0)
		corpus, err = benchdata.LoadCorpus(filepath.Join(filepath.Dir(file), "..", "experiments", "testdata", "corpus.json.gz"))
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}
