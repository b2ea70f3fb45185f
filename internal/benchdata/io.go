package benchdata

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/planio"
	"t3/internal/workload"
)

// Corpus persistence: benchmarking is the expensive step (the paper reports
// hours of query execution vs seconds of training, §6 "Hardware Specific
// Model"). Saving the benchmarked corpus — annotated plans plus measured
// per-pipeline times — lets models be retrained, re-configured, and ablated
// without re-running a single query. Plans are stored in the planio JSON
// format, so loaded corpora are featurizable but not executable. Loading and
// saving a file reproduces it byte for byte.

// corpusJSON is the serialized corpus document.
type corpusJSON struct {
	Version int               `json:"version"`
	Train   []instanceSetJSON `json:"train"`
	Test    []instanceSetJSON `json:"test"`
}

type instanceSetJSON struct {
	Name    string      `json:"name"`
	Queries []queryJSON `json:"queries"`
}

type queryJSON struct {
	Name     string       `json:"name"`
	Group    string       `json:"group"`
	Instance string       `json:"instance"`
	Plan     *planio.Node `json:"plan"`
	// RunTotalsNS are total query times per timing run, in nanoseconds.
	RunTotalsNS []int64 `json:"run_totals_ns"`
	// PipelineRunsNS[r][p] is pipeline p's time in run r, in nanoseconds.
	PipelineRunsNS [][]int64 `json:"pipeline_runs_ns"`
	// SourceRows[p] is the number of tuples scanned at pipeline p's source
	// (absent in files written before labels carried them).
	SourceRows []int `json:"source_rows,omitempty"`
}

func encodeSet(s *workload.LabelSet) instanceSetJSON {
	out := instanceSetJSON{Name: s.Instance}
	for _, l := range s.Labels {
		q := queryJSON{
			Name:       l.Name,
			Group:      string(l.Group),
			Instance:   s.Instance,
			Plan:       planio.Encode(l.Root),
			SourceRows: l.SourceRows,
		}
		for _, d := range l.Totals {
			q.RunTotalsNS = append(q.RunTotalsNS, d.Nanoseconds())
		}
		for _, run := range l.PipelineRuns {
			row := make([]int64, len(run))
			for i, d := range run {
				row[i] = d.Nanoseconds()
			}
			q.PipelineRunsNS = append(q.PipelineRunsNS, row)
		}
		out.Queries = append(out.Queries, q)
	}
	return out
}

func decodeSet(s instanceSetJSON) (*workload.LabelSet, error) {
	out := &workload.LabelSet{Instance: s.Name}
	for _, q := range s.Queries {
		root, err := planio.Decode(q.Plan)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", q.Name, err)
		}
		l := &workload.Label{
			Name:       q.Name,
			Group:      workload.Group(q.Group),
			Root:       root,
			Pipelines:  plan.Decompose(root),
			SourceRows: q.SourceRows,
		}
		if len(l.SourceRows) > 0 && len(l.SourceRows) != len(l.Pipelines) {
			return nil, fmt.Errorf("query %s: %d source rows for %d pipelines", q.Name, len(l.SourceRows), len(l.Pipelines))
		}
		for _, ns := range q.RunTotalsNS {
			l.Totals = append(l.Totals, time.Duration(ns))
		}
		for _, row := range q.PipelineRunsNS {
			run := make([]time.Duration, len(row))
			for i, ns := range row {
				run[i] = time.Duration(ns)
			}
			if len(run) != len(l.Pipelines) {
				return nil, fmt.Errorf("query %s: %d pipeline times for %d pipelines", q.Name, len(run), len(l.Pipelines))
			}
			l.PipelineRuns = append(l.PipelineRuns, run)
		}
		out.Labels = append(out.Labels, l)
	}
	return out, nil
}

// SaveCorpus writes the corpus to path as (optionally gzipped) JSON. A
// ".gz" suffix enables compression.
func SaveCorpus(c *Corpus, path string) error {
	doc := corpusJSON{Version: 1}
	for _, s := range c.Train {
		doc.Train = append(doc.Train, encodeSet(s))
	}
	for _, s := range c.Test {
		doc.Test = append(doc.Test, encodeSet(s))
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchdata: create corpus: %w", err)
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := json.NewEncoder(w).Encode(&doc); err != nil {
		return fmt.Errorf("benchdata: encode corpus: %w", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// LoadCorpus reads a corpus written by SaveCorpus. Loaded plans are
// featurizable (training, prediction, experiments) but not executable.
func LoadCorpus(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchdata: open corpus: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("benchdata: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	var doc corpusJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("benchdata: parse corpus %s: %w", path, err)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("benchdata: unsupported corpus version %d", doc.Version)
	}
	c := &Corpus{}
	for _, s := range doc.Train {
		set, err := decodeSet(s)
		if err != nil {
			return nil, err
		}
		c.Train = append(c.Train, set)
	}
	for _, s := range doc.Test {
		set, err := decodeSet(s)
		if err != nil {
			return nil, err
		}
		c.Test = append(c.Test, set)
	}
	return c, nil
}
