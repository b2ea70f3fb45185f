package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// testServer is cmd/t3serve, built once for the tests that start it.
var testServer string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "t3bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testServer = filepath.Join(dir, "t3serve")
	build := exec.Command("go", "build", "-o", testServer, "./cmd/t3serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/t3serve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, workload string) *childConfig {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &childConfig{workload: workload, seed: 1, outDir: t.TempDir(), root: root, serveBin: testServer}
}

// Every workload, set up once: a short clean window must yield ops and fail
// none of them, and after the references are falsified every op must fail —
// the proof that each workload's answer check can fail at all.
func TestEveryWorkloadRunsCleanAndItsCheckCanFail(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, name)
			inst, setupS, err := timedSetup(cfg, name, true)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if setupS <= 0 {
				t.Errorf("setup_s = %v", setupS)
			}
			ws, win, err := measure(name, inst, 50*time.Millisecond, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if win.attempted == 0 || win.failed != 0 {
				t.Fatalf("clean run: %d ops attempted, %d failed", win.attempted, win.failed)
			}
			if ws.opsPerS <= 0 || ws.p50us <= 0 || ws.p90us < ws.p50us {
				t.Errorf("clean run: ops/s %v p50 %v p90 %v", ws.opsPerS, ws.p50us, ws.p90us)
			}
			inst.corrupt()
			next := make([]int, inst.conns())
			broken := runFor(inst, next, 100*time.Millisecond, 64)
			if broken.attempted == 0 || broken.failed != broken.attempted {
				t.Errorf("falsified references: %d of %d ops failed, want all", broken.failed, broken.attempted)
			}
		})
	}
}

// The whole child, as the driver starts it: all six end-to-end metrics.
func TestChildReportsEveryEndToEndMetric(t *testing.T) {
	cfg := testConfig(t, "serve_rtt_hot")
	cfg.warmup, cfg.window = 50*time.Millisecond, 200*time.Millisecond
	res, err := runChild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		v, ok := res.Metrics[d.Name]
		if !ok || (v <= 0 && d.Name != "failed_share") {
			t.Errorf("%s = %v (present: %v)", d.Name, v, ok)
		}
	}
	if res.Metrics["failed_share"] != 0 || res.Failed != 0 {
		t.Errorf("failed_share %v, failed %d on a clean tree", res.Metrics["failed_share"], res.Failed)
	}
	if len(res.ServeArgs) == 0 || res.Conns != numConns() {
		t.Errorf("t3serve flags %v, conns %d", res.ServeArgs, res.Conns)
	}
}

// BENCHMARK.json registers what this program reports.
func TestBenchmarkFileAgreesWithTheProgram(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	strip := func(ds []metricDef) []metricDef {
		out := slices.Clone(ds)
		for i := range out {
			out[i].Bound, out[i].slack = 0, 0
		}
		return out
	}
	e2e := slices.DeleteFunc(slices.Clone(endToEnd), func(d metricDef) bool { return d.unregistered })
	if !slices.Equal(strip(bf.EndToEnd), strip(e2e)) {
		t.Errorf("end_to_end = %v\nprogram reports %v", strip(bf.EndToEnd), e2e)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	// The line a run ends with carries exactly the registered metrics.
	for _, trace := range []bool{false, true} {
		line := newResultLine(&childResult{Attempted: 1, Metrics: map[string]float64{}}, trace)
		want := bf.EndToEnd
		if trace {
			want = bf.PerLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: result line has %d metrics, BENCHMARK.json %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("trace=%v: result line has %s = %+v (present: %v), want unit %s", trace, d.Name, got, ok, d.Unit)
			}
		}
	}
}
