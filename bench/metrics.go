package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// slack is an absolute worsening -compare tolerates whatever the bound.
	slack float64
	// unregistered marks an end-to-end metric that every run measures and
	// -compare judges, by the bound given here, but that BENCHMARK.json
	// cannot list.
	unregistered bool
}

// endToEnd are the metrics every workload reports from its untraced run.
// BENCHMARK.json fixes the bounds of those it registers. Two it cannot hold:
// failed_share is 0 on a clean tree, and the contract admits no metric that
// can be 0 (there it travels as attempted and failed; any increase is
// worse); op_p90_us spreads by more between runs of one binary on a shared
// machine than the largest bound the contract allows, and the contract
// refuses a benchmark with such a metric (README.md, "Steadiness").
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "op_p90_us", Unit: "us", Better: "lower", Bound: 0.25, unregistered: true},
	{Name: "setup_s", Unit: "s", Better: "lower", slack: 0.25},
	{Name: "rss_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "failed_share", Unit: "share", Better: "lower", unregistered: true},
}

// perLayer are the metrics of a traced run, layer by layer. README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.plankey_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.response_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_bytes_mean", Unit: "bytes", Better: "lower"},

	{Name: "predcache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "predcache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "predcache.put_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "predcache.hit_share", Unit: "share", Better: "higher"},
	{Name: "predcache.evictions_per_op", Unit: "count", Better: "lower"},

	{Name: "coalesce.predict_solo_ns", Unit: "ns", Better: "lower"},
	{Name: "coalesce.wait_share", Unit: "share", Better: "lower"},
	{Name: "coalesce.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "coalesce.batches_per_kop", Unit: "count", Better: "lower"},

	{Name: "serve.server_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.edge_us", Unit: "us", Better: "lower"},
	{Name: "serve.mirror_gap_us", Unit: "us", Better: "lower"},
	{Name: "serve.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "serve.gc_pause_share", Unit: "share", Better: "lower"},
	{Name: "serve.errors", Unit: "count", Better: "lower"},
	{Name: "serve.swap_us", Unit: "us", Better: "lower"},

	{Name: "plan.decompose_ns", Unit: "ns", Better: "lower"},
	{Name: "plan.pipelines_per_plan", Unit: "count", Better: "lower"},

	{Name: "feature.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "feature.encode_ns_per_pipeline", Unit: "ns", Better: "lower"},

	{Name: "treec.scalar_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "treec.rows_eval_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "treec.interp_eval_ns", Unit: "ns", Better: "lower"},
	{Name: "treec.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "treec.nodes_total", Unit: "count", Better: "lower"},

	{Name: "t3.predict_plan_ns", Unit: "ns", Better: "lower"},
	{Name: "t3.predict_self_ns", Unit: "ns", Better: "lower"},
	{Name: "t3.predict_batch_ns_per_plan", Unit: "ns", Better: "lower"},
	{Name: "t3.allocs_per_predict", Unit: "count", Better: "lower"},
	{Name: "t3.load_ms", Unit: "ms", Better: "lower"},

	{Name: "joinorder.enum_ms.chain-10", Unit: "ms", Better: "lower"},
	{Name: "joinorder.enum_ms.star-10", Unit: "ms", Better: "lower"},
	{Name: "joinorder.enum_ms.clique-8", Unit: "ms", Better: "lower"},
	{Name: "joinorder.enum_ms.chain-12", Unit: "ms", Better: "lower"},
	{Name: "joinorder.model_calls", Unit: "count", Better: "lower"},
	{Name: "joinorder.pruned", Unit: "count", Better: "higher"},
	{Name: "joinorder.batches", Unit: "count", Better: "lower"},
	{Name: "joinorder.dp_steps", Unit: "count", Better: "lower"},
	{Name: "joinorder.allocs_per_enum", Unit: "count", Better: "lower"},

	{Name: "exec.tuples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec.parallel_pipeline_share", Unit: "share", Better: "higher"},
	{Name: "exec.morsels_per_query", Unit: "count", Better: "higher"},
	{Name: "exec.merge_share", Unit: "share", Better: "lower"},
	{Name: "exec.serial_query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.morsel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "exec.allocs_per_query", Unit: "count", Better: "lower"},

	{Name: "workload.instance_gen_s", Unit: "s", Better: "lower"},
	{Name: "workload.query_gen_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.collect_labels_per_s", Unit: "1/s", Better: "higher"},

	{Name: "par.do_overhead_ns", Unit: "ns", Better: "lower"},

	{Name: "gbdt.train_ms", Unit: "ms", Better: "lower"},
	{Name: "gbdt.round_ms", Unit: "ms", Better: "lower"},
	{Name: "gbdt.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "benchdata.examples_ms", Unit: "ms", Better: "lower"},
	{Name: "retrain.holdout_qerror_p50", Unit: "ratio", Better: "lower"},
	{Name: "retrain.holdout_qerror_p90", Unit: "ratio", Better: "lower"},

	{Name: "registry.put_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.load_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.artifact_kib", Unit: "KiB", Better: "lower"},

	{Name: "client.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.op_max_us", Unit: "us", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "env.conns", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metricsOf returns the definitions a run of the given kind must report.
func metricsOf(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// benchmarkFile is BENCHMARK.json at the repository root: the registration
// of this benchmark, and where the regression bounds are fixed.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
