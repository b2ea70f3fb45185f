package obs

// Built-in T3 metrics, registered with Default. Handles are package-level
// pointers so instrumented code (t3.Model, internal/gbdt, internal/engine)
// records without any lookup. Names follow Prometheus conventions:
// *_total for counters, *_seconds for duration histograms.
var (
	// Prediction serving (t3.Model, packed tier).

	// Predictions counts single-plan predictions served by the packed tier.
	Predictions = Default.NewCounter("t3_predictions_total",
		"Single-plan predictions served (packed tier).")
	// PredictLatency is the end-to-end single-prediction latency:
	// decompose + featurize + tree evaluation + per-pipeline sum.
	PredictLatency = Default.NewHistogram("t3_predict_latency_seconds",
		"End-to-end single-plan prediction latency (packed tier).", UnitNanoseconds)
	// Per-stage spans of the predict hot path, timed only on the
	// predictions that record into a flight-recorder trace (see
	// t3.Model.PredictPlanScratch), so the extra clock reads stay off most
	// predictions.

	// PredictDecompose times plan → pipeline decomposition.
	PredictDecompose = Default.NewHistogram("t3_predict_stage_decompose_seconds",
		"Sampled latency of the plan-decomposition stage.", UnitNanoseconds)
	// PredictFeaturize times pipeline → feature-vector encoding.
	PredictFeaturize = Default.NewHistogram("t3_predict_stage_featurize_seconds",
		"Sampled latency of the featurization stage.", UnitNanoseconds)
	// PredictTreeEval times packed-ensemble evaluation and the
	// per-pipeline sum.
	PredictTreeEval = Default.NewHistogram("t3_predict_stage_treeeval_seconds",
		"Sampled latency of the tree-evaluation stage.", UnitNanoseconds)

	// Batched prediction.

	// PredictBatches counts PredictBatch/PredictBatchInto calls.
	PredictBatches = Default.NewCounter("t3_predict_batches_total",
		"Batched prediction calls.")
	// PredictBatchSize is the distribution of batch sizes (plans per call).
	PredictBatchSize = Default.NewHistogram("t3_predict_batch_size",
		"Plans per batched prediction call.", UnitCount)

	// Online accuracy drift: q-errors between predictions and measured
	// executions of the same plan (RecordObserved in package t3).

	// QErrorObservations counts prediction/execution pairs scored.
	QErrorObservations = Default.NewCounter("t3_qerror_observations_total",
		"Prediction/execution pairs scored for drift.")
	// QErrorDrift is the q-error distribution of those pairs; a drifting
	// workload shows up as mass moving into higher buckets.
	QErrorDrift = Default.NewHistogram("t3_qerror_drift",
		"Q-error of predictions vs measured execution times.", UnitMilli)

	// GBDT training (internal/gbdt).

	// TrainSessions counts Train calls.
	TrainSessions = Default.NewCounter("t3_train_sessions_total",
		"GBDT training runs.")
	// TrainRounds counts boosting rounds across all training runs.
	TrainRounds = Default.NewCounter("t3_train_rounds_total",
		"Boosting rounds trained.")
	// TrainRoundTime is per-round wall time (gradients + grow + update).
	TrainRoundTime = Default.NewHistogram("t3_train_round_seconds",
		"Wall time per boosting round.", UnitNanoseconds)
	// TrainGrowTime is per-round tree-growing time (histogram builds and
	// split search), the dominant cost inside a round.
	TrainGrowTime = Default.NewHistogram("t3_train_grow_seconds",
		"Wall time per tree grow (histogram build + split search).", UnitNanoseconds)
	// TrainRowsPerSec is the most recent training throughput:
	// rows × rounds / wall time.
	TrainRowsPerSec = Default.NewGauge("t3_train_rows_per_second",
		"Training throughput of the last Train call (rows x rounds / s).")

	// Label collection (internal/workload), the parallel runner producing
	// the (plan, pipeline-time) training data.

	// CollectQueries counts queries fully collected (analyze + timing runs).
	CollectQueries = Default.NewCounter("t3_collect_queries_total",
		"Queries executed by the label-collection runner.")
	// CollectQueryTime is the per-query collection latency (analyze run plus
	// all timing runs).
	CollectQueryTime = Default.NewHistogram("t3_collect_query_seconds",
		"Wall time to collect one query's labels.", UnitNanoseconds)
	// CollectThroughput is the most recent collection throughput in
	// queries per second across all workers.
	CollectThroughput = Default.NewGauge("t3_collect_queries_per_second",
		"Throughput of the last label-collection run.")

	// Serving tier (internal/serve, internal/predcache): the binary wire
	// endpoints, the fingerprint-keyed prediction cache, and the
	// per-connection miss batches in front of batched prediction.

	// ServeBinRequests counts binary-protocol predict requests
	// (/predict.bin and the raw TCP listener).
	ServeBinRequests = Default.NewCounter("t3_serve_bin_requests_total",
		"Binary-protocol predict requests served.")
	// ServeBinErrors counts binary-protocol requests answered with an error
	// frame.
	ServeBinErrors = Default.NewCounter("t3_serve_bin_errors_total",
		"Binary-protocol predict requests answered with an error.")
	// ServeBinLatency is the server-side handling latency of binary
	// predict requests (decode + cache or model + respond).
	ServeBinLatency = Default.NewHistogram("t3_serve_bin_request_seconds",
		"Server-side binary predict request latency.", UnitNanoseconds)
	// ServeCacheHits counts prediction-cache hits.
	ServeCacheHits = Default.NewCounter("t3_serve_cache_hits_total",
		"Prediction-cache hits.")
	// ServeCacheMisses counts prediction-cache misses.
	ServeCacheMisses = Default.NewCounter("t3_serve_cache_misses_total",
		"Prediction-cache misses.")
	// ServeCacheEvictions counts LRU evictions from the prediction cache.
	ServeCacheEvictions = Default.NewCounter("t3_serve_cache_evictions_total",
		"Prediction-cache LRU evictions.")
	// ServeCacheInvalidations counts whole-cache invalidations (model swaps).
	ServeCacheInvalidations = Default.NewCounter("t3_serve_cache_invalidations_total",
		"Prediction-cache invalidations (model swaps).")
	// ServeInflight is the number of requests currently being handled by
	// the serving tier (HTTP handlers plus in-flight TCP wire requests).
	ServeInflight = Default.NewGauge("t3_serve_inflight_requests",
		"Requests currently being handled by the serving tier.")
	// ServeCoalesceBatches counts the model calls of the serving miss path:
	// one per read of a connection that held at least one cache miss. The
	// series keep the names they had when a cross-connection coalescer
	// formed the batches; dashboards and bench/ read them.
	ServeCoalesceBatches = Default.NewCounter("t3_serve_coalesce_batches_total",
		"Model calls of the serving miss path (one per connection read with a miss).")
	// ServeCoalesceBatchSize is the distribution of misses priced per model
	// call; mass above 1 is pipelined frames sharing one kernel call.
	ServeCoalesceBatchSize = Default.NewHistogram("t3_serve_coalesce_batch_size",
		"Cache misses priced per model call of the serving miss path.", UnitCount)

	// Join-order enumeration (internal/joinorder): DPsize driven by the
	// T3 cost model, scalar or level-batched.

	// JoinorderDPSteps counts candidate (build, probe) pairs costed by the
	// DP enumeration loop.
	JoinorderDPSteps = Default.NewCounter("t3_joinorder_dp_steps_total",
		"Candidate join pairs costed by DPsize enumeration.")
	// JoinorderModelCalls counts model predictions issued while enumerating.
	JoinorderModelCalls = Default.NewCounter("t3_joinorder_model_calls_total",
		"Model predictions issued by join-order enumeration.")
	// JoinorderBatchSize is the distribution of batched-prediction flush
	// sizes (feature rows per PredictBatchInto call) in the level-batched
	// enumerator.
	JoinorderBatchSize = Default.NewHistogram("t3_joinorder_batch_size",
		"Feature rows per batched planner prediction flush.", UnitCount)
	// JoinorderEnumTime is the wall time of one full DPsize enumeration.
	JoinorderEnumTime = Default.NewHistogram("t3_joinorder_enum_seconds",
		"Wall time per join-order enumeration.", UnitNanoseconds)

	// Pipeline execution (internal/engine/exec), the ground-truth side of
	// drift accounting.

	// ExecPlans counts plans executed.
	ExecPlans = Default.NewCounter("t3_exec_plans_total",
		"Plans executed by the in-memory engine.")
	// ExecPipelines counts pipelines executed.
	ExecPipelines = Default.NewCounter("t3_exec_pipelines_total",
		"Pipelines executed by the in-memory engine.")
	// ExecPipelineTime is per-pipeline wall time.
	ExecPipelineTime = Default.NewHistogram("t3_exec_pipeline_seconds",
		"Wall time per executed pipeline.", UnitNanoseconds)
	// ExecTuples counts source tuples pushed into pipelines.
	ExecTuples = Default.NewCounter("t3_exec_tuples_total",
		"Source tuples pushed through executed pipelines.")
	// ExecParallelPipelines counts pipelines executed morsel-parallel.
	ExecParallelPipelines = Default.NewCounter("t3_exec_parallel_pipelines_total",
		"Pipelines executed with morsel-driven parallelism.")
	// ExecMorsels counts source partitions dispatched to the worker pool.
	ExecMorsels = Default.NewCounter("t3_exec_morsels_total",
		"Morsel partitions dispatched by parallel pipelines.")
	// ExecPartitionTime is the wall time of one morsel partition (scan
	// through partial build), across all workers.
	ExecPartitionTime = Default.NewHistogram("t3_exec_partition_seconds",
		"Wall time per morsel partition of a parallel pipeline.", UnitNanoseconds)
	// ExecMergeTime is a parallel pipeline's serial tail: the ordered merge
	// of partition partials left after the last partition finished, plus
	// the finalize.
	ExecMergeTime = Default.NewHistogram("t3_exec_merge_seconds",
		"Wall time of a parallel pipeline after its last partition finished: the merge left over and the finalize.", UnitNanoseconds)
)
