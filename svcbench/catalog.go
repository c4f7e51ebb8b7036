package main

// The metric catalog: every figure the benchmark reports, with its unit and
// direction. End-to-end metrics carry the bound by which a change may worsen
// them; per-layer metrics name the end-to-end metric they should move and
// the workloads on which they should move it, so a change that claims a gain
// can cite both by name. BENCHMARK.json at the repository root repeats the
// end-to-end and per-layer names; TestCatalogMatchesBenchmarkJSON keeps the
// two in step.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Moves names the end-to-end metrics a change to this layer should move;
	// On names the workloads where it should move them.
	Moves, On string
	Doc       string
}

// endToEnd lists what a caller of the service sees, on the host clock unless
// the name says sim. Every workload reports all of them; latency_ms_* and
// answers_per_s time the call each workload's why names.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median wall time of NewService or NewMutableService over the run's constructions"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.24,
		Doc: "median latency of the workload's timed call (Run; RunSweep; ApplyDelta plus Repair on web-mutate)"},
	{Name: "latency_ms_p75", Unit: "ms", Better: "lower", Bound: 0.24,
		Doc: "75th percentile of the same latency, over at least 40 samples (a 64-source sweep takes too long for 100 in one run)"},
	{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.24,
		Doc: "BFS answers completed per second by all clients: Run results, sweep lanes, Repair results"},
	{Name: "sim_gteps", Unit: "GTEPS", Better: "higher", Bound: 0.24,
		Doc: "geometric mean of simulated GTEPS over the warm-up's answers (Graph500 m/2); deterministic per seed"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.24,
		Doc: "90th percentile of the live heap sampled every 5 ms in the measured window, less the benchmark's own inputs"},
}

// extraEndToEnd are printed by name in the report but not listed in
// BENCHMARK.json: they exist on some workloads only, or are zero on a
// correct program, while every workload must report every listed metric as
// a non-zero measurement.
var extraEndToEnd = []metricDef{
	{Name: "run_ms_p50", Unit: "ms", Better: "lower", Doc: "Service.Run latency (rmat-run, rmat-exchange, web-mutate reader)"},
	{Name: "run_ms_p99", Unit: "ms", Better: "lower", Doc: "Service.Run latency, printed when at least 1000 samples"},
	{Name: "run_qps", Unit: "1/s", Better: "higher", Doc: "Service.Run calls completed per second"},
	{Name: "sweep_ms_p50", Unit: "ms", Better: "lower", Doc: "Service.RunSweep latency (rmat-sweep)"},
	{Name: "sweep_ms_p90", Unit: "ms", Better: "lower", Doc: "Service.RunSweep latency, printed when at least 100 samples"},
	{Name: "sweep_qps", Unit: "1/s", Better: "higher", Doc: "sources answered per second through sweeps"},
	{Name: "apply_ms_p50", Unit: "ms", Better: "lower", Doc: "MutableService.ApplyDelta latency (web-mutate)"},
	{Name: "apply_ms_p90", Unit: "ms", Better: "lower", Doc: "MutableService.ApplyDelta latency"},
	{Name: "repair_ms_p50", Unit: "ms", Better: "lower", Doc: "MutableService.Repair latency (web-mutate)"},
	{Name: "repair_ms_p90", Unit: "ms", Better: "lower", Doc: "MutableService.Repair latency"},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Doc: "operations that returned an error or a wrong answer, over those attempted"},
}

// perLayer lists the traced run's figures. Every workload measures all of
// them on its own graph and configuration; On names where each should move.
var perLayer = []metricDef{
	{Name: "core.run_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 answers_per_s", On: "rmat-run",
		Doc: "core.Plan.Run host time on a plan the benchmark builds with the service's options"},
	{Name: "core.ns_per_edge", Unit: "ns", Better: "lower", Moves: "latency_ms_p50 answers_per_s", On: "rmat-run",
		Doc: "core.Plan.Run host ns over Result.EdgesScanned"},
	{Name: "gcbfs.self_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50", On: "rmat-run rmat-exchange web-mutate",
		Doc: "median of Service.Run minus core.Plan.Run on the same source (RunSweep minus Plan.RunSweep on rmat-sweep)"},
	{Name: "core.us_per_iteration", Unit: "us", Better: "lower", Moves: "answers_per_s", On: "web-mutate",
		Doc: "core.Plan.Run host time over Result.Iterations"},
	{Name: "core.iterations_per_query", Unit: "count", Better: "lower", Moves: "answers_per_s", On: "web-mutate",
		Doc: "mean BSP iterations per query"},
	{Name: "mpi.allreduce_or_us", Unit: "us", Better: "lower", Moves: "answers_per_s latency_ms_p50", On: "web-mutate rmat-run",
		Doc: "one Comm.AllreduceOr across the workload's ranks at its delegate-mask size"},
	{Name: "mpi.sendrecv_us", Unit: "us", Better: "lower", Moves: "latency_ms_p50", On: "rmat-exchange",
		Doc: "one all-pairs Isend/Recv round across the ranks at the workload's mean message size"},
	{Name: "wire.encode_ns_per_id", Unit: "ns", Better: "lower", Moves: "latency_ms_p50", On: "rmat-exchange; no change on rmat-run",
		Doc: "wire.Append (adaptive) on per-level, per-owner-GPU frontier blocks rebuilt from answered levels"},
	{Name: "wire.decode_ns_per_id", Unit: "ns", Better: "lower", Moves: "latency_ms_p50", On: "rmat-exchange; no change on rmat-run",
		Doc: "wire.Decode of the same blocks"},
	{Name: "wire.bytes_per_query", Unit: "B", Better: "lower", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "Result.WireBytes per query (exact)"},
	{Name: "wire.savings", Unit: "frac", Better: "higher", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "1 - WireBytes/WireRawBytes (exact; 0 with compression off)"},
	{Name: "core.messages_per_query", Unit: "count", Better: "lower", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "Result.Messages per query (exact)"},
	{Name: "core.butterfly_iter_frac", Unit: "frac", Better: "higher", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "share of iterations the exchange policy ran as butterfly (exact)"},
	{Name: "core.policy_error", Unit: "frac", Better: "lower", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "|predicted - actual| remote-normal time over actual (exact)"},
	{Name: "core.sweep_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50 answers_per_s", On: "rmat-sweep",
		Doc: "core.Plan.RunSweep host time for the workload's sweep width"},
	{Name: "partition.separate_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: "all",
		Doc: "partition.Separate at the service's threshold"},
	{Name: "partition.distribute_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: "all",
		Doc: "partition.Distribute (Algorithm 1)"},
	{Name: "core.new_plan_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: "all",
		Doc: "core.NewPlan on the distributed subgraphs"},
	{Name: "delta.apply_ms", Unit: "ms", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "delta.Apply of the workload's 0.1% mixed delta"},
	{Name: "partition.distribute_incremental_ms", Unit: "ms", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "partition.DistributeIncremental onto the next epoch"},
	{Name: "partition.shared_gpu_frac", Unit: "frac", Better: "higher", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "GPU subgraphs the incremental build reused, over all GPUs"},
	{Name: "delta.affected_ms", Unit: "ms", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "delta.Affected on a prior answer"},
	{Name: "delta.affected_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "vertices delta.Affected invalidates, over all vertices"},
	{Name: "core.repair_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "core.Plan.RunRepair host time"},
	{Name: "core.repair_vs_run", Unit: "ratio", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate",
		Doc: "core.Plan.RunRepair host time over a full core.Plan.Run on the same epoch"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: "latency_ms_p75 heap_mb", On: "rmat-run rmat-exchange",
		Doc: "heap objects allocated per timed call over the measured window (GOMAXPROCS as recorded)"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "latency_ms_p75 heap_mb", On: "rmat-run rmat-exchange",
		Doc: "heap bytes allocated per timed call over the measured window"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p75 heap_mb", On: "rmat-run rmat-exchange",
		Doc: "GC CPU time over all CPU time in the measured window"},
	{Name: "simgpu.computation_us", Unit: "sim_us", Better: "lower", Moves: "sim_gteps", On: "rmat-run",
		Doc: "simulated computation per query (Fig. 10 split, exact)"},
	{Name: "simnet.local_comm_us", Unit: "sim_us", Better: "lower", Moves: "sim_gteps", On: "rmat-run rmat-exchange",
		Doc: "simulated local communication per query (exact)"},
	{Name: "simnet.remote_normal_us", Unit: "sim_us", Better: "lower", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "simulated remote normal exchange per query (exact)"},
	{Name: "simnet.remote_delegate_us", Unit: "sim_us", Better: "lower", Moves: "sim_gteps", On: "rmat-run",
		Doc: "simulated delegate-mask reduction per query (exact)"},
	{Name: "simnet.hidden_codec_frac", Unit: "frac", Better: "higher", Moves: "sim_gteps", On: "rmat-exchange",
		Doc: "codec time the pipelined exchange hid, over codec time (exact; 0 with compression off)"},
	{Name: "baseline.serial_bfs_ms_p50", Unit: "ms", Better: "lower", Moves: "none: calibrates the machine", On: "all",
		Doc: "baseline.SerialBFS host time on the same sources"},
	{Name: "core.speedup_vs_serial", Unit: "ratio", Better: "higher", Moves: "none: calibrates the machine", On: "all",
		Doc: "baseline.serial_bfs_ms_p50 over core.run_ms_p50"},
	{Name: "g500.validate_ms", Unit: "ms", Better: "lower", Moves: "none: prices the check", On: "all",
		Doc: "g500.Validate host time on the same answers"},
	{Name: "trace.overhead_ms", Unit: "ms", Better: "lower", Moves: "none: prices the tracing", On: "all",
		Doc: "traced window's latency_ms_p50 minus the untraced window's, in the same process"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none: sizes the trace", On: "all",
		Doc: "spans recorded by the traced run"},
	{Name: "gcbfs.self_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p50", On: "all",
		Doc: "share of the traced run's span time spent in the gcbfs layer's own spans, children excluded"},
	{Name: "core.self_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p50", On: "all", Doc: "as gcbfs.self_frac, for core"},
	{Name: "wire.self_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p50", On: "all", Doc: "as gcbfs.self_frac, for wire"},
	{Name: "mpi.self_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p50", On: "all", Doc: "as gcbfs.self_frac, for mpi"},
	{Name: "partition.self_frac", Unit: "frac", Better: "lower", Moves: "setup_s", On: "all", Doc: "as gcbfs.self_frac, for partition"},
	{Name: "delta.self_frac", Unit: "frac", Better: "lower", Moves: "latency_ms_p50", On: "web-mutate", Doc: "as gcbfs.self_frac, for delta"},
	{Name: "baseline.self_frac", Unit: "frac", Better: "lower", Moves: "none", On: "all", Doc: "as gcbfs.self_frac, for baseline"},
	{Name: "g500.self_frac", Unit: "frac", Better: "lower", Moves: "none", On: "all", Doc: "as gcbfs.self_frac, for g500"},
}

// traceLayers are the layers whose spans the traced run attributes self
// time to, in report order.
var traceLayers = []string{"gcbfs", "core", "wire", "mpi", "partition", "delta", "baseline", "g500"}
