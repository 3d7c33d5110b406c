package main

// metricSpec declares one metric: BENCHMARK.json at the repository root
// carries the same list (bench_test.go holds the two together).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// workloadNames fixes the workloads and their order; later changes refer to
// them by these names.
var workloadNames = []string{"plan_cold", "edit_loop", "converge_cycle", "daemon_mixed"}

// endToEnd is what a user of the system sees, measured with nothing timing
// anything inside the window. Every workload reports every one of them; "op"
// is the workload's unit of work (README.md says which).
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"op_ms_p50", "ms", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// perLayer is what the trace run reports; a metric a workload does not
// exercise reads 0 there.
var perLayer = []metricSpec{
	// The reference passes of the trace run: sample count, throughput, and
	// the highest percentile with at least ten samples beyond it (README.md
	// says why throughput and tail are not end-to-end metrics).
	{"op_samples", "count", higher, 0},
	{"ops_per_s", "1/s", higher, 0},
	{"op_ms_tail", "ms", lower, 0},
	{"op_tail_pct", "%", higher, 0},
	{"trace_overhead_frac", "frac", lower, 0},
	{"unattributed_frac", "frac", lower, 0},
	{"bench.cpu_s", "s", lower, 0},

	{"config.load_ms", "ms", lower, 0},
	{"config.expand_ms", "ms", lower, 0},
	{"config.setvar_ms", "ms", lower, 0},

	{"plan.compute_full_ms", "ms", lower, 0},
	{"plan.evaluated_per_plan", "count", lower, 0},
	{"plan.scale_exp", "exp", lower, 0},
	{"plan.replan_ms", "ms", lower, 0},
	{"plan.replan_evaluated", "count", lower, 0},
	{"plan.replay_clean_ms", "ms", lower, 0},

	{"statedb.open_ms", "ms", lower, 0},
	{"statedb.commit1_ms", "ms", lower, 0},
	{"statedb.commits_per_s", "1/s", higher, 0},
	{"statedb.bytes_per_commit", "B", lower, 0},
	{"statedb.dir_bytes", "B", lower, 0},

	{"apply.edit_ms", "ms", lower, 0},
	{"apply.noncloud_ms_per_op.deploy", "ms", lower, 0},
	{"apply.noncloud_ms_per_op.destroy", "ms", lower, 0},

	{"provider.calls", "count", lower, 0},
	{"provider.cache_hit_frac", "frac", higher, 0},
	{"provider.coalesced", "count", higher, 0},
	{"provider.retries", "count", lower, 0},
	{"provider.get_us", "us", lower, 0},
	{"cloud.sim_get_us", "us", lower, 0},

	{"cloud.calls_per_plan", "count", lower, 0},
	{"cloud.calls_per_edit", "count", lower, 0},
	{"cloud.calls_per_deploy", "count", lower, 0},
	{"cloud.calls_per_scan", "count", lower, 0},
	{"cloud.calls_per_repair", "count", lower, 0},
	{"cloud.calls_per_destroy", "count", lower, 0},
	{"cloud.calls_per_job", "count", lower, 0},
	{"cloud.batch_items_per_call", "count", higher, 0},
	{"cloud.busy_ms", "ms", lower, 0},
	{"cloud.busy_ms.deploy", "ms", lower, 0},
	{"cloud.busy_ms.scan", "ms", lower, 0},
	{"cloud.busy_ms.repair", "ms", lower, 0},
	{"cloud.busy_ms.destroy", "ms", lower, 0},
	{"cloud.rtt_us_p50", "us", lower, 0},
	{"cloud.server_ms_per_job", "ms", lower, 0},

	// The four converge_cycle phases, whose sum is that workload's op.
	{"deploy_ms_p50", "ms", lower, 0},
	{"scan_ms_p50", "ms", lower, 0},
	{"drift_repair_ms_p50", "ms", lower, 0},
	{"destroy_ms_p50", "ms", lower, 0},
	{"drift.watch_ms", "ms", lower, 0},
	{"drift.reconcile_ms", "ms", lower, 0},

	{"jobs.queue_wait_ms_p50", "ms", lower, 0},
	{"jobs.queue_wait_ms_p99", "ms", lower, 0},
	{"jobs.run_ms_p50.apply", "ms", lower, 0},
	{"jobs.run_ms_p50.plan", "ms", lower, 0},
	{"jobs.run_ms_p50.scan", "ms", lower, 0},
	{"jobs.run_ms_p50.drift", "ms", lower, 0},
	{"jobs.run_ms_p50.destroy", "ms", lower, 0},
	{"jobs.journal_bytes_per_job", "B", lower, 0},

	{"server.submit_ms_p50", "ms", lower, 0},
	{"server.notify_ms_p50", "ms", lower, 0},
	{"server.get_ms_p50", "ms", lower, 0},
	{"job_ms_p50.apply", "ms", lower, 0},
	{"job_ms_p50.plan", "ms", lower, 0},
	{"job_ms_p50.scan", "ms", lower, 0},
	{"job_ms_p50.drift", "ms", lower, 0},
	{"job_ms_p50.destroy", "ms", lower, 0},

	{"workspace.open_ms", "ms", lower, 0},
	{"workspace.close_ms", "ms", lower, 0},

	{"daemon.cpu_ms_per_job", "ms", lower, 0},
	{"daemon.write_bytes_per_job", "B", lower, 0},
	{"daemon.syscw_per_job", "count", lower, 0},
	{"daemon.start_ms", "ms", lower, 0},
	{"daemon.restart_ms", "ms", lower, 0},
}

func specs(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}
