package main

import (
	"sort"
	"time"

	"repro/internal/serve"
)

// workload is one named input set of the benchmark. Engine workloads
// (engine != nil) run specs in a closed loop through serve.Execute in a
// worker process; serve-mix drives a radionet-serve process in an open loop.
type workload struct {
	name   string
	engine *engineWorkload
	// slo is the latency limit behind slo_share. BENCHMARK.json states it
	// in the workload's "why"; the self-test checks that they agree.
	slo time.Duration
}

// engineWorkload is the spec template of an engine workload; each op sets a
// fresh seed, so no cache is involved.
type engineWorkload struct {
	spec serve.Spec
}

// tinyEngineN is the engine workloads' node count in tiny mode.
const tinyEngineN = 256

// Serve-mix settings. The arrival rate and the SLO limit are stated in
// BENCHMARK.json's "why" for serve-mix as well.
const (
	// serveRateHz is the Poisson arrival rate. It asks for a sixth to a
	// fifth of radionet-serve's capacity on this mix: the run's requests,
	// sent back to back (perfbench -saturate), complete at 1320-1540 req/s
	// on the reference host (NOTES.md). Its speed drifts by up to half
	// over minutes; even then the load stays below a third, so latency is
	// service time and short waits for a worker, not a queue that grows.
	serveRateHz = 250.0
	// serveConns bounds the keep-alive connections. It is well above the
	// concurrency the mix needs, so a slow response never holds up later
	// sends on the client side: with 8, requests queued in the client
	// behind the medium misses, and req_ms.p99 read 290 ms where the
	// server observed 79 ms.
	serveConns = 32
	// sendLateLimit marks a run invalid when the generator's p99 lateness
	// exceeds it: the latencies would then measure the generator.
	sendLateLimit = 50 * time.Millisecond
	// drainTimeout bounds the wait for requests still outstanding when the
	// schedule ends; a request unfinished by then counts as failed.
	drainTimeout = 60 * time.Second
	// window is serve-mix's sampling window: the server's peak RSS, the
	// host's steal share and req_ms.p50 are taken per window; req_ms.p50
	// reports the median window, mem_peak_mb the largest peak.
	window = 2500 * time.Millisecond
)

var workloads = map[string]workload{
	"mis-sinr": {
		name:   "mis-sinr",
		engine: &engineWorkload{spec: serve.Spec{Algo: "mis", Graph: "phy:sinr", N: 8192}},
		slo:    60 * time.Second,
	},
	"bcast-udg": {
		name:   "bcast-udg",
		engine: &engineWorkload{spec: serve.Spec{Algo: "broadcast", Graph: "udg", N: 8192}},
		slo:    60 * time.Second,
	},
	"serve-mix": {
		name: "serve-mix",
		slo:  100 * time.Millisecond,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s.p50", "s"},
	{"req_ms.p50", "ms"},
	{"req_ms.p99", "ms"},
	{"slo_share", "ratio"},
	{"ok_share", "ratio"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists the metrics of a traced run, on every workload. A layer a
// workload bypasses reports 0 there (NOTES.md says which).
var perLayer = []metricDef{
	{"phy.resolve_s", "s"},
	{"phy.fallback_s", "s"},
	{"phy.sync_s", "s"},
	{"phy.clear_s", "s"},
	{"phy.resolve_calls", "count"},
	{"phy.fallback_sweeps", "count"},
	{"phy.fallback_step_share", "ratio"},
	{"phy.arena_high_water", "count"},
	{"phy.arena_cap", "count"},
	{"phy.decode_share", "ratio"},
	{"mis.act_s", "s"},
	{"mis.deliver_s", "s"},
	{"mis.act_calls", "count"},
	{"mis.transmit_share", "ratio"},
	{"radio.run_s", "s"},
	{"radio.self_s", "s"},
	{"radio.steps", "count"},
	{"radio.transmissions", "count"},
	{"radio.deliveries", "count"},
	{"radio.collisions", "count"},
	{"graph.diameter_s", "s"},
	{"gen.build_s", "s"},
	{"core.broadcast_s", "s"},
	{"core.mis_steps", "count"},
	{"core.main_steps", "count"},
	{"serve.encode_s", "s"},
	{"http.simulate_ms.p50", "ms"},
	{"http.simulate_ms.p99", "ms"},
	{"serve.hit_share", "ratio"},
	{"serve.tier.memory", "count"},
	{"serve.tier.durable", "count"},
	{"serve.tier.prefix", "count"},
	{"serve.tier.coalesced", "count"},
	{"serve.tier.miss", "count"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.executions", "count"},
	{"serve.job_retries", "count"},
	{"serve.prefix_epochs_saved", "count"},
	{"store.get_ms.sum", "ms"},
	{"store.put_ms.sum", "ms"},
	{"store.fsync_ms.sum", "ms"},
	{"store.fsync_count", "count"},
	{"journal.append_ms.sum", "ms"},
	{"journal.fsync_ms.sum", "ms"},
	{"journal.fsync_count", "count"},
	{"harness.send_late_ms.p99", "ms"},
	{"trace.job_s", "s"},
	{"trace.untraced_job_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}
