package serve

// The service's metric surface (DESIGN.md §10). Naming scheme:
// <subsystem>_<noun>_<unit|total>, subsystems serve_http / serve_cache /
// serve_job / serve_journal / serve_store / serve_engine. Counters already
// tracked as Service atomics are exported through CounterFunc/GaugeFunc
// closures so the exposition reads the same bookkeeping /v1/stats reports —
// the two views cannot drift.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/store"
)

// metrics owns the service's obs.Registry and every instrument that is
// updated on hot paths. One instance per Service (never global), so tests
// and multiple services in one process cannot collide.
type metrics struct {
	reg *obs.Registry

	// HTTP layer (written by the middleware in http.go).
	httpRequests *obs.CounterVec   // serve_http_requests_total{route,code}
	httpLatency  *obs.HistogramVec // serve_http_request_seconds{route}
	httpInFlight *obs.Gauge        // serve_http_in_flight_requests
	cacheTier    *obs.CounterVec   // serve_cache_requests_total{tier}

	// Job layer.
	queueWait *obs.Histogram // serve_job_queue_wait_seconds

	// Engine probe state: last-sample gauges (advisory load, last write
	// wins across concurrent trials) plus a probe counter.
	probes           obs.Counter
	engineSteps      obs.FloatGauge // steps/sec of the last probe window
	engineActive     obs.Gauge      // active-set size at the last probe
	engineFrontier   obs.FloatGauge // mean per-step transmitter frontier
	engineArenaCap   obs.Gauge      // SINR candidate-arena budget
	engineArenaHW    obs.Gauge      // SINR candidate-arena high water
	engineFallbacks  obs.Gauge      // SINR multi-run steps (cumulative per run)
	enginePHYSamples obs.Counter    // probes that carried PHY stats
}

// storeKeyspaces labels the two durable keyspaces sharing the store
// instrument families.
const (
	keyspaceResult = "result"
	keyspaceSnap   = "snap"
)

// newMetrics builds the registry for s and registers the pull-side views
// over its existing counters. Called from Open before any traffic.
func newMetrics(s *Service) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		httpRequests: reg.CounterVec("serve_http_requests_total",
			"HTTP requests by route and status code", "route", "code"),
		httpLatency: reg.HistogramVec("serve_http_request_seconds",
			"HTTP request latency by route", []string{"route"}),
		httpInFlight: reg.Gauge("serve_http_in_flight_requests",
			"HTTP requests currently being served"),
		cacheTier: reg.CounterVec("serve_cache_requests_total",
			"responses by cache tier (memory|durable|prefix|coalesced|miss)", "tier"),
		queueWait: reg.Histogram("serve_job_queue_wait_seconds",
			"time jobs spent queued before a worker picked them up"),
	}

	// Queue / job / uptime gauges, reading service state at scrape time.
	reg.GaugeFunc("serve_job_queue_depth", "async jobs queued and not yet running",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("serve_job_queue_capacity", "async job queue capacity",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("serve_jobs_running", "async jobs currently executing",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.runningLocked())
		})
	reg.GaugeFunc("serve_uptime_seconds", "seconds since the service opened",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("serve_draining", "1 once shutdown began (reads served, compute refused)",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	// Counter views over the Service atomics /v1/stats also reports.
	counterFuncs := []struct {
		name, help string
		fn         func() uint64
	}{
		{"serve_executions_total", "simulations actually executed (cache misses that computed)", s.execs.Load},
		{"serve_coalesced_total", "requests served by piggybacking on an in-flight identical execution", s.coalesced.Load},
		{"serve_prefix_hits_total", "computations resumed from cached prefix snapshots", s.prefixHits.Load},
		{"serve_prefix_epochs_saved_total", "epochs skipped by prefix-snapshot resume, summed over trials", s.prefixEpochs.Load},
		{"serve_job_retries_total", "job execution retry attempts", s.retries.Load},
		{"serve_job_timeouts_total", "jobs failed terminally by Config.JobTimeout", s.timeouts.Load},
		{"serve_job_resumes_total", "interrupted jobs re-enqueued from the journal at Open", s.recJobs.Load},
		{"serve_job_resumed_trials_total", "completed trials prefilled from the journal at Open", s.recTrials.Load},
		{"serve_journal_errors_total", "non-fatal journal append failures", s.journalErrs.Load},
		{"serve_snap_errors_total", "failed prefix-snapshot publications", s.snapErrs.Load},
	}
	for _, c := range counterFuncs {
		reg.CounterFunc(c.name, c.help, c.fn)
	}

	// Engine probe gauges (fed by observeProbe via radio.Options.Probe).
	reg.CounterFunc("serve_engine_probes_total",
		"engine probe samples received (epoch boundaries + run ends)", m.probes.Value)
	reg.GaugeFunc("serve_engine_steps_per_second",
		"engine step rate over the last probe window", m.engineSteps.Value)
	reg.GaugeFunc("serve_engine_active_nodes",
		"active-set size at the last engine probe", func() float64 { return float64(m.engineActive.Value()) })
	reg.GaugeFunc("serve_engine_frontier_avg",
		"mean per-step transmitter-frontier population over the last probe window", m.engineFrontier.Value)
	reg.CounterFunc("serve_engine_phy_probes_total",
		"engine probes that carried PHY (SINR) load stats", m.enginePHYSamples.Value)
	reg.GaugeFunc("serve_engine_sinr_arena_cap",
		"SINR candidate-arena budget of the last probed run", func() float64 { return float64(m.engineArenaCap.Value()) })
	reg.GaugeFunc("serve_engine_sinr_arena_high_water",
		"largest candidate count a step asked of the arena in the last probed run", func() float64 { return float64(m.engineArenaHW.Value()) })
	reg.GaugeFunc("serve_engine_sinr_fallback_sweeps",
		"steps resolved in more than one arena run in the last probed run", func() float64 { return float64(m.engineFallbacks.Value()) })

	return m
}

// storeMetrics builds the instrument set for one durable keyspace, sharing
// the labeled family across keyspaces.
func (m *metrics) storeMetrics(keyspace string) store.Metrics {
	gets := m.reg.HistogramVec("serve_store_get_seconds",
		"durable-store read latency by keyspace", []string{"keyspace"})
	puts := m.reg.HistogramVec("serve_store_put_seconds",
		"durable-store write latency by keyspace", []string{"keyspace"})
	fsyncs := m.reg.HistogramVec("serve_store_fsync_seconds",
		"durable-store fsync latency by keyspace", []string{"keyspace"})
	quars := m.reg.CounterVec("serve_store_quarantined_total",
		"corrupt entries moved to quarantine on read, by keyspace", "keyspace")
	return store.Metrics{
		GetSeconds:   gets.With(keyspace),
		PutSeconds:   puts.With(keyspace),
		FsyncSeconds: fsyncs.With(keyspace),
		Quarantined:  quars.With(keyspace),
	}
}

// journalMetrics builds the journal's instrument set.
func (m *metrics) journalMetrics() journalMetrics {
	return journalMetrics{
		AppendSeconds: m.reg.Histogram("serve_journal_append_seconds",
			"journal append latency (marshal + write + any fsync)"),
		FsyncSeconds: m.reg.Histogram("serve_journal_fsync_seconds",
			"fsync latency of durable (lifecycle) journal records"),
	}
}

// observeProbe folds one engine probe sample into the gauges. Samples
// arrive from concurrently running trials; these are advisory last-write-
// wins load indicators, not an accounting surface (the accounting counters
// are in Result/Stats).
func (m *metrics) observeProbe(s *radio.ProbeSample) {
	m.probes.Inc()
	m.engineSteps.Set(s.StepsPerSec)
	m.engineActive.Set(int64(s.Active))
	m.engineFrontier.Set(s.AvgFrontier)
	if s.HasPHY {
		m.enginePHYSamples.Inc()
		m.engineArenaCap.Set(int64(s.PHY.ArenaCap))
		m.engineArenaHW.Set(int64(s.PHY.ArenaHighWater))
		m.engineFallbacks.Set(int64(s.PHY.FallbackSweeps))
	}
}

// observeTier counts one response's cache tier from its X-Cache header
// value ("HIT", "HIT-DURABLE", "HIT-PREFIX", "COALESCED", "MISS").
func (m *metrics) observeTier(xcache string) {
	var tier string
	switch xcache {
	case "HIT":
		tier = "memory"
	case "HIT-DURABLE":
		tier = "durable"
	case "HIT-PREFIX":
		tier = "prefix"
	case "COALESCED":
		tier = "coalesced"
	case "MISS":
		tier = "miss"
	default:
		return
	}
	m.cacheTier.With(tier).Inc()
}
