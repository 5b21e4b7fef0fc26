package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// This file implements the -engine-bench mode: it runs the simulator-engine
// micro-benchmarks through testing.Benchmark and writes a machine-readable
// BENCH_engine.json so the perf trajectory is tracked across PRs. The
// seed-baseline block records the same workloads measured on the seed's
// engines (dense-scan delivery, goroutine-per-node concurrency) for
// comparison.

// EngineBenchResult is one benchmark row of BENCH_engine.json. Procs is
// the GOMAXPROCS override the row ran under (0 = the process default, see
// the report's gomaxprocs field). AllocExact marks rows whose timed region
// is a steady-state step loop with no construction inside it: allocs/op is
// deterministic there, so the regression gate compares it exactly — any
// increase over the committed baseline fails, with no slack.
type EngineBenchResult struct {
	Name            string  `json:"name"`
	Nodes           int     `json:"nodes"`
	StepsPerOp      int     `json:"steps_per_op"`
	Procs           int     `json:"procs,omitempty"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	NodeStepsPerSec float64 `json:"node_steps_per_sec"`
	AllocExact      bool    `json:"alloc_exact,omitempty"`
	// EngineBytes is the resident heap footprint of the fully constructed
	// run — topology snapshot, deployment geometry, PHY model, and engine
	// node state — measured after a GC at the first step of a live run
	// (see measureFootprint). Zero on rows that don't measure it.
	EngineBytes int64 `json:"engine_bytes,omitempty"`
	// BytesPerNode is EngineBytes / Nodes, the scale metric the memory gate
	// compares across reports.
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
}

// EngineBenchReport is the BENCH_engine.json document.
type EngineBenchReport struct {
	GeneratedBy  string              `json:"generated_by"`
	GoVersion    string              `json:"go_version"`
	GoMaxProcs   int                 `json:"gomaxprocs"`
	Benchmarks   []EngineBenchResult `json:"benchmarks"`
	SeedBaseline []EngineBenchResult `json:"seed_baseline"`
	BaselineNote string              `json:"baseline_note"`
}

// benchPayload is boxed once so protocols don't allocate per transmission.
var benchPayload radio.Message = int64(7)

// benchNode transmits a coin flip per step; dead nodes retire at step 0.
type benchNode struct {
	rng    *xrand.RNG
	step   int
	budget int
	dead   bool
}

func (c *benchNode) Act(step int) radio.Action {
	if c.rng.Bernoulli(0.5) {
		return radio.Transmit(benchPayload)
	}
	return radio.Listen()
}
func (c *benchNode) Deliver(step int, msg radio.Message) { c.step = step + 1 }
func (c *benchNode) Done() bool                          { return c.dead || c.step >= c.budget }

// timerArmer restarts the benchmark timer (and its alloc counters) exactly
// once, at the first Act call of a run — the first moment after the engine
// has finished constructing itself. The per-step benches hand the whole run
// to radio.Run, so a b.ResetTimer() placed before the call leaves engine
// construction (node states, CSR views, delivery scratch — thousands of
// one-time allocations at n=4096) inside the timed region, where it divides
// by b.N and masquerades as a handful of per-step allocs/op whenever b.N
// lands small. Only the sequential benches use this: their Act calls run on
// the benchmark goroutine, so the reset is race-free.
type timerArmer struct {
	b     *testing.B
	armed bool
}

func (a *timerArmer) fire() {
	if !a.armed {
		a.armed = true
		a.b.ResetTimer()
	}
}

// resetOnFirstAct wraps a node protocol to fire the run's shared armer at
// its first Act. Every node is wrapped (a dynamic schedule may leave any
// particular node inactive at step 0, so no single node can own the reset);
// the wrapper allocations land during construction, outside the measured
// window.
type resetOnFirstAct struct {
	radio.Protocol
	arm *timerArmer
}

func (r *resetOnFirstAct) Act(step int) radio.Action {
	r.arm.fire()
	return r.Protocol.Act(step)
}

// benchSequentialSteps measures one engine step per op on an rows×cols grid
// where the first liveCount nodes stay live (0 = all).
func benchSequentialSteps(rows, cols, liveCount int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gen.Grid(rows, cols)
		g.Freeze()
		arm := &timerArmer{b: b}
		factory := func(info radio.NodeInfo) radio.Protocol {
			dead := liveCount > 0 && info.Index >= liveCount
			return &resetOnFirstAct{Protocol: &benchNode{rng: info.RNG, budget: b.N, dead: dead}, arm: arm}
		}
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: b.N, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDynSteps measures one sequential engine step per op on an rows×cols
// grid running under a churn schedule (epoch swap every epochLen steps), so
// the dynamic-topology overhead — one comparison per step plus the amortized
// per-epoch CSR swap — is tracked alongside the static engines.
func benchDynSteps(rows, cols, epochLen int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gen.Grid(rows, cols)
		// Size the schedule to cover all b.N steps, so every measured step
		// runs on the dynamic path regardless of how far the framework
		// scales the iteration count (construction is outside the timer).
		sched, err := dyn.Churn(g, b.N/epochLen+1, epochLen, 0.2, xrand.New(9))
		if err != nil {
			b.Fatal(err)
		}
		arm := &timerArmer{b: b}
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &resetOnFirstAct{Protocol: &benchNode{rng: info.RNG, budget: b.N}, arm: arm}
		}
		opts := radio.Options{MaxSteps: b.N, Seed: 1, Topology: sched}
		if _, err := radio.Run(g, factory, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProbeSink receives probe samples in the obs-enabled bench row. A
// package-level func (not a capturing closure) so arming the probe adds no
// allocations of its own to the measured loop.
var benchProbeSink float64

func benchProbe(s *radio.ProbeSample) { benchProbeSink += s.StepsPerSec }

// benchDynStepsProbed is benchDynSteps with radio.Options.Probe armed — the
// instrumentation-overhead row. Gate: checkObsOverhead requires the median
// of its paired ratios to the unprobed row, measured in the same run,
// within 3%, pinning the epoch-boundary probe contract's cost (DESIGN.md
// §10) with a host-independent ratio.
func benchDynStepsProbed(rows, cols, epochLen int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gen.Grid(rows, cols)
		sched, err := dyn.Churn(g, b.N/epochLen+1, epochLen, 0.2, xrand.New(9))
		if err != nil {
			b.Fatal(err)
		}
		arm := &timerArmer{b: b}
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &resetOnFirstAct{Protocol: &benchNode{rng: info.RNG, budget: b.N}, arm: arm}
		}
		opts := radio.Options{MaxSteps: b.N, Seed: 1, Topology: sched, Probe: benchProbe}
		if _, err := radio.Run(g, factory, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// sinrNode transmits with probability 1/32 per step — the sparse Decay-like
// regime the SINR grid bucketing is built for.
type sinrNode struct {
	rng    *xrand.RNG
	step   int
	budget int
}

func (c *sinrNode) Act(step int) radio.Action {
	if c.rng.Bernoulli(1.0 / 32) {
		return radio.Transmit(benchPayload)
	}
	return radio.Listen()
}
func (c *sinrNode) Deliver(step int, msg radio.Message) { c.step = step + 1 }
func (c *sinrNode) Done() bool                          { return c.step >= c.budget }

// sinrDeployment draws a uniform UDG deployment at the phy:sinr density
// convention (average degree ~8 at unit decode range). Connectivity is not
// required for the delivery benches, so there is no retry loop — at n=4096
// a degree-8 deployment is usually disconnected, which the engines and the
// SINR model handle like any other geometry.
func sinrDeployment(n int) []gen.Point {
	side := math.Sqrt(float64(n) * math.Pi / 8)
	return gen.UniformPoints(n, 2, side, xrand.New(3))
}

// benchSINRSteps measures one engine step per op under the grid-bucketed
// SINR model (default far-field cutoff) on the canonical phy:sinr
// deployment. Nodes transmit with probability 1/32, or 1/2 with storm set —
// a frontier of about n/2 whose cutoff rings outgrow the candidate arena,
// so every step resolves in several arena runs.
func benchSINRSteps(n int, storm bool) func(b *testing.B) {
	return func(b *testing.B) {
		pts := sinrDeployment(n)
		model, err := phy.NewSINR(pts, phy.SINRParams{})
		if err != nil {
			b.Fatal(err)
		}
		g := gen.SINRConnectivity(pts, model.Params())
		g.Freeze()
		arm := &timerArmer{b: b}
		factory := func(info radio.NodeInfo) radio.Protocol {
			var p radio.Protocol = &sinrNode{rng: info.RNG, budget: b.N}
			if storm {
				p = &benchNode{rng: info.RNG, budget: b.N}
			}
			return &resetOnFirstAct{Protocol: p, arm: arm}
		}
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: b.N, Seed: 1, PHY: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoolSINRRun measures one 64-step worker-pool SINR run per op, engine
// and model construction included.
func benchPoolSINRRun(n int) func(b *testing.B) {
	return func(b *testing.B) {
		pts := sinrDeployment(n)
		params := phy.SINRParams{}.WithDefaults()
		g := gen.SINRConnectivity(pts, params)
		g.Freeze()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model, err := phy.NewSINR(pts, params)
			if err != nil {
				b.Fatal(err)
			}
			factory := func(info radio.NodeInfo) radio.Protocol {
				return &sinrNode{rng: info.RNG, budget: 64}
			}
			if _, err := radio.Run(g, factory, radio.Options{MaxSteps: 64, Seed: 1, Concurrent: true, PHY: model}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// hugeTopo lazily builds and caches one streaming-path SINR topology, so a
// huge row, its pool twin, and the footprint measurement share a single
// gen.BuildCSR call — at n=10⁶ the build (connectivity retries included) is
// seconds of wall clock and must not repeat per benchmark iteration ramp.
type hugeTopo struct {
	n     int
	once  sync.Once
	csr   *graph.CSR
	pts   []gen.Point
	bytes int64
	err   error
}

func (h *hugeTopo) build() error {
	h.once.Do(func() {
		// The heap baseline is read before anything run-resident exists, so
		// the footprint delta covers the snapshot and geometry too.
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.csr, h.pts, h.err = gen.BuildCSR("phy:sinr", h.n, 3)
		if h.err != nil {
			return
		}
		h.bytes, h.err = h.measureFootprint(m0.HeapAlloc)
	})
	return h.err
}

// memArmer records the run's resident heap once, at the first Act of a live
// run — the first moment after the engine has finished constructing itself —
// as a GC'd HeapAlloc delta against the pre-construction baseline. The
// sequential footprint run fires it on the benchmark goroutine, so no
// synchronization is needed.
type memArmer struct {
	base  uint64
	bytes int64
	armed bool
}

func (a *memArmer) fire() {
	if a.armed {
		return
	}
	a.armed = true
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > a.base {
		a.bytes = int64(m.HeapAlloc - a.base)
	}
}

// measureOnFirstAct wraps a node protocol to fire the run's memArmer at its
// first Act (the footprint twin of resetOnFirstAct).
type measureOnFirstAct struct {
	radio.Protocol
	arm *memArmer
}

func (r *measureOnFirstAct) Act(step int) radio.Action {
	r.arm.fire()
	return r.Protocol.Act(step)
}

// measureFootprint runs a short sequential run over the cached topology and
// returns the resident engine bytes: GC'd HeapAlloc at the first step minus
// the pre-construction baseline. Everything a real run keeps live is live at
// that point — packed CSR, positions, the SINR model's SoA arrays and grid,
// and the engine's per-node state — while construction garbage has been
// collected away.
func (h *hugeTopo) measureFootprint(base uint64) (int64, error) {
	model, err := phy.NewSINR(h.pts, phy.SINRParams{})
	if err != nil {
		return 0, err
	}
	arm := &memArmer{base: base}
	factory := func(info radio.NodeInfo) radio.Protocol {
		return &measureOnFirstAct{Protocol: &sinrNode{rng: info.RNG, budget: 16}, arm: arm}
	}
	if _, err := radio.RunCSR(h.csr, factory, radio.Options{MaxSteps: 16, Seed: 1, PHY: model}); err != nil {
		return 0, err
	}
	return arm.bytes, nil
}

// benchStreamSINRSteps measures one sequential engine step per op on the
// million-node path: streaming-built (and, above the threshold, delta-packed)
// CSR through the graph-free radio.RunCSR entry, SINR delivery from the
// cached deployment.
func benchStreamSINRSteps(h *hugeTopo) func(b *testing.B) {
	return func(b *testing.B) {
		if err := h.build(); err != nil {
			b.Fatal(err)
		}
		model, err := phy.NewSINR(h.pts, phy.SINRParams{})
		if err != nil {
			b.Fatal(err)
		}
		arm := &timerArmer{b: b}
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &resetOnFirstAct{Protocol: &sinrNode{rng: info.RNG, budget: b.N}, arm: arm}
		}
		if _, err := radio.RunCSR(h.csr, factory, radio.Options{MaxSteps: b.N, Seed: 1, PHY: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoolStreamSINRRun measures one 64-step worker-pool run per op on the
// same streaming topology, model and engine construction included.
func benchPoolStreamSINRRun(h *hugeTopo) func(b *testing.B) {
	return func(b *testing.B) {
		if err := h.build(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model, err := phy.NewSINR(h.pts, phy.SINRParams{})
			if err != nil {
				b.Fatal(err)
			}
			factory := func(info radio.NodeInfo) radio.Protocol {
				return &sinrNode{rng: info.RNG, budget: 64}
			}
			if _, err := radio.RunCSR(h.csr, factory, radio.Options{MaxSteps: 64, Seed: 1, Concurrent: true, PHY: model}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSINRDenseRef measures one step per op of the pre-PHY internal/sinr
// execution loop (deleted in the PHY refactor), reimplemented here verbatim
// as the regression reference: a dense O(n) act scan plus O(#tx·n) decoding
// — every listener sums every transmitter. The committed report's
// seq_sinr_n4096 row must beat this one; if the grid-bucketed delivery ever
// regresses past the old loop, the gap shows up here.
func benchSINRDenseRef(n int) func(b *testing.B) {
	return func(b *testing.B) {
		pts := sinrDeployment(n)
		const power, pathLoss, noise, beta = 1, 4, 0.5, 2
		root := xrand.New(1)
		nodes := make([]*sinrNode, n)
		for v := 0; v < n; v++ {
			nodes[v] = &sinrNode{rng: root.Split(uint64(v)), budget: b.N}
		}
		transmitting := make([]bool, n)
		payload := make([]radio.Message, n)
		txIdx := make([]int, 0, n)
		b.ResetTimer()
		for step := 0; step < b.N; step++ {
			txIdx = txIdx[:0]
			for v := 0; v < n; v++ {
				transmitting[v] = false
				payload[v] = nil
				if nodes[v].Done() {
					continue
				}
				a := nodes[v].Act(step)
				if a.Transmit {
					transmitting[v] = true
					payload[v] = a.Msg
					txIdx = append(txIdx, v)
				}
			}
			for v := 0; v < n; v++ {
				if nodes[v].Done() {
					continue
				}
				var msg radio.Message
				if !transmitting[v] && len(txIdx) > 0 {
					var total float64
					best, bestPow := -1, 0.0
					for _, u := range txIdx {
						d := pts[u].Dist(pts[v])
						if d == 0 {
							d = 1e-9
						}
						pow := power * math.Pow(d, -pathLoss)
						total += pow
						if pow > bestPow {
							best, bestPow = u, pow
						}
					}
					if bestPow/(noise+(total-bestPow)) >= beta {
						msg = payload[best]
					}
				}
				nodes[v].Deliver(step, msg)
			}
		}
	}
}

// benchPoolRun measures one 64-step worker-pool run per op, engine
// construction included.
func benchPoolRun(rows, cols int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gen.Grid(rows, cols)
		g.Freeze()
		for i := 0; i < b.N; i++ {
			factory := func(info radio.NodeInfo) radio.Protocol {
				return &benchNode{rng: info.RNG, budget: 64}
			}
			if _, err := radio.Run(g, factory, radio.Options{MaxSteps: 64, Seed: 1, Concurrent: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// engineBenchSpecs defines the tracked engine micro-benches. procs > 0
// pins GOMAXPROCS for that row (restored afterwards): the pool engine
// shards per P, so the p2/p4/p8 rows are what make its parallel scaling
// visible in the trajectory — on a host with fewer cores they still run
// (the Ps timeshare), they just can't show a speedup there.
// hugeTopos caches the streaming topologies shared by the huge rows below.
var hugeTopos = map[int]*hugeTopo{
	100000:  {n: 100000},
	1000000: {n: 1000000},
}

// hugeMem returns the footprint hook for one cached huge topology.
func hugeMem(h *hugeTopo) func() (int64, error) {
	return func() (int64, error) {
		if err := h.build(); err != nil {
			return 0, err
		}
		return h.bytes, nil
	}
}

var engineBenchSpecs = []struct {
	name       string
	nodes      int
	stepsPerOp int
	procs      int
	allocExact bool
	// huge rows run only under -bench-huge: building a 10⁵–10⁶-node
	// topology costs seconds to minutes and must not slow every CI gate.
	huge bool
	// mem measures the row's resident engine footprint (0 hook = not
	// measured; the JSON field stays absent).
	mem func() (int64, error)
	fn  func(b *testing.B)
}{
	{name: "seq_dense_n1024", nodes: 1024, stepsPerOp: 1, allocExact: true, fn: benchSequentialSteps(32, 32, 0)},
	{name: "seq_sparse_n4096_live64", nodes: 4096, stepsPerOp: 1, allocExact: true, fn: benchSequentialSteps(64, 64, 64)},
	{name: "seq_dyn_churn_n1024", nodes: 1024, stepsPerOp: 1, allocExact: true, fn: benchDynSteps(32, 32, 64)},
	{name: "seq_dyn_churn_n1024_obs", nodes: 1024, stepsPerOp: 1, allocExact: true, fn: benchDynStepsProbed(32, 32, 64)},
	{name: "pool_n256_64steps", nodes: 256, stepsPerOp: 64, fn: benchPoolRun(16, 16)},
	{name: "pool_n1024_64steps", nodes: 1024, stepsPerOp: 64, fn: benchPoolRun(32, 32)},
	{name: "pool_n1024_64steps_p2", nodes: 1024, stepsPerOp: 64, procs: 2, fn: benchPoolRun(32, 32)},
	{name: "pool_n1024_64steps_p4", nodes: 1024, stepsPerOp: 64, procs: 4, fn: benchPoolRun(32, 32)},
	{name: "pool_n1024_64steps_p8", nodes: 1024, stepsPerOp: 64, procs: 8, fn: benchPoolRun(32, 32)},
	{name: "seq_sinr_n1024", nodes: 1024, stepsPerOp: 1, allocExact: true, fn: benchSINRSteps(1024, false)},
	{name: "pool_sinr_n1024", nodes: 1024, stepsPerOp: 64, fn: benchPoolSINRRun(1024)},
	{name: "pool_sinr_n1024_p2", nodes: 1024, stepsPerOp: 64, procs: 2, fn: benchPoolSINRRun(1024)},
	{name: "pool_sinr_n1024_p4", nodes: 1024, stepsPerOp: 64, procs: 4, fn: benchPoolSINRRun(1024)},
	{name: "pool_sinr_n1024_p8", nodes: 1024, stepsPerOp: 64, procs: 8, fn: benchPoolSINRRun(1024)},
	{name: "seq_sinr_n4096", nodes: 4096, stepsPerOp: 1, allocExact: true, fn: benchSINRSteps(4096, false)},
	{name: "seq_sinr_storm_n8192", nodes: 8192, stepsPerOp: 1, allocExact: true, fn: benchSINRSteps(8192, true)},
	{name: "seq_sinr_n65536", nodes: 65536, stepsPerOp: 1, allocExact: true, fn: benchSINRSteps(65536, false)},
	{name: "pool_sinr_n65536_p4", nodes: 65536, stepsPerOp: 64, procs: 4, fn: benchPoolSINRRun(65536)},
	{name: "sinr_dense_ref_n4096", nodes: 4096, stepsPerOp: 1, allocExact: true, fn: benchSINRDenseRef(4096)},
	{name: "seq_sinr_n100000", nodes: 100000, stepsPerOp: 1, allocExact: true, huge: true,
		mem: hugeMem(hugeTopos[100000]), fn: benchStreamSINRSteps(hugeTopos[100000])},
	{name: "pool_sinr_n100000_p4", nodes: 100000, stepsPerOp: 64, procs: 4, huge: true,
		mem: hugeMem(hugeTopos[100000]), fn: benchPoolStreamSINRRun(hugeTopos[100000])},
	{name: "seq_sinr_n1000000", nodes: 1000000, stepsPerOp: 1, allocExact: true, huge: true,
		mem: hugeMem(hugeTopos[1000000]), fn: benchStreamSINRSteps(hugeTopos[1000000])},
	{name: "pool_sinr_n1000000_p4", nodes: 1000000, stepsPerOp: 64, procs: 4, huge: true,
		mem: hugeMem(hugeTopos[1000000]), fn: benchPoolStreamSINRRun(hugeTopos[1000000])},
}

// seedBaseline is the same workload set measured at PR 1 on the seed's
// engines (per-step dense-scan delivery with fresh counts/from allocations,
// and the goroutine-per-node concurrent engine), on the hardware that
// produced the first committed BENCH_engine.json.
var seedBaseline = []EngineBenchResult{
	{Name: "seq_dense_n1024", Nodes: 1024, StepsPerOp: 1, NsPerOp: 43366, AllocsPerOp: 2, BytesPerOp: 5122, NodeStepsPerSec: 1024 / 43366e-9},
	{Name: "seq_sparse_n4096_live64", Nodes: 4096, StepsPerOp: 1, NsPerOp: 34653, AllocsPerOp: 2, BytesPerOp: 20487, NodeStepsPerSec: 4096 / 34653e-9},
	{Name: "pool_n256_64steps", Nodes: 256, StepsPerOp: 64, NsPerOp: 14017021, AllocsPerOp: 1721, BytesPerOp: 237355, NodeStepsPerSec: 256 * 64 / 14017021e-9},
	{Name: "pool_n1024_64steps", Nodes: 1024, StepsPerOp: 64, NsPerOp: 76403940, AllocsPerOp: 7958, BytesPerOp: 1094148, NodeStepsPerSec: 1024 * 64 / 76403940e-9},
}

// measureEngineBench executes the engine micro-benches and returns the
// report. Huge rows (10⁵–10⁶-node topologies) run only when includeHuge is
// set; a non-empty filter is a comma-separated list of exact bench names to
// run (exact, not substring — "seq_sinr_n100000" must not drag in the
// n=10⁶ row it prefixes).
func measureEngineBench(includeHuge bool, filter string) (EngineBenchReport, error) {
	wanted := map[string]bool{}
	if filter != "" {
		for _, name := range strings.Split(filter, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
	}
	report := EngineBenchReport{
		GeneratedBy:  "radionet-bench -engine-bench",
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SeedBaseline: seedBaseline,
		BaselineNote: "seed engines (dense-scan delivery, goroutine-per-node concurrency) measured at PR 1 on the hardware of the first committed report",
	}
	for _, spec := range engineBenchSpecs {
		if spec.huge && !includeHuge {
			continue
		}
		if len(wanted) > 0 && !wanted[spec.name] {
			continue
		}
		r := runBenchSpec(spec.fn, spec.procs)
		if r.N == 0 {
			return report, fmt.Errorf("engine bench %s did not run", spec.name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		row := EngineBenchResult{
			Name:            spec.name,
			Nodes:           spec.nodes,
			StepsPerOp:      spec.stepsPerOp,
			Procs:           spec.procs,
			NsPerOp:         ns,
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			NodeStepsPerSec: float64(spec.nodes*spec.stepsPerOp) / (ns * 1e-9),
			AllocExact:      spec.allocExact,
		}
		if spec.mem != nil {
			bytes, err := spec.mem()
			if err != nil {
				return report, fmt.Errorf("engine bench %s footprint: %w", spec.name, err)
			}
			row.EngineBytes = bytes
			row.BytesPerNode = float64(bytes) / float64(spec.nodes)
		}
		report.Benchmarks = append(report.Benchmarks, row)
	}
	if len(report.Benchmarks) == 0 {
		return report, fmt.Errorf("no engine benches matched (filter %q, huge=%v)", filter, includeHuge)
	}
	return report, nil
}

// runBenchSpec runs one engine bench, under a GOMAXPROCS override when
// procs > 0 (restored afterwards).
func runBenchSpec(fn func(b *testing.B), procs int) testing.BenchmarkResult {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	return testing.Benchmark(fn)
}

// obsOverheadTolerance caps how much slower a probe-armed step loop may be
// than its unprobed twin measured in the same run (same host, same load):
// both rows are fresh, so the ratio is host-independent and gates the
// instrumentation itself, not the hardware.
const obsOverheadTolerance = 0.03

// obsOverheadPairs is how many base/_obs measurement pairs checkObsOverhead
// takes per row. A single pair is at the mercy of whatever else the host
// ran during one of its two measurements; the median of several pairs is
// not.
const obsOverheadPairs = 5

// checkObsOverhead gates every <name>_obs row of report against its <name>
// base row: measure (ns/op of the named bench) runs the two in
// obsOverheadPairs alternating pairs — base first in even pairs, _obs first
// in odd ones, so drift in the host's load cancels — and the median of the
// paired _obs/base ratios must stay within obsOverheadTolerance. Run as part
// of -engine-bench, baseline or not; it is a wall-clock gate, so it stays
// out of go test.
func checkObsOverhead(report EngineBenchReport, measure func(name string) float64, log io.Writer) error {
	ran := make(map[string]bool, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		ran[b.Name] = true
	}
	for _, b := range report.Benchmarks {
		base := strings.TrimSuffix(b.Name, "_obs")
		if b.Name == base || !ran[base] {
			continue
		}
		ratios := make([]float64, obsOverheadPairs)
		for i := range ratios {
			var baseNs, obsNs float64
			if i%2 == 0 {
				baseNs = measure(base)
				obsNs = measure(b.Name)
			} else {
				obsNs = measure(b.Name)
				baseNs = measure(base)
			}
			ratios[i] = obsNs / baseNs
		}
		slices.Sort(ratios)
		ratio := ratios[len(ratios)/2]
		fmt.Fprintf(log, "obs-overhead: %-24s vs %s, median paired ratio %+.1f%% (sorted ratios %.3f)\n",
			b.Name, base, (ratio-1)*100, ratios)
		if ratio > 1+obsOverheadTolerance {
			return fmt.Errorf("obs-overhead: %s is %.1f%% slower than %s in the median pair (tolerance %.0f%%) — instrumentation leaked into the step loop",
				b.Name, (ratio-1)*100, base, obsOverheadTolerance*100)
		}
	}
	return nil
}

// benchNsPerOp runs the named engine bench once and returns its ns/op — the
// measure checkObsOverhead uses outside tests.
func benchNsPerOp(name string) float64 {
	for _, spec := range engineBenchSpecs {
		if spec.name == name {
			r := runBenchSpec(spec.fn, spec.procs)
			return float64(r.T.Nanoseconds()) / float64(max(r.N, 1))
		}
	}
	panic("benchNsPerOp: unknown engine bench " + name)
}

// writeEngineBench writes the JSON report to out.
func writeEngineBench(report EngineBenchReport, out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// bytesPerNodeTolerance caps how much a row's resident bytes/node may grow
// over the baseline before the gate fails. Memory footprint is far less
// host-sensitive than ns/op (allocation sizes don't depend on CPU), so the
// band is tighter than the timing tolerance.
const bytesPerNodeTolerance = 0.25

// allocSlack returns the allocs/op headroom for one benchmark in
// compareEngineBench: an absolute floor of 2 (amortized one-time setup can
// round into 1–2 allocs/op when the iteration count differs between
// machines) plus an eighth of the baseline (the worker-pool benches'
// construction allocs scale with GOMAXPROCS, which differs between the
// baseline host and the CI runner). A genuine per-step allocation adds at
// least stepsPerOp allocs to every op and sails past both.
func allocSlack(baseline int64) int64 {
	return max(2, baseline/8)
}

// compareEngineBench checks fresh results against a previously recorded
// report (the CI bench-regression gate) on two axes: ns/op beyond the
// fractional tolerance (wide, because baseline and runner may be different
// hardware) and allocs/op (hardware-independent — this is the check that
// catches a step loop that started allocating). Rows the baseline marks
// AllocExact are steady-state step loops whose alloc count is
// deterministic: any allocs/op increase at all fails. Other rows (the
// pool benches, whose per-op construction allocs scale with GOMAXPROCS)
// get the proportional allocSlack. Benchmarks absent from the baseline
// are reported as new but never fail, so adding a bench doesn't require
// regenerating the baseline in the same change. Speedups only produce a
// note — refreshing the committed baseline is a deliberate act, not a
// gate.
func compareEngineBench(fresh, baseline EngineBenchReport, tolerance float64, log io.Writer) error {
	base := make(map[string]EngineBenchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	var regressed []string
	for _, f := range fresh.Benchmarks {
		b, ok := base[f.Name]
		if !ok {
			fmt.Fprintf(log, "bench-compare: %-24s new benchmark, no baseline\n", f.Name)
			continue
		}
		ratio := f.NsPerOp / b.NsPerOp
		fmt.Fprintf(log, "bench-compare: %-24s %12.0f ns/op vs baseline %12.0f (%+.1f%%), %d vs %d allocs/op\n",
			f.Name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, f.AllocsPerOp, b.AllocsPerOp)
		if ratio > 1+tolerance {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
				f.Name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, tolerance*100))
		}
		if b.AllocExact {
			if f.AllocsPerOp > b.AllocsPerOp {
				regressed = append(regressed, fmt.Sprintf("%s: %d allocs/op vs baseline %d (alloc-exact row: no increase allowed)",
					f.Name, f.AllocsPerOp, b.AllocsPerOp))
			}
		} else if slack := allocSlack(b.AllocsPerOp); f.AllocsPerOp > b.AllocsPerOp+slack {
			regressed = append(regressed, fmt.Sprintf("%s: %d allocs/op vs baseline %d (slack %d)",
				f.Name, f.AllocsPerOp, b.AllocsPerOp, slack))
		}
		// The memory gate compares bytes/node only when both reports carry
		// it: baselines written before the field existed (or runs that
		// skipped a row's footprint measurement) stay valid, no flag day.
		if f.BytesPerNode > 0 && b.BytesPerNode > 0 {
			growth := f.BytesPerNode/b.BytesPerNode - 1
			fmt.Fprintf(log, "bench-compare: %-24s %12.1f bytes/node vs baseline %12.1f (%+.1f%%)\n",
				f.Name, f.BytesPerNode, b.BytesPerNode, growth*100)
			if growth > bytesPerNodeTolerance {
				regressed = append(regressed, fmt.Sprintf("%s: %.1f bytes/node vs baseline %.1f (+%.1f%%, tolerance %.0f%%)",
					f.Name, f.BytesPerNode, b.BytesPerNode, growth*100, bytesPerNodeTolerance*100))
			}
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("engine bench regression:\n  %s", strings.Join(regressed, "\n  "))
	}
	return nil
}

// loadEngineBench reads a previously written report.
func loadEngineBench(path string) (EngineBenchReport, error) {
	var report EngineBenchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		return report, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(report.Benchmarks) == 0 {
		return report, fmt.Errorf("%s holds no benchmarks", path)
	}
	return report, nil
}
