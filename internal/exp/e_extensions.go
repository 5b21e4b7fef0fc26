package exp

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// RunE13 — extension (paper footnote 1): the graph abstraction vs SINR
// physics. We run the identical Decay-broadcast protocol on the same point
// set under both reception models. The two models differ in both
// directions: SINR adds the *capture effect* (the strongest of several
// transmitters can still be decoded, where the graph model declares a
// collision) but also *far-field interference* (every transmitter in the
// network raises the noise floor, where the graph model only counts
// 1-hop neighbors). The measured completion-time ratio quantifies the net
// effect; the important qualitative check is that Radio MIS executed under
// SINR physics still produces a valid MIS of the decode-range connectivity
// graph. One trial = one deployment measured under both models.
//
// Both models now run on the same radio engines — the SINR side through
// phy.SINR in exact mode (CutoffFactor +Inf), which reproduces the deleted
// internal/sinr loop's interference sums bit for bit, so this experiment's
// numbers are comparable across the engine unification (pinned by
// TestE13MatchesPrePhyEngine). E21 measures the grid-bucketed default
// cutoff against exact mode.
func RunE13(cfg Config) (*Report, error) {
	trials := 5
	nPoints := 120
	if cfg.Scale == Full {
		trials = 15
		nPoints = 250
	}
	// Default physics, exact interference: decode range exactly 1 → the
	// connectivity graph is the unit-disk graph.
	params := phy.SINRParams{CutoffFactor: math.Inf(1)}
	grid := NewGrid("E13")
	grid.AddReps("sinr", trials, func(seed uint64) (Sample, error) {
		trng := xrand.New(seed)
		pts, g := connectedDeployment(nPoints, trng)

		// Decay broadcast under the graph model.
		gres, err := baseline.DecayBroadcast(g, 0, 0, seed)
		if err != nil {
			return Sample{}, err
		}
		gStep := completedOr(gres.CompleteStep, gres.Steps)

		// The same protocol under SINR physics.
		sStep, _, err := decayBroadcastSINR(pts, g.N(), params, seed)
		if err != nil {
			return Sample{}, err
		}

		// Radio MIS under SINR, validated against the connectivity graph.
		ok, err := misUnderSINR(pts, params, seed)
		if err != nil {
			return Sample{}, err
		}
		return Sample{Values: V("gSteps", gStep, "sSteps", sStep, "misValid", ok)}, nil
	})
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	tb := &stats.Table{
		Title:  "E13 — graph model vs SINR physics (same protocol, same points)",
		Header: []string{"n", "trials", "graph-model decay steps", "sinr decay steps", "sinr/graph", "sinr MIS valid"},
	}
	gSteps := Metric(results, "gSteps")
	sSteps := Metric(results, "sSteps")
	ratio := stats.Mean(sSteps) / math.Max(1, stats.Mean(gSteps))
	tb.AddRowf(nPoints, len(results), stats.Mean(gSteps), stats.Mean(sSteps), ratio,
		fmt.Sprintf("%d/%d", int(SumMetric(results, "misValid")), len(results)))
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}

// connectedDeployment draws points until the unit-range UDG is connected.
func connectedDeployment(n int, rng *xrand.RNG) ([]gen.Point, *graph.Graph) {
	side := math.Sqrt(float64(n) * math.Pi / 8)
	for {
		pts := gen.UniformPoints(n, 2, side, rng)
		g := gen.UDG(pts, 1)
		if g.Connected() {
			return pts, g
		}
	}
}

// decayBroadcastSINR runs the informed-nodes-run-Decay broadcast under SINR
// reception on the unified engine and returns the completion step. The
// decode-range connectivity graph supplies the parameter estimates (n, D)
// exactly as the pre-PHY sinr engine derived them.
func decayBroadcastSINR(pts []gen.Point, n int, params phy.SINRParams, seed uint64) (int, radio.Result, error) {
	levels := int(math.Ceil(math.Log2(float64(n + 1))))
	nodes := make([]*sinrDecayNode, n)
	stop := false
	g := gen.SINRConnectivity(pts, params)
	d, err := g.DiameterApprox()
	if err != nil {
		return 0, radio.Result{}, err
	}
	maxSteps := 60 * (d*levels + levels*levels)
	factory := func(info radio.NodeInfo) radio.Protocol {
		nd := &sinrDecayNode{levels: levels, rng: info.RNG, stop: &stop, budget: maxSteps}
		if info.Index == 0 {
			nd.informed = true
		}
		nodes[info.Index] = nd
		return nd
	}
	model, err := phy.NewSINR(pts, params)
	if err != nil {
		return 0, radio.Result{}, err
	}
	complete := -1
	res, err := radio.Run(g, factory, radio.Options{
		MaxSteps: maxSteps,
		Seed:     seed,
		PHY:      model,
		OnStep: func(st radio.StepStats) {
			if complete >= 0 {
				return
			}
			for _, nd := range nodes {
				if !nd.informed {
					return
				}
			}
			complete = st.Step + 1
			stop = true
		},
	})
	if err != nil {
		return 0, radio.Result{}, err
	}
	if complete < 0 {
		complete = res.Steps
	}
	return complete, res, nil
}

// sinrDecayNode mirrors baseline.decayNode for the SINR engine.
type sinrDecayNode struct {
	levels   int
	informed bool
	rng      *xrand.RNG
	stop     *bool
	step     int
	budget   int
}

func (d *sinrDecayNode) Act(step int) radio.Action {
	if d.informed && d.rng.Bernoulli(math.Ldexp(1, -(step%d.levels+1))) {
		return radio.Transmit(int64(1))
	}
	return radio.Listen()
}

func (d *sinrDecayNode) Deliver(step int, msg radio.Message) {
	d.step = step + 1
	if msg != nil {
		d.informed = true
	}
}

func (d *sinrDecayNode) Done() bool { return *d.stop || d.step >= d.budget }

// misUnderSINR runs Radio MIS node logic under SINR reception and verifies
// independence+maximality against the decode-range connectivity graph.
// Under SINR the capture effect can deliver where the graph model would
// collide, which only improves detection, so validity should persist.
func misUnderSINR(pts []gen.Point, params phy.SINRParams, seed uint64) (bool, error) {
	g := gen.SINRConnectivity(pts, params)
	out, err := mis.RunOnEngine(g, mis.Params{}, seed, func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
		model, err := phy.NewSINR(pts, params)
		if err != nil {
			return radio.Result{}, err
		}
		opts.PHY = model
		return radio.Run(g, factory, opts)
	})
	if err != nil {
		return false, err
	}
	return out.Completed && mis.Verify(g, out.MIS) == nil, nil
}

// RunE14 — Theorem 6's source-count term: Compete(S) costs
// O(D·log_D α + |S|·D^0.125 + polylog n). We sweep |S| at fixed topology and
// check completion grows only mildly with the source count. One trial = one
// random source set of size k.
func RunE14(cfg Config) (*Report, error) {
	g := gen.Grid(12, 12)
	if cfg.Scale == Full {
		g = gen.Grid(20, 20)
	}
	counts := []int{1, 2, 4, 8, 16}
	reps := 3
	if cfg.Scale == Full {
		reps = 6
	}
	grid := NewGrid("E14")
	for _, k := range counts {
		grid.AddReps(fmt.Sprintf("k=%d", k), reps, func(seed uint64) (Sample, error) {
			trng := xrand.New(seed)
			sources := map[int]int64{}
			perm := trng.Perm(g.N())
			for i := 0; i < k; i++ {
				sources[perm[i]] = int64(1000 + i)
			}
			res, err := core.Compete(g, sources, core.Params{FinesPerScale: 2}, seed)
			if err != nil {
				return Sample{}, err
			}
			return Sample{Values: V("step", completedOr(res.CompleteStep, res.MainSteps))}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E14 — Compete(S) completion vs source count (Theorem 6's |S|·D^0.125 term)",
		Header: []string{"|S|", "runs", "mean complete", "max complete"},
	}
	for _, k := range counts {
		ss := groups[fmt.Sprintf("k=%d", k)]
		steps := Metric(ss, "step")
		tb.AddRowf(k, len(ss), stats.Mean(steps), stats.Max(steps))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}

// RunE16 — the single-hop wake-up reduction behind the Ω(log² n) MIS lower
// bound (§1.5.1, footnote 3): k clique nodes run Radio MIS parameterized by
// a network size n ≫ k (legal: their view is identical to a network with
// n−k extra isolated nodes). Correctness forces a *clear* transmission —
// a step with exactly one transmitter. We measure the step of the first
// clear transmission as k sweeps the unknown range, the quantity the
// Farach-Colton–Fernandes–Mosteiro bound constrains to Ω(log² n) for some k.
func RunE16(cfg Config) (*Report, error) {
	bigN := 256
	if cfg.Scale == Full {
		bigN = 1024
	}
	reps := 3
	if cfg.Scale == Full {
		reps = 10
	}
	ks := []int{1, 2, 8, 32, 128}
	grid := NewGrid("E16")
	for _, k := range ks {
		grid.AddReps(fmt.Sprintf("k=%d", k), reps, func(seed uint64) (Sample, error) {
			g := gen.Clique(k)
			first := -1
			out, err := mis.RunDetailed(g, mis.Params{}, seed, bigN,
				func(st radio.StepStats) {
					if first < 0 && st.Transmits == 1 {
						first = st.Step
					}
				})
			if err != nil {
				return Sample{}, err
			}
			valid := out.Completed && mis.Verify(g, out.MIS) == nil && len(out.MIS) == 1
			if first < 0 {
				first = out.Steps // never cleared (should not happen for valid runs)
			}
			return Sample{Values: V("first", first, "valid", valid)}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E16 — wake-up reduction: first clear transmission on a k-clique run with estimate n",
		Header: []string{"k", "n estimate", "runs", "mean first-clear step", "max", "log²n", "all valid"},
	}
	log2n := math.Log2(float64(bigN))
	for _, k := range ks {
		ss := groups[fmt.Sprintf("k=%d", k)]
		firsts := Metric(ss, "first")
		tb.AddRowf(k, bigN, len(ss), stats.Mean(firsts), stats.Max(firsts), log2n*log2n,
			fmt.Sprintf("%d/%d", int(SumMetric(ss, "valid")), len(ss)))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}

// RunE15 — model ablation: the synchronous wake-up assumption (§1.1).
// Radio MIS is run under staggered wake-up; as the stagger grows past a
// round length, independence violations appear (a late waker cannot hear
// an already-announced MIS neighbor). This is why the paper's model, unlike
// Moscibroda–Wattenhofer's UDG-specific algorithm [26], assumes synchronous
// wake-up. One trial = one staggered run; the wake schedule is drawn from
// the trial seed.
func RunE15(cfg Config) (*Report, error) {
	rng := xrand.New(cfg.Seed ^ 0xe15)
	trials := 10
	if cfg.Scale == Full {
		trials = 30
	}
	g := gen.GNP(96, 0.08, rng)
	roundLen, _ := mis.EstimateLayout(g.N(), mis.Params{})
	staggers := []int{0, roundLen / 4, roundLen, 4 * roundLen}
	grid := NewGrid("E15")
	for _, s := range staggers {
		grid.AddReps(fmt.Sprintf("s=%d", s), trials, func(seed uint64) (Sample, error) {
			trng := xrand.New(seed)
			wake := make([]int, g.N())
			if s > 0 {
				for v := range wake {
					wake[v] = trng.Intn(s + 1)
				}
			}
			out, err := mis.RunAsync(g, mis.Params{}, trng.Uint64(), wake)
			if err != nil {
				return Sample{}, err
			}
			valid, depend, other := false, false, false
			switch {
			case out.Completed && mis.Verify(g, out.MIS) == nil:
				valid = true
			case !g.IsIndependentSet(out.MIS):
				depend = true // the dangerous failure: two adjacent MIS nodes
			default:
				other = true // undecided nodes or domination gaps
			}
			return Sample{Values: V("valid", valid, "depend", depend, "other", other)}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E15 — Radio MIS under staggered wake-up (violations of Theorem 14's guarantee)",
		Header: []string{"max stagger (steps)", "stagger/roundLen", "trials", "valid", "not independent", "not maximal/incomplete"},
	}
	for _, s := range staggers {
		ss := groups[fmt.Sprintf("s=%d", s)]
		tb.AddRowf(s, float64(s)/float64(roundLen), len(ss),
			int(SumMetric(ss, "valid")), int(SumMetric(ss, "depend")), int(SumMetric(ss, "other")))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}
