// Package baseline implements the classic algorithms the paper compares
// against, at full radio time-step fidelity:
//
//   - DecayBroadcast: the Bar-Yehuda–Goldreich–Itai broadcast — informed
//     nodes run Decay forever — with the O(D log n + log² n) running time
//     the paper cites as the general-graph classic [3].
//   - TruncatedDecayBroadcast: a Czumaj–Rytter/Kowalski–Pelc-inspired proxy
//     sweeping only ~log(n/D) probability levels, exhibiting the
//     O(D log(n/D) + log² n) shape of [8, 21].
//   - DecayLeaderElection: candidate sampling with probability Θ(log n / n)
//     followed by multi-source Decay broadcast of the highest ID — the
//     classic reduction the paper describes in §1.5.1 [6].
//
// All of these, unlike Compete, pay a log-factor per hop: their completion
// times scale as D·log rather than the paper's D·log_D α, which is exactly
// the gap experiments E7/E8 measure.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Result reports a baseline broadcast run.
type Result struct {
	// CompleteStep is the time-step at which all nodes were informed
	// (-1 if the budget ran out).
	CompleteStep int
	// Steps is the number of steps executed.
	Steps int
	// Transmissions counts transmit actions.
	Transmissions int64
	// Levels is the number of probability levels in the decay sweep.
	Levels int
	// Winner is the highest source rank (for multi-source runs).
	Winner int64
}

// decayNode is the informed-nodes-run-Decay protocol.
type decayNode struct {
	levels int
	best   int64
	hasMsg bool
	rng    *xrand.RNG
	stop   *bool
	step   int
	budget int
}

var _ radio.Protocol = (*decayNode)(nil)

func (d *decayNode) Act(step int) radio.Action {
	if !d.hasMsg {
		return radio.Listen()
	}
	level := step%d.levels + 1
	if d.rng.Bernoulli(math.Ldexp(1, -level)) {
		return radio.Transmit(d.best)
	}
	return radio.Listen()
}

func (d *decayNode) Deliver(step int, msg radio.Message) {
	d.step = step + 1
	if msg == nil {
		return
	}
	if rank, ok := msg.(int64); ok && (!d.hasMsg || rank > d.best) {
		d.best = rank
		d.hasMsg = true
	}
}

func (d *decayNode) Done() bool { return *d.stop || d.step >= d.budget }

// run executes a decay-style multi-source broadcast with the given level
// count and returns when all nodes know the highest rank. model, when
// non-nil, selects the physical-layer reception model (radio.Options.PHY);
// g is then the abstraction the budget and connectivity check are derived
// from (for SINR, the decode-range connectivity graph).
func run(g *graph.Graph, sources map[int]int64, levels, maxSteps int, seed uint64, model phy.Model) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty graph")
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("baseline: no sources")
	}
	for s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("baseline: source %d out of range", s)
		}
	}
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	if levels < 1 {
		levels = 1
	}
	if maxSteps <= 0 {
		d, err := g.DiameterApprox()
		if err != nil {
			return nil, err
		}
		logN := int(math.Ceil(math.Log2(float64(n + 1))))
		maxSteps = 60 * (d*logN + logN*logN + levels)
	}
	target := int64(math.MinInt64)
	for _, r := range sources {
		if r > target {
			target = r
		}
	}
	nodes := make([]*decayNode, n)
	stop := false
	factory := func(info radio.NodeInfo) radio.Protocol {
		nd := &decayNode{levels: levels, rng: info.RNG, stop: &stop, budget: maxSteps}
		if rank, ok := sources[info.Index]; ok {
			nd.best = rank
			nd.hasMsg = true
		}
		nodes[info.Index] = nd
		return nd
	}
	completeStep := -1
	res, err := radio.Run(g, factory, radio.Options{
		MaxSteps: maxSteps,
		Seed:     seed,
		PHY:      model,
		OnStep: func(st radio.StepStats) {
			if completeStep >= 0 {
				return
			}
			for _, nd := range nodes {
				if !nd.hasMsg || nd.best != target {
					return
				}
			}
			completeStep = st.Step + 1
			stop = true
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		CompleteStep:  completeStep,
		Steps:         res.Steps,
		Transmissions: res.Transmissions,
		Levels:        levels,
		Winner:        target,
	}, nil
}

// DecayBroadcast runs the BGI broadcast from a single source. The sweep uses
// the full ⌈log₂ n⌉ probability levels.
func DecayBroadcast(g *graph.Graph, source int, maxSteps int, seed uint64) (*Result, error) {
	levels := int(math.Ceil(math.Log2(float64(g.N() + 1))))
	return run(g, map[int]int64{source: 1}, levels, maxSteps, seed, nil)
}

// DecayBroadcastPHY is DecayBroadcast under a pluggable reception model
// (DESIGN.md §7): delivery is decided by model while g supplies the budget,
// the connectivity check, and the parameter estimates — for SINR, pass the
// decode-range connectivity graph of the deployment the model was built
// over. The serve subsystem and radionet-sim use it to run the classic
// baseline under phy:sinr / phy:cd specs.
func DecayBroadcastPHY(g *graph.Graph, model phy.Model, source int, maxSteps int, seed uint64) (*Result, error) {
	levels := int(math.Ceil(math.Log2(float64(g.N() + 1))))
	return run(g, map[int]int64{source: 1}, levels, maxSteps, seed, model)
}

// TruncatedDecayBroadcast sweeps only ~log₂(n/D)+2 levels, the
// Czumaj–Rytter/Kowalski–Pelc-flavoured improvement: when D is large the
// network is locally sparse and deep levels are wasted.
func TruncatedDecayBroadcast(g *graph.Graph, source int, maxSteps int, seed uint64) (*Result, error) {
	n := g.N()
	d, err := g.DiameterApprox()
	if err != nil {
		return nil, err
	}
	if d < 1 {
		d = 1
	}
	levels := int(math.Ceil(math.Log2(float64(n)/float64(d)))) + 2
	if levels < 2 {
		levels = 2
	}
	return run(g, map[int]int64{source: 1}, levels, maxSteps, seed, nil)
}

// MultiSourceDecay broadcasts the highest of several source ranks (used by
// leader election and by tests of the multi-source property).
func MultiSourceDecay(g *graph.Graph, sources map[int]int64, maxSteps int, seed uint64) (*Result, error) {
	levels := int(math.Ceil(math.Log2(float64(g.N() + 1))))
	return run(g, sources, levels, maxSteps, seed, nil)
}

// ElectionResult extends Result for leader election runs.
type ElectionResult struct {
	Result
	// Candidates is the number of self-nominated candidates.
	Candidates int
	// Retries counts zero-candidate resamples.
	Retries int
}

// DecayLeaderElection is the classic reduction (§1.5.1 of the paper):
// sample Θ(log n / n) candidates with random IDs and broadcast the maximum.
func DecayLeaderElection(g *graph.Graph, maxSteps int, seed uint64) (*ElectionResult, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty graph")
	}
	rng := xrand.New(seed ^ 0xfeed_beef)
	p := 2 * math.Log(float64(n)+1) / float64(n)
	if p > 1 {
		p = 1
	}
	er := &ElectionResult{}
	for retry := 0; ; retry++ {
		sources := map[int]int64{}
		for v := 0; v < n; v++ {
			if rng.Bernoulli(p) {
				sources[v] = int64(rng.Uint64() >> 16)
			}
		}
		if len(sources) == 0 {
			if retry > 20 {
				return nil, fmt.Errorf("baseline: no candidates after %d retries", retry)
			}
			er.Retries++
			continue
		}
		res, err := MultiSourceDecay(g, sources, maxSteps, seed+uint64(retry))
		if err != nil {
			return nil, err
		}
		er.Result = *res
		er.Candidates = len(sources)
		return er, nil
	}
}
