package main

// The traced run rebuilds a job from the layers' public entry points —
// Spec.Canonicalize, exp.TrialSeed, gen, mis.RunOnEngine / core.Broadcast,
// radio.Run and Result.JSON — and wraps the radio.Factory protocols (to
// count) and the phy.Model (to time) to measure each layer from outside.
// The rebuilt job must yield the same sample values as serve.Execute does
// for the same spec.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/serve"
	"repro/internal/stats"
)

// layers accumulates per-layer time and counts over traced jobs.
type layers struct {
	GenBuild, Encode, Job float64 // seconds
	Diameter, Broadcast   float64 // seconds; diameter is an isolated re-call
	Isolated              float64 // seconds of isolated re-calls, kept out of Job
	MISSteps, MainSteps   int64

	RadioRun                                          float64 // seconds
	Steps, Transmissions, Deliveries, RadioCollisions int64   // radio.Result

	PhySync, PhyResolve, PhyClear, PhyFallback float64 // seconds
	ResolveCalls, FallbackSweeps               int64
	ArenaHighWater, ArenaCap                   int
	Decoded, Collided                          int64 // phy.Outcome entries

	// ActPhase and DeliverPhase are the engine's act and deliver phases,
	// timed per step at the phase boundaries the model observes: from the
	// end of Sync or of the previous step's Clear to Resolve (the Act and
	// Done calls and the scan around them), and from the end of Resolve to
	// Clear (applying the outcome and the Deliver calls).
	ActPhase, DeliverPhase float64 // seconds
	ActCalls, Transmits    int64
}

// countedNode forwards to the real protocol, counting Act calls and
// transmissions. It adds no timing to the step loop.
type countedNode struct {
	p radio.Protocol
	l *layers
}

func (n *countedNode) Act(step int) radio.Action {
	n.l.ActCalls++
	a := n.p.Act(step)
	if a.Transmit {
		n.l.Transmits++
	}
	return a
}

func (n *countedNode) Deliver(step int, msg radio.Message) { n.p.Deliver(step, msg) }

func (n *countedNode) Done() bool { return n.p.Done() }

func (l *layers) wrapFactory(f radio.Factory) radio.Factory {
	return func(info radio.NodeInfo) radio.Protocol {
		return &countedNode{p: f(info), l: l}
	}
}

// tracedModel forwards to the real reception model, timing Sync, Resolve
// and Clear and counting outcomes. A Resolve during which the model's
// FallbackSweeps rose is attributed to the fallback sweep.
type tracedModel struct {
	m     phy.Model
	stats phy.StatsSource // nil when the model reports none
	l     *layers
	mark  time.Time // end of the last Sync, Resolve or Clear
}

func (l *layers) wrapModel(m phy.Model) *tracedModel {
	src, _ := m.(phy.StatsSource)
	return &tracedModel{m: m, stats: src, l: l}
}

func (t *tracedModel) Name() string { return t.m.Name() }

func (t *tracedModel) Sync(step int, csr *graph.CSR) error {
	t0 := time.Now()
	err := t.m.Sync(step, csr)
	t.mark = time.Now()
	t.l.PhySync += t.mark.Sub(t0).Seconds()
	return err
}

func (t *tracedModel) Resolve(f *phy.Frontier, out *phy.Outcome) {
	var before uint64
	if t.stats != nil {
		before = t.stats.Stats().FallbackSweeps
	}
	t0 := time.Now()
	t.l.ActPhase += t0.Sub(t.mark).Seconds()
	t.m.Resolve(f, out)
	t.mark = time.Now()
	dt := t.mark.Sub(t0).Seconds()
	t.l.PhyResolve += dt
	t.l.ResolveCalls++
	t.l.Decoded += int64(len(out.Decoded))
	t.l.Collided += int64(len(out.Collided))
	if t.stats != nil && t.stats.Stats().FallbackSweeps > before {
		t.l.PhyFallback += dt
		t.l.FallbackSweeps++
	}
}

func (t *tracedModel) Clear() {
	t0 := time.Now()
	t.l.DeliverPhase += t0.Sub(t.mark).Seconds()
	t.m.Clear()
	t.mark = time.Now()
	t.l.PhyClear += t.mark.Sub(t0).Seconds()
}

// Stats forwards phy.StatsSource.
func (t *tracedModel) Stats() phy.Stats {
	if t.stats == nil {
		return phy.Stats{}
	}
	return t.stats.Stats()
}

// finish folds the model's end-of-run load stats into the layers.
func (t *tracedModel) finish() {
	s := t.Stats()
	t.l.ArenaHighWater = max(t.l.ArenaHighWater, s.ArenaHighWater)
	t.l.ArenaCap = max(t.l.ArenaCap, s.ArenaCap)
}

// engine returns the mis.EngineFunc that runs radio.Run on g under the
// wrapped model, with wrapped protocols, timing the whole run.
func (l *layers) engine(g *graph.Graph, model phy.Model) (mis.EngineFunc, *tracedModel) {
	tm := l.wrapModel(model)
	return func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
		opts.PHY = tm
		t0 := time.Now()
		res, err := radio.Run(g, l.wrapFactory(factory), opts)
		l.RadioRun += time.Since(t0).Seconds()
		l.Steps += int64(res.Steps)
		l.Transmissions += res.Transmissions
		l.Deliveries += res.Deliveries
		l.RadioCollisions += res.Collisions
		return res, err
	}, tm
}

// tracedJob rebuilds one single-replica job of a canonical-able spec and
// returns its sample values (the row values of the result record) and the
// encoded result. Supported: mis on graph and phy:sinr specs, broadcast on
// graph specs — the algorithms the benchmark's traced workloads submit.
func tracedJob(raw serve.Spec, l *layers) (map[string]float64, []byte, error) {
	start, isolated := time.Now(), l.Isolated
	c, err := raw.Canonicalize()
	if err != nil {
		return nil, nil, err
	}
	if c.Reps != 1 {
		return nil, nil, fmt.Errorf("traced jobs rebuild one replica, spec has %d", c.Reps)
	}
	seed := exp.TrialSeed(c.Seed, c.GridID(), 0)
	_, _, isPhy := gen.SplitPhySpec(c.Graph)

	var values map[string]float64
	t0 := time.Now()
	switch {
	case c.Algo == "mis" && isPhy:
		g, model, err := gen.PhyDeployment(c.Graph, c.N, seed, c.SINRParams())
		l.GenBuild += time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, err
		}
		values, err = tracedMIS(g, model, seed, l)
		if err != nil {
			return nil, nil, err
		}
	case c.Algo == "mis":
		g, err := gen.ByName(c.Graph, c.N, seed)
		l.GenBuild += time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, err
		}
		values, err = tracedMIS(g, phy.NewCollision(), seed, l)
		if err != nil {
			return nil, nil, err
		}
	case c.Algo == "broadcast" && !isPhy:
		g, err := gen.ByName(c.Graph, c.N, seed)
		l.GenBuild += time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, err
		}
		values, err = tracedBroadcast(g, c.Source%g.N(), seed, l)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("no traced rebuild for %s on %s", c.Algo, c.Graph)
	}

	hash := c.Hash()
	res := &serve.Result{
		SpecHash: hash,
		Spec:     c,
		Record: exp.ExperimentResult{
			ID:     "serve:" + hash[:12],
			Title:  c.String(),
			Claim:  "determinism contract (DESIGN.md §3–§6): this record is a pure function of the spec",
			Tables: []*stats.Table{recordTable(c, values)},
		},
	}
	t0 = time.Now()
	body, err := res.JSON()
	l.Encode += time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, err
	}
	// The isolated re-calls of the broadcast rebuild are not part of the
	// job a user submits, so they stay out of the traced job time.
	l.Job += time.Since(start).Seconds() - (l.Isolated - isolated)
	return values, body, nil
}

// tracedMIS runs Radio MIS on the traced engine, as the service's MIS
// trial does, and returns its sample values.
func tracedMIS(g *graph.Graph, model phy.Model, seed uint64, l *layers) (map[string]float64, error) {
	eng, tm := l.engine(g, model)
	out, err := mis.RunOnEngine(g, mis.Params{}, seed, eng)
	tm.finish()
	if err != nil {
		return nil, err
	}
	return exp.V(
		"mis_size", len(out.MIS),
		"steps", out.Steps,
		"rounds", out.Rounds,
		"completed", out.Completed,
		"valid", mis.Verify(g, out.MIS) == nil,
	), nil
}

// tracedBroadcast times core.Broadcast whole — it has no engine hook — and
// then re-calls its two big parts in isolation on the same graph: the exact
// diameter and the ComputeMIS run, the latter on the traced engine. The
// isolated MIS run must reproduce the broadcast's MIS step count and size.
func tracedBroadcast(g *graph.Graph, src int, seed uint64, l *layers) (map[string]float64, error) {
	t0 := time.Now()
	res, err := core.Broadcast(g, src, core.Params{}, seed)
	l.Broadcast += time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	l.MISSteps += int64(res.MISSteps)
	l.MainSteps += int64(res.MainSteps)

	iso := time.Now()
	t0 = time.Now()
	if _, err := g.Diameter(); err != nil {
		return nil, err
	}
	l.Diameter += time.Since(t0).Seconds()
	eng, tm := l.engine(g, phy.NewCollision())
	out, err := mis.RunOnEngine(g, mis.Params{}, seed, eng)
	tm.finish()
	if err != nil {
		return nil, err
	}
	if out.Steps != res.MISSteps || len(out.MIS) != res.MISSize {
		return nil, fmt.Errorf("isolated ComputeMIS took %d steps for |MIS|=%d, broadcast recorded %d steps for |MIS|=%d",
			out.Steps, len(out.MIS), res.MISSteps, res.MISSize)
	}
	l.Isolated += time.Since(iso).Seconds()
	return exp.V(
		"complete", res.CompleteStep,
		"total", res.TotalSteps,
		"main", res.MainSteps,
		"mis_steps", res.MISSteps,
		"mis_size", res.MISSize,
	), nil
}

// recordTable builds the one-replica result table the service builds: one
// row per sample value in sorted name order, summarized over the replicas.
func recordTable(sp serve.Spec, values map[string]float64) *stats.Table {
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := []exp.Sample{{Values: values}}
	t := &stats.Table{
		Title:  fmt.Sprintf("%s on %s (n=%d, reps=%d, seed=%d)", sp.Algo, sp.Graph, sp.N, sp.Reps, sp.Seed),
		Header: []string{"metric", "n", "mean", "stddev", "ci95", "min", "max"},
	}
	for _, name := range names {
		xs := exp.Metric(samples, name)
		s := stats.Summarize(xs)
		t.AddRowf(name, s.N, s.Mean, s.StdDev,
			fmt.Sprintf("[%.4g, %.4g]", s.CI95Lo, s.CI95Hi),
			stats.Min(xs), stats.Max(xs))
	}
	return t
}

// layerMetrics writes the traced layers into the report.
func (l *layers) layerMetrics(r *report) {
	r.set("phy.resolve_s", l.PhyResolve)
	r.set("phy.fallback_s", l.PhyFallback)
	r.set("phy.sync_s", l.PhySync)
	r.set("phy.clear_s", l.PhyClear)
	r.set("phy.resolve_calls", float64(l.ResolveCalls))
	r.set("phy.fallback_sweeps", float64(l.FallbackSweeps))
	r.set("phy.fallback_step_share", ratio(float64(l.FallbackSweeps), float64(l.ResolveCalls)))
	r.set("phy.arena_high_water", float64(l.ArenaHighWater))
	r.set("phy.arena_cap", float64(l.ArenaCap))
	r.set("phy.decode_share", ratio(float64(l.Decoded), float64(l.Decoded+l.Collided)))
	r.set("mis.act_s", l.ActPhase)
	r.set("mis.deliver_s", l.DeliverPhase)
	r.set("mis.act_calls", float64(l.ActCalls))
	r.set("mis.transmit_share", ratio(float64(l.Transmits), float64(l.ActCalls)))
	r.set("radio.run_s", l.RadioRun)
	r.set("radio.self_s", l.RadioRun-l.PhySync-l.PhyResolve-l.PhyClear-l.ActPhase-l.DeliverPhase)
	r.set("radio.steps", float64(l.Steps))
	r.set("radio.transmissions", float64(l.Transmissions))
	r.set("radio.deliveries", float64(l.Deliveries))
	r.set("radio.collisions", float64(l.RadioCollisions))
	r.set("graph.diameter_s", l.Diameter)
	r.set("gen.build_s", l.GenBuild)
	r.set("core.broadcast_s", l.Broadcast)
	r.set("core.mis_steps", float64(l.MISSteps))
	r.set("core.main_steps", float64(l.MainSteps))
	r.set("serve.encode_s", l.Encode)
	r.set("trace.job_s", l.Job)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
