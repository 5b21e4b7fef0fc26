// Command radionet-sim runs one algorithm on one generated graph and prints
// a result summary — the quickest way to poke at the library.
//
// Usage:
//
//	radionet-sim -graph grid -n 256 -algo broadcast [-seed 7]
//	radionet-sim -graph churn:grid -n 256 -algo flood [-epochs 12] [-epoch-len 32] [-rate 0.2]
//	radionet-sim -graph phy:sinr -n 256 -algo mis [-beta 2] [-noise 0.5] [-pathloss 4] [-cutoff 4]
//
// Graphs: path, cycle, clique, star, grid, tree, gnp, udg, cliquechain,
// lollipop — plus the dynamic specs churn:<class>, fault:<class> and
// mobile:udg, whose epoch schedules are built by gen.ScheduleByName and run
// through the engine's Options.Topology hook, and the physical-layer specs
// phy:sinr (a UDG deployment under SINR reception, parameterized by -beta,
// -noise, -pathloss, -cutoff) and phy:cd:<class> (collision detection),
// which run through the engine's Options.PHY hook (DESIGN.md §7).
// Algorithms: mis, broadcast, broadcast-all, decay-broadcast, election,
// decay-election, flood (the only one that follows a dynamic topology;
// on a dynamic spec the others run on the epoch-0 skeleton). The phy:
// specs support mis, decay-broadcast, and flood — the engine entry points
// that accept a reception model.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/mis"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "radionet-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("radionet-sim", flag.ContinueOnError)
	graphName := fs.String("graph", "grid", "graph class")
	n := fs.Int("n", 256, "approximate node count")
	algo := fs.String("algo", "broadcast", "algorithm to run")
	seed := fs.Uint64("seed", 1, "random seed")
	source := fs.Int("source", 0, "broadcast source node")
	traceCSV := fs.String("trace", "", "write a per-step CSV trace to this file (mis only)")
	epochs := fs.Int("epochs", 12, "dynamic specs: mutated epochs after the pristine epoch 0")
	epochLen := fs.Int("epoch-len", 32, "dynamic specs: steps per epoch")
	rate := fs.Float64("rate", 0, "dynamic specs: churn/fault probability or mobility speed (0 = default)")
	beta := fs.Float64("beta", 0, "phy:sinr: decode threshold β ≥ 1 (0 = default 2)")
	noise := fs.Float64("noise", -1, "phy:sinr: ambient noise floor (-1 = default; 0 is an explicit noiseless channel)")
	pathLoss := fs.Float64("pathloss", 0, "phy:sinr: path-loss exponent (0 = default 4)")
	cutoff := fs.Float64("cutoff", 0, "phy:sinr: far-field cutoff in decode ranges (0 = default 4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := phy.SINRParams{Beta: *beta, PathLoss: *pathLoss, CutoffFactor: *cutoff}
	if *noise >= 0 {
		params.Noise, params.NoiseSet = *noise, true
	}
	if *algo == "flood" {
		return runFlood(*graphName, *n, *epochs, *epochLen, *rate, *seed, *source, params)
	}
	if phyModel, _, isPhy := gen.SplitPhySpec(*graphName); isPhy {
		return runPhy(*graphName, phyModel, *n, *algo, *seed, *source, params)
	}
	if strings.Contains(*graphName, ":") {
		fmt.Fprintf(stderr, "warning: algo %s ignores the dynamic schedule of %s and runs on its epoch-0 skeleton (use -algo flood)\n",
			*algo, *graphName)
	}
	g, err := gen.ByName(*graphName, *n, *seed)
	if err != nil {
		return err
	}
	d, derr := g.Diameter()
	fmt.Printf("graph=%s n=%d m=%d", *graphName, g.N(), g.M())
	if derr == nil {
		fmt.Printf(" D=%d", d)
	}
	alpha := g.IndependenceLowerBound(4, xrand.New(*seed))
	fmt.Printf(" α̂=%d\n", alpha)

	switch *algo {
	case "mis":
		var out *mis.Outcome
		var err error
		if *traceCSV != "" {
			rec := trace.NewRecorder(0)
			out, err = mis.RunDetailed(g, mis.Params{}, *seed, g.N(), rec.OnStep())
			if err == nil {
				if werr := writeTrace(*traceCSV, rec); werr != nil {
					return werr
				}
				fmt.Printf("trace: %s (%s)\n", *traceCSV, rec.Summarize())
			}
		} else {
			out, err = mis.Run(g, mis.Params{}, *seed)
		}
		if err != nil {
			return err
		}
		status := "VALID"
		if err := mis.Verify(g, out.MIS); err != nil {
			status = err.Error()
		}
		fmt.Printf("mis: |MIS|=%d steps=%d rounds=%d completed=%v verdict=%s\n",
			len(out.MIS), out.Steps, out.Rounds, out.Completed, status)
		l := math.Log2(float64(g.N()))
		fmt.Printf("mis: steps/log³n = %.2f (Theorem 14: O(log³ n))\n", float64(out.Steps)/(l*l*l))
	case "broadcast", "broadcast-all":
		params := core.Params{}
		if *algo == "broadcast-all" {
			params.CenterMode = core.AllCenters
		}
		res, err := core.Broadcast(g, *source, params, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("broadcast(%s): complete=%d main=%d mis=%d charged=%d total=%d |MIS|=%d b=%d slots=%d/%d\n",
			params.CenterMode, res.CompleteStep, res.MainSteps, res.MISSteps,
			res.ChargedSetupSteps, res.TotalSteps, res.MISSize, res.B,
			res.MaxDownSlots, res.MaxUpSlots)
	case "decay-broadcast":
		res, err := baseline.DecayBroadcast(g, *source, 0, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("decay-broadcast: complete=%d levels=%d transmissions=%d\n",
			res.CompleteStep, res.Levels, res.Transmissions)
	case "election":
		er, err := core.LeaderElection(g, core.Params{}, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("election: complete=%d candidates=%d leader=%d\n",
			er.CompleteStep, er.Candidates, er.LeaderID)
	case "decay-election":
		er, err := baseline.DecayLeaderElection(g, 0, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("decay-election: complete=%d candidates=%d winner=%d\n",
			er.CompleteStep, er.Candidates, er.Winner)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	return nil
}

// runPhy runs one of the phy-capable algorithms under the spec's reception
// model, through the same entry points the experiments and the service use.
func runPhy(spec, phyModel string, n int, algo string, seed uint64, source int, params phy.SINRParams) error {
	g, model, err := gen.PhyDeployment(spec, n, seed, params)
	if err != nil {
		return err
	}
	if phyModel == "sinr" {
		p := params.WithDefaults()
		fmt.Printf("phy=sinr beta=%g noise=%g pathloss=%g cutoff=%g decode-range=%g\n",
			p.Beta, p.Noise, p.PathLoss, p.CutoffFactor, p.DecodeRange())
	}
	fmt.Printf("graph=%s phy=%s n=%d m=%d\n", spec, model.Name(), g.N(), g.M())
	switch algo {
	case "mis":
		out, err := mis.RunOnEngine(g, mis.Params{}, seed, func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
			opts.PHY = model
			return radio.Run(g, factory, opts)
		})
		if err != nil {
			return err
		}
		status := "VALID"
		if err := mis.Verify(g, out.MIS); err != nil {
			status = err.Error()
		}
		fmt.Printf("mis: |MIS|=%d steps=%d rounds=%d completed=%v verdict=%s\n",
			len(out.MIS), out.Steps, out.Rounds, out.Completed, status)
	case "decay-broadcast":
		res, err := baseline.DecayBroadcastPHY(g, model, source%g.N(), 0, seed)
		if err != nil {
			return err
		}
		fmt.Printf("decay-broadcast: complete=%d levels=%d transmissions=%d\n",
			res.CompleteStep, res.Levels, res.Transmissions)
	default:
		return fmt.Errorf("algorithm %q cannot run under a phy: spec (supported: mis, decay-broadcast, flood)", algo)
	}
	return nil
}

// runFlood floods a rumor from source over the (possibly dynamic) topology
// named by spec and prints per-epoch coverage. The protocol and runner are
// exp.RunFlood — the same flood E17–E21 measure — so the CLI demo and the
// experiment suite cannot drift apart. On a phy: spec the flood runs under
// that reception model.
func runFlood(spec string, n, epochs, epochLen int, rate float64, seed uint64, source int, params phy.SINRParams) error {
	sched, err := gen.ScheduleByName(spec, n, epochs, epochLen, rate, seed)
	if err != nil {
		return err
	}
	model, _, err := gen.SchedulePhyModel(spec, sched, params)
	if err != nil {
		return err
	}
	n = sched.N()
	budget := max(sched.LastStart()+epochLen, 4*epochLen)
	fmt.Printf("graph=%s n=%d epochs=%d budget=%d\n", spec, n, sched.Epochs(), budget)
	out, err := exp.RunFlood(sched.CSR(0), sched, map[int]int64{source % n: 1}, exp.FloodConfig{
		Budget: budget, ProbeStep: -1, Seed: seed, PHY: model,
		OnStep: func(step, informed int) {
			if (step+1)%epochLen == 0 {
				fmt.Printf("step %4d: informed %d/%d (m=%d)\n", step+1, informed, n, currentM(sched, step))
			}
		},
	})
	if err != nil {
		return err
	}
	if out.Complete >= 0 {
		fmt.Printf("flood: complete=%d informed=%d/%d\n", out.Complete, out.InformedEnd, n)
	} else {
		fmt.Printf("flood: incomplete after %d steps, informed=%d/%d\n", budget, out.InformedEnd, n)
	}
	return nil
}

// currentM reports the edge count of the epoch in force at step.
func currentM(topo radio.Topology, step int) int {
	csr, _ := topo.EpochAt(step)
	return csr.M()
}

// writeTrace dumps the recording as CSV.
func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
