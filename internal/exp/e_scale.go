package exp

// E24: the million-node path at experiment scale. The tracked engine
// benches time the streaming pipeline; this experiment checks that the
// protocols still *behave* on it — flood completes and Radio MIS produces a
// valid MIS when the topology is streaming-built CSR (delta-packed above
// the compact threshold) driven through the graph-free radio.RunCSR entry,
// with the snapshot's bytes/node reported alongside. Quick runs n=1024 so
// the determinism and CI suites stay fast; Full runs the n=10⁵ contract
// from the ROADMAP's million-node item.

import (
	"fmt"
	"math"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// misValidOnCSR checks independence and maximality of misSet directly on
// the snapshot (any form), so validity at n=10⁵ needs no graph.Graph
// reconstruction: one cursor sweep, O(n+m).
func misValidOnCSR(c *graph.CSR, misSet []int) bool {
	in := make([]bool, c.N())
	for _, v := range misSet {
		if v < 0 || v >= c.N() {
			return false
		}
		in[v] = true
	}
	cur := c.Cursor()
	for v := 0; v < c.N(); v++ {
		dominated := in[v]
		for _, w := range cur.List(v) {
			if in[v] && in[int(w)] {
				return false // edge inside the set
			}
			if in[int(w)] {
				dominated = true
			}
		}
		if !dominated {
			return false // v could join: not maximal
		}
	}
	return true
}

// RunE24 — flood and Radio MIS on the streaming million-node path: one
// trial builds a connected UDG deployment directly to CSR (gen.BuildCSR,
// never materializing graph.Graph), floods rank 1 from node 0 with the
// E17 budget convention (6·diameter·levels), then runs Algorithm 7 over
// the same snapshot, both through radio.RunCSR.
func RunE24(cfg Config) (*Report, error) {
	n := 1024
	trials := 3
	if cfg.Scale == Full {
		n = 100000
		trials = 2
	}
	grid := NewGrid("E24")
	grid.AddReps("stream", trials, func(seed uint64) (Sample, error) {
		trng := xrand.New(seed)
		csr, _, err := gen.BuildCSR("phy:sinr", n, trng.Uint64())
		if err != nil {
			return Sample{}, err
		}
		d, err := csr.DiameterApprox()
		if err != nil {
			return Sample{}, err
		}
		levels := int(math.Ceil(math.Log2(float64(n + 1))))
		budget := 6 * d * levels
		fl, err := RunFlood(csr, nil, map[int]int64{0: 1}, FloodConfig{Budget: budget, ProbeStep: -1, Seed: trng.Uint64()})
		if err != nil {
			return Sample{}, err
		}
		mout, err := mis.RunOnEngineN(n, mis.Params{}, seed, func(f radio.Factory, o radio.Options) (radio.Result, error) {
			return radio.RunCSR(csr, f, o)
		})
		if err != nil {
			return Sample{}, err
		}
		return Sample{Values: V(
			"deg", 2*float64(csr.M())/float64(n),
			"bytesPerNode", float64(csr.MemBytes())/float64(n),
			"packed", csr.IsPacked(),
			"floodDone", fl.Complete >= 0,
			"floodStep", completedOr(fl.Complete, budget),
			"coverage", float64(fl.InformedEnd)/float64(n),
			"misValid", mout.Completed && misValidOnCSR(csr, mout.MIS),
			"misSize", len(mout.MIS),
		)}, nil
	})
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	tb := &stats.Table{
		Title: "E24 — flood and Radio MIS on the streaming direct-to-CSR path (radio.RunCSR, packed above threshold)",
		Header: []string{"n", "trials", "mean deg", "csr bytes/node", "packed",
			"flood done", "mean flood step", "mean coverage", "MIS valid", "mean |MIS|"},
	}
	tb.AddRowf(n, len(results), stats.Mean(Metric(results, "deg")),
		stats.Mean(Metric(results, "bytesPerNode")),
		fmt.Sprintf("%d/%d", int(SumMetric(results, "packed")), len(results)),
		fmt.Sprintf("%d/%d", int(SumMetric(results, "floodDone")), len(results)),
		stats.Mean(Metric(results, "floodStep")),
		stats.Mean(Metric(results, "coverage")),
		fmt.Sprintf("%d/%d", int(SumMetric(results, "misValid")), len(results)),
		stats.Mean(Metric(results, "misSize")))
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}
