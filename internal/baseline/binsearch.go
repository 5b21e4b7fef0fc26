package baseline

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// BinarySearchLeaderElection is the other classic reduction the paper
// describes in §1.5.1: leader election via binary search for the highest ID
// in O(log n) × broadcasting time. Every node draws a random b-bit ID. The
// ID space is halved over b phases: in each phase, nodes whose ID lies in
// the upper half of the current interval flood a beacon for a fixed budget
// of T = Θ(D log n + log² n) steps (Decay-style); nodes that heard or
// originated the beacon move to the upper half, others to the lower half.
// With T large enough every phase's outcome is learned by all nodes whp, so
// all nodes converge to the same singleton interval — the maximum ID.
//
// Returns the agreed leader ID and checks network-wide agreement.
func BinarySearchLeaderElection(g *graph.Graph, bits int, seed uint64) (*ElectionResult, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty graph")
	}
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	if bits <= 0 {
		bits = 2 * bitsFor(n)
	}
	if bits > 30 {
		return nil, fmt.Errorf("baseline: bits=%d too large (≤ 30)", bits)
	}
	d, err := g.DiameterApprox()
	if err != nil {
		return nil, err
	}
	levels := int(math.Ceil(math.Log2(float64(n + 1))))
	phaseLen := 14 * (d*levels + levels*levels) // broadcast budget per phase
	rng := xrand.New(seed ^ 0xb15ea)
	ids := make([]int64, n)
	maxID := int64(-1)
	for v := range ids {
		ids[v] = int64(rng.Uint64() >> (64 - uint(bits)))
		if ids[v] > maxID {
			maxID = ids[v]
		}
	}
	nodes := make([]*bsNode, n)
	factory := func(info radio.NodeInfo) radio.Protocol {
		nd := &bsNode{
			id:       ids[info.Index],
			bits:     bits,
			phaseLen: phaseLen,
			levels:   levels,
			hi:       int64(1) << uint(bits),
			rng:      info.RNG,
		}
		nodes[info.Index] = nd
		return nd
	}
	res, err := radio.Run(g, factory, radio.Options{
		MaxSteps: bits*phaseLen + 1,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	// Agreement check: every node's final interval must be the singleton
	// holding the true maximum.
	for v, nd := range nodes {
		if nd.lo != maxID || nd.hi != maxID+1 {
			return nil, fmt.Errorf("baseline: node %d converged to [%d,%d), leader is %d",
				v, nd.lo, nd.hi, maxID)
		}
	}
	return &ElectionResult{
		Result: Result{
			CompleteStep:  res.Steps,
			Steps:         res.Steps,
			Transmissions: res.Transmissions,
			Levels:        levels,
			Winner:        maxID,
		},
		Candidates: n, // every node competes
	}, nil
}

// bsNode runs the interval-halving protocol.
type bsNode struct {
	id       int64
	bits     int
	phaseLen int
	levels   int
	lo, hi   int64 // current interval [lo, hi)
	heardYes bool
	rng      *xrand.RNG
	step     int
	done     bool
}

var _ radio.Protocol = (*bsNode)(nil)

// mid returns the current interval's midpoint.
func (b *bsNode) mid() int64 { return (b.lo + b.hi) / 2 }

// active reports whether this node beacons in the current phase: its ID is
// in the upper half of the current interval.
func (b *bsNode) active() bool {
	return b.id >= b.mid() && b.id < b.hi && b.id >= b.lo
}

func (b *bsNode) Act(step int) radio.Action {
	if b.done {
		return radio.Listen()
	}
	if b.active() || b.heardYes {
		// Informed nodes flood the beacon Decay-style.
		level := b.step%b.levels + 1
		if b.rng.Bernoulli(math.Ldexp(1, -level)) {
			return radio.Transmit(beacon{})
		}
	}
	return radio.Listen()
}

// beacon is the phase token; content-free (the phase index is implied by
// the synchronized clock).
type beacon struct{}

func (b *bsNode) Deliver(step int, msg radio.Message) {
	if msg != nil {
		b.heardYes = true
	}
	b.step++
	if b.step%b.phaseLen == 0 {
		if b.heardYes || b.active() {
			b.lo = b.mid()
		} else {
			b.hi = b.mid()
		}
		b.heardYes = false
		if b.step/b.phaseLen >= b.bits {
			b.done = true
		}
	}
}

func (b *bsNode) Done() bool { return b.done }
