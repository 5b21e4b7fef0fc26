// Package decay implements the classic Decay protocol of Bar-Yehuda,
// Goldreich and Itai (Algorithm 5 of the paper) as a reusable sub-phase for
// larger radio protocols, together with its amplified form (Claim 10):
// O(log n) iterations of Decay performed by a sender set S inform every node
// with a neighbor in S with high probability.
//
// One Decay iteration lasts ⌈log₂ n⌉ time-steps; in step i (1-based) each
// active sender transmits its message with probability 2^-i. A participant
// listens whenever it does not transmit, so senders also detect other nearby
// senders — the property Radio MIS relies on to check for marked neighbors.
package decay

import (
	"math"

	"repro/internal/radio"
)

// StepsPerIteration returns the length of a single Decay iteration for a
// network-size estimate n: ⌈log₂ n⌉, minimum 1.
func StepsPerIteration(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Phase is one amplified Decay block embedded in a larger protocol. The
// owner forwards local step indices 0..Len()-1 to Act/Deliver. A Phase is
// single-use.
type Phase struct {
	stepsPerIter int
	iterations   int
	active       bool
	msg          radio.Message
	rng          coin

	heardFirst radio.Message
	heardCount int
}

// coin abstracts the only randomness Decay needs, easing deterministic tests.
type coin interface {
	Bernoulli(p float64) bool
}

// NewPhase creates a Decay block of `iterations` iterations for network-size
// estimate n. If active, the node participates as a sender with message msg;
// otherwise it only listens. rng must be the node's private RNG.
func NewPhase(n, iterations int, active bool, msg radio.Message, rng coin) *Phase {
	if iterations < 1 {
		iterations = 1
	}
	return &Phase{
		stepsPerIter: StepsPerIteration(n),
		iterations:   iterations,
		active:       active,
		msg:          msg,
		rng:          rng,
	}
}

// Len returns the number of time-steps the phase occupies.
func (p *Phase) Len() int { return p.stepsPerIter * p.iterations }

// Act returns the node's action for local step `local` (0-based within the
// phase). Active senders transmit with probability 2^-(i+1) where i is the
// position within the current iteration; everyone else listens.
func (p *Phase) Act(local int) radio.Action {
	if !p.active {
		return radio.Listen()
	}
	i := local % p.stepsPerIter // 0-based position within the iteration
	prob := math.Ldexp(1, -(i + 1))
	if p.rng.Bernoulli(prob) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver records a successful reception during the phase.
func (p *Phase) Deliver(local int, msg radio.Message) {
	if msg == nil {
		return
	}
	if p.heardCount == 0 {
		p.heardFirst = msg
	}
	p.heardCount++
}

// Heard reports whether anything was received during the phase, and the
// first received message.
func (p *Phase) Heard() (radio.Message, bool) {
	return p.heardFirst, p.heardCount > 0
}

// HeardCount returns the number of successful receptions during the phase.
func (p *Phase) HeardCount() int { return p.heardCount }
