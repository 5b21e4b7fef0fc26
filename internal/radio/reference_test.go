package radio

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// runDelivery drives the engine's delivery core for one synthetic step: it
// loads the given transmit set, runs the PHY resolve pass over the
// frontier, hands a copy of hear to the caller, then resets the step and
// verifies the between-steps invariant (all engine scratch re-zeroed; a
// second resolve must see an empty medium).
func runDelivery(t *testing.T, g *graph.Graph, transmitting []bool, payload []Message, cd bool) ([]Message, StepStats) {
	t.Helper()
	n := g.N()
	opts := Options{PHY: phy.NewCollision(), Topology: staticCSR{g.Freeze()}}
	if cd {
		opts.PHY = phy.NewCollisionCD()
	}
	e, err := newEngine(make([]Protocol, n), opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if transmitting[v] {
			e.payload[v] = payload[v]
			e.txList = append(e.txList, int32(v))
		}
	}
	st := StepStats{}
	e.frontier.Add(e.txList)
	e.resolveDeliveries(&st)
	hear := make([]Message, n)
	copy(hear, e.hear)
	e.resetStep()
	for v := 0; v < n; v++ {
		if e.frontier.Has(int32(v)) || e.payload[v] != nil || e.hear[v] != nil {
			t.Fatalf("scratch not re-zeroed at node %d after resetStep", v)
		}
	}
	if len(e.txList) != 0 {
		t.Fatal("txList not emptied")
	}
	// The model's own scratch must be clean too: resolving the empty
	// transmitter set must produce an empty outcome.
	var empty StepStats
	e.resolveDeliveries(&empty)
	if empty.Deliveries != 0 || empty.Collisions != 0 {
		t.Fatalf("model scratch not re-zeroed: empty step resolved to %+v", empty)
	}
	e.resetStep()
	return hear, st
}

// TestDeliveryMatchesBruteForce checks the sparse touched-vertex delivery
// core against a direct transcription of the model's definition ("a
// listening node hears a message iff exactly one of its neighbors
// transmits") on random graphs with random transmit sets, with and without
// collision detection.
func TestDeliveryMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, nRaw, density uint8, cd bool) bool {
		rng := xrand.New(seed)
		n := int(nRaw%30) + 2
		g := graph.New(n)
		p := float64(density%90+5) / 100
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(p) {
					g.AddEdge(u, v)
				}
			}
		}
		transmitting := make([]bool, n)
		payload := make([]Message, n)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.4) {
				transmitting[v] = true
				payload[v] = v
			}
		}
		hear, _ := runDelivery(t, g, transmitting, payload, cd)
		// Brute force per the definition.
		for v := 0; v < n; v++ {
			var want Message
			if !transmitting[v] {
				count, from := 0, -1
				for _, w := range g.Neighbors(v) {
					if transmitting[w] {
						count++
						from = int(w)
					}
				}
				if count == 1 {
					want = payload[from]
				} else if count >= 2 && cd {
					want = Collision
				}
			}
			if hear[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryStatsConsistent cross-checks the per-step counters against a
// recount from first principles.
func TestDeliveryStatsConsistent(t *testing.T) {
	rng := xrand.New(42)
	g := graph.New(25)
	for u := 0; u < 25; u++ {
		for v := u + 1; v < 25; v++ {
			if rng.Bernoulli(0.2) {
				g.AddEdge(u, v)
			}
		}
	}
	transmitting := make([]bool, 25)
	payload := make([]Message, 25)
	for v := range transmitting {
		if rng.Bernoulli(0.5) {
			transmitting[v] = true
			payload[v] = v
		}
	}
	_, st := runDelivery(t, g, transmitting, payload, false)
	deliveries, collisions := 0, 0
	for v := 0; v < 25; v++ {
		if transmitting[v] {
			continue
		}
		count := 0
		for _, w := range g.Neighbors(v) {
			if transmitting[w] {
				count++
			}
		}
		if count == 1 {
			deliveries++
		}
		if count >= 2 {
			collisions++
		}
	}
	if st.Deliveries != deliveries || st.Collisions != collisions {
		t.Fatalf("stats (%d,%d) vs recount (%d,%d)",
			st.Deliveries, st.Collisions, deliveries, collisions)
	}
}

// transcript is one run's externally observable behavior: per-node hashes
// of everything heard, the per-step stats stream, and the Result.
type transcript struct {
	hashes []uint64
	steps  []StepStats
	res    Result
}

// hashFactory builds hash-recording random protocols that write each
// node's transcript hash into hashes.
func hashFactory(hashes []uint64, until int) Factory {
	return func(info NodeInfo) Protocol {
		rn := &randomNode{info: info, until: until}
		return &hashCapture{randomNode: rn, out: &hashes[info.Index]}
	}
}

// runTranscript executes one engine run with hash-recording random
// protocols.
func runTranscript(t *testing.T, g *graph.Graph, opts Options, until int) transcript {
	t.Helper()
	hashes := make([]uint64, g.N())
	var steps []StepStats
	opts.OnStep = func(s StepStats) { steps = append(steps, s) }
	res, err := Run(g, hashFactory(hashes, until), opts)
	if err != nil {
		t.Fatal(err)
	}
	return transcript{hashes: hashes, steps: steps, res: res}
}

// referenceTranscript runs the same workload through a dense transcription
// of the model's definition: every step it polls Done on every awake node
// (no active list), lets every live node act, decides reception for every
// non-transmitting node by counting its transmitting neighbors in g
// (exactly one: it hears that message; two or more: silence, or the
// Collision marker when cd), and delivers to every live node. Stats count
// every reached listener, live or not, as the engine does. There is no
// frontier, no PHY model, and no scratch to re-zero — it is the oracle the
// sparse step loop must match.
func referenceTranscript(t *testing.T, g *graph.Graph, opts Options, until int, cd bool) transcript {
	t.Helper()
	n := g.N()
	hashes := make([]uint64, n)
	nodes, err := buildNodes(n, g.DiameterApprox, hashFactory(hashes, until), opts)
	if err != nil {
		t.Fatal(err)
	}
	var tr transcript
	live := make([]bool, n)
	transmitting := make([]bool, n)
	payload := make([]Message, n)
	for step := 0; step < opts.MaxSteps; step++ {
		remaining := false
		for v := range nodes {
			up := awake(&opts, v, step)
			live[v] = up && !nodes[v].Done()
			remaining = remaining || !up || live[v]
		}
		if !remaining {
			tr.res.AllDone = true
			break
		}
		st := StepStats{Step: step}
		for v := range nodes {
			transmitting[v], payload[v] = false, nil
			if live[v] {
				if a := nodes[v].Act(step); a.Transmit {
					transmitting[v], payload[v] = true, a.Msg
					st.Transmits++
				}
			}
		}
		for v := range nodes {
			var msg Message
			if !transmitting[v] {
				count, from := 0, -1
				for _, w := range g.Neighbors(v) {
					if transmitting[w] {
						count++
						from = int(w)
					}
				}
				switch {
				case count == 1:
					msg = payload[from]
					st.Deliveries++
				case count >= 2:
					st.Collisions++
					if cd {
						msg = Collision
					}
				}
			}
			if live[v] {
				nodes[v].Deliver(step, msg)
			}
		}
		tr.res.Steps = step + 1
		tr.res.Transmissions += int64(st.Transmits)
		tr.res.Deliveries += int64(st.Deliveries)
		tr.res.Collisions += int64(st.Collisions)
		tr.steps = append(tr.steps, st)
	}
	if !tr.res.AllDone {
		tr.res.AllDone = true
		for _, nd := range nodes {
			tr.res.AllDone = tr.res.AllDone && nd.Done()
		}
	}
	tr.hashes = hashes
	return tr
}

// TestEnginesTranscriptIdentical is the engine differential test: across
// random graphs, seeds, collision-detection settings and staggered
// wake-ups, the sparse step loop and the dense reference loop must produce
// identical per-node transcripts, per-step stats, and results.
func TestEnginesTranscriptIdentical(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(60) + 5
		g := graph.New(n)
		p := 0.05 + 0.3*rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(p) {
					g.AddEdge(u, v)
				}
			}
		}
		cd := trial%2 == 0
		opts := Options{MaxSteps: 40, Seed: rng.Uint64()}
		if trial%3 == 0 {
			wake := make([]int, n)
			for v := range wake {
				wake[v] = rng.Intn(8)
			}
			opts.WakeAt = wake
		}
		want := referenceTranscript(t, g, opts, 30, cd)
		if cd {
			opts.PHY = phy.NewCollisionCD()
		}
		got := runTranscript(t, g, opts, 30)
		if got.res != want.res {
			t.Fatalf("trial %d: result %+v vs reference %+v", trial, got.res, want.res)
		}
		if len(got.steps) != len(want.steps) {
			t.Fatalf("trial %d: %d step records vs %d", trial, len(got.steps), len(want.steps))
		}
		for i := range want.steps {
			if got.steps[i] != want.steps[i] {
				t.Fatalf("trial %d: step %d stats %+v vs %+v", trial, i, got.steps[i], want.steps[i])
			}
		}
		for v := range want.hashes {
			if got.hashes[v] != want.hashes[v] {
				t.Fatalf("trial %d: node %d transcript differs", trial, v)
			}
		}
	}
}
