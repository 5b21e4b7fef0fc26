package radio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/xrand"
)

// ckptEvent is one transcript entry: an act or deliver observation of one
// node at one step. The chaos tests compare full transcripts, so "byte-
// identical resume" is established at the finest observable granularity.
type ckptEvent struct {
	step int
	kind byte  // 'a' act, 'd' deliver
	tx   bool  // act: transmitted
	msg  int64 // act: payload sent; deliver: value heard (minInt64 = silence)
}

const silence = math.MinInt64

// ckptFlood is a flood protocol implementing Snapshotter: nodes adopt the
// highest rank heard and retransmit with Decay-style backoff; a node that
// has held the rumor past quitAfter retires, exercising active-list
// compaction across checkpoints. Its full mutable state is (best, has,
// step, rng); the transcript log is harness instrumentation, not state.
type ckptFlood struct {
	best      int64
	has       bool
	step      int
	budget    int
	quitAfter int
	levels    int
	rng       *xrand.RNG
	log       *[]ckptEvent
}

func (d *ckptFlood) Act(step int) Action {
	a := Listen()
	if d.has && d.rng.Bernoulli(math.Ldexp(1, -(step%d.levels+1))) {
		a = Transmit(d.best)
	}
	msg := int64(silence)
	if a.Transmit {
		msg = a.Msg.(int64)
	}
	*d.log = append(*d.log, ckptEvent{step: step, kind: 'a', tx: a.Transmit, msg: msg})
	return a
}

func (d *ckptFlood) Deliver(step int, msg Message) {
	d.step = step + 1
	heard := int64(silence)
	if r, ok := msg.(int64); ok {
		heard = r
		if !d.has || r > d.best {
			d.best, d.has = r, true
		}
	}
	*d.log = append(*d.log, ckptEvent{step: step, kind: 'd', msg: heard})
}

func (d *ckptFlood) Done() bool {
	return d.step >= d.budget || (d.has && d.step >= d.quitAfter)
}

func (d *ckptFlood) SnapshotState() []byte {
	buf := make([]byte, 0, 25)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.best))
	if d.has {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.step))
	buf = binary.LittleEndian.AppendUint64(buf, d.rng.State())
	return buf
}

func (d *ckptFlood) RestoreState(data []byte) error {
	if len(data) != 25 {
		return fmt.Errorf("ckptFlood state is %d bytes, want 25", len(data))
	}
	d.best = int64(binary.LittleEndian.Uint64(data[0:8]))
	d.has = data[8] == 1
	d.step = int(binary.LittleEndian.Uint64(data[9:17]))
	d.rng.SetState(binary.LittleEndian.Uint64(data[17:25]))
	return nil
}

// ckptWorkload builds the shared dynamic scenario: a churned grid flood.
func ckptWorkload(t *testing.T) (*dyn.Schedule, int, int) {
	t.Helper()
	g := gen.Grid(6, 6)
	sched, err := dyn.Churn(g, 8, 8, 0.3, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return sched, g.N(), 64 // schedule, n, budget (MaxSteps)
}

// runCkptFlood runs the scenario with the given engine options, returning
// the result, per-node transcripts, and final per-node state snapshots.
func runCkptFlood(t *testing.T, opts Options, n, budget int) (Result, [][]ckptEvent, [][]byte, error) {
	t.Helper()
	sched := opts.Topology.(*dyn.Schedule)
	logs := make([][]ckptEvent, n)
	nodes := make([]*ckptFlood, n)
	factory := func(info NodeInfo) Protocol {
		nd := &ckptFlood{
			budget:    budget,
			quitAfter: budget/2 + info.Index%7,
			levels:    6,
			rng:       info.RNG,
			log:       &logs[info.Index],
		}
		if info.Index == 0 {
			nd.best, nd.has = 1, true
		}
		nodes[info.Index] = nd
		return nd
	}
	opts.MaxSteps = budget
	opts.Seed = 0xc0ffee
	res, err := Run(sched.CSR(0).Graph(), factory, opts)
	finals := make([][]byte, n)
	for v, nd := range nodes {
		finals[v] = nd.SnapshotState()
	}
	return res, logs, finals, err
}

var errWorkerKilled = errors.New("chaos: worker killed")

// TestCheckpointResumeByteIdentical is the chaos acceptance test: a run
// killed at an arbitrary epoch boundary (fault-injected worker death via
// the Checkpoint hook) and resumed from its last persisted checkpoint
// produces transcripts, final protocol states, and a Result byte-identical
// to the uninterrupted run — on the sequential engine, on the worker pool,
// and across engines (checkpoint on one, resume on the other).
func TestCheckpointResumeByteIdentical(t *testing.T) {
	sched, n, budget := ckptWorkload(t)
	engines := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Topology: sched}},
		{"pool", Options{Topology: sched, Concurrent: true, Shards: 3}},
	}
	type baseline struct {
		res    Result
		logs   [][]ckptEvent
		finals [][]byte
	}
	full := make(map[string]baseline)
	for _, e := range engines {
		res, logs, finals, err := runCkptFlood(t, e.opts, n, budget)
		if err != nil {
			t.Fatalf("%s: uninterrupted run: %v", e.name, err)
		}
		full[e.name] = baseline{res, logs, finals}
	}

	for _, capture := range engines {
		for _, resume := range engines {
			// Kill at each epoch boundary in turn: boundary 0 is the first
			// topology change (the step-0 epoch is installed before the
			// loop, so no checkpoint fires there).
			for kill := 1; kill <= 4; kill++ {
				name := fmt.Sprintf("capture=%s/resume=%s/kill=%d", capture.name, resume.name, kill)
				t.Run(name, func(t *testing.T) {
					faults := chaos.New()
					faults.Arm("radio.checkpoint", kill-1, 1, errWorkerKilled)
					var last *Checkpoint
					opts := capture.opts
					opts.Checkpoint = func(cp *Checkpoint) error {
						// The fault fires before persisting — the kill
						// boundary's checkpoint is lost, like a worker dying
						// mid-append — so resume replays at least one epoch.
						if err := faults.Check("radio.checkpoint"); err != nil {
							return err
						}
						last = cp
						return nil
					}
					_, killedLogs, _, err := runCkptFlood(t, opts, n, budget)
					if !errors.Is(err, errWorkerKilled) {
						t.Fatalf("killed run: err = %v, want %v", err, errWorkerKilled)
					}
					// Death at the first boundary persists nothing: resume
					// degenerates to a from-scratch rerun (the job spec is
					// the step-0 checkpoint), which determinism makes just
					// as byte-identical.
					cut := 0
					ropts := resume.opts
					if last != nil {
						cut = last.Step
						ropts.Resume = last
					} else if kill != 1 {
						t.Fatalf("no checkpoint persisted before kill %d", kill)
					}
					res2, resumedLogs, finals2, err := runCkptFlood(t, ropts, n, budget)
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}

					want := full[resume.name]
					if res2 != want.res {
						t.Errorf("Result diverged: resumed %+v, uninterrupted %+v", res2, want.res)
					}
					for v := 0; v < n; v++ {
						if string(finals2[v]) != string(want.finals[v]) {
							t.Errorf("node %d final state diverged", v)
						}
						// Stitch: killed-run transcript before the checkpoint
						// step + resumed transcript = uninterrupted transcript.
						var stitched []ckptEvent
						for _, ev := range killedLogs[v] {
							if ev.step < cut {
								stitched = append(stitched, ev)
							}
						}
						stitched = append(stitched, resumedLogs[v]...)
						if len(stitched) != len(want.logs[v]) {
							t.Fatalf("node %d: stitched transcript %d events, want %d", v, len(stitched), len(want.logs[v]))
						}
						for i := range stitched {
							if stitched[i] != want.logs[v][i] {
								t.Fatalf("node %d event %d diverged: %+v vs %+v", v, i, stitched[i], want.logs[v][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestCheckpointRequiresSnapshotter pins the up-front contract error.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	sched, _, budget := ckptWorkload(t)
	factory := func(info NodeInfo) Protocol {
		return &steadyNode{rng: info.RNG, budget: budget}
	}
	_, err := Run(sched.CSR(0).Graph(), factory, Options{
		MaxSteps:   budget,
		Seed:       1,
		Topology:   sched,
		Checkpoint: func(*Checkpoint) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "Snapshotter") {
		t.Fatalf("expected Snapshotter contract error, got %v", err)
	}
}

// TestCheckpointHookErrorAborts pins that a failing hook (journal write
// failure, injected death) aborts the run with the hook's error.
func TestCheckpointHookErrorAborts(t *testing.T) {
	sched, n, budget := ckptWorkload(t)
	boom := errors.New("journal full")
	opts := Options{Topology: sched, Checkpoint: func(*Checkpoint) error { return boom }}
	_, _, _, err := runCkptFlood(t, opts, n, budget)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestResumeValidation pins structural validation of resume checkpoints.
func TestResumeValidation(t *testing.T) {
	sched, n, budget := ckptWorkload(t)
	var last *Checkpoint
	opts := Options{Topology: sched, Checkpoint: func(cp *Checkpoint) error { last = cp; return nil }}
	if _, _, _, err := runCkptFlood(t, opts, n, budget); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}

	bad := *last
	bad.Step = budget + 1
	if _, _, _, err := runCkptFlood(t, Options{Topology: sched, Resume: &bad}, n, budget); err == nil {
		t.Error("out-of-range resume step accepted")
	}
	bad = *last
	bad.Nodes = bad.Nodes[:1]
	if _, _, _, err := runCkptFlood(t, Options{Topology: sched, Resume: &bad}, n, budget); err == nil {
		t.Error("truncated node states accepted")
	}
	bad = *last
	bad.Active = []int32{3, 2}
	if _, _, _, err := runCkptFlood(t, Options{Topology: sched, Resume: &bad}, n, budget); err == nil {
		t.Error("non-ascending active list accepted")
	}
}
