package phy

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// emptyCSR returns an edgeless frozen graph on n nodes — the SINR model
// ignores csr edges, so this is all a unit test needs.
func emptyCSR(n int) *graph.CSR { return graph.New(n).Freeze() }

func sinrOver(t *testing.T, pts []Point, params SINRParams) *SINR {
	t.Helper()
	s, err := NewSINR(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSINRParamsDefaults(t *testing.T) {
	p := SINRParams{}.WithDefaults()
	if p.Power != 1 || p.PathLoss != 4 || p.Beta != 2 || p.CutoffFactor != DefaultCutoffFactor {
		t.Fatalf("defaults %+v", p)
	}
	if !p.NoiseSet || p.Noise != p.Power/p.Beta {
		t.Fatalf("default noise %+v", p)
	}
	// Resolving twice is idempotent — NoiseSet survives.
	q := p.WithDefaults()
	if q.Power != p.Power || q.Noise != p.Noise || q.NoiseSet != p.NoiseSet ||
		q.Beta != p.Beta || q.PathLoss != p.PathLoss || q.CutoffFactor != p.CutoffFactor {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v", q, p)
	}
}

// TestDecodeRangeBoundaries is the boundary suite for the explicit-noise
// defaults: the old sinr.Params treated Noise == 0 as "unset", making a
// noiseless channel unrepresentable; SINRParams carries a NoiseSet bit.
func TestDecodeRangeBoundaries(t *testing.T) {
	// Defaults are constructed so the decode range is exactly 1.
	if r := (SINRParams{}).DecodeRange(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("default decode range %v, want 1", r)
	}
	// Stronger noise shrinks the range.
	if r := (SINRParams{Noise: 10, NoiseSet: true}).DecodeRange(); r >= 1 {
		t.Fatalf("noisy range %v, want < 1", r)
	}
	// An explicit zero-noise channel has unbounded range — the case the old
	// zero-sentinel could not represent.
	if r := (SINRParams{NoiseSet: true}).DecodeRange(); !math.IsInf(r, 1) {
		t.Fatalf("noiseless range %v, want +Inf", r)
	}
	// NoiseSet false with Noise 0 is "unset": the default, range 1.
	if r := (SINRParams{Noise: 0}).DecodeRange(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("unset-noise range %v, want the default 1", r)
	}
	// Tiny but positive explicit noise: a huge finite range.
	r := (SINRParams{Noise: 1e-12, NoiseSet: true}).DecodeRange()
	if math.IsInf(r, 1) || r < 100 {
		t.Fatalf("tiny-noise range %v, want large and finite", r)
	}
	// RangeFor scales with per-node power: 16× power doubles the range at
	// the default path loss 4.
	p := SINRParams{}.WithDefaults()
	if d := p.RangeFor(16); math.Abs(d-2) > 1e-12 {
		t.Fatalf("RangeFor(16) = %v, want 2", d)
	}
}

func TestSINRParamsValidate(t *testing.T) {
	bad := []SINRParams{
		{Power: -1, PathLoss: 4, Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 0.5, Noise: 0.5, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: -0.1, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: math.Inf(1), NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 0.5},
		{Power: 1, PathLoss: math.NaN(), Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 4, Powers: []float64{1, 0}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, p)
		}
	}
	if err := (SINRParams{}.WithDefaults()).Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	inf := SINRParams{CutoffFactor: math.Inf(1)}.WithDefaults()
	if err := inf.Validate(); err != nil {
		t.Errorf("+Inf cutoff invalid: %v", err)
	}
}

func TestSINRSingleTransmitterInRange(t *testing.T) {
	pts := []Point{{0, 0}, {0.9, 0}, {5, 0}}
	out := resolveOnce(t, sinrOver(t, pts, SINRParams{}), emptyCSR(3), []int32{0})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 1, From: 0}) {
		t.Fatalf("in-range listener did not decode: %+v", out)
	}
	if len(out.Collided) != 0 {
		t.Fatalf("lone transmitter produced collisions: %+v", out)
	}
}

func TestSINRInterferenceBlocks(t *testing.T) {
	// Two equidistant transmitters around a listener: SINR ≈ 1 < β=2.
	pts := []Point{{-0.5, 0}, {0, 0}, {0.5, 0}}
	out := resolveOnce(t, sinrOver(t, pts, SINRParams{}), emptyCSR(3), []int32{0, 2})
	if len(out.Decoded) != 0 {
		t.Fatalf("listener decoded despite symmetric interference: %+v", out)
	}
	if len(out.Collided) != 1 || out.Collided[0] != 1 || out.Marker {
		t.Fatalf("blocked listener not recorded as a collision: %+v", out)
	}
}

func TestSINRCaptureEffect(t *testing.T) {
	// The key divergence from the graph model: a much closer transmitter is
	// decoded even while a far transmitter is active (capture), whereas the
	// graph model would declare a collision.
	pts := []Point{{0.2, 0}, {0, 0}, {0.95, 0}}
	out := resolveOnce(t, sinrOver(t, pts, SINRParams{}), emptyCSR(3), []int32{0, 2})
	var heard *Decode
	for i := range out.Decoded {
		if out.Decoded[i].To == 1 {
			heard = &out.Decoded[i]
		}
	}
	if heard == nil || heard.From != 0 {
		t.Fatalf("capture failed: %+v", out)
	}
}

func TestSINRHeterogeneousPowers(t *testing.T) {
	// Node 0 shouts at 16× power: decode range 2, so a listener at distance
	// 1.5 decodes it while a unit-power transmitter there stays silent.
	pts := []Point{{0, 0}, {1.5, 0}}
	params := SINRParams{Powers: []float64{16, 1}}
	out := resolveOnce(t, sinrOver(t, pts, params), emptyCSR(2), []int32{0})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 1, From: 0}) {
		t.Fatalf("high-power transmitter not decoded at 1.5: %+v", out)
	}
	params2 := SINRParams{Powers: []float64{1, 1}}
	out = resolveOnce(t, sinrOver(t, pts, params2), emptyCSR(2), []int32{0})
	if len(out.Decoded) != 0 {
		t.Fatalf("unit-power transmitter decoded beyond range: %+v", out)
	}
}

func TestSINRFarFieldCutoff(t *testing.T) {
	// A listener midway between a near transmitter and a just-too-strong
	// interference field: under the exact model (+Inf cutoff) the far
	// transmitter's power must be included; with a tight cutoff it is
	// dropped and the near signal decodes. Placing the interferer outside
	// CutoffFactor×range makes the two modes observably different — the
	// documented approximation.
	pts := []Point{{0, 0}, {0.99, 0}, {4.0, 0}}
	// Exact: interference from 4.0 away is tiny but the decode margin at
	// d=0.99 is tinier still? Compute: signal = 0.99^-4 ≈ 1.041, noise 0.5,
	// interference = 3.01^-4 ≈ 0.0122 → SINR ≈ 2.033 ≥ 2 decodes. Shrink
	// the margin by moving the listener to 0.999.
	pts[1][0] = 0.999
	exact := resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: math.Inf(1)}), emptyCSR(3), []int32{0, 2})
	cut := resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: 2}), emptyCSR(3), []int32{0, 2})
	decodedTo1 := func(o Outcome) bool {
		for _, d := range o.Decoded {
			if d.To == 1 {
				return true
			}
		}
		return false
	}
	if decodedTo1(exact) {
		t.Fatalf("exact mode decoded on the boundary: %+v", exact)
	}
	if !decodedTo1(cut) {
		t.Fatalf("cutoff mode did not drop the far-field interference: %+v", cut)
	}
}

func TestSINRNoiselessChannelIsDense(t *testing.T) {
	// Explicit zero noise: unbounded decode range, the grid cannot bucket,
	// and a lone transmitter is decodable arbitrarily far away.
	pts := []Point{{0, 0}, {500, 0}}
	params := SINRParams{NoiseSet: true, CutoffFactor: math.Inf(1)}
	out := resolveOnce(t, sinrOver(t, pts, params), emptyCSR(2), []int32{0})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 1, From: 0}) {
		t.Fatalf("noiseless channel did not deliver at distance 500: %+v", out)
	}
}

func TestSINRRejectsMismatchedGeometry(t *testing.T) {
	s := sinrOver(t, []Point{{0, 0}}, SINRParams{})
	if err := s.Sync(0, emptyCSR(2)); err == nil {
		t.Fatal("want position/node count mismatch error")
	}
	if _, err := NewSINR(nil, SINRParams{}); err == nil {
		t.Fatal("want no-points error")
	}
	if _, err := NewSINR([]Point{{0, 0}}, SINRParams{Beta: 0.5}); err == nil {
		t.Fatal("want beta error")
	}
	if _, err := NewMobileSINR(nil, SINRParams{}); err == nil {
		t.Fatal("want nil-source error")
	}
	wrong := sinrOver(t, []Point{{0, 0}, {1, 0}}, SINRParams{Powers: []float64{1, 1, 1}})
	if err := wrong.Sync(0, emptyCSR(2)); err == nil {
		t.Fatal("want powers-length mismatch error")
	}
}

// TestSINRCutoffAtBucketGranularity pins the far-field contract at the
// exact boundary: a transmitter at distance == cutoff contributes (the
// predicate is d ≤ cutoff), one ulp farther it does not — and the bucketed
// grid must honor both even when the pair spans the full candidate ring.
// CutoffFactor 3 makes the internal cell side exactly 1.0, so the geometry
// below is representable without rounding.
func TestSINRCutoffAtBucketGranularity(t *testing.T) {
	// rx decodes tx alone (SINR 2.02 ≥ β=2); an interferer at exactly the
	// cutoff distance 3 pushes it to 1.97 < 2. Whether rx decodes is
	// therefore precisely the question "was the boundary interferer
	// counted".
	mk := func(ix float64) Outcome {
		pts := []Point{{ix, 0}, {0, 0}, {0.9975, 0}}
		return resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: 3}), emptyCSR(3), []int32{0, 2})
	}
	at := mk(-3) // distance from rx exactly == cutoff
	if len(at.Decoded) != 0 {
		t.Fatalf("interferer at d == cutoff was dropped: %+v", at)
	}
	if len(at.Collided) != 1 || at.Collided[0] != 1 {
		t.Fatalf("blocked listener not recorded: %+v", at)
	}
	past := mk(math.Nextafter(-3, -4)) // one ulp beyond the cutoff
	if len(past.Decoded) != 1 || past.Decoded[0] != (Decode{To: 1, From: 2}) {
		t.Fatalf("interferer one ulp past cutoff still counted: %+v", past)
	}
}

// TestSINRReceiverOnBucketEdge places a receiver exactly on an interior
// grid-cell boundary (x = 2.0 with cell side exactly 1.0): it must land in
// exactly one cell and still hear transmitters from the cells on both
// sides of the edge.
func TestSINRReceiverOnBucketEdge(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {1.5, 0}, {2.5, 0}}
	for _, tx := range []int32{2, 3} {
		out := resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: 3}), emptyCSR(4), []int32{tx})
		found := false
		for _, d := range out.Decoded {
			if d == (Decode{To: 1, From: tx}) {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge receiver missed transmitter %d: %+v", tx, out)
		}
	}
}

// TestSINRShardOrderIndependence pins the fixed accumulation order: feeding
// the transmitter set as one batch or as several ascending batches must
// produce identical outcomes.
func TestSINRShardOrderIndependence(t *testing.T) {
	pts := []Point{{0, 0}, {0.4, 0.1}, {0.8, 0}, {1.2, 0.3}, {1.6, 0}, {2.0, 0.2}}
	csr := emptyCSR(len(pts))
	one := sinrOver(t, pts, SINRParams{})
	if err := one.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	var fa Frontier
	fa.Resize(len(pts))
	fa.Add([]int32{0, 2, 4})
	var a Outcome
	one.Resolve(&fa, &a)

	two := sinrOver(t, pts, SINRParams{})
	if err := two.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	var fb Frontier
	fb.Resize(len(pts))
	fb.Add([]int32{0})
	fb.Add([]int32{2})
	fb.Add([]int32{4})
	var b Outcome
	two.Resolve(&fb, &b)

	if len(a.Decoded) != len(b.Decoded) || len(a.Collided) != len(b.Collided) {
		t.Fatalf("sharded frontier diverged: %+v vs %+v", a, b)
	}
	for i := range a.Decoded {
		if a.Decoded[i] != b.Decoded[i] {
			t.Fatalf("decode %d differs: %+v vs %+v", i, a.Decoded[i], b.Decoded[i])
		}
	}
}

// sweepOracle is the pre-batch per-transmitter resolve path, once the
// production fallback for steps whose cutoff rings outgrew the candidate
// arena and kept here as an oracle for the multi-run kernel: each
// transmitter's ring is swept in ascending transmitter order, listeners
// accumulate in per-node scratch, and a final pass over the touched set
// applies the threshold. s must be synced and bucketed (not dense).
func sweepOracle(s *SINR, f *Frontier) Outcome {
	n := len(s.pts)
	acc := make([]float64, n)
	bestPow := make([]float64, n)
	bestFrom := make([]int32, n)
	seen := make([]bool, n)
	var touched []int32
	alpha, fast4 := s.params.PathLoss, s.fast4
	cols, rows := int32(s.cols), int32(s.rows)
	for _, u := range f.List() {
		pu := s.pw[u]
		c := s.nodeCell[u]
		cx, cy := c%cols, c/cols
		xu, yu := s.xs[u], s.ys[u]
		for gy := max(cy-s.rc, 0); gy <= min(cy+s.rc, rows-1); gy++ {
			for gx := max(cx-s.rc, 0); gx <= min(cx+s.rc, cols-1); gx++ {
				cell := gy*cols + gx
				for _, vu := range s.cellNodes[s.cellStart[cell]:s.cellStart[cell+1]] {
					v := int32(vu)
					if f.Has(v) {
						continue
					}
					dx := xu - s.xs[v]
					dy := yu - s.ys[v]
					d := math.Sqrt(dx*dx + dy*dy)
					if d == 0 {
						d = 1e-9
					}
					if d > s.cutoff {
						continue
					}
					pow := recvPow(pu, d, alpha, fast4)
					if !seen[v] {
						seen[v] = true
						touched = append(touched, v)
					}
					acc[v] += pow
					if pow > bestPow[v] {
						bestPow[v] = pow
						bestFrom[v] = u
					}
				}
			}
		}
	}
	var out Outcome
	for _, v := range touched {
		bp := bestPow[v]
		if bp/(s.params.Noise+(acc[v]-bp)) >= s.params.Beta {
			out.Decoded = append(out.Decoded, Decode{To: v, From: bestFrom[v]})
		} else if f.Len() > 1 && bp > 0 {
			// bp == 0: every in-range contribution underflowed, which the
			// kernels do not count as contact.
			out.Collided = append(out.Collided, v)
		}
	}
	return out
}

// sortedOutcome returns sorted copies of an outcome's decodes and
// collisions: the kernels emit listeners in grid or first-touch order, so
// they are compared as sets.
func sortedOutcome(o Outcome) ([]Decode, []int32) {
	dec := append([]Decode(nil), o.Decoded...)
	col := append([]int32(nil), o.Collided...)
	sort.Slice(dec, func(i, j int) bool { return dec[i].To < dec[j].To })
	sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
	return dec, col
}

func sameOutcome(t *testing.T, label string, got, want Outcome) {
	t.Helper()
	gd, gc := sortedOutcome(got)
	wd, wc := sortedOutcome(want)
	if !slices.Equal(gd, wd) {
		t.Fatalf("%s: decoded %v, want %v", label, gd, wd)
	}
	if !slices.Equal(gc, wc) {
		t.Fatalf("%s: collided %v, want %v", label, gc, wc)
	}
}

// TestSINRStormRunsMatchSingleRun forces transmit storms through the
// multi-run path with the arenaCap hook — one ring (every multi-transmitter
// step splits), 1024, and 8n — on frontiers of density 1/32 to 1, and
// requires the decoded and collided sets of each capped model to equal the
// single-run kernel's (a model whose arena fits every ring of every node),
// the dense exact-mode kernel's at the same cutoff, and the sweep oracle's.
// The capped models resolve the densities back to back, so a carry scratch
// left dirty by one step would corrupt the next.
func TestSINRStormRunsMatchSingleRun(t *testing.T) {
	const n = 1200
	rng := xrand.New(113)
	side := math.Sqrt(float64(n) * math.Pi / 8)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * side, rng.Float64() * side}
	}
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = 0.5 + rng.Float64()
	}
	caps := []int{maxRingCells, 1024, 8 * n}
	for _, params := range []SINRParams{{}, {Powers: pw}, {PathLoss: 3}, {CutoffFactor: 2.5}} {
		synced := func(arenaCap int) *SINR {
			s, err := NewSINR(pts, params)
			if err != nil {
				t.Fatal(err)
			}
			s.arenaCap = arenaCap
			if err := s.Sync(0, emptyCSR(n)); err != nil {
				t.Fatal(err)
			}
			if s.dense {
				t.Fatal("deployment did not bucket")
			}
			return s
		}
		single := synced(maxRingCells * n)
		capped := make([]*SINR, len(caps))
		for i, c := range caps {
			capped[i] = synced(c)
		}
		multiRuns := make([]uint64, len(caps))
		for _, inv := range []int{32, 8, 4, 2, 1} {
			var txs []int32
			for v := 0; v < n; v++ {
				if rng.Intn(inv) == 0 {
					txs = append(txs, int32(v))
				}
			}
			var f Frontier
			f.Resize(n)
			f.Add(txs)
			var ref, dense Outcome
			single.Resolve(&f, &ref)
			if single.Stats().FallbackSweeps != 0 {
				t.Fatal("single-run reference split a step")
			}
			single.resolveDense(&f, &dense)
			entries := 0
			for _, u := range txs {
				entries += len(single.ringCells(u))
			}
			label := func(what string) string {
				return fmt.Sprintf("params %+v density 1/%d: %s", params, inv, what)
			}
			sameOutcome(t, label("dense vs single-run"), dense, ref)
			sameOutcome(t, label("sweep oracle vs single-run"), sweepOracle(single, &f), ref)
			for i, s := range capped {
				var out Outcome
				before := s.Stats().FallbackSweeps
				s.Resolve(&f, &out)
				s.Clear()
				split := s.Stats().FallbackSweeps - before
				if want := entries > len(s.candU); (split == 1) != want {
					t.Fatalf("%s: %d ring entries in a %d-entry arena, multi-run steps +%d",
						label(fmt.Sprint("cap ", caps[i])), entries, len(s.candU), split)
				}
				multiRuns[i] += split
				sameOutcome(t, label(fmt.Sprint("cap ", caps[i])), out, ref)
			}
			single.Clear()
		}
		for i, c := range caps {
			if multiRuns[i] == 0 {
				t.Fatalf("params %+v: cap %d never took the multi-run path", params, c)
			}
		}
	}
}

// TestRingCellsCoverCutoff pins the ring prune's soundness: for every
// transmitter, the surviving cells come in ascending row-major order and
// include the cell of every node within the cutoff — the prune only ever
// drops cells wholly beyond it.
func TestRingCellsCoverCutoff(t *testing.T) {
	rng := xrand.New(41)
	for _, n := range []int{16, 200, 1500} {
		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * side, rng.Float64() * side}
		}
		s := sinrOver(t, pts, SINRParams{})
		if err := s.Sync(0, emptyCSR(n)); err != nil {
			t.Fatal(err)
		}
		if s.dense {
			t.Fatalf("n=%d: deployment fell back to dense", n)
		}
		for u := 0; u < n; u++ {
			ring := s.ringCells(int32(u))
			if !slices.IsSorted(ring) {
				t.Fatalf("n=%d tx %d: ring cells not ascending: %v", n, u, ring)
			}
			for v := 0; v < n; v++ {
				dx, dy := pts[u][0]-pts[v][0], pts[u][1]-pts[v][1]
				if math.Hypot(dx, dy) > s.cutoff {
					continue
				}
				if _, ok := slices.BinarySearch(ring, s.nodeCell[v]); !ok {
					t.Fatalf("n=%d tx %d: listener %d within the cutoff but its cell %d was pruned",
						n, u, v, s.nodeCell[v])
				}
			}
		}
	}
}
