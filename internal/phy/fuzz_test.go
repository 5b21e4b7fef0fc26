package phy

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// FuzzSINRBatchVsExact fuzzes the tentpole claim of the batched receive
// path: on any finite deployment, the grid-bucketed kernel (in one arena
// run or several) and the dense exact-mode kernel make exactly the
// decisions of a naive exact-arithmetic reference — per listener, sum
// every in-cutoff transmitter in ascending order with math.Pow powers and
// apply the threshold by plain division. Positions and powers are derived from the
// fuzz bytes through the deterministic RNG, so every input is finite and
// non-NaN (NaN geometry is rejected at the gen layer and out of contract
// here). Decoded and Collided are compared as sets: the bucketed pass
// emits them in grid order, not ascending listener order.
//
// The input bytes decode as: data[0] node count, data[1] cutoff-factor
// selector (including +Inf, which exercises the dense exact path),
// data[2] flags (bit 0 heterogeneous powers, bit 1 forced co-located pair,
// bits 2–3 the candidate-arena cap: the production budget, one ring — so
// nearly every multi-transmitter step splits into runs — or 8n),
// data[3:11] RNG seed, and the tail selects transmitters. The seed corpus
// under testdata/fuzz/FuzzSINRBatchVsExact runs as ordinary test cases in
// `go test`; CI additionally runs a short -fuzz smoke.
func FuzzSINRBatchVsExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		n := 4 + int(data[0])%60
		cutoffs := []float64{2, 2.5, 3, 4, 6, math.Inf(1)}
		cutF := cutoffs[int(data[1])%len(cutoffs)]
		flags := data[2]
		seed := binary.LittleEndian.Uint64(data[3:11])
		rng := xrand.New(seed | 1)

		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * side, rng.Float64() * side}
		}
		if flags&2 != 0 && n >= 2 {
			pts[1] = Point{pts[0][0], pts[0][1]} // co-located pair: d == 0 path
		}
		params := SINRParams{CutoffFactor: cutF}
		if flags&1 != 0 {
			pw := make([]float64, n)
			for i := range pw {
				pw[i] = 0.5 + rng.Float64()
			}
			params.Powers = pw
		}
		s, err := NewSINR(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		switch (flags >> 2) & 3 {
		case 1:
			s.arenaCap = maxRingCells
		case 2:
			s.arenaCap = 8 * n
		}
		if err := s.Sync(0, graph.New(n).Freeze()); err != nil {
			t.Fatal(err)
		}

		isTx := make([]bool, n)
		for _, b := range data[11:] {
			isTx[int(b)%n] = true
		}
		tx := make([]int32, 0, n)
		for v := 0; v < n; v++ {
			if isTx[v] {
				tx = append(tx, int32(v))
			}
		}
		if len(tx) == 0 {
			return
		}
		var fr Frontier
		fr.Resize(n)
		fr.Add(tx)
		var out Outcome
		s.Resolve(&fr, &out)

		// Naive exact reference at the model's own resolved parameters.
		p := s.Params()
		wantDec := map[int32]int32{}
		var wantCol []int32
		multi := len(tx) > 1
		for v := 0; v < n; v++ {
			if isTx[v] {
				continue
			}
			var acc, best float64
			bestU := int32(-1)
			for _, u := range tx {
				d := pts[u].Dist(pts[v])
				if d == 0 {
					d = 1e-9
				}
				if d > s.cutoff {
					continue
				}
				pu := p.Power
				if p.Powers != nil {
					pu = p.Powers[u]
				}
				pw := pu * math.Pow(d, -p.PathLoss)
				acc += pw
				if pw > best {
					best, bestU = pw, u
				}
			}
			if best == 0 {
				continue
			}
			if best/(p.Noise+(acc-best)) >= p.Beta {
				wantDec[int32(v)] = bestU
			} else if multi {
				wantCol = append(wantCol, int32(v))
			}
		}

		if len(out.Decoded) != len(wantDec) {
			t.Fatalf("n=%d cutF=%v: %d decodes, reference %d (%+v vs %+v)",
				n, cutF, len(out.Decoded), len(wantDec), out.Decoded, wantDec)
		}
		for _, d := range out.Decoded {
			if from, ok := wantDec[d.To]; !ok || from != d.From {
				t.Fatalf("n=%d cutF=%v: decode %+v disagrees with reference (want from %d, ok=%v)",
					n, cutF, d, from, ok)
			}
		}
		gotCol := append([]int32(nil), out.Collided...)
		sort.Slice(gotCol, func(i, j int) bool { return gotCol[i] < gotCol[j] })
		sort.Slice(wantCol, func(i, j int) bool { return wantCol[i] < wantCol[j] })
		if len(gotCol) != len(wantCol) {
			t.Fatalf("n=%d cutF=%v: collided %v, reference %v", n, cutF, gotCol, wantCol)
		}
		for i := range gotCol {
			if gotCol[i] != wantCol[i] {
				t.Fatalf("n=%d cutF=%v: collided %v, reference %v", n, cutF, gotCol, wantCol)
			}
		}
	})
}
