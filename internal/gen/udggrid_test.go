package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func sameAdjacency(t *testing.T, got, want *graph.Graph, label string) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: n = %d, want %d", label, got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		g, w := got.Neighbors(v), want.Neighbors(v)
		if len(g) != len(w) {
			t.Fatalf("%s: vertex %d degree %d, want %d (%v vs %v)", label, v, len(g), len(w), g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: vertex %d adjacency[%d] = %d, want %d", label, v, i, g[i], w[i])
			}
		}
	}
}

// TestUDGGridMatchesQuadratic pins the grid build's contract: the bucketed
// streaming build must reproduce the quadratic scan list-for-list, not just
// as an edge set — downstream parameter estimation iterates adjacency in
// order.
func TestUDGGridMatchesQuadratic(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{1, 2, 37, 300} {
		for _, radius := range []float64{0.3, 1, 2.5} {
			side := math.Sqrt(float64(n+1)) * 1.5
			pts := UniformPoints(n, 2, side, rng)
			fast, ok := udgStreamCSR(pts, radius)
			want := thresholdGraph(pts, radius, Point.Dist)
			if !ok {
				// Degenerate geometry (radius covers the box): the public
				// wrapper falls back; nothing to compare.
				continue
			}
			sameCSR(t, fast, want.Freeze(), "uniform")
			sameAdjacency(t, UDG(pts, radius), want, "wrapper")
		}
	}
}

// TestUDGGridBoundaryPairs puts vertices exactly radius apart — the d ==
// radius boundary is an edge (the contract is ≤) and must not be lost to
// cell pruning, including pairs that straddle a cell border.
func TestUDGGridBoundaryPairs(t *testing.T) {
	r := 1.0
	pts := []Point{
		{0, 0}, {r, 0}, // exactly r apart, adjacent cells
		{10, 10}, {10, 10 + r}, // exactly r apart vertically
		// One ulp beyond r: no edge. Anchored at x=0 so the offset is not
		// absorbed by rounding the sum (20 + (1+ulp) rounds back to 21).
		{0, 30}, {math.Nextafter(r, 2), 30},
		{5, 5}, {5, 5}, // co-located: distance 0
	}
	c, ok := udgStreamCSR(pts, r)
	if !ok {
		t.Fatal("grid path refused a spread-out deployment")
	}
	fast := graph.FromCSR(c)
	sameAdjacency(t, fast, thresholdGraph(pts, r, Point.Dist), "boundary")
	if !fast.HasEdge(0, 1) || !fast.HasEdge(2, 3) {
		t.Fatal("exact-radius pair lost")
	}
	if fast.HasEdge(4, 5) {
		t.Fatal("beyond-radius pair connected")
	}
	if !fast.HasEdge(6, 7) {
		t.Fatal("co-located pair lost")
	}
}

// TestUDGGridFallbacks: inputs the grid cannot handle route to the
// quadratic path and still produce correct graphs through the wrapper.
func TestUDGGridFallbacks(t *testing.T) {
	if _, ok := udgStreamCSR(UniformPoints(8, 3, 4, xrand.New(1)), 1); ok {
		t.Fatal("grid path accepted 3-D points")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {math.NaN(), 1}, {9, 9}}, 1); ok {
		t.Fatal("grid path accepted NaN coordinates")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {math.Inf(-1), 1}, {9, 9}}, 1); ok {
		t.Fatal("grid path accepted infinite coordinates")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {5, 5}}, math.Inf(1)); ok {
		t.Fatal("grid path accepted infinite radius")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {5, 5}}, math.Inf(-1)); ok {
		t.Fatal("grid path accepted -Inf radius")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {1, 1}}, -1); ok {
		t.Fatal("grid path accepted negative radius")
	}
	// The wrapper must still produce the right answers for all of these.
	inf := UDG([]Point{{0, 0}, {5, 5}}, math.Inf(1))
	if !inf.HasEdge(0, 1) {
		t.Fatal("infinite radius should connect everything")
	}
	nan := UDG([]Point{{0, 0}, {math.NaN(), 1}, {0.5, 0}}, 1)
	if nan.HasEdge(0, 1) || !nan.HasEdge(0, 2) {
		t.Fatal("NaN fallback produced wrong edges")
	}
	if neg := UDG([]Point{{0, 0}, {0, 0}}, -1); neg.M() != 0 {
		t.Fatal("negative radius connected a co-located pair")
	}
}

// TestUDGGridSparseCoarsening drives the cell-table cap: a huge area with a
// tiny radius would want millions of cells; the coarsened grid must still
// match the reference.
func TestUDGGridSparseCoarsening(t *testing.T) {
	rng := xrand.New(7)
	pts := UniformPoints(200, 2, 5000, rng)
	// Seed a few close pairs so the graph is not edgeless.
	for i := 0; i < 20; i++ {
		base := pts[i*2]
		pts[i*2+1] = Point{base[0] + rng.Float64()*0.02, base[1] + rng.Float64()*0.02}
	}
	fast, ok := udgStreamCSR(pts, 0.015)
	if !ok {
		t.Fatal("grid path refused sparse deployment")
	}
	want := thresholdGraph(pts, 0.015, Point.Dist)
	if want.M() == 0 {
		t.Fatal("test geometry produced no edges; nothing exercised")
	}
	sameCSR(t, fast, want.Freeze(), "sparse")
}
