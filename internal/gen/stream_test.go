package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// sameCSR asserts two snapshots are list-for-list identical, with a useful
// failure message (Equal alone says only "differs").
func sameCSR(t *testing.T, got, want *graph.CSR, label string) {
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

// TestStreamCSRMatchesBuilder pins the streaming contract: the direct-to-CSR
// build reproduces the quadratic reference's frozen snapshot list-for-list
// (the Builder emits it in lexicographic edge order) across densities and
// radii.
func TestStreamCSRMatchesBuilder(t *testing.T) {
	rng := xrand.New(23)
	for _, n := range []int{1, 2, 37, 300, 1500} {
		for _, radius := range []float64{0.3, 1, 2.5} {
			side := math.Sqrt(float64(n+1)) * 1.5
			pts := UniformPoints(n, 2, side, rng)
			c, ok := udgStreamCSR(pts, radius)
			if !ok {
				continue
			}
			sameCSR(t, c, thresholdGraph(pts, radius, Point.Dist).Freeze(), "stream")
		}
	}
}

// TestStreamCSRBoundaryPairs mirrors the grid-path boundary test: exact-
// radius pairs (edges), one-ulp-beyond pairs (non-edges), and co-located
// pairs must come out identically on the streaming path.
func TestStreamCSRBoundaryPairs(t *testing.T) {
	r := 1.0
	pts := []Point{
		{0, 0}, {r, 0},
		{10, 10}, {10, 10 + r},
		{0, 30}, {math.Nextafter(r, 2), 30},
		{5, 5}, {5, 5},
	}
	c, ok := udgStreamCSR(pts, r)
	if !ok {
		t.Fatal("stream path refused a spread-out deployment")
	}
	sameCSR(t, c, thresholdGraph(pts, r, Point.Dist).Freeze(), "boundary")
}

// TestStreamCSRDeclines: the streaming path must decline exactly the inputs
// the grid index declines, so UDG's fallback chain stays airtight.
func TestStreamCSRDeclines(t *testing.T) {
	if _, ok := udgStreamCSR(UniformPoints(8, 3, 4, xrand.New(1)), 1); ok {
		t.Fatal("stream path accepted 3-D points")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {math.NaN(), 1}}, 1); ok {
		t.Fatal("stream path accepted NaN coordinates")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {5, 5}}, math.Inf(1)); ok {
		t.Fatal("stream path accepted infinite radius")
	}
}

// TestUDGRoutesThroughStream: at large n the public UDG wrapper must still
// match the quadratic reference — checked vertex by vertex on a sampled
// subset, since the full reference is too slow at this n.
func TestUDGRoutesThroughStream(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n routing check skipped in -short")
	}
	n := 1 << 15
	side := math.Sqrt(float64(n) * math.Pi / 8)
	pts := UniformPoints(n, 2, side, xrand.New(5))
	g := UDG(pts, 1)
	for v := 0; v < n; v += n / 64 {
		var want []int32
		for u := range pts {
			if u != v && pts[v].Dist(pts[u]) <= 1 {
				want = append(want, int32(u))
			}
		}
		got := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: degree %d, want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d adjacency[%d] = %d, want %d", v, i, got[i], want[i])
			}
		}
	}
}

// TestBuildCSRMatchesByName pins BuildCSR's promise: for the streaming-
// capable classes it draws the same deployment and builds the same graph as
// ByNameWithPoints — same seed derivation, same retry discipline — and for
// every other spec it is exactly ByNameWithPoints + Freeze.
func TestBuildCSRMatchesByName(t *testing.T) {
	for _, name := range []string{"udg", "phy:sinr", "grid", "tree"} {
		c, cpts, err := BuildCSR(name, 600, 42)
		if err != nil {
			t.Fatalf("BuildCSR(%q): %v", name, err)
		}
		g, gpts, err := ByNameWithPoints(name, 600, 42)
		if err != nil {
			t.Fatalf("ByNameWithPoints(%q): %v", name, err)
		}
		sameCSR(t, c.Unpack(), g.Freeze(), name)
		if (cpts == nil) != (gpts == nil) || len(cpts) != len(gpts) {
			t.Fatalf("%q: points mismatch (%d vs %d)", name, len(cpts), len(gpts))
		}
		for i := range cpts {
			for d := range cpts[i] {
				if cpts[i][d] != gpts[i][d] {
					t.Fatalf("%q: point %d differs", name, i)
				}
			}
		}
	}
	if _, _, err := BuildCSR("udg", 0, 1); err == nil {
		t.Fatal("BuildCSR accepted n=0")
	}
	if _, _, err := BuildCSR("nosuch", 10, 1); err == nil {
		t.Fatal("BuildCSR accepted an unknown class")
	}
}

// TestBuildCSRPacksLargeN: at n ≥ graph.CompactThreshold the streaming
// entry point hands back packed adjacency; below, flat.
func TestBuildCSRPacksLargeN(t *testing.T) {
	c, _, err := BuildCSR("udg", 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsPacked() {
		t.Fatal("small-n BuildCSR returned packed adjacency")
	}
	if testing.Short() {
		t.Skip("compact-threshold build skipped in -short")
	}
	big, _, err := BuildCSR("udg", graph.CompactThreshold, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !big.IsPacked() {
		t.Fatal("large-n BuildCSR returned flat adjacency")
	}
	if !big.Connected() {
		t.Fatal("BuildCSR returned a disconnected deployment")
	}
}

// FuzzStreamCSRVsBuilder fuzzes the streaming equivalence on random 2-D
// deployments: bytes decode pairwise into coordinates on a [0, 16]² box
// (coarse lattice positions, so exact-boundary and co-located pairs occur
// constantly), plus one byte choosing the radius. Whenever the grid accepts
// the deployment, the streamed CSR must have identical offsets and edges to
// the quadratic reference's frozen form, and UDG must be that reference.
func FuzzStreamCSRVsBuilder(f *testing.F) {
	f.Add([]byte{8, 0, 0, 16, 0, 0, 16, 16, 16, 200, 200})
	f.Add([]byte{3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		radius := 0.25 + float64(data[0]%32)/8
		stream := data[1:]
		var pts []Point
		for i := 0; i+1 < len(stream) && len(pts) < 160; i += 2 {
			pts = append(pts, Point{float64(stream[i]) / 16, float64(stream[i+1]) / 16})
		}
		ref := thresholdGraph(pts, radius, Point.Dist)
		sameAdjacency(t, UDG(pts, radius), ref, "wrapper")
		c, ok := udgStreamCSR(pts, radius)
		if !ok {
			return
		}
		want := ref.Freeze()
		if !c.Equal(want) {
			for v := 0; v < want.N(); v++ {
				cn, wn := c.Neighbors(v), want.Neighbors(v)
				if len(cn) != len(wn) {
					t.Fatalf("vertex %d: stream degree %d, reference %d", v, len(cn), len(wn))
				}
				for i := range cn {
					if cn[i] != wn[i] {
						t.Fatalf("vertex %d pos %d: stream %d, reference %d", v, i, cn[i], wn[i])
					}
				}
			}
			t.Fatal("Equal=false but lists match (offsets disagree?)")
		}
	})
}
