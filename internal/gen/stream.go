package gen

// Streaming direct-to-CSR generation — the one UDG build, and the
// million-node path (DESIGN.md §11). A Builder route would stage every edge
// twice (us/vs arrays) and carve a Graph with n slice headers before the
// engines re-freeze it; at n = 10⁶ those intermediates dominate peak
// memory. udgStreamCSR instead builds the frozen form directly from the
// geoGrid2D buckets in two counting passes — degree count → prefix offsets
// → fill — so the only O(m) allocation is the final edge array. UDG wraps
// the result with graph.FromCSR (zero-copy), and BuildCSR hands it to the
// engines as is.
//
// Equivalence contract (pinned by stream_test.go, udggrid_test.go and
// FuzzStreamCSRVsBuilder): the streamed CSR is list-for-list identical to
// the quadratic reference thresholdGraph(pts, radius, Point.Dist).Freeze().
// The per-pair predicate reuses Point.Dist's exact float arithmetic,
// fl(sqrt(fl(fl(dx²)+fl(dy²)))) ≤ radius, which is symmetric bit-for-bit
// (negating dx, dy leaves their squares unchanged), so counting (i,j) from
// i's side and (j,i) from j's side agree; the fill emits ring-ordered runs
// and sorts each vertex segment ascending, landing on the reference's
// canonical lists.

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// largeUDGThreshold is where the canonical "udg" deployment switches from
// the historical fixed degree target to the connectivity-scaled one. 4096
// is the historical serve.MaxN: every "udg" scenario reachable before the
// streaming ceiling — service specs, experiments, benches, goldens — sits
// at or below it, so the fixed target is preserved exactly where
// reproductions exist and nowhere a connected deployment can't be drawn
// (at n = 4096 the target 8 already trails ln n ≈ 8.3; a few thousand
// nodes higher, 60 connectivity retries fail essentially always).
const largeUDGThreshold = 4097

// UDGDegTarget returns the expected-degree target for the canonical "udg"
// deployment at n nodes. Random geometric graphs are connected whp only
// when average degree exceeds ln n, so the historical fixed target of 8 —
// kept verbatim below largeUDGThreshold so every existing (name, n, seed)
// scenario reproduces byte-identically — gives way to ln n + 3 above it,
// where degree-8 deployments are disconnected essentially always and the
// old behavior was 60 futile tries followed by an error.
func UDGDegTarget(n int) float64 {
	if n < largeUDGThreshold {
		return 8
	}
	return math.Log(float64(n)) + 3
}

// udgStreamCSR is the streaming build: pass 1 counts every vertex's full
// degree (each pair evaluated from both endpoints — the predicate is
// symmetric bit-for-bit, so the counts agree), the CSRBuilder turns counts
// into offsets, pass 2 re-walks the same buckets filling arcs, and a final
// per-vertex sort lands on the reference's canonical ascending lists.
func udgStreamCSR(pts []Point, radius float64) (*graph.CSR, bool) {
	gg, ok := newGeoGrid2D(pts, radius)
	if !ok {
		return nil, false
	}
	n := len(pts)
	xs, ys := gg.xs, gg.ys
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		xi, yi := xs[i], ys[i]
		d := int32(0)
		gg.ring(i, func(nodes []int32) {
			for _, j := range nodes {
				if j == int32(i) {
					continue
				}
				dx := xi - xs[j]
				dy := yi - ys[j]
				if math.Sqrt(dx*dx+dy*dy) <= radius {
					d++
				}
			}
		})
		deg[i] = d
	}
	b := graph.NewCSRBuilder(deg)
	for i := 0; i < n; i++ {
		xi, yi := xs[i], ys[i]
		gg.ring(i, func(nodes []int32) {
			for _, j := range nodes {
				if j == int32(i) {
					continue
				}
				dx := xi - xs[j]
				dy := yi - ys[j]
				if math.Sqrt(dx*dx+dy*dy) <= radius {
					b.Arc(int32(i), j)
				}
			}
		})
	}
	b.SortLists()
	return b.Finish(), true
}

// BuildCSR is the graph-free counterpart of ByNameWithPoints for the
// streaming-capable classes: for "udg" and "phy:sinr" it draws the same
// deployment ByNameWithPoints would (same seed derivation, same retry
// discipline, so the graph is list-for-list the one ByName builds) but
// assembles it directly in CSR form, packing the adjacency
// (graph.CompactThreshold) once n is large enough for the ~3× edge-storage
// saving to matter. Every other spec falls back to ByNameWithPoints +
// Freeze — correct, just not streaming.
func BuildCSR(name string, n int, seed uint64) (*graph.CSR, []Point, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("gen: need n ≥ 1, got %d", n)
	}
	switch name {
	case "udg", "phy:sinr":
		c, pts, err := connectedUDGCSR(n, UDGDegTarget(n), 60, xrand.New(seed^0x517cc1b727220a95))
		if err != nil {
			return nil, nil, err
		}
		if n >= graph.CompactThreshold {
			c = c.Pack()
		}
		return c, pts, nil
	}
	g, pts, err := ByNameWithPoints(name, n, seed)
	if err != nil {
		return nil, nil, err
	}
	return g.Freeze(), pts, nil
}

// connectedUDGCSR is the one connected-UDG retry loop behind ConnectedUDG
// and BuildCSR (so the two agree on the deployment for a given seed):
// redraw points until the disk graph is connected, checked on the CSR
// directly.
func connectedUDGCSR(n int, degTarget float64, tries int, rng *xrand.RNG) (*graph.CSR, []Point, error) {
	// With n points in side², expected neighbors within radius 1 is
	// approximately n·π/side²; choose side to hit degTarget.
	side := math.Sqrt(float64(n) * math.Pi / degTarget)
	for t := 0; t < tries; t++ {
		pts := UniformPoints(n, 2, side, rng)
		c, ok := udgStreamCSR(pts, 1)
		if !ok {
			c = thresholdGraph(pts, 1, Point.Dist).Freeze()
		}
		if c.Connected() {
			return c, pts, nil
		}
	}
	return nil, nil, fmt.Errorf("gen: no connected UDG(n=%d, deg=%v) in %d tries", n, degTarget, tries)
}
