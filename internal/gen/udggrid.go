package gen

import (
	"math"

	"repro/internal/phy"
)

// geoGrid2D is the uniform-grid spatial index behind the UDG build
// (udgStreamCSR, its one consumer): positions split into structure-of-arrays
// coordinate slices (phy.SplitXY) and bucketed into cells of side > radius,
// so each vertex tests only the 3×3 cell ring around its own cell — expected
// O(n + m) on bounded-density deployments versus the quadratic
// thresholdGraph scan, the difference between milliseconds and minutes at
// n = 65536.
type geoGrid2D struct {
	xs, ys     []float64
	cols, rows int
	cellOf     []int32 // vertex → cell id
	cellStart  []int32 // CSR offsets into cellNodes, len cols*rows+1
	cellNodes  []int32 // vertices grouped by cell, ascending within each cell
}

// newGeoGrid2D buckets a 2-D deployment for neighbor queries at the given
// radius. ok is false — the caller falls back to the quadratic scan — for
// non-2-D points, non-finite coordinates, radius ≤ 0, or radius wide enough
// to cover the whole bounding box (where the grid cannot prune anything).
//
// The cell side carries a 1e-9 relative slack above radius, so any pair
// split by a full cell is farther than radius by margins no rounding in
// Point.Dist can cross — skipping non-adjacent cells never drops a boundary
// edge.
func newGeoGrid2D(pts []Point, radius float64) (*geoGrid2D, bool) {
	n := len(pts)
	if n == 0 || !(radius > 0) || math.IsInf(radius, 1) {
		return nil, false
	}
	xs, ys, ok := phy.SplitXY(pts)
	if !ok {
		return nil, false
	}
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, false
		}
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	cs := radius * (1 + 1e-9)
	if maxX-minX <= cs && maxY-minY <= cs {
		return nil, false // one cell: the grid prunes nothing
	}
	cols := int((maxX-minX)/cs) + 1
	rows := int((maxY-minY)/cs) + 1
	if cells := float64(cols) * float64(rows); cells > float64(4*n+16) {
		// Sparse deployment relative to radius: coarsen the grid so the
		// cell table stays O(n). Correctness only needs cs > radius.
		cs *= math.Sqrt(cells / float64(4*n+16))
		cols = int((maxX-minX)/cs) + 1
		rows = int((maxY-minY)/cs) + 1
	}

	// Counting-sort vertices into cells; ascending vertex order keeps every
	// cell's list ascending.
	cellOf := make([]int32, n)
	cellStart := make([]int32, cols*rows+1)
	for i := 0; i < n; i++ {
		cx := int((xs[i] - minX) / cs)
		cy := int((ys[i] - minY) / cs)
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		c := int32(cy*cols + cx)
		cellOf[i] = c
		cellStart[c+1]++
	}
	for c := 0; c < cols*rows; c++ {
		cellStart[c+1] += cellStart[c]
	}
	cellNodes := make([]int32, n)
	cursor := make([]int32, cols*rows)
	copy(cursor, cellStart[:cols*rows])
	for i := 0; i < n; i++ {
		c := cellOf[i]
		cellNodes[cursor[c]] = int32(i)
		cursor[c]++
	}
	return &geoGrid2D{
		xs: xs, ys: ys, cols: cols, rows: rows,
		cellOf: cellOf, cellStart: cellStart, cellNodes: cellNodes,
	}, true
}

// ring calls yield with each cell of the 3×3 ring around vertex i's cell,
// in row-major (gy, gx) order — the candidate enumeration order both of
// udgStreamCSR's passes share.
func (gg *geoGrid2D) ring(i int, yield func(nodes []int32)) {
	ci := int(gg.cellOf[i])
	cx, cy := ci%gg.cols, ci/gg.cols
	for gy := max(cy-1, 0); gy <= min(cy+1, gg.rows-1); gy++ {
		for gx := max(cx-1, 0); gx <= min(cx+1, gg.cols-1); gx++ {
			c := gy*gg.cols + gx
			yield(gg.cellNodes[gg.cellStart[c]:gg.cellStart[c+1]])
		}
	}
}
