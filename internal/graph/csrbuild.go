package graph

// Streaming CSR construction and graph-free traversal — the substrate of
// the million-node generator path (DESIGN.md §11). The generators' grid-
// bucketed builders know every vertex's degree after one counting pass, so
// they can fill the flat edge array directly through CSRBuilder — two
// passes, no per-vertex slices, no edge staging arrays, no Graph
// intermediate. The traversal methods (MultiBFS, DiameterApprox, Connected)
// mirror Graph's so CSR-only pipelines can check connectivity and estimate
// parameters without ever materializing adjacency-list form.

import "slices"

// CSRBuilder assembles a CSR directly from per-vertex degree counts: the
// caller counts degrees (pass 1), constructs the builder — which turns the
// counts into the offsets table in place — then emits every directed arc
// (pass 2) and calls Finish. Each undirected edge {u,v} must be emitted as
// both Arc(u,v) and Arc(v,u), exactly as it was counted toward both
// degrees. The builder performs no dedup and no range checks — it is the
// trusted back end of generators that already emit each pair once — and
// total work is O(n + m) with the edge array as the only O(m) allocation.
type CSRBuilder struct {
	offsets []int32
	cursor  []int32 // per-vertex write position; starts at offsets[v]
	edges   []int32
}

// NewCSRBuilder takes ownership of deg — vertex v's degree in deg[v], both
// endpoints of every edge counted — reusing its storage as the fill cursor.
func NewCSRBuilder(deg []int32) *CSRBuilder {
	n := len(deg)
	offsets := make([]int32, n+1)
	total := int32(0)
	for v, d := range deg {
		offsets[v] = total
		total += d
	}
	offsets[n] = total
	b := &CSRBuilder{offsets: offsets, cursor: deg, edges: make([]int32, total)}
	copy(b.cursor, offsets[:n])
	return b
}

// Arc appends v to u's neighbor list.
func (b *CSRBuilder) Arc(u, v int32) {
	b.edges[b.cursor[u]] = v
	b.cursor[u]++
}

// SortLists sorts every vertex's list ascending, in place. Generators whose
// fill pass emits ring-ordered runs call it to land on the same canonical
// ascending lists the Builder path produces (its lexicographic edge order
// yields ascending lists by construction).
func (b *CSRBuilder) SortLists() {
	for v := 0; v+1 < len(b.offsets); v++ {
		slices.Sort(b.edges[b.offsets[v]:b.offsets[v+1]])
	}
}

// Finish returns the snapshot. The builder must not be reused afterwards.
func (b *CSRBuilder) Finish() *CSR {
	return &CSR{offsets: b.offsets, edges: b.edges}
}

// FromCSR materializes a Graph over the snapshot. Flat snapshots share
// storage: the adjacency lists are carved out of the edge array with full
// slice expressions (a later AddEdge copies instead of clobbering a
// neighbor's list, exactly like Builder.Build) and the CSR cache is
// pre-seeded, so the conversion is O(n) regardless of m. Packed snapshots
// unpack first.
func FromCSR(c *CSR) *Graph {
	f := c.Unpack()
	n := f.N()
	g := &Graph{n: n, adj: make([][]int32, n)}
	for v := 0; v < n; v++ {
		g.adj[v] = f.edges[f.offsets[v]:f.offsets[v+1]:f.offsets[v+1]]
	}
	g.csr = f
	return g
}

// BFS returns hop distances from src over the snapshot; Unreachable for
// disconnected vertices.
func (c *CSR) BFS(src int) []int { return c.MultiBFS([]int{src}) }

// MultiBFS returns hop distances from the nearest of the given sources,
// matching Graph.MultiBFS. Iteration goes through a cursor so packed
// snapshots traverse with one decode buffer instead of per-vertex
// allocations.
func (c *CSR) MultiBFS(sources []int) []int {
	n := c.N()
	cur := c.Cursor()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if s < 0 || s >= n || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		queue = append(queue, int32(s))
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, w := range cur.List(int(u)) {
			if dist[w] == Unreachable {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Connected reports whether the snapshot is connected (vacuously true for
// n ≤ 1).
func (c *CSR) Connected() bool {
	if c.N() <= 1 {
		return true
	}
	for _, d := range c.BFS(0) {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// DiameterApprox is a double BFS sweep giving a 2-approximation lower
// bound on the diameter, ErrDisconnected when applicable — the one
// implementation behind Graph.DiameterApprox, and what lets graph-free
// runs (radio.RunCSR) derive the paper's parameter estimates without
// materializing adjacency lists.
func (c *CSR) DiameterApprox() (int, error) {
	if c.N() == 0 {
		return 0, nil
	}
	dist := c.BFS(0)
	far, fd := 0, 0
	for v, d := range dist {
		if d == Unreachable {
			return 0, ErrDisconnected
		}
		if d > fd {
			far, fd = v, d
		}
	}
	ecc := 0
	for _, d := range c.BFS(far) {
		if d == Unreachable {
			return 0, ErrDisconnected
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}
