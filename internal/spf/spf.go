// Package spf implements shortest-path-first computation (Dijkstra) with
// full equal-cost multi-path (ECMP) support, as run by every router of a
// link-state IGP.
//
// The central result type is Tree: distances from a source plus the ECMP
// predecessor DAG, from which callers derive next-hop sets, enumerate all
// equal-cost paths, and count path multiplicities — the quantity Fibbing
// manipulates to realise uneven splitting ratios.
//
// Incremental (incremental.go) patches a Tree from a list of GraphChanges
// instead of re-running Dijkstra, falling back to a full recompute when
// the dirty region exceeds MaxDirtyFraction of the graph. It is the first
// stage of the delta pipeline: IGP change → patched tree → FIB diff →
// selective flow re-routing.
package spf

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"fibbing.net/fibbing/internal/topo"
)

// scratch is the reusable working state of one SPF run: the visited set
// (Compute), the per-node flag vector (Incremental), and the binary-heap
// backing array. The parallel simulation core runs many per-router SPF
// computations per tick on worker goroutines, so the scratch is pooled —
// effectively per worker — instead of allocated per run. Results (Dist,
// preds) never alias scratch memory.
type scratch struct {
	done  []bool
	flags []uint8
	h     heap
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (s *scratch) release() {
	s.h.a = s.h.a[:0]
	scratchPool.Put(s)
}

func (s *scratch) boolSlice(n int) []bool {
	if cap(s.done) < n {
		s.done = make([]bool, n)
	}
	s.done = s.done[:n]
	clear(s.done)
	return s.done
}

func (s *scratch) flagSlice(n int) []uint8 {
	if cap(s.flags) < n {
		s.flags = make([]uint8, n)
	}
	s.flags = s.flags[:n]
	clear(s.flags)
	return s.flags
}

// Infinity is the distance reported for unreachable nodes.
const Infinity int64 = math.MaxInt64

// Edge is one directed adjacency of the SPF graph.
type Edge struct {
	To     topo.NodeID
	Weight int64
	// Link is the topology link realising the edge, or topo.NoLink for
	// synthetic edges (fake links injected by Fibbing).
	Link topo.LinkID
}

// Graph is a compact adjacency-list view tailored for SPF. It is decoupled
// from topo.Topology so that the IGP can run SPF over LSDB-derived graphs
// that include fake nodes.
type Graph struct {
	Out [][]Edge
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{Out: make([][]Edge, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Out) }

// AddEdge appends a directed edge.
func (g *Graph) AddEdge(from topo.NodeID, e Edge) {
	g.Out[from] = append(g.Out[from], e)
}

// AddNode appends an isolated node and returns its ID. Used to graft fake
// nodes onto a copy of the real graph.
func (g *Graph) AddNode() topo.NodeID {
	g.Out = append(g.Out, nil)
	return topo.NodeID(len(g.Out) - 1)
}

// Clone returns a deep copy; edge slices are copied so the clone can be
// extended without aliasing.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.NumNodes())
	for i, es := range g.Out {
		c.Out[i] = append([]Edge(nil), es...)
	}
	return c
}

// ReplaceEdges replaces the multiset of directed edges from -> to with the
// given ones (each edge's To field is forced to to). It reports whether the
// edge set actually differed, so incremental graph maintainers can build
// GraphChange lists for Incremental without tracking weights themselves.
func (g *Graph) ReplaceEdges(from, to topo.NodeID, edges []Edge) bool {
	var old []Edge
	kept := g.Out[from][:0]
	for _, e := range g.Out[from] {
		if e.To == to {
			old = append(old, e)
		} else {
			kept = append(kept, e)
		}
	}
	for _, e := range edges {
		e.To = to
		kept = append(kept, e)
	}
	g.Out[from] = kept
	if len(old) != len(edges) {
		return true
	}
	// Multiset comparison on (Weight, Link); edge lists here are tiny
	// (parallel links between one node pair).
	matched := make([]bool, len(old))
	for _, e := range edges {
		found := false
		for i, o := range old {
			if !matched[i] && o.Weight == e.Weight && o.Link == e.Link {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

// FromTopology builds the SPF graph of the router-level topology. Host
// nodes are present (so IDs align) but contribute no transit: edges from
// hosts exist, edges into hosts exist, yet hosts are excluded as transit by
// routers simply because shortest paths never improve through a stub of
// equal cost — to be strict we keep host edges only between the host and
// its attachment, which cannot create transit shortcuts.
func FromTopology(t *topo.Topology) *Graph {
	g := NewGraph(t.NumNodes())
	for _, l := range t.Links() {
		g.AddEdge(l.From, Edge{To: l.To, Weight: l.Weight, Link: l.ID})
	}
	return g
}

// Tree is the result of one SPF run: distances from Src and the ECMP
// predecessor DAG over shortest paths.
type Tree struct {
	Src  topo.NodeID
	Dist []int64
	// preds[v] lists, for every node v on some shortest path, the edges
	// (u -> v) that lie on a shortest path from Src.
	preds [][]pred
	// kids caches the CSR inversion of preds (children of every node in
	// the shortest-path DAG), built lazily by childrenCSR. Incremental
	// stores it on the trees it returns so the next patch of the same
	// tree gets the old-DAG closure for free.
	kids   dagChildren
	kidsOK bool
}

type pred struct {
	from topo.NodeID
	link topo.LinkID
}

// item is a binary-heap entry.
type item struct {
	node topo.NodeID
	dist int64
}

// heap is a minimal binary min-heap on (dist, node). A hand-rolled heap
// avoids the interface boxing of container/heap on this hot path.
type heap struct {
	a []item
}

func (h *heap) push(it item) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].dist <= h.a[i].dist {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *heap) pop() item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l].dist < h.a[small].dist {
			small = l
		}
		if r < last && h.a[r].dist < h.a[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

func (h *heap) empty() bool { return len(h.a) == 0 }

// Compute runs Dijkstra from src and records the full ECMP predecessor DAG.
// Nodes listed in skip are not expanded (used to exclude stub hosts from
// transit); they may still be reached as leaves.
func Compute(g *Graph, src topo.NodeID, skip func(topo.NodeID) bool) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Src:   src,
		Dist:  make([]int64, n),
		preds: make([][]pred, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Infinity
	}
	t.Dist[src] = 0
	sc := getScratch()
	defer sc.release()
	done := sc.boolSlice(n)
	h := &sc.h
	h.push(item{node: src, dist: 0})
	for !h.empty() {
		it := h.pop()
		u := it.node
		if done[u] || it.dist > t.Dist[u] {
			continue
		}
		done[u] = true
		if u != src && skip != nil && skip(u) {
			continue // reached, but never expanded as transit
		}
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			alt := du + e.Weight
			if alt < 0 { // overflow guard
				continue
			}
			switch {
			case alt < t.Dist[e.To]:
				t.Dist[e.To] = alt
				t.preds[e.To] = t.preds[e.To][:0]
				t.preds[e.To] = append(t.preds[e.To], pred{from: u, link: e.Link})
				h.push(item{node: e.To, dist: alt})
			case alt == t.Dist[e.To]:
				t.preds[e.To] = append(t.preds[e.To], pred{from: u, link: e.Link})
			}
		}
	}
	t.canonicalize()
	return t
}

// canonicalize sorts every predecessor list by (from, link) so that trees
// produced by different strategies (full Dijkstra vs Incremental) compare
// equal entry for entry.
func (t *Tree) canonicalize() {
	for _, ps := range t.preds {
		sortPreds(ps)
	}
}

func sortPreds(ps []pred) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && predLess(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func predLess(a, b pred) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	return a.link < b.link
}

// Equal reports whether two trees encode identical routing state: same
// source, same distances, and identical canonicalised predecessor sets.
// Trees over graphs of different sizes are never equal.
func (t *Tree) Equal(o *Tree) bool {
	if o == nil || t.Src != o.Src || len(t.Dist) != len(o.Dist) || len(t.preds) != len(o.preds) {
		return false
	}
	for i := range t.Dist {
		if t.Dist[i] != o.Dist[i] {
			return false
		}
	}
	for v := range t.preds {
		a, b := t.preds[v], o.preds[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// Reachable reports whether dst was reached.
func (t *Tree) Reachable(dst topo.NodeID) bool {
	return t.Dist[dst] != Infinity
}

// NextHop is one first hop of an equal-cost path set, with the number of
// distinct shortest paths that start with it. Multiplicity is what turns
// duplicated fake nodes into uneven ECMP ratios.
type NextHop struct {
	Node topo.NodeID
	Link topo.LinkID
	// Paths counts the distinct shortest src->dst paths whose first hop
	// is this next hop.
	Paths int64
}

// NextHops returns the ECMP next hops from Src towards dst, including the
// per-next-hop shortest-path multiplicity. The result is sorted by node ID
// for determinism. Returns nil if dst is unreachable or dst == Src.
func (t *Tree) NextHops(dst topo.NodeID) []NextHop {
	if dst == t.Src || !t.Reachable(dst) {
		return nil
	}
	// Count, for each node on the DAG, the number of shortest paths from
	// Src, memoised over the predecessor DAG; and attribute each complete
	// path to the first hop it uses.
	type agg struct {
		counts map[topo.NodeID]int64 // first-hop node -> #paths
		link   map[topo.NodeID]topo.LinkID
	}
	memo := make(map[topo.NodeID]agg)
	var walk func(v topo.NodeID) agg
	walk = func(v topo.NodeID) agg {
		if a, ok := memo[v]; ok {
			return a
		}
		a := agg{counts: make(map[topo.NodeID]int64), link: make(map[topo.NodeID]topo.LinkID)}
		for _, p := range t.preds[v] {
			if p.from == t.Src {
				a.counts[v] += 1
				a.link[v] = p.link
				continue
			}
			sub := walk(p.from)
			for nh, c := range sub.counts {
				a.counts[nh] += c
				a.link[nh] = sub.link[nh]
			}
		}
		memo[v] = a
		return a
	}
	a := walk(dst)
	out := make([]NextHop, 0, len(a.counts))
	for nh, c := range a.counts {
		out = append(out, NextHop{Node: nh, Link: a.link[nh], Paths: c})
	}
	sortNextHops(out)
	return out
}

func sortNextHops(nhs []NextHop) {
	for i := 1; i < len(nhs); i++ {
		for j := i; j > 0 && nhs[j].Node < nhs[j-1].Node; j-- {
			nhs[j], nhs[j-1] = nhs[j-1], nhs[j]
		}
	}
}

// Paths enumerates all equal-cost shortest paths from Src to dst as node
// sequences (Src first). At most limit paths are returned (0 = no limit).
// Paths are produced in a deterministic order.
func (t *Tree) Paths(dst topo.NodeID, limit int) [][]topo.NodeID {
	if !t.Reachable(dst) || dst == t.Src {
		return nil
	}
	var out [][]topo.NodeID
	var rev []topo.NodeID
	var walk func(v topo.NodeID) bool
	walk = func(v topo.NodeID) bool {
		rev = append(rev, v)
		defer func() { rev = rev[:len(rev)-1] }()
		if v == t.Src {
			path := make([]topo.NodeID, len(rev))
			for i, n := range rev {
				path[len(rev)-1-i] = n
			}
			out = append(out, path)
			return limit == 0 || len(out) < limit
		}
		ps := append([]pred(nil), t.preds[v]...)
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j].from < ps[j-1].from; j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
		for _, p := range ps {
			if !walk(p.from) {
				return false
			}
		}
		return true
	}
	walk(dst)
	return out
}

// PathCount returns the number of distinct shortest paths from Src to dst.
func (t *Tree) PathCount(dst topo.NodeID) int64 {
	var total int64
	for _, nh := range t.NextHops(dst) {
		total += nh.Paths
	}
	if dst == t.Src {
		return 1
	}
	return total
}

// FormatPath renders a node path using topology names, e.g. "A>B>R2>C".
func FormatPath(t *topo.Topology, path []topo.NodeID) string {
	var b strings.Builder
	for i, n := range path {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(t.Name(n))
	}
	return b.String()
}

// HostSkip returns the canonical skip function for graphs derived from t:
// host nodes never transit. Graph indices >= t.NumNodes() (synthetic nodes
// appended to a topology-derived graph, e.g. Fibbing's fake nodes) are
// never skipped.
func HostSkip(t *topo.Topology) func(topo.NodeID) bool {
	return func(n topo.NodeID) bool {
		return int(n) < t.NumNodes() && t.Node(n).Host
	}
}

// Seed is one origin of a single-destination solve: Node reaches the
// destination directly at cost Dist (a prefix attachment, or a fake node
// hanging off a router).
type Seed struct {
	Node topo.NodeID
	Dist int64
}

// DistancesTo solves the single-destination shortest-path problem on t:
// it returns, indexed by node, the least cost at which each node reaches
// the destination the seeds describe, Infinity where it cannot. It is one
// multi-source Dijkstra over the reversed links, so "every router's
// distance to one prefix" costs one SPF instead of one per router.
// Duplicate seeds keep their minimum. HostSkip's no-transit rule holds: a
// host keeps its seed distance and is never reached through a neighbour,
// so no path transits it.
func DistancesTo(t *topo.Topology, seeds []Seed) []int64 {
	n := t.NumNodes()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Infinity
	}
	sc := getScratch()
	defer sc.release()
	done := sc.boolSlice(n)
	h := &sc.h
	for _, s := range seeds {
		if s.Dist < dist[s.Node] {
			dist[s.Node] = s.Dist
			h.push(item{node: s.Node, dist: s.Dist})
		}
	}
	for !h.empty() {
		it := h.pop()
		v := it.node
		if done[v] || it.dist > dist[v] {
			continue
		}
		done[v] = true
		for _, id := range t.InLinks(v) {
			l := t.Link(id)
			if t.Node(l.From).Host {
				continue // hosts never transit
			}
			alt := dist[v] + l.Weight
			if alt < 0 { // overflow guard
				continue
			}
			if alt < dist[l.From] {
				dist[l.From] = alt
				h.push(item{node: l.From, dist: alt})
			}
		}
	}
	return dist
}

// ComputeRouters runs Compute from src over a graph derived from t
// (possibly extended with synthetic nodes) with the canonical host-skip
// rule. It is the shared entry point of every caller that builds ad-hoc
// graphs over a topology: TE heuristics, CSPF, the controller's what-if
// evaluation.
func ComputeRouters(g *Graph, t *topo.Topology, src topo.NodeID) *Tree {
	return Compute(g, src, HostSkip(t))
}

// AllPairs computes one Tree per router (hosts excluded as sources).
func AllPairs(t *topo.Topology) map[topo.NodeID]*Tree {
	g := FromTopology(t)
	out := make(map[topo.NodeID]*Tree, t.NumNodes())
	for _, n := range t.Nodes() {
		if n.Host {
			continue
		}
		out[n.ID] = ComputeRouters(g, t, n.ID)
	}
	return out
}

// Validate sanity-checks a tree against its graph: every predecessor edge
// must satisfy the shortest-path equality dist[u] + w == dist[v].
func Validate(g *Graph, t *Tree) error {
	for v, ps := range t.preds {
		for _, p := range ps {
			var w int64 = -1
			for _, e := range g.Out[p.from] {
				if e.To == topo.NodeID(v) && e.Link == p.link {
					w = e.Weight
					break
				}
			}
			if w < 0 {
				return fmt.Errorf("spf: pred edge %d->%d not in graph", p.from, v)
			}
			if t.Dist[p.from] == Infinity || t.Dist[p.from]+w != t.Dist[v] {
				return fmt.Errorf("spf: pred edge %d->%d violates optimality (%d + %d != %d)",
					p.from, v, t.Dist[p.from], w, t.Dist[v])
			}
		}
	}
	return nil
}
