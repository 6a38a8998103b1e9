package spf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fibbing.net/fibbing/internal/topo"
)

func fig1() (*topo.Topology, *Graph) {
	t := topo.Fig1(topo.Fig1Opts{})
	return t, FromTopology(t)
}

func TestFig1Distances(t *testing.T) {
	tp, g := fig1()
	tree := Compute(g, tp.MustNode(topo.Fig1A), nil)
	want := map[string]int64{
		"A": 0, "B": 1, "R1": 2, "R2": 2, "R3": 3, "C": 3, "R4": 3,
	}
	for name, d := range want {
		if got := tree.Dist[tp.MustNode(name)]; got != d {
			t.Errorf("dist(A,%s) = %d, want %d", name, got, d)
		}
	}
}

// TestFig1aShortestPaths pins the paper's Figure 1a: the shortest paths from
// A and from B to C overlap along B-R2-C, and are unique.
func TestFig1aShortestPaths(t *testing.T) {
	tp, g := fig1()
	a, b, c := tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1B), tp.MustNode(topo.Fig1C)

	ta := Compute(g, a, nil)
	pa := ta.Paths(c, 0)
	if len(pa) != 1 {
		t.Fatalf("A has %d shortest paths to C, want 1: %v", len(pa), pa)
	}
	if got := FormatPath(tp, pa[0]); got != "A>B>R2>C" {
		t.Fatalf("A's path = %s, want A>B>R2>C", got)
	}

	tb := Compute(g, b, nil)
	pb := tb.Paths(c, 0)
	if len(pb) != 1 {
		t.Fatalf("B has %d shortest paths to C, want 1: %v", len(pb), pb)
	}
	if got := FormatPath(tp, pb[0]); got != "B>R2>C" {
		t.Fatalf("B's path = %s, want B>R2>C", got)
	}
}

func TestNextHopsSimple(t *testing.T) {
	tp, g := fig1()
	a, c := tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1C)
	tree := Compute(g, a, nil)
	nhs := tree.NextHops(c)
	if len(nhs) != 1 {
		t.Fatalf("NextHops = %v, want single next hop B", nhs)
	}
	if nhs[0].Node != tp.MustNode(topo.Fig1B) || nhs[0].Paths != 1 {
		t.Fatalf("NextHops = %+v, want B with 1 path", nhs[0])
	}
	if nhs[0].Link == topo.NoLink {
		t.Fatalf("next hop should carry its link ID")
	}
}

func TestNextHopsECMPMultiplicity(t *testing.T) {
	// Diamond with a doubled upper branch:
	//   s -> u1 -> d, s -> u2 -> d, s -> v -> d where v has two parallel
	//   unit links to d. All paths cost 2.
	tp := topo.New()
	s := tp.AddNode("s")
	u1 := tp.AddNode("u1")
	u2 := tp.AddNode("u2")
	v := tp.AddNode("v")
	d := tp.AddNode("d")
	tp.AddLink(s, u1, 1, topo.LinkOpts{})
	tp.AddLink(s, u2, 1, topo.LinkOpts{})
	tp.AddLink(s, v, 1, topo.LinkOpts{})
	tp.AddLink(u1, d, 1, topo.LinkOpts{})
	tp.AddLink(u2, d, 1, topo.LinkOpts{})
	tp.AddLink(v, d, 1, topo.LinkOpts{})
	tp.AddLink(v, d, 1, topo.LinkOpts{}) // parallel link doubles v's paths

	g := FromTopology(tp)
	tree := Compute(g, s, nil)
	nhs := tree.NextHops(d)
	if len(nhs) != 3 {
		t.Fatalf("want 3 next hops, got %v", nhs)
	}
	byNode := map[topo.NodeID]int64{}
	for _, nh := range nhs {
		byNode[nh.Node] = nh.Paths
	}
	if byNode[u1] != 1 || byNode[u2] != 1 || byNode[v] != 2 {
		t.Fatalf("multiplicities = %v, want u1:1 u2:1 v:2", byNode)
	}
	if tree.PathCount(d) != 4 {
		t.Fatalf("PathCount = %d, want 4", tree.PathCount(d))
	}
}

func TestPathsEnumerationAndLimit(t *testing.T) {
	g := NewGraph(4)
	// 0 -> {1,2} -> 3, two equal paths.
	g.AddEdge(0, Edge{To: 1, Weight: 1})
	g.AddEdge(0, Edge{To: 2, Weight: 1})
	g.AddEdge(1, Edge{To: 3, Weight: 1})
	g.AddEdge(2, Edge{To: 3, Weight: 1})
	tree := Compute(g, 0, nil)
	paths := tree.Paths(3, 0)
	if len(paths) != 2 {
		t.Fatalf("want 2 paths, got %v", paths)
	}
	if len(tree.Paths(3, 1)) != 1 {
		t.Fatalf("limit=1 not honoured")
	}
	// Each path must start at src and end at dst.
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Fatalf("malformed path %v", p)
		}
	}
}

func TestUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, Edge{To: 1, Weight: 1})
	tree := Compute(g, 0, nil)
	if tree.Reachable(2) {
		t.Fatalf("node 2 should be unreachable")
	}
	if tree.Dist[2] != Infinity {
		t.Fatalf("unreachable distance should be Infinity")
	}
	if tree.NextHops(2) != nil {
		t.Fatalf("NextHops to unreachable should be nil")
	}
	if tree.Paths(2, 0) != nil {
		t.Fatalf("Paths to unreachable should be nil")
	}
}

func TestSkipExcludesTransit(t *testing.T) {
	// s - h - d (via host h, cost 2) and s - r - r2 - d (cost 3).
	// With h skipped as transit, d must be reached via the router path.
	tp := topo.New()
	s := tp.AddNode("s")
	h := tp.AddHost("h")
	d := tp.AddNode("d")
	r := tp.AddNode("r")
	r2 := tp.AddNode("r2")
	tp.AddLink(s, h, 1, topo.LinkOpts{})
	tp.AddLink(h, d, 1, topo.LinkOpts{})
	tp.AddLink(s, r, 1, topo.LinkOpts{})
	tp.AddLink(r, r2, 1, topo.LinkOpts{})
	tp.AddLink(r2, d, 1, topo.LinkOpts{})
	g := FromTopology(tp)
	skip := func(n topo.NodeID) bool { return tp.Node(n).Host }
	tree := Compute(g, s, skip)
	if tree.Dist[d] != 3 {
		t.Fatalf("dist via host = %d, want 3 (host must not transit)", tree.Dist[d])
	}
	// Host itself still reachable as a leaf.
	if tree.Dist[h] != 1 {
		t.Fatalf("host leaf distance = %d, want 1", tree.Dist[h])
	}
}

// TestDistancesToMatchesForwardSPF checks the reverse multi-source solve
// against one forward SPF per router: a router's distance is its cheapest
// seed reached without transiting a host; a host keeps its own seed.
func TestDistancesToMatchesForwardSPF(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tp := topo.RandomConnected(topo.RandomOpts{Nodes: 12, Degree: 3, MaxWeight: 4, Seed: seed})
		h0, h1 := tp.AddHost("h0"), tp.AddHost("h1")
		tp.AddLink(h0, 0, 1, topo.LinkOpts{})
		tp.AddLink(h0, 5, 1, topo.LinkOpts{}) // multi-homed: must not transit
		tp.AddLink(h1, 9, 2, topo.LinkOpts{})
		seeds := []Seed{{Node: 3, Dist: 4}, {Node: 3, Dist: 1}, {Node: 7, Dist: 0}, {Node: h0, Dist: 2}}
		got := DistancesTo(tp, seeds)
		g := FromTopology(tp)
		for x := range got {
			want := Infinity
			if !tp.Node(topo.NodeID(x)).Host {
				tree := ComputeRouters(g, tp, topo.NodeID(x))
				for _, s := range seeds {
					if tree.Reachable(s.Node) && tree.Dist[s.Node]+s.Dist < want {
						want = tree.Dist[s.Node] + s.Dist
					}
				}
			} else if topo.NodeID(x) == h0 {
				want = 2
			}
			if got[x] != want {
				t.Fatalf("seed %d: node %s: DistancesTo = %d, forward SPF = %d", seed, tp.Name(topo.NodeID(x)), got[x], want)
			}
		}
	}
}

func TestAllPairs(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{WithHosts: true})
	trees := AllPairs(tp)
	for _, n := range tp.Nodes() {
		if n.Host {
			if _, ok := trees[n.ID]; ok {
				t.Fatalf("AllPairs computed a tree for host %s", n.Name)
			}
			continue
		}
		tree, ok := trees[n.ID]
		if !ok {
			t.Fatalf("AllPairs missing router %s", n.Name)
		}
		for _, m := range tp.Nodes() {
			if !tree.Reachable(m.ID) {
				t.Fatalf("%s cannot reach %s", n.Name, m.Name)
			}
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tp, g := fig1()
	tree := Compute(g, tp.MustNode(topo.Fig1A), nil)
	if err := Validate(g, tree); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	tree.Dist[tp.MustNode(topo.Fig1C)]++ // corrupt
	if err := Validate(g, tree); err == nil {
		t.Fatalf("corrupted tree accepted")
	}
}

// Property: on random graphs, Dijkstra distances satisfy the triangle
// inequality over every edge, and every enumerated path's length equals the
// reported distance.
func TestRandomGraphProperties(t *testing.T) {
	f := func(seed int64) bool {
		n := 14
		rng := rand.New(rand.NewSource(seed))
		tp := topo.RandomConnected(topo.RandomOpts{
			Nodes: n, Degree: 3, MaxWeight: 9, Seed: seed,
		})
		g := FromTopology(tp)
		src := topo.NodeID(rng.Intn(n))
		tree := Compute(g, src, nil)
		if err := Validate(g, tree); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Out[u] {
				if tree.Dist[u] == Infinity {
					continue
				}
				if tree.Dist[e.To] > tree.Dist[u]+e.Weight {
					t.Logf("seed %d: triangle violation at %d->%d", seed, u, e.To)
					return false
				}
			}
		}
		dst := topo.NodeID(rng.Intn(n))
		for _, p := range tree.Paths(dst, 50) {
			var sum int64
			for i := 0; i+1 < len(p); i++ {
				l, ok := tp.FindLink(p[i], p[i+1])
				if !ok {
					t.Logf("seed %d: path uses nonexistent link", seed)
					return false
				}
				sum += l.Weight
			}
			if sum != tree.Dist[dst] {
				t.Logf("seed %d: path length %d != dist %d", seed, sum, tree.Dist[dst])
				return false
			}
		}
		// Next-hop multiplicities must sum to the path count.
		var total int64
		for _, nh := range tree.NextHops(dst) {
			total += nh.Paths
		}
		if dst != src && tree.Reachable(dst) && total != tree.PathCount(dst) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	_, g := fig1()
	c := g.Clone()
	id := c.AddNode()
	c.AddEdge(0, Edge{To: id, Weight: 1})
	if g.NumNodes() == c.NumNodes() {
		t.Fatalf("clone AddNode affected original")
	}
	if len(g.Out[0]) == len(c.Out[0]) {
		t.Fatalf("clone AddEdge affected original")
	}
}

func BenchmarkSPFFig1(b *testing.B) {
	tp, g := fig1()
	src := tp.MustNode(topo.Fig1A)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(g, src, nil)
	}
}

func BenchmarkSPFRandom100(b *testing.B) {
	tp := topo.RandomConnected(topo.RandomOpts{Nodes: 100, Degree: 4, MaxWeight: 20, Seed: 1})
	g := FromTopology(tp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(g, 0, nil)
	}
}
