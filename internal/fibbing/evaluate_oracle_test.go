package fibbing_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// evaluatePerRouter is the per-router form of fibbing.Evaluate: a full
// SPF from every router over the topology with one leaf node grafted on
// per lie, then the first hops of every shortest path to the best-cost
// destinations. It costs one Dijkstra per router, so it survives only as
// the oracle the single reverse solve is checked against. It keys
// attachments by node, so a node listed twice keeps its last cost where
// Evaluate keeps the cheapest; the cases below never list a node twice.
func evaluatePerRouter(t *topo.Topology, prefixName string, lies []fibbing.Lie) (map[topo.NodeID]fibbing.RouteView, error) {
	p, ok := t.PrefixByName(prefixName)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefixName)
	}
	for _, l := range lies {
		if l.Prefix != p.Prefix {
			return nil, fmt.Errorf("fibbing: lie %v targets a different prefix than %v", l, p.Prefix)
		}
		if _, ok := t.FindLink(l.Attach, l.Via); !ok {
			return nil, fmt.Errorf("fibbing: lie %v forwards via a non-neighbor", l)
		}
		if l.Cost < 0 {
			return nil, fmt.Errorf("fibbing: lie %v has negative cost", l)
		}
	}

	g := spf.FromTopology(t)
	lieNode := make(map[topo.NodeID]fibbing.Lie, len(lies))
	for _, l := range lies {
		idx := g.AddNode()
		g.AddEdge(l.Attach, spf.Edge{To: idx, Weight: l.Cost, Link: topo.NoLink})
		lieNode[idx] = l
	}
	attached := make(map[topo.NodeID]int64, len(p.Attachments))
	for _, a := range p.Attachments {
		attached[a.Node] = a.Cost
	}

	out := make(map[topo.NodeID]fibbing.RouteView, t.NumNodes())
	for _, n := range t.Nodes() {
		if n.Host {
			continue
		}
		u := n.ID
		if _, ok := attached[u]; ok {
			out[u] = fibbing.RouteView{Local: true, NextHops: fibbing.NextHopWeights{}}
			continue
		}
		tree := spf.ComputeRouters(g, t, u)

		best := spf.Infinity
		for a, cost := range attached {
			if tree.Reachable(a) && tree.Dist[a]+cost < best {
				best = tree.Dist[a] + cost
			}
		}
		for idx := range lieNode {
			if tree.Reachable(idx) && tree.Dist[idx] < best {
				best = tree.Dist[idx]
			}
		}
		view := fibbing.RouteView{Dist: best, NextHops: fibbing.NextHopWeights{}}
		if best == spf.Infinity {
			out[u] = view
			continue
		}
		set := make(map[topo.NodeID]bool)
		for a, cost := range attached {
			if !tree.Reachable(a) || tree.Dist[a]+cost != best {
				continue
			}
			for _, nh := range tree.NextHops(a) {
				set[nh.Node] = true
			}
		}
		for idx, l := range lieNode {
			if !tree.Reachable(idx) || tree.Dist[idx] != best {
				continue
			}
			if l.Attach == u {
				view.NextHops[l.Via]++
				continue
			}
			for _, nh := range tree.NextHops(idx) {
				if _, isLie := lieNode[nh.Node]; isLie {
					continue
				}
				set[nh.Node] = true
			}
		}
		for v := range set {
			view.NextHops[v]++
		}
		out[u] = view
	}
	return out, nil
}

// evalCase is one topology of the oracle sweep; every prefix it carries
// is evaluated.
type evalCase struct {
	name string
	tp   *topo.Topology
}

// withHosts hangs a multi-homed host (a transit temptation the no-transit
// rule must refuse) and a single-homed host off tp, and attaches an
// anycast prefix at the first host and at a router with unequal costs.
func withHosts(tp *topo.Topology) *topo.Topology {
	tp = tp.Clone()
	routers := routerIDs(tp)
	r0, r1 := routers[0], routers[len(routers)/2]
	h0 := tp.AddHost("oracle-h0")
	h1 := tp.AddHost("oracle-h1")
	tp.AddLink(h0, r0, 1, topo.LinkOpts{})
	tp.AddLink(h0, r1, 1, topo.LinkOpts{})
	tp.AddLink(h1, routers[len(routers)-1], 2, topo.LinkOpts{})
	tp.AddPrefix(netip.MustParsePrefix("10.250.0.0/24"), "oracle-hosted",
		topo.Attachment{Node: h0, Cost: 0},
		topo.Attachment{Node: routers[len(routers)-1], Cost: 3})
	return tp
}

// withIsland adds routers that cannot reach any prefix: a two-router
// island that the core can reach over a one-way link but never leave.
func withIsland(tp *topo.Topology) *topo.Topology {
	tp = tp.Clone()
	i0 := tp.AddNode("oracle-i0")
	i1 := tp.AddNode("oracle-i1")
	tp.AddLink(i0, i1, 1, topo.LinkOpts{})
	tp.AddDirectedLink(routerIDs(tp)[0], i0, 1, topo.LinkOpts{})
	return tp
}

// withAnycast attaches a prefix at three routers with unequal costs.
func withAnycast(tp *topo.Topology) *topo.Topology {
	tp = tp.Clone()
	r := routerIDs(tp)
	tp.AddPrefix(netip.MustParsePrefix("10.251.0.0/24"), "oracle-anycast",
		topo.Attachment{Node: r[0], Cost: 0},
		topo.Attachment{Node: r[len(r)/3], Cost: 2},
		topo.Attachment{Node: r[2*len(r)/3], Cost: 5})
	return tp
}

// withFailedLink drops the first link of the first prefix's first
// attachment, as a failover what-if clone does.
func withFailedLink(tp *topo.Topology) *topo.Topology {
	a := tp.Prefixes()[0].Attachments[0].Node
	return tp.CloneWithoutLinks(tp.OutLinks(a)[0])
}

// withParallelLinks doubles two Fig1 links at equal weight and one at a
// higher weight: a neighbour still counts once however many links reach it.
func withParallelLinks(tp *topo.Topology) *topo.Topology {
	tp = tp.Clone()
	tp.AddLink(tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1B), 1, topo.LinkOpts{})
	tp.AddLink(tp.MustNode(topo.Fig1B), tp.MustNode(topo.Fig1R2), 1, topo.LinkOpts{})
	tp.AddLink(tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1R1), 5, topo.LinkOpts{})
	return tp
}

func routerIDs(tp *topo.Topology) []topo.NodeID {
	var out []topo.NodeID
	for _, n := range tp.Nodes() {
		if !n.Host {
			out = append(out, n.ID)
		}
	}
	return out
}

func oracleCases(t *testing.T) []evalCase {
	t.Helper()
	cases := []evalCase{
		{"fig1", topo.Fig1(topo.Fig1Opts{})},
		{"fig1-hosts", withHosts(topo.Fig1(topo.Fig1Opts{WithHosts: true}))},
		{"fig1-parallel", withParallelLinks(topo.Fig1(topo.Fig1Opts{}))},
		{"abilene", topo.Abilene(10e6, 0)},
		{"fattree4", topo.FatTree(topo.FatTreeOpts{K: 4})},
		{"fattree4-w3", topo.FatTree(topo.FatTreeOpts{K: 4, MaxWeight: 3, Seed: 2})},
		{"fattree8-w3", topo.FatTree(topo.FatTreeOpts{K: 8, MaxWeight: 3, Seed: 2})},
		{"ring9", topo.Ring(topo.RingOpts{N: 9})},
		{"ring12-chords", topo.Ring(topo.RingOpts{N: 12, MaxWeight: 4, Seed: 5, Chords: 3})},
		{"waxman24", topo.Waxman(topo.WaxmanOpts{Nodes: 24, MaxWeight: 5, Seed: 13})},
	}
	for seed := int64(1); seed <= 10; seed++ {
		maxWeight := int64(1 + seed%5) // unit weights on seed 5 and 10
		cases = append(cases, evalCase{fmt.Sprintf("random-s%d-w%d", seed, maxWeight),
			topo.RandomConnected(topo.RandomOpts{Nodes: 14, Degree: 3, MaxWeight: maxWeight, Prefixes: 2, Seed: seed})})
	}
	for _, ts := range scenarios.MatrixTopologies() {
		tp, _, err := ts.Build()
		if err != nil {
			t.Fatalf("%s: %v", ts.Family, err)
		}
		cases = append(cases, evalCase{"spec-" + ts.Family + "-hosts", withHosts(tp)})
	}
	n := len(cases)
	for _, c := range cases[:n] {
		cases = append(cases,
			evalCase{c.name + "-failed", withFailedLink(c.tp)},
			evalCase{c.name + "-anycast", withAnycast(c.tp)},
			evalCase{c.name + "-island", withIsland(c.tp)})
	}
	return cases
}

// oracleLieSets draws lie sets for one prefix: none, pin-all, cost-0
// overrides, lies tying the IGP distance (duplicated), lies above it, and
// a mix hung anywhere a link starts — hosts, attachment routers and
// routers that cannot reach the prefix included.
func oracleLieSets(tp *topo.Topology, prefix string, igp map[topo.NodeID]fibbing.RouteView, rng *rand.Rand) map[string][]fibbing.Lie {
	p, _ := tp.PrefixByName(prefix)
	links := tp.Links()
	igpDist := func(u topo.NodeID) int64 {
		if v, ok := igp[u]; ok && !v.Local && v.Dist != spf.Infinity {
			return v.Dist
		}
		return rng.Int63n(8)
	}
	lie := func(l topo.Link, cost int64) fibbing.Lie {
		return fibbing.Lie{Prefix: p.Prefix, Attach: l.From, Via: l.To, Cost: cost}
	}
	sets := map[string][]fibbing.Lie{"none": nil}
	if aug, err := fibbing.AugmentPinAll(tp, prefix, fibbing.DAG{}); err == nil {
		sets["pin-all"] = aug.Lies
	}
	for _, l := range links {
		d := igpDist(l.From)
		switch rng.Intn(3) {
		case 0:
			sets["zero"] = append(sets["zero"], lie(l, 0))
		case 1:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				sets["equal"] = append(sets["equal"], lie(l, d))
			}
		case 2:
			sets["above"] = append(sets["above"], lie(l, d+1+rng.Int63n(3)))
		}
		if rng.Intn(4) == 0 {
			cost := []int64{0, d, d + 1, rng.Int63n(12)}[rng.Intn(4)]
			sets["mixed"] = append(sets["mixed"], lie(l, cost))
		}
		if v, ok := igp[l.From]; !ok || v.Local || v.Dist == spf.Infinity {
			sets["edges"] = append(sets["edges"], lie(l, rng.Int63n(6)))
		}
	}
	return sets
}

// TestEvaluateMatchesPerRouterSPF pins the single reverse solve to the
// per-router oracle, value for value, across the topology zoo, failed
// links, anycast, hosts and unreachable routers, under every lie shape.
func TestEvaluateMatchesPerRouterSPF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for _, c := range oracleCases(t) {
		for _, p := range c.tp.Prefixes() {
			igp, err := evaluatePerRouter(c.tp, p.Name, nil)
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", c.name, p.Name, err)
			}
			for name, lies := range oracleLieSets(c.tp, p.Name, igp, rng) {
				compareWithOracle(t, fmt.Sprintf("%s/%s/%s", c.name, p.Name, name), c.tp, p.Name, lies)
				compared++
			}
		}
	}
	if compared < 500 {
		t.Fatalf("only %d cases compared", compared)
	}
}

// TestEvaluateErrorsMatchPerRouterSPF checks the input validation is
// unchanged: same rejections, same messages.
func TestEvaluateErrorsMatchPerRouterSPF(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	p, _ := tp.PrefixByName(topo.Fig1BluePrefixName)
	a, b, c := tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1B), tp.MustNode(topo.Fig1C)
	for name, lies := range map[string][]fibbing.Lie{
		"wrong-prefix":  {{Prefix: netip.MustParsePrefix("10.9.9.0/24"), Attach: a, Via: b}},
		"non-neighbour": {{Prefix: p.Prefix, Attach: a, Via: c}},
		"negative-cost": {{Prefix: p.Prefix, Attach: a, Via: b, Cost: -1}},
	} {
		_, got := fibbing.Evaluate(tp, topo.Fig1BluePrefixName, lies)
		_, want := evaluatePerRouter(tp, topo.Fig1BluePrefixName, lies)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%s: Evaluate error %v, oracle %v", name, got, want)
		}
	}
	_, got := fibbing.Evaluate(tp, "nope", nil)
	_, want := evaluatePerRouter(tp, "nope", nil)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Errorf("unknown prefix: Evaluate error %v, oracle %v", got, want)
	}
}

func compareWithOracle(t *testing.T, name string, tp *topo.Topology, prefix string, lies []fibbing.Lie) {
	t.Helper()
	got, gerr := fibbing.Evaluate(tp, prefix, lies)
	want, werr := evaluatePerRouter(tp, prefix, lies)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: Evaluate error %v, oracle %v", name, gerr, werr)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for u, w := range want {
		if g, ok := got[u]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s: Evaluate %+v, oracle %+v", name, tp.Name(u), g, w)
		}
	}
	for u, g := range got {
		if _, ok := want[u]; !ok {
			t.Errorf("%s: %s: Evaluate %+v, oracle has no view", name, tp.Name(u), g)
		}
	}
	t.FailNow()
}

// FuzzEvaluateMatchesOracle derives a small topology — routers, hosts,
// symmetric and one-way links of weight 1..4, one or two distinct
// attachments — and a lie set from its input, and requires Evaluate to
// equal the per-router oracle, errors included.
func FuzzEvaluateMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 0, 1, 0, 2, 0, 2, 0, 2, 3, 2}) // parallel links
	f.Add([]byte{1, 0, 3, 0, 1, 0, 1, 1, 2, 1, 1, 2, 0, 0, 1, 0, 0, 2, 4, 0, 1, 1, 2, 0})
	f.Add([]byte{4, 2, 9, 0, 1, 2, 1, 1, 2, 0, 1, 2, 3, 1, 1, 3, 0, 3, 1, 4, 6, 0, 1, 5, 7, 2, 0, 1, 7, 0, 2, 5, 1, 3, 4, 2, 8})
	f.Add([]byte{5, 1, 11, 0, 1, 3, 3, 1, 2, 1, 1, 2, 3, 1, 0, 3, 4, 2, 1, 4, 5, 1, 0, 5, 6, 1, 2, 6, 0, 2, 1, 2, 6, 1, 0, 6, 4, 2, 5, 0, 2, 3, 1, 7, 0, 3, 0, 5, 9, 1, 4, 2, 6, 4})
	f.Add([]byte{3, 2, 7, 0, 5, 0, 1, 5, 1, 0, 1, 0, 1, 2, 1, 2, 3, 1, 1, 3, 4, 3, 0, 1, 6, 1, 2, 0, 8, 5, 0, 1, 2, 2, 0, 3, 3, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, lies := fuzzEvalCase(data)
		compareWithOracle(t, fmt.Sprintf("%v", data), tp, "p", lies)
	})
}

func fuzzEvalCase(data []byte) (*topo.Topology, []fibbing.Lie) {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % mod
	}
	tp := topo.New()
	routers, hosts := 2+next(6), next(3)
	for i := 0; i < routers; i++ {
		tp.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < hosts; i++ {
		tp.AddHost(fmt.Sprintf("h%d", i))
	}
	n := routers + hosts
	for k := next(16); k > 0; k-- {
		a, b, w, oneWay := topo.NodeID(next(n)), topo.NodeID(next(n)), int64(1+next(4)), next(4) == 0
		switch {
		case a == b:
		case oneWay:
			tp.AddDirectedLink(a, b, w, topo.LinkOpts{})
		default:
			tp.AddLink(a, b, w, topo.LinkOpts{})
		}
	}
	var atts []topo.Attachment
	for k := 1 + next(2); k > 0; k-- {
		a := topo.Attachment{Node: topo.NodeID(next(n)), Cost: int64(next(4))}
		if len(atts) == 0 || atts[0].Node != a.Node {
			atts = append(atts, a)
		}
	}
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	tp.AddPrefix(pfx, "p", atts...)
	var lies []fibbing.Lie
	if links := tp.Links(); len(links) > 0 {
		for k := next(9); k > 0; k-- {
			l := links[next(len(links))]
			lies = append(lies, fibbing.Lie{Prefix: pfx, Attach: l.From, Via: l.To, Cost: int64(next(9))})
		}
	}
	return tp, lies
}
