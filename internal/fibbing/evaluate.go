package fibbing

import (
	"fmt"
	"maps"
	"slices"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// RouteView is the analytically computed forwarding behaviour of one
// router for one prefix.
type RouteView struct {
	// Local marks the prefix's attachment router(s).
	Local bool
	// Dist is the router's distance to the prefix (through lies if they
	// win), spf.Infinity if unreachable.
	Dist int64
	// NextHops is the weighted ECMP next-hop set.
	NextHops NextHopWeights
}

// Evaluate computes, for every router, the route it would install for the
// named prefix given a set of lies. It mirrors the route computation of
// internal/ospf exactly (same announcement and next-hop-weight semantics)
// but runs on the topology directly, without protocol machinery — this is
// what the controller uses to predict the effect of an augmentation before
// injecting it.
//
// The question is single-destination, so it is answered by one reverse
// SPF (spf.DistancesTo) seeded at the prefix's attachments and at the
// routers the lies hang off, followed by one scan of every router's
// links: a router's next hops are the neighbours on a shortest path to
// the prefix, one RIB entry each however many parallel links reach them,
// plus one entry per own lie that ties its distance (the Fibbing trick).
// The per-router form — a full SPF from every router over the topology
// with one leaf node grafted on per lie — survives only as the test
// oracle.
func Evaluate(t *topo.Topology, prefixName string, lies []Lie) (map[topo.NodeID]RouteView, error) {
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

	seeds := make([]spf.Seed, 0, len(p.Attachments)+len(lies))
	for _, a := range p.Attachments {
		seeds = append(seeds, spf.Seed{Node: a.Node, Dist: a.Cost})
	}
	for _, l := range lies {
		// A fake hung off a host is never reached: hosts do not transit.
		if !t.Node(l.Attach).Host {
			seeds = append(seeds, spf.Seed{Node: l.Attach, Dist: l.Cost})
		}
	}
	dist := spf.DistancesTo(t, seeds)

	out := make(map[topo.NodeID]RouteView, t.NumNodes())
	for _, a := range p.Attachments {
		if !t.Node(a.Node).Host {
			out[a.Node] = RouteView{Local: true, NextHops: NextHopWeights{}}
		}
	}
	for i := 0; i < t.NumNodes(); i++ {
		u := topo.NodeID(i)
		if _, local := out[u]; local || t.Node(u).Host {
			continue
		}
		view := RouteView{Dist: dist[u], NextHops: NextHopWeights{}}
		if view.Dist != spf.Infinity {
			for _, id := range t.OutLinks(u) {
				l := t.Link(id)
				if d := dist[l.To]; d != spf.Infinity && l.Weight+d == view.Dist {
					view.NextHops[l.To] = 1 // once per neighbour, even over parallel links
				}
			}
		}
		out[u] = view
	}
	// Own fakes: each one that ties the router's distance is one extra RIB
	// path to its forwarding address (additive — the Fibbing trick).
	for _, l := range lies {
		if v, ok := out[l.Attach]; ok && !v.Local && v.Dist != spf.Infinity && l.Cost == v.Dist {
			v.NextHops[l.Via]++
		}
	}
	return out, nil
}

// IGPView computes the plain-IGP routes for a prefix (no lies).
func IGPView(t *topo.Topology, prefixName string) (map[topo.NodeID]RouteView, error) {
	return Evaluate(t, prefixName, nil)
}

// CheckDelivery verifies that the forwarding graph induced by views is
// loop-free and that every router with a route eventually reaches a Local
// router. This is the safety property every augmentation must preserve.
// Routers are visited in NodeID order and next hops in sorted order, so
// the error names the same router on every run.
func CheckDelivery(t *topo.Topology, views map[topo.NodeID]RouteView) error {
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // proven to deliver
	)
	state := make(map[topo.NodeID]int, len(views))
	var visit func(u topo.NodeID) error
	visit = func(u topo.NodeID) error {
		v, ok := views[u]
		if !ok {
			return fmt.Errorf("fibbing: traffic forwarded to %s which has no route", t.Name(u))
		}
		if v.Local {
			return nil
		}
		switch state[u] {
		case grey:
			return fmt.Errorf("fibbing: forwarding loop through %s", t.Name(u))
		case black:
			return nil
		}
		if len(v.NextHops) == 0 {
			return fmt.Errorf("fibbing: %s has no next hops and is not local", t.Name(u))
		}
		state[u] = grey
		for _, nh := range sortedNextHops(v.NextHops) {
			if err := visit(nh); err != nil {
				return err
			}
		}
		state[u] = black
		return nil
	}
	for _, u := range slices.Sorted(maps.Keys(views)) {
		if v := views[u]; v.Dist == spf.Infinity && !v.Local {
			continue // unreachable routers carry no traffic
		}
		if err := visit(u); err != nil {
			return err
		}
	}
	return nil
}
