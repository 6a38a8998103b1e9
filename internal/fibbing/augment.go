package fibbing

import (
	"fmt"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// Augmentation is a computed set of lies realising a requirement, plus
// bookkeeping for the overhead experiments.
type Augmentation struct {
	Prefix string
	Lies   []Lie
	// Strategy records which algorithm produced the lies.
	Strategy string
}

// LieCount returns the number of fake nodes the augmentation injects — the
// control-plane overhead metric the paper compares against RSVP-TE tunnels.
func (a *Augmentation) LieCount() int { return len(a.Lies) }

// AugmentAddPaths computes lies for the demo's use case: routers in the
// DAG keep their current IGP next hops and gain additional (possibly
// duplicated) equal-cost paths. Each lie's cost equals the router's
// current IGP distance, which provably leaves every other router's routing
// unchanged: no distance in the network changes, and deduplicated
// first-hop sets stay identical.
//
// Requirements: for every constrained router, the desired next-hop set
// must include all current IGP next hops (you cannot remove a path with an
// equal-cost lie — use AugmentPinAll for that).
func AugmentAddPaths(t *topo.Topology, prefixName string, dag DAG) (*Augmentation, error) {
	if err := dag.Validate(t); err != nil {
		return nil, err
	}
	p, ok := t.PrefixByName(prefixName)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefixName)
	}
	igp, err := IGPView(t, prefixName)
	if err != nil {
		return nil, err
	}
	aug := &Augmentation{Prefix: prefixName, Strategy: "add-paths"}
	for _, u := range sortedRouters(dag) {
		desired := dag[u]
		view, ok := igp[u]
		if !ok || view.Local {
			return nil, fmt.Errorf("fibbing: cannot constrain attachment router %s", t.Name(u))
		}
		if view.NextHops.Equal(desired) {
			continue // already satisfied
		}
		// Scale check: desired must cover the IGP next hops.
		for nh := range view.NextHops {
			if desired[nh] == 0 {
				return nil, fmt.Errorf(
					"fibbing: add-paths cannot remove %s's IGP next hop %s (use pin-all)",
					t.Name(u), t.Name(nh))
			}
		}
		// The IGP contributes weight 1 per existing next hop; lies make
		// up the difference. Normalise to the smallest equivalent
		// weights first so we do not inject more fakes than needed.
		norm := normalise(desired)
		for _, v := range sortedNextHops(norm) {
			w := norm[v]
			need := w
			if view.NextHops[v] > 0 {
				need = w - 1 // the real path supplies one RIB entry
			}
			for i := 0; i < need; i++ {
				aug.Lies = append(aug.Lies, Lie{
					Prefix: p.Prefix, Attach: u, Via: v, Cost: view.Dist,
				})
			}
		}
	}
	return aug, nil
}

// AugmentPinAll realises an arbitrary acyclic forwarding DAG by pinning
// every non-attachment router with cost-0 lies (the paper's "Simple"-style
// global augmentation): a router whose announcements include a cost-0 fake
// prefers it over every real path (all link weights are >= 1) and over
// every remote fake (reaching another router costs >= 1), so each router's
// FIB becomes exactly its lies. Routers not constrained by the DAG are
// pinned to their current IGP next hops, preserving their behaviour.
//
// This realises any loop-free DAG — including ones that remove IGP paths —
// at the price of lying to every router; ReduceLies then shrinks the set.
func AugmentPinAll(t *topo.Topology, prefixName string, dag DAG) (*Augmentation, error) {
	if err := dag.Validate(t); err != nil {
		return nil, err
	}
	p, ok := t.PrefixByName(prefixName)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefixName)
	}
	igp, err := IGPView(t, prefixName)
	if err != nil {
		return nil, err
	}
	attached := make(map[topo.NodeID]bool, len(p.Attachments))
	for _, a := range p.Attachments {
		attached[a.Node] = true
	}
	aug := &Augmentation{Prefix: prefixName, Strategy: "pin-all"}
	for _, n := range t.Nodes() {
		if n.Host || attached[n.ID] {
			continue
		}
		u := n.ID
		nhs, constrained := dag[u]
		if !constrained {
			view := igp[u]
			if len(view.NextHops) == 0 {
				continue // disconnected from the prefix
			}
			nhs = view.NextHops
		}
		if constrained {
			if v, ok := dag[u]; ok && attachedLoopCheck(v, u) {
				return nil, fmt.Errorf("fibbing: %s lists itself as next hop", t.Name(u))
			}
		}
		norm := normalise(nhs)
		for _, v := range sortedNextHops(norm) {
			for i := 0; i < norm[v]; i++ {
				aug.Lies = append(aug.Lies, Lie{Prefix: p.Prefix, Attach: u, Via: v, Cost: 0})
			}
		}
	}
	// Safety: the realised forwarding must deliver without loops.
	views, err := Evaluate(t, prefixName, aug.Lies)
	if err != nil {
		return nil, err
	}
	if err := CheckDelivery(t, views); err != nil {
		return nil, fmt.Errorf("fibbing: pin-all would not deliver: %w", err)
	}
	return aug, nil
}

func attachedLoopCheck(w NextHopWeights, u topo.NodeID) bool {
	_, ok := w[u]
	return ok
}

// ReduceLies greedily removes lies whose removal keeps the network
// consistent with the requirement (the Merger-style minimisation pass):
// it drops one router's lie group at a time, re-evaluates the whole
// network, and keeps the removal when every constrained router still
// realises its desired split and every other router still matches the
// routing it had under the full augmentation.
func ReduceLies(t *topo.Topology, prefixName string, aug *Augmentation, dag DAG) (*Augmentation, error) {
	target, err := Evaluate(t, prefixName, aug.Lies)
	if err != nil {
		return nil, err
	}
	current := append([]Lie(nil), aug.Lies...)

	// Group lies by attachment router; removal is attempted per group
	// (removing half a router's lies changes its split).
	groups := make(map[topo.NodeID][]Lie)
	for _, l := range current {
		groups[l.Attach] = append(groups[l.Attach], l)
	}
	routers := make([]topo.NodeID, 0, len(groups))
	for u := range groups {
		routers = append(routers, u)
	}
	slices.Sort(routers)

	igp, err := IGPView(t, prefixName)
	if err != nil {
		return nil, err
	}
	for _, u := range routers {
		// Never drop a constrained router's lies wholesale if its IGP
		// routing differs from the requirement; the check below would
		// catch it, but skipping saves evaluations when the requirement
		// is clearly non-default.
		if want, constrained := dag[u]; constrained && !igp[u].NextHops.Equal(want) {
			continue
		}
		trial := withoutGroup(current, u)
		views, err := Evaluate(t, prefixName, trial)
		if err != nil {
			return nil, err
		}
		if viewsMatch(views, target) && CheckDelivery(t, views) == nil {
			current = trial
		}
	}
	return &Augmentation{
		Prefix:   aug.Prefix,
		Lies:     current,
		Strategy: aug.Strategy + "+reduced",
	}, nil
}

func withoutGroup(lies []Lie, u topo.NodeID) []Lie {
	out := make([]Lie, 0, len(lies))
	for _, l := range lies {
		if l.Attach != u {
			out = append(out, l)
		}
	}
	return out
}

func viewsMatch(got, want map[topo.NodeID]RouteView) bool {
	if len(got) != len(want) {
		return false
	}
	for u, w := range want {
		g, ok := got[u]
		if !ok || g.Local != w.Local {
			return false
		}
		if !g.NextHops.Equal(w.NextHops) {
			return false
		}
	}
	return true
}

// Verify checks that a set of lies realises the requirement: every
// constrained router's evaluated next hops equal the desired weights (up
// to scaling), every unconstrained router still matches plain IGP routing,
// and forwarding delivers loop-free.
func Verify(t *topo.Topology, prefixName string, lies []Lie, dag DAG) error {
	views, err := Evaluate(t, prefixName, lies)
	if err != nil {
		return err
	}
	igp, err := IGPView(t, prefixName)
	if err != nil {
		return err
	}
	for u, want := range dag {
		got, ok := views[u]
		if !ok {
			return fmt.Errorf("fibbing: no route computed for %s", t.Name(u))
		}
		if !got.NextHops.Equal(want) {
			return fmt.Errorf("fibbing: %s realises %v, want %v", t.Name(u), got.NextHops, want)
		}
	}
	for u, ref := range igp {
		if _, constrained := dag[u]; constrained {
			continue
		}
		got := views[u]
		if got.Local != ref.Local || !got.NextHops.Equal(ref.NextHops) {
			return fmt.Errorf("fibbing: lie leaked: %s moved from %v to %v",
				t.Name(u), ref.NextHops, got.NextHops)
		}
	}
	return CheckDelivery(t, views)
}

func normalise(w NextHopWeights) NextHopWeights {
	g := w.gcd()
	if g <= 1 {
		return w
	}
	out := make(NextHopWeights, len(w))
	for n, v := range w {
		out[n] = v / g
	}
	return out
}

func sortedRouters(d DAG) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(d))
	for u := range d {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

func sortedNextHops(w NextHopWeights) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(w))
	for v := range w {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Fig1DAG returns the paper's Figure 1c/1d requirement on a Fig1 topology:
// B splits evenly over {R2, R3}; A splits 1/3 : 2/3 over {B, R1}.
func Fig1DAG(t *topo.Topology) DAG {
	return DAG{
		t.MustNode(topo.Fig1B): {t.MustNode(topo.Fig1R2): 1, t.MustNode(topo.Fig1R3): 1},
		t.MustNode(topo.Fig1A): {t.MustNode(topo.Fig1B): 1, t.MustNode(topo.Fig1R1): 2},
	}
}
