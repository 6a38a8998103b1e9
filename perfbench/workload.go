package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// window is a span of simulated time: a crowd episode or failure that
// must draw a committed plan, or a settle window whose utilisation is
// reported.
type window struct {
	Label    string
	From, To time.Duration
}

// linkChange is one scheduled link failure or heal.
type linkChange struct {
	At   time.Duration
	A, B string
	Up   bool
}

// inputs is everything one workload run consumes, generated from the
// workload name and the seed alone. The simulator sees only these.
type inputs struct {
	Workload string
	Seed     int64
	Topo     scenarios.TopoSpec
	Waves    []flashcrowd.Wave
	Failures []linkChange
	// FirstArrival ends the set-up phase: the clock runs to just before
	// it before the run timer starts.
	FirstArrival time.Duration
	Horizon      time.Duration
	// Episodes must each see at least one committed plan.
	Episodes []window
	// Settle windows are sampled for settled_util (the mean of their
	// per-window maxima).
	Settle    []window
	ScoreMode controller.ScoreMode
	BFD       bool
	StandbyK  int
	// MinDelivered is the delivered_frac floor the correctness check
	// enforces.
	MinDelivered float64
	// TailPct is the react_ms_tail percentile; minReactSamples is the
	// sample count that leaves at least ten samples beyond it.
	TailPct float64
}

// minReactSamples is the number of reaction samples a run collects
// before it may stop: enough for ten beyond the tail percentile.
func (in *inputs) minReactSamples() int {
	return int(math.Ceil(10 / (1 - in.TailPct/100)))
}

// workloadNames lists the workloads the program generates. BENCHMARK.json
// gates crowd-100k and fabric-failover; wan-crowds runs by hand (see
// README.md for why it is not gated).
var workloadNames = []string{"wan-crowds", "crowd-100k", "fabric-failover"}

// generate builds a workload's inputs from its seed.
func generate(name string, seed int64) (*inputs, error) {
	switch name {
	case "wan-crowds":
		return wanCrowds(seed)
	case "crowd-100k":
		return crowd100k(seed)
	case "fabric-failover":
		return fabricFailover(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// ingress is a candidate crowd entry point: a router with at least two
// router neighbours, with the first hop and bottleneck capacity of its
// shortest path to the prefix.
type ingress struct {
	Name         string
	Dist         int64
	HopA, HopB   string
	PathCapacity float64
}

// ingresses ranks the topology's viable ingress routers by distance from
// the prefix attachment (farthest first, ties by name).
func ingresses(tp *topo.Topology, prefix string) ([]ingress, error) {
	p, ok := tp.PrefixByName(prefix)
	if !ok {
		return nil, fmt.Errorf("no prefix %q", prefix)
	}
	attach := p.Attachments[0].Node
	g := spf.FromTopology(tp)
	skip := spf.HostSkip(tp)
	tree := spf.Compute(g, attach, skip)
	var out []ingress
	for _, n := range tp.Nodes() {
		if n.Host || n.ID == attach || !tree.Reachable(n.ID) {
			continue
		}
		deg := 0
		for _, lid := range tp.OutLinks(n.ID) {
			if !tp.Node(tp.Link(lid).To).Host {
				deg++
			}
		}
		if deg < 2 {
			continue
		}
		paths := spf.Compute(g, n.ID, skip).Paths(attach, 1)
		if len(paths) == 0 || len(paths[0]) < 2 {
			continue
		}
		path := paths[0]
		capacity := math.Inf(1)
		for i := 0; i+1 < len(path); i++ {
			if l, ok := tp.FindLink(path[i], path[i+1]); ok && l.Capacity > 0 {
				capacity = min(capacity, l.Capacity)
			}
		}
		if math.IsInf(capacity, 1) {
			continue
		}
		out = append(out, ingress{
			Name: n.Name, Dist: tree.Dist[n.ID],
			HopA: tp.Name(path[0]), HopB: tp.Name(path[1]),
			PathCapacity: capacity,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no viable ingress router")
	}
	slices.SortFunc(out, func(a, b ingress) int {
		if c := cmp.Compare(b.Dist, a.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return out, nil
}

// crowd draws one flash crowd at an ingress: the first n arrivals of a
// Poisson process whose mean rate fills the ramp window, starting at
// `at`. Each viewer holds for a fixed plateau plus an exponential tail,
// and leaves no later than `leaveBy`. Fixing the count keeps every seed's
// crowd the same size; the seed moves arrival instants and holds.
func crowd(ing string, at, ramp time.Duration, n int, plateau, tail, leaveBy time.Duration, rate float64, seed int64) []flashcrowd.Wave {
	// Drawing over a doubled window leaves n arrivals with overwhelming
	// probability; the rare short draw keeps what it has.
	waves := flashcrowd.PoissonWaves(ing, 2*ramp, float64(n)/ramp.Seconds(), tail, rate, seed)
	waves = waves[:min(n, len(waves))]
	for i := range waves {
		waves[i].At += at
		waves[i].Hold = min(waves[i].Hold+plateau, leaveBy-waves[i].At)
	}
	return waves
}

func byArrival(waves []flashcrowd.Wave) []flashcrowd.Wave {
	slices.SortStableFunc(waves, func(a, b flashcrowd.Wave) int { return cmp.Compare(a.At, b.At) })
	return waves
}

// wanCrowds: six flash-crowd episodes on a Waxman-32 WAN, each surging at
// one ingress and receding before the next; the ingresses recur, and one
// link flaps under the third episode. Planning dominates host time.
func wanCrowds(seed int64) (*inputs, error) {
	in := &inputs{
		Workload:     "wan-crowds",
		Seed:         seed,
		Topo:         scenarios.TopoSpec{Family: "waxman", Size: 32, Seed: 13, Capacity: 10e6},
		FirstArrival: 2 * time.Second,
		MinDelivered: 0.9,
		TailPct:      90,
	}
	tp, prefix, err := in.Topo.Build()
	if err != nil {
		return nil, err
	}
	cands, err := ingresses(tp, prefix)
	if err != nil {
		return nil, err
	}
	if len(cands) < 3 {
		return nil, fmt.Errorf("wan-crowds: need 3 ingress candidates, have %d", len(cands))
	}
	const episode = 30 * time.Second
	// Indices into the ranked candidates. Consecutive episodes use
	// different ingresses: lies a crowd leaves behind can cover the next
	// crowd at the same ingress, which then draws no plan.
	order := []int{0, 2, 1, 0, 2, 1}
	rng := rand.New(rand.NewSource(seed))
	for k, ci := range order {
		start := in.FirstArrival + time.Duration(k)*episode
		end := start + episode
		c := cands[ci]
		// ~25 sessions fill a path: 43 offer 1.7x it, arriving over about
		// 6 s and holding 12 s plus an exponential tail (mean 4 s).
		in.Waves = append(in.Waves, crowd(c.Name, start, 6*time.Second, 43,
			12*time.Second, 4*time.Second, end-3*time.Second, c.PathCapacity/25, rng.Int63())...)
		in.Episodes = append(in.Episodes, window{Label: fmt.Sprintf("crowd-%d", k), From: start, To: end})
		in.Settle = append(in.Settle, window{Label: fmt.Sprintf("crowd-%d", k), From: start + 13*time.Second, To: start + 18*time.Second})
	}
	// The flap: the third episode's ingress loses its shortest path's
	// first hop mid-plateau and gets it back eight seconds later.
	c := cands[order[2]]
	down := in.FirstArrival + 2*episode + 10*time.Second
	in.Failures = []linkChange{
		{At: down, A: c.HopA, B: c.HopB},
		{At: down + 8*time.Second, A: c.HopA, B: c.HopB, Up: true},
	}
	// The run ends in the last episode's settle window, lies still live.
	in.Horizon = in.Settle[len(in.Settle)-1].To
	in.Episodes[len(in.Episodes)-1].To = in.Horizon
	in.Waves = byArrival(in.Waves)
	return in, nil
}

// crowd100k: ~100k viewers arriving as a Poisson crowd at two ingresses
// of a 1 Gbit/s fat-tree, joining and leaving throughout, under QoE
// scoring. The data plane and the players dominate host time.
func crowd100k(seed int64) (*inputs, error) {
	in := &inputs{
		Workload:     "crowd-100k",
		Seed:         seed,
		Topo:         scenarios.TopoSpec{Family: "fattree", Size: 4, Seed: 2, Capacity: 1e9},
		FirstArrival: 2 * time.Second,
		Horizon:      42 * time.Second,
		ScoreMode:    controller.ScoreQoE,
		MinDelivered: 0.5,
		TailPct:      95,
	}
	tp, prefix, err := in.Topo.Build()
	if err != nil {
		return nil, err
	}
	cands, err := ingresses(tp, prefix)
	if err != nil {
		return nil, err
	}
	if len(cands) < 2 {
		return nil, fmt.Errorf("crowd-100k: need 2 ingress candidates, have %d", len(cands))
	}
	const (
		perIngress = 50_000
		ramp       = 36 * time.Second
		plateau    = 4 * time.Second
		tail       = 8 * time.Second
	)
	rng := rand.New(rand.NewSource(seed))
	for _, c := range cands[:2] {
		// Concurrent viewers settle near arrivals/s x mean hold; size the
		// per-session rate so that crowd offers 1.5x its path.
		concurrent := perIngress / ramp.Seconds() * (plateau + tail).Seconds()
		rate := 1.5 * c.PathCapacity / concurrent
		in.Waves = append(in.Waves, crowd(c.Name, in.FirstArrival, ramp, perIngress,
			plateau, tail, in.Horizon, rate, rng.Int63())...)
	}
	in.Waves = byArrival(in.Waves)
	in.Episodes = []window{{Label: "crowd", From: in.FirstArrival, To: in.Horizon}}
	in.Settle = []window{{Label: "plateau", From: 26 * time.Second, To: 38 * time.Second}}
	return in, nil
}

// fabricFailover: a ramp crowd on a k=8 fat-tree with BFD and standby
// plans, then a link failure, its heal and a second failure. IGP
// flooding, SPF and standby precompute dominate host time.
func fabricFailover(seed int64) (*inputs, error) {
	in := &inputs{
		Workload:     "fabric-failover",
		Seed:         seed,
		Topo:         scenarios.TopoSpec{Family: "fattree", Size: 8, Seed: 2, Capacity: 10e6},
		FirstArrival: 2 * time.Second,
		Horizon:      17 * time.Second,
		BFD:          true,
		StandbyK:     3,
		MinDelivered: 0.8,
		TailPct:      70,
	}
	tp, prefix, err := in.Topo.Build()
	if err != nil {
		return nil, err
	}
	cands, err := ingresses(tp, prefix)
	if err != nil {
		return nil, err
	}
	c := cands[0]
	rng := rand.New(rand.NewSource(seed))
	rate := c.PathCapacity / 25
	// Five ramp steps of half the path each, 400 ms apart (inside the
	// standby debounce, so the ramp triggers one precompute); the seed
	// jitters each step's instant by up to 50 ms.
	for i := 0; i < 5; i++ {
		at := in.FirstArrival + time.Duration(i)*400*time.Millisecond + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
		in.Waves = append(in.Waves, flashcrowd.Wave{At: at, Ingress: c.Name, Flows: 13, Rate: rate})
	}
	second, err := backupHop(tp, c)
	if err != nil {
		return nil, err
	}
	in.Failures = []linkChange{
		{At: 7 * time.Second, A: c.HopA, B: c.HopB},
		{At: 9 * time.Second, A: c.HopA, B: c.HopB, Up: true},
		{At: 11 * time.Second, A: second[0], B: second[1]},
	}
	in.Episodes = []window{
		{Label: "ramp", From: in.FirstArrival, To: 7 * time.Second},
		{Label: "failure-1", From: 7 * time.Second, To: 9 * time.Second},
		{Label: "failure-2", From: 11 * time.Second, To: in.Horizon},
	}
	in.Settle = []window{{Label: "after-failure-2", From: 14 * time.Second, To: in.Horizon}}
	return in, nil
}

// backupHop is the first link of the ingress's shortest path once its
// primary first hop is gone: the second failure's victim.
func backupHop(tp *topo.Topology, c ingress) ([2]string, error) {
	hop, ok := tp.FindLink(tp.MustNode(c.HopA), tp.MustNode(c.HopB))
	if !ok {
		return [2]string{}, fmt.Errorf("no link %s-%s", c.HopA, c.HopB)
	}
	reduced := tp.CloneWithoutLinks(hop.ID)
	rest, err := ingresses(reduced, topo.FatTreePrefixName)
	if err != nil {
		return [2]string{}, err
	}
	for _, r := range rest {
		if r.Name == c.Name {
			return [2]string{r.HopA, r.HopB}, nil
		}
	}
	return [2]string{}, fmt.Errorf("ingress %s has no backup path", c.Name)
}
