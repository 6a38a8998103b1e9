package fibbing_test

// One benchmark per figure and quantitative claim of the paper, driving
// the same code paths as cmd/experiments. Shape checks are enforced by
// the experiments package itself (Result.Check); a benchmark fails if its
// experiment stops reproducing.

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/experiments"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

func runChecked(b *testing.B, f func() (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Check) > 0 {
			b.Fatalf("%s: %v", r.ID, r.Check)
		}
	}
}

// BenchmarkFig1aShortestPaths regenerates Figure 1a (IGP shortest paths
// overlapping on B-R2-C).
func BenchmarkFig1aShortestPaths(b *testing.B) { runChecked(b, experiments.Fig1a) }

// BenchmarkFig1bOverload regenerates Figure 1b (the surge loads B-R2 and
// R2-C with 200 relative units).
func BenchmarkFig1bOverload(b *testing.B) { runChecked(b, experiments.Fig1b) }

// BenchmarkFig1cAugmentation regenerates Figure 1c (three lies: fB cost 2
// via R3, two fA cost 3 via R1).
func BenchmarkFig1cAugmentation(b *testing.B) { runChecked(b, experiments.Fig1c) }

// BenchmarkFig1dSplits regenerates Figure 1d (uneven splits cut the max
// load from 200 to 66.7).
func BenchmarkFig1dSplits(b *testing.B) { runChecked(b, experiments.Fig1d) }

// BenchmarkFig2Timeseries regenerates Figure 2 (throughput over time on
// A-R1, B-R2, B-R3 under the 1/+30/+31 schedule) with the controller.
func BenchmarkFig2Timeseries(b *testing.B) {
	runChecked(b, func() (*experiments.Result, error) {
		return experiments.Fig2(true, 60*time.Second)
	})
}

// BenchmarkFig2NoController regenerates the counterfactual run (the
// bottleneck saturates, flows starve).
func BenchmarkFig2NoController(b *testing.B) {
	runChecked(b, func() (*experiments.Result, error) {
		return experiments.Fig2(false, 60*time.Second)
	})
}

// BenchmarkDemoQoE regenerates the demo's observable result: smooth
// playback with the controller, stutter without.
func BenchmarkDemoQoE(b *testing.B) {
	runChecked(b, func() (*experiments.Result, error) {
		return experiments.DemoQoE(60 * time.Second)
	})
}

// BenchmarkOverheadVsRSVPTE regenerates the §2 overhead comparison
// (lies + plain IP vs tunnels + signalling + encapsulation).
func BenchmarkOverheadVsRSVPTE(b *testing.B) { runChecked(b, experiments.OverheadVsRSVPTE) }

// BenchmarkMinMaxOptimality regenerates the §2 optimality claim (Fibbing
// realises the LP optimum; ECMP and weight search cannot).
func BenchmarkMinMaxOptimality(b *testing.B) { runChecked(b, experiments.MinMaxOptimality) }

// BenchmarkWeightChangeVsLie regenerates the §1 claim (weight changes are
// network-wide reconvergence events; a lie is one LSA).
func BenchmarkWeightChangeVsLie(b *testing.B) { runChecked(b, experiments.WeightChangeVsLie) }

// BenchmarkPerDestinationIsolation regenerates the §2 granularity claim
// (lies for one prefix leave other prefixes untouched).
func BenchmarkPerDestinationIsolation(b *testing.B) {
	runChecked(b, experiments.PerDestinationIsolation)
}

// BenchmarkABRExtension regenerates the adaptive-bitrate extension (with
// ABR, Fibbing's gain shows as delivered bitrate instead of stalls).
func BenchmarkABRExtension(b *testing.B) {
	runChecked(b, func() (*experiments.Result, error) {
		return experiments.ABRExtension(60 * time.Second)
	})
}

// BenchmarkReactionLatency measures the control loop's reaction time.
// "surge" regenerates the paper's reaction timeline (surge -> decision ->
// full delivery per wave). The "failover" pair runs the fig1 fast-failover
// cell end to end under each detection path — BFD liveness + standby cache
// against SNMP-poll/IGP-timescale detection — and reports the
// failure-to-commit latency as commit-latency-ms next to the usual wall
// ns/op. Each iteration asserts the failure was detected and a plan
// committed, so the gated benchmark doubles as a regression tripwire for
// the failover pipeline (the way BenchmarkPlannerGbit guards the
// numerics).
func BenchmarkReactionLatency(b *testing.B) {
	b.Run("surge", func(b *testing.B) {
		runChecked(b, func() (*experiments.Result, error) {
			return experiments.ReactionLatency(60 * time.Second)
		})
	})
	base := scenarios.FailoverSpecs()[0] // fig1 steady/hotlink
	for _, mode := range []struct {
		name string
		bfd  bool
	}{{"failover/bfd", true}, {"failover/snmp", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			spec := base
			if !mode.bfd {
				spec.BFD = false
				spec.StandbyK = 0
			}
			var latency time.Duration
			for i := 0; i < b.N; i++ {
				rep, err := scenarios.Run(spec, true)
				if err != nil {
					b.Fatal(err)
				}
				if rep.FailureAt < 0 {
					b.Fatal("failure schedule never fired")
				}
				if rep.FailoverCommitAt < 0 {
					b.Fatal("no plan committed after the failure")
				}
				if mode.bfd && rep.BFDLinkDowns == 0 {
					b.Fatal("BFD never detected the failure")
				}
				latency = rep.FailoverLatency
			}
			b.ReportMetric(float64(latency)/float64(time.Millisecond), "commit-latency-ms")
		})
	}
}

// --- Ablation benchmarks for DESIGN.md's design choices -----------------

// BenchmarkECMPHashBalance measures the statistical quality of the
// weighted per-flow hash (design choice: FNV-1a + avalanche finalizer).
func BenchmarkECMPHashBalance(b *testing.B) {
	table := fib.NewTable(1)
	if err := table.Install(fib.Route{
		Prefix: topo.Fig1BluePrefix,
		NextHops: []fib.NextHop{
			{Node: 1, Weight: 2},
			{Node: 2, Weight: 1},
		},
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		count := 0
		const flows = 4096
		for f := 0; f < flows; f++ {
			key := fib.FlowKey{
				Src:     ospf.Loopback(0),
				Dst:     ospf.HostAddr(topo.Fig1BluePrefix, f),
				SrcPort: uint16(f), DstPort: 8080, Proto: 6,
			}
			nh, _, _ := table.Select(key.Dst, key)
			if nh.Node == 1 {
				count++
			}
		}
		dev := float64(count)/flows - 2.0/3.0
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
		if dev > 0.05 {
			b.Fatalf("weighted hash deviation %.3f from 2/3", dev)
		}
	}
	b.ReportMetric(worst, "worst-split-deviation")
}

// BenchmarkRatioApproximationSweep measures the quantisation error of
// split ratios across denominator bounds (design choice: bounded ECMP
// weight denominators).
func BenchmarkRatioApproximationSweep(b *testing.B) {
	targets := [][]float64{
		{1.0 / 3, 2.0 / 3}, {0.37, 0.63}, {0.1, 0.2, 0.7}, {0.05, 0.95},
	}
	for _, denom := range []int{4, 8, 16, 32} {
		denom := denom
		b.Run(fmt.Sprintf("denom=%d", denom), func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				for _, tgt := range targets {
					w, err := fibbing.ApproxWeights(tgt, denom)
					if err != nil {
						b.Fatal(err)
					}
					if e := fibbing.WeightsError(w, tgt); e > worst {
						worst = e
					}
				}
			}
			b.ReportMetric(worst, "worst-ratio-error")
		})
	}
}

// BenchmarkAugmentationStrategies compares the lie count and cost of the
// two augmentation algorithms on the Figure 1 requirement (design choice:
// equal-cost add-paths vs global pin-all + reduction).
func BenchmarkAugmentationStrategies(b *testing.B) {
	tp := topo.Fig1(topo.Fig1Opts{})
	dag := fibbing.Fig1DAG(tp)
	b.Run("add-paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aug, err := fibbing.AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
			if err != nil {
				b.Fatal(err)
			}
			if aug.LieCount() != 3 {
				b.Fatalf("lies = %d", aug.LieCount())
			}
		}
	})
	b.Run("pin-all-reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aug, err := fibbing.AugmentPinAll(tp, topo.Fig1BluePrefixName, dag)
			if err != nil {
				b.Fatal(err)
			}
			red, err := fibbing.ReduceLies(tp, topo.Fig1BluePrefixName, aug, dag)
			if err != nil {
				b.Fatal(err)
			}
			if red.LieCount() >= aug.LieCount() {
				b.Fatalf("no reduction: %d -> %d", aug.LieCount(), red.LieCount())
			}
		}
	})
}

// BenchmarkEvaluate measures the analytic route evaluator every planner
// strategy compiles through: one reverse single-destination SPF plus one
// scan of every router's links. fattree8-pinall evaluates the k=8 fabric
// under AugmentPinAll's lies (cost-0 pins on every non-attachment
// switch); waxman200-igp is the plain-IGP view of a 200-router WAN.
// make bench-gate gates its allocs/op, which is deterministic.
func BenchmarkEvaluate(b *testing.B) {
	fat := topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	pin, err := fibbing.AugmentPinAll(fat, topo.FatTreePrefixName, fibbing.DAG{})
	if err != nil {
		b.Fatal(err)
	}
	wax := topo.Waxman(topo.WaxmanOpts{Nodes: 200, Capacity: 10e6, MaxWeight: 5, Seed: 13})
	for _, c := range []struct {
		name   string
		tp     *topo.Topology
		prefix string
		lies   []fibbing.Lie
	}{
		{"fattree8-pinall", fat, topo.FatTreePrefixName, pin.Lies},
		{"waxman200-igp", wax, topo.WaxmanPrefixName, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			// One untimed call warms the pooled SPF scratch, so allocs/op
			// counts only the evaluation itself.
			if _, err := fibbing.Evaluate(c.tp, c.prefix, c.lies); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				views, err := fibbing.Evaluate(c.tp, c.prefix, c.lies)
				if err != nil {
					b.Fatal(err)
				}
				if len(views) == 0 {
					b.Fatal("no route views")
				}
			}
		})
	}
}

// BenchmarkLPScaling measures min-max LP solve time as topology size
// grows (design choice: dense two-phase simplex on stdlib only).
func BenchmarkLPScaling(b *testing.B) {
	for _, nodes := range []int{8, 16, 24} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			tp := topo.RandomConnected(topo.RandomOpts{
				Nodes: nodes, Degree: 3, MaxWeight: 5, Prefixes: 2,
				Capacity: 10e6, Seed: int64(nodes),
			})
			demands := topo.RandomDemands(tp, 6, 1e6, 3e6, int64(nodes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := te.SolveMinMax(tp, demands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Delta-pipeline benchmarks ------------------------------------------

// BenchmarkIncrementalVsFull measures the cost of reacting to a single
// link-weight change across the topology zoo: recompute every router's
// SPF tree, either from scratch (full Dijkstra per router — the
// pre-delta-pipeline behaviour) or by patching the previous trees with
// spf.Incremental. The committed baseline records the speedup the CI
// bench gate protects (the acceptance bar is >= 5x on fattree8).
func BenchmarkIncrementalVsFull(b *testing.B) {
	cases := []struct {
		name  string
		build func() *topo.Topology
		// reps repeats the all-routers recompute inside one op so a
		// single -benchtime 1x shot (the committed baseline) is long
		// enough to time reliably. Identical on both sides, so the
		// full/incremental ratio is unaffected.
		reps int
	}{
		{"fig1", func() *topo.Topology { return topo.Fig1(topo.Fig1Opts{}) }, 500},
		{"abilene", func() *topo.Topology { return topo.Abilene(10e6, time.Millisecond) }, 200},
		{"fattree8", func() *topo.Topology {
			return topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
		}, 5},
		{"ring64", func() *topo.Topology { return topo.Ring(topo.RingOpts{N: 64, Capacity: 10e6, Chords: 4, Seed: 1}) }, 20},
		{"waxman200", func() *topo.Topology {
			return topo.Waxman(topo.WaxmanOpts{Nodes: 200, Capacity: 10e6, MaxWeight: 5, Seed: 7})
		}, 1},
	}
	for _, tc := range cases {
		tc := tc
		tp := tc.build()
		skip := spf.HostSkip(tp)
		var routers []topo.NodeID
		for _, n := range tp.Nodes() {
			if !n.Host {
				routers = append(routers, n.ID)
			}
		}
		// Previous trees, computed on the unmodified graph.
		before := spf.FromTopology(tp)
		prev := make(map[topo.NodeID]*spf.Tree, len(routers))
		for _, src := range routers {
			prev[src] = spf.Compute(before, src, skip)
		}
		// The change: bump one core link's weight (both directions).
		var link topo.Link
		for _, l := range tp.Links() {
			if !tp.Node(l.From).Host && !tp.Node(l.To).Host {
				link = l
				break
			}
		}
		tp.SetWeight(link.ID, link.Weight+1)
		if link.Reverse != topo.NoLink {
			tp.SetWeight(link.Reverse, link.Weight+1)
		}
		after := spf.FromTopology(tp)
		changes := []spf.GraphChange{
			{From: link.From, To: link.To},
			{From: link.To, To: link.From},
		}

		b.Run(tc.name+"/full", func(b *testing.B) {
			for _, src := range routers {
				spf.Compute(after, src, skip) // warm allocator + caches
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < tc.reps; r++ {
					for _, src := range routers {
						spf.Compute(after, src, skip)
					}
				}
			}
		})
		b.Run(tc.name+"/incremental", func(b *testing.B) {
			for _, src := range routers {
				spf.Incremental(after, prev[src], changes, skip) // warm up
			}
			b.ResetTimer()
			fulls := 0
			for i := 0; i < b.N; i++ {
				for r := 0; r < tc.reps; r++ {
					for _, src := range routers {
						_, _, full := spf.Incremental(after, prev[src], changes, skip)
						if full {
							fulls++
						}
					}
				}
			}
			b.ReportMetric(float64(fulls)/float64(b.N*tc.reps), "fallbacks/op")
		})
	}
}

// BenchmarkReshareIncremental measures the aggregate traffic plane's
// delta path at viewer scale: a diamond network carrying 1k/10k/100k
// same-rate viewers (two ECMP path-classes). "join" is the incremental
// op — one flow joins and leaves, re-solving only the dirty
// bottleneck-dependency component in O(aggregates). "full" forces the
// pre-aggregation behaviour — SetTable invalidates everything, so every
// viewer is re-traced and the solve runs globally. The committed baseline
// records the gap the CI bench gate protects (the acceptance bar is a
// >= 10x join-vs-full advantage at 100k viewers).
func BenchmarkReshareIncremental(b *testing.B) {
	buildNet := func(viewers int) (*netsim.Network, *event.Scheduler, topo.NodeID, *fib.Table) {
		tp := topo.New()
		s := tp.AddNode("s")
		u := tp.AddNode("u")
		v := tp.AddNode("v")
		d := tp.AddNode("d")
		lsu, _ := tp.AddLink(s, u, 1, topo.LinkOpts{Capacity: 10e9})
		lsv, _ := tp.AddLink(s, v, 1, topo.LinkOpts{Capacity: 10e9})
		lud, _ := tp.AddLink(u, d, 1, topo.LinkOpts{Capacity: 10e9})
		lvd, _ := tp.AddLink(v, d, 1, topo.LinkOpts{Capacity: 10e9})
		pfx := topo.Fig1BluePrefix
		tp.AddPrefix(pfx, "crowd", topo.Attachment{Node: d})

		sched := event.NewScheduler()
		net := netsim.New(tp, sched, time.Second)
		net.DropSeries = true
		ts := fib.NewTable(s)
		tu := fib.NewTable(u)
		tv := fib.NewTable(v)
		td := fib.NewTable(d)
		for _, err := range []error{
			ts.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{
				{Node: u, Link: lsu, Weight: 1}, {Node: v, Link: lsv, Weight: 1}}}),
			tu.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: d, Link: lud, Weight: 1}}}),
			tv.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: d, Link: lvd, Weight: 1}}}),
			td.Install(fib.Route{Prefix: pfx, Local: true}),
		} {
			if err != nil {
				b.Fatal(err)
			}
		}
		net.SetTable(s, ts)
		net.SetTable(u, tu)
		net.SetTable(v, tv)
		net.SetTable(d, td)
		rate := 1.7 * 10e9 / float64(viewers)
		for i := 0; i < viewers; i++ {
			key := fib.FlowKey{
				Src:     ospf.Loopback(s),
				Dst:     ospf.HostAddr(pfx, i),
				SrcPort: uint16(10000 + i%50000), DstPort: 8080, Proto: 6,
			}
			net.AddFlow(s, key, rate)
		}
		sched.RunUntil(time.Second)
		return net, sched, s, ts
	}
	greedyKey := fib.FlowKey{
		Src: ospf.Loopback(0), Dst: ospf.HostAddr(topo.Fig1BluePrefix, 0),
		SrcPort: 1, DstPort: 8080, Proto: 6,
	}
	for _, viewers := range []int{1000, 10_000, 100_000} {
		viewers := viewers
		b.Run(fmt.Sprintf("viewers=%d/join", viewers), func(b *testing.B) {
			net, sched, s, _ := buildNet(viewers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := net.AddFlow(s, greedyKey, 0)
				sched.RunUntil(sched.Now()) // fire the recompute: incremental reshare
				net.RemoveFlow(id)
				sched.RunUntil(sched.Now())
			}
			b.StopTimer()
			if st := net.Stats(); st.ReshareIncremental == 0 {
				b.Fatal("join churn never ran incrementally")
			}
		})
		b.Run(fmt.Sprintf("viewers=%d/full", viewers), func(b *testing.B) {
			net, sched, s, ts := buildNet(viewers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.SetTable(s, ts) // invalidate everything: per-viewer re-trace + global solve
				sched.RunUntil(sched.Now())
			}
		})
	}

	// Parallel component path: 8 disjoint diamonds, 100k viewers total,
	// ~250 distinct rate classes per diamond (so each component's
	// progressive filling runs hundreds of freeze rounds — the work the
	// pool amortises). One churn flow joins and leaves per diamond per op:
	// the dirty closure splits into 8 independent components, which the
	// reshare fans across the worker pool. The rates, the partition, and
	// the component count are identical at every width; only wall-clock
	// changes, and the committed baseline records the workers=4-vs-1 gap
	// the CI bench gate protects.
	const diamonds = 8
	buildMulti := func() (*netsim.Network, *event.Scheduler, []topo.NodeID, []fib.FlowKey) {
		const viewers = 100_000
		tp := topo.New()
		sched := event.NewScheduler()
		type diamond struct {
			s   topo.NodeID
			pfx netip.Prefix
		}
		var ds []diamond
		var tables []func(*netsim.Network)
		for di := 0; di < diamonds; di++ {
			s := tp.AddNode(fmt.Sprintf("s%d", di))
			u := tp.AddNode(fmt.Sprintf("u%d", di))
			v := tp.AddNode(fmt.Sprintf("v%d", di))
			d := tp.AddNode(fmt.Sprintf("d%d", di))
			lsu, _ := tp.AddLink(s, u, 1, topo.LinkOpts{Capacity: 10e9})
			lsv, _ := tp.AddLink(s, v, 1, topo.LinkOpts{Capacity: 10e9})
			lud, _ := tp.AddLink(u, d, 1, topo.LinkOpts{Capacity: 10e9})
			lvd, _ := tp.AddLink(v, d, 1, topo.LinkOpts{Capacity: 10e9})
			pfx := netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", 100+di))
			tp.AddPrefix(pfx, fmt.Sprintf("crowd%d", di), topo.Attachment{Node: d})
			ds = append(ds, diamond{s: s, pfx: pfx})
			tables = append(tables, func(net *netsim.Network) {
				ts := fib.NewTable(s)
				tu := fib.NewTable(u)
				tv := fib.NewTable(v)
				td := fib.NewTable(d)
				for _, err := range []error{
					ts.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{
						{Node: u, Link: lsu, Weight: 1}, {Node: v, Link: lsv, Weight: 1}}}),
					tu.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: d, Link: lud, Weight: 1}}}),
					tv.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: d, Link: lvd, Weight: 1}}}),
					td.Install(fib.Route{Prefix: pfx, Local: true}),
				} {
					if err != nil {
						b.Fatal(err)
					}
				}
				net.SetTable(s, ts)
				net.SetTable(u, tu)
				net.SetTable(v, tv)
				net.SetTable(d, td)
			})
		}
		net := netsim.New(tp, sched, time.Second)
		net.DropSeries = true
		for _, install := range tables {
			install(net)
		}
		perDiamond := viewers / diamonds
		base := 1.7 * 10e9 / float64(perDiamond)
		ingresses := make([]topo.NodeID, diamonds)
		churnKeys := make([]fib.FlowKey, diamonds)
		for di, dm := range ds {
			ingresses[di] = dm.s
			churnKeys[di] = fib.FlowKey{
				Src: ospf.Loopback(dm.s), Dst: ospf.HostAddr(dm.pfx, 0),
				SrcPort: 1, DstPort: 8080, Proto: 6,
			}
			for i := 0; i < perDiamond; i++ {
				key := fib.FlowKey{
					Src:     ospf.Loopback(dm.s),
					Dst:     ospf.HostAddr(dm.pfx, i+1),
					SrcPort: uint16(10000 + i%50000), DstPort: 8080, Proto: 6,
				}
				// ~250 rate classes straddling the fair share.
				net.AddFlow(dm.s, key, base*(0.5+float64(i%250)/125))
			}
		}
		sched.RunUntil(time.Second)
		return net, sched, ingresses, churnKeys
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("viewers=100000/components/workers=%d", workers), func(b *testing.B) {
			net, sched, ingresses, churnKeys := buildMulti()
			sched.SetWorkers(workers)
			// One untimed warm-up churn cycle, then retire the setup
			// garbage (100k flow inserts): with -benchtime 1x a GC
			// assist landing inside the single timed op would swamp the
			// reshare being measured.
			churn := func() {
				ids := make([]netsim.FlowID, diamonds)
				for di := range ingresses {
					ids[di] = net.AddFlow(ingresses[di], churnKeys[di], 0)
				}
				sched.RunUntil(sched.Now()) // one recompute: 8 dirty components
				for _, id := range ids {
					net.RemoveFlow(id)
				}
				sched.RunUntil(sched.Now())
			}
			churn()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churn()
			}
			b.StopTimer()
			st := net.Stats()
			if st.ReshareIncremental == 0 {
				b.Fatal("component churn never ran incrementally")
			}
			if st.ReshareComponents < uint64(diamonds) {
				b.Fatalf("components = %d, want >= %d per solve", st.ReshareComponents, diamonds)
			}
		})
	}
}

// --- Planner benchmarks -------------------------------------------------

// BenchmarkPlanner times the controller's strategy fan-out: all stock
// strategies proposing concurrently plus scoring, on the paper's gadget
// and a fat-tree fabric. This is the per-alarm control-loop cost.
func BenchmarkPlanner(b *testing.B) {
	type plannerCase struct {
		name    string
		tp      *topo.Topology
		demands []topo.Demand
	}
	fig1 := topo.Fig1(topo.Fig1Opts{})
	ft := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 1})
	cases := []plannerCase{
		{"fig1", fig1, topo.Fig1Demands(fig1, 15.5e6)},
		{"fattree4", ft, topo.RandomDemands(ft, 4, 3e6, 9e6, 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			loads, err := te.IGPLoads(tc.tp, tc.demands)
			if err != nil {
				b.Fatal(err)
			}
			alarm, ok := controller.HottestLinkAlarm(tc.tp, loads)
			if !ok {
				b.Fatal("no capacitated link")
			}
			ctx := controller.AnalyticPlanContext(tc.tp, tc.demands, nil,
				controller.AlarmEvent(alarm), controller.Config{})
			planner := controller.NewPlanner()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, errs := planner.Plan(ctx); len(errs) > 0 {
					b.Fatal(errs)
				}
			}
		})
	}
}

// BenchmarkPlannerGbit times the strategy fan-out at production traffic
// magnitudes — Abilene at 1 Gbit/s and 10 Gbit/s uniform capacity with
// proportional demands. Before the planner numerics went scale-invariant
// this configuration was the ROADMAP ceiling (alarms fired, no plan was
// admissible), so each iteration also asserts that a plan commits: the
// benchmark doubles as a perf gate and a regression tripwire.
func BenchmarkPlannerGbit(b *testing.B) {
	for _, capacity := range []float64{1e9, 10e9} {
		capacity := capacity
		b.Run(topo.FormatBits(capacity), func(b *testing.B) {
			tp := topo.Abilene(capacity, time.Millisecond)
			demands := []topo.Demand{
				{Ingress: tp.MustNode("Seattle"), PrefixName: "cdn-east", Volume: 0.9 * capacity},
				{Ingress: tp.MustNode("LosAngeles"), PrefixName: "cdn-east", Volume: 0.6 * capacity},
				{Ingress: tp.MustNode("Chicago"), PrefixName: "cdn-west", Volume: 0.7 * capacity},
			}
			loads, err := te.IGPLoads(tp, demands)
			if err != nil {
				b.Fatal(err)
			}
			alarm, ok := controller.HottestLinkAlarm(tp, loads)
			if !ok {
				b.Fatal("no capacitated link")
			}
			ctx := controller.AnalyticPlanContext(tp, demands, nil,
				controller.AlarmEvent(alarm), controller.Config{})
			planner := controller.NewPlanner()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, errs := planner.Plan(ctx)
				if len(errs) > 0 {
					b.Fatal(errs)
				}
				if plan == nil {
					b.Fatal("no plan commits at Gbit scale (numerics regression)")
				}
			}
		})
	}
}

// BenchmarkPlannerRepeat measures the planner's repeat-invocation path —
// the shape of a standby recompute storm or an alarm train: the same
// topology and demand set planned over and over. "cold" rebuilds the
// artifact cache every invocation (the pre-amortisation behaviour);
// "warm" reuses one caller-owned PlanArtifacts across invocations, so
// SPF trees, K-shortest-path sets, believed-topology compilations, and
// the LP basis all carry over. The committed baseline records the gap the
// CI bench gate protects (the acceptance bar is >= 3x warm over cold).
// "warm-qoe" is the warm path with QoE scoring switched on — the stall
// predictor consulted per candidate plus the qoe-greedy strategy in the
// fan-out — and its baseline must stay within 10% of plain warm: on hits
// the QoE memo reduces scoring to one cache lookup per candidate, so
// QoE-aware planning rides the amortisation layer nearly for free.
func BenchmarkPlannerRepeat(b *testing.B) {
	tp := topo.Abilene(1e9, time.Millisecond)
	demands := []topo.Demand{
		{Ingress: tp.MustNode("Seattle"), PrefixName: "cdn-east", Volume: 0.9e9},
		{Ingress: tp.MustNode("LosAngeles"), PrefixName: "cdn-east", Volume: 0.6e9},
		{Ingress: tp.MustNode("Chicago"), PrefixName: "cdn-west", Volume: 0.7e9},
	}
	loads, err := te.IGPLoads(tp, demands)
	if err != nil {
		b.Fatal(err)
	}
	alarm, ok := controller.HottestLinkAlarm(tp, loads)
	if !ok {
		b.Fatal("no capacitated link")
	}
	ev := controller.AlarmEvent(alarm)

	b.Run("cold", func(b *testing.B) {
		planner := controller.NewPlanner()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := controller.AnalyticPlanContext(tp, demands, nil, ev, controller.Config{})
			if plan, errs := planner.Plan(ctx); len(errs) > 0 || plan == nil {
				b.Fatalf("plan=%v errs=%v", plan, errs)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		planner := controller.NewPlanner()
		arts := controller.NewPlanArtifacts(tp)
		// Pay the fill outside the timed region: the benchmark measures the
		// second-and-later invocation at unchanged generations.
		ctx := controller.AnalyticPlanContextCached(arts, tp, demands, nil, ev, controller.Config{})
		if plan, errs := planner.Plan(ctx); len(errs) > 0 || plan == nil {
			b.Fatalf("warm-up plan=%v errs=%v", plan, errs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := controller.AnalyticPlanContextCached(arts, tp, demands, nil, ev, controller.Config{})
			if plan, errs := planner.Plan(ctx); len(errs) > 0 || plan == nil {
				b.Fatalf("plan=%v errs=%v", plan, errs)
			}
		}
		b.StopTimer()
		st := arts.Stats()
		if st.Hits == 0 {
			b.Fatal("warm path never hit the artifact cache")
		}
	})
	b.Run("warm-qoe", func(b *testing.B) {
		planner := controller.NewPlanner()
		arts := controller.NewPlanArtifacts(tp)
		model := qoe.Model{Members: map[string]map[topo.NodeID]int{
			"cdn-east": {tp.MustNode("Seattle"): 600, tp.MustNode("LosAngeles"): 400},
			"cdn-west": {tp.MustNode("Chicago"): 500},
		}}
		cfg := controller.Config{ScoreMode: controller.ScoreQoE}
		ctx := controller.AnalyticPlanContextCached(arts, tp, demands, nil, ev, cfg).WithQoE(model)
		if plan, errs := planner.Plan(ctx); len(errs) > 0 || plan == nil {
			b.Fatalf("warm-up plan=%v errs=%v", plan, errs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := controller.AnalyticPlanContextCached(arts, tp, demands, nil, ev, cfg).WithQoE(model)
			if plan, errs := planner.Plan(ctx); len(errs) > 0 || plan == nil {
				b.Fatalf("plan=%v errs=%v", plan, errs)
			}
		}
		b.StopTimer()
		if st := arts.Stats(); st.QoEHits == 0 {
			b.Fatal("warm-qoe path never hit the QoE memo")
		}
	})
}

// --- Scenario-matrix benchmarks -----------------------------------------

// BenchmarkScenarioCell runs one representative matrix cell end to end,
// both controller modes: the cost of a single stress-harness cell.
func BenchmarkScenarioCell(b *testing.B) {
	spec, ok := scenarios.SpecByName("ring/surge")
	if !ok {
		b.Fatal("ring/surge not in matrix")
	}
	suite := scenarios.MatrixSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Compare(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioScaling sweeps the harness across topology sizes: the
// cost trajectory every scaling PR must not regress.
func BenchmarkScenarioScaling(b *testing.B) {
	cases := []scenarios.TopoSpec{
		{Family: "waxman", Size: 12, Seed: 13},
		{Family: "waxman", Size: 16, Seed: 13},
		{Family: "waxman", Size: 24, Seed: 13},
		{Family: "fattree", Size: 4, Seed: 2},
		{Family: "ring", Size: 16},
	}
	for _, ts := range cases {
		ts := ts
		b.Run(fmt.Sprintf("%s-%d", ts.Family, ts.Size), func(b *testing.B) {
			spec := scenarios.Spec{Topo: ts, Workload: "surge", Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := scenarios.Run(spec, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioMatrix runs the entire matrix serially: the full
// stress-harness wall-clock cost.
func BenchmarkScenarioMatrix(b *testing.B) {
	suite := scenarios.MatrixSuite()
	for i := 0; i < b.N; i++ {
		for _, spec := range suite.Specs {
			cmp, err := suite.Compare(spec)
			if err != nil {
				b.Fatal(err)
			}
			if len(cmp.Violations) > 0 {
				b.Fatalf("%s: %v", spec.Name, cmp.Violations)
			}
		}
	}
}

// churnBench is a converged IGP domain cached for the parallel-core
// benchmarks: cold-converging the big fabrics costs tens of seconds (the
// initial LSDB flood), so it is paid once per process and shared across
// -count repeats and worker modes. step() flips one core link's weight
// and re-converges, then restores it — the batch-tick workload the
// parallel core targets: the change floods (serial packet events), then
// every router's debounced SPF recompute lands at the same instants and
// fans out across the pool. The flip-and-restore leaves the domain in its
// converged state, which is what makes the cache sound; SetWorkers
// switches modes on the live scheduler between subcases. Output is
// byte-identical at any width (TestParallelCoreDeterminism pins this);
// only wall-clock and allocs change.
type churnBench struct {
	sched *event.Scheduler
	dom   *ospf.Domain
	link  topo.Link
}

var churnCache = map[string]*churnBench{}

func churnDomain(b *testing.B, name string, build func() *topo.Topology) *churnBench {
	b.Helper()
	if c, ok := churnCache[name]; ok {
		return c
	}
	tp := build()
	sched := event.NewScheduler()
	dom := ospf.NewDomain(tp, sched, ospf.Config{})
	dom.Start()
	if _, err := dom.RunUntilConverged(time.Minute); err != nil {
		b.Fatal(err)
	}
	c := &churnBench{sched: sched, dom: dom}
	for _, l := range tp.Links() {
		if !tp.Node(l.From).Host && !tp.Node(l.To).Host {
			c.link = l
			break
		}
	}
	churnCache[name] = c
	return c
}

func (c *churnBench) step(b *testing.B) {
	b.Helper()
	for _, w := range [2]int64{c.link.Weight + 1, c.link.Weight} {
		if err := c.dom.SetLinkWeight(c.link.From, c.link.To, w); err != nil {
			b.Fatal(err)
		}
		if _, err := c.dom.RunUntilConverged(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	if errs := c.dom.Errors; len(errs) > 0 {
		b.Fatalf("protocol errors: %v", errs)
	}
}

// runChurn runs the weight-churn op under both pool widths: "seq" pins
// Workers=1 (the pure sequential core), "par" uses GOMAXPROCS.
func runChurn(b *testing.B, name string, build func() *topo.Topology) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			c := churnDomain(b, name, build)
			c.sched.SetWorkers(mode.workers)
			c.step(b) // warm the scratch pools and flood-buffer freelist
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step(b)
			}
			b.StopTimer()
			if par := c.sched.Parallel(); mode.workers != 1 && par.Workers > 1 && par.Batches == 0 {
				b.Fatal("pool enabled but no parallel batch executed")
			}
		})
	}
}

// BenchmarkParallelSPF measures the worker pool on the control plane
// alone, at CI-friendly size: a converged fat-tree k=8 fabric (80
// switches + 128 hosts) has one core link's weight flipped and restored
// per op, debouncing an SPF recompute on every switch.
func BenchmarkParallelSPF(b *testing.B) {
	runChurn(b, "fattree8", func() *topo.Topology {
		return topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	})
}

// BenchmarkScaleTier is the million-viewer tier's control-plane cost
// probe: the fat-tree k=16 fabric of the fattree16-1m scale cell (320
// switches + 1024 hosts at 10 Gbit/s), weight-churned like
// BenchmarkParallelSPF. Per op, 320 debounced SPF recomputes over the
// 1344-node graph ride the batch path — the dominant cost of the
// million-viewer runs, and the op the multi-core speedup bar is measured
// on (the par/seq ns/op ratio in BENCH_baseline.json; >= 2x expected at
// GOMAXPROCS >= 4, ~1x when the pool has one core to run on).
func BenchmarkScaleTier(b *testing.B) {
	runChurn(b, "fattree16", func() *topo.Topology {
		return topo.FatTree(topo.FatTreeOpts{K: 16, Capacity: 10e9, MaxWeight: 3, Seed: 2})
	})
}
