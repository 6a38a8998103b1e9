package controller

// The planner's amortisation layer. Every strategy in a ProposeAll
// fan-out — and every successive planner invocation between state
// changes — used to recompute the same expensive inputs from scratch:
// per-source SPF trees, Yen k-shortest-path sets, the believed-topology
// compilation (fibbing.Evaluate: one reverse SPF per prefix), and the
// fluid load estimates behind PlanContext.Evaluate. PlanArtifacts
// memoises all of them, keyed by value-complete cache keys (topology
// binding by pointer, lie sets and demand volumes encoded into the key),
// so a stale entry is impossible by construction; the controller
// additionally drops the whole cache whenever its generation triple
// (topology gen, demand gen, lie gen — the same triple the standby cache
// tracks) moves, which bounds memory to one planning epoch.
//
// Every table is a singleflight memo, which makes hit/miss accounting
// deterministic under concurrency: the first lookup of a key counts the
// miss and computes it outside the lock, and every other lookup —
// including one that arrives while that computation is still in flight —
// counts a hit and waits for the result. Each key is computed exactly
// once, so the nested lookups a computation makes are counted once too,
// and the counters are byte-identical across scheduler worker widths and
// safe to publish in scenario Reports.

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// ArtifactStats counts PlanArtifacts cache traffic. Hits and Misses are
// deterministic for a given event sequence (see the package comment on
// in-flight accounting), so they appear in scenario Reports unscrubbed.
type ArtifactStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// QoEHits/QoEMisses count the QoE-prediction memo separately from the
	// routing artifacts: the predictor is consulted once per candidate
	// overlay per planning round, so its hit rate measures how much the
	// QoE scoring path amortises, independent of the SPF/load caches.
	QoEHits   uint64 `json:"qoe_hits"`
	QoEMisses uint64 `json:"qoe_misses"`
}

// tally selects the ArtifactStats counter pair a memo charges.
type tally int

const (
	planTally tally = iota // Hits/Misses
	qoeTally               // QoEHits/QoEMisses
)

// memo is one singleflight table of PlanArtifacts. The zero value is
// empty and ready to use; the owning PlanArtifacts' mutex guards it.
type memo[K comparable, V any] struct {
	m map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // closed once v is set
	v    V
}

// get returns the value for key, computing it with compute on first use
// (see the package comment for the accounting rule). compute runs
// outside the lock and must not look up the same memo.
func (m *memo[K, V]) get(a *PlanArtifacts, t tally, key K, compute func() V) V {
	a.mu.Lock()
	e, hit := m.m[key]
	if !hit {
		if m.m == nil {
			m.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{done: make(chan struct{})}
		m.m[key] = e
	}
	a.stats.count(t, hit)
	a.mu.Unlock()
	if hit {
		<-e.done
		return e.v
	}
	defer close(e.done)
	e.v = compute()
	return e.v
}

func (s *ArtifactStats) count(t tally, hit bool) {
	switch {
	case t == qoeTally && hit:
		s.QoEHits++
	case t == qoeTally:
		s.QoEMisses++
	case hit:
		s.Hits++
	default:
		s.Misses++
	}
}

// graphEntry is the memoised spf.Graph and host-skip of the topology.
type graphEntry struct {
	g    *spf.Graph
	skip func(topo.NodeID) bool
}

// viewsEntry caches one fibbing.Evaluate outcome (errors included, so a
// failing prefix does not re-run the per-router SPF sweep every retry).
type viewsEntry struct {
	views map[topo.NodeID]fibbing.RouteView
	err   error
}

// loadsEntry caches one fluid routing of a full lie set: the per-link
// loads and the max utilisation derived from them.
type loadsEntry struct {
	loads map[topo.LinkID]float64
	util  float64
	err   error
}

type minmaxEntry struct {
	res *te.MinMaxResult
	err error
}

// augEntry caches one compileDAG outcome: the verified augmentation (or
// the compile/verify error) for a requirement DAG on one prefix.
type augEntry struct {
	aug    *fibbing.Augmentation
	pinned bool
	err    error
}

// qoeEntry caches one plan-level QoE prediction.
type qoeEntry struct {
	q   qoe.PlanQoE
	err error
}

// qoePropEntry caches one qoe-greedy descent outcome: the chosen overlay
// (nil = the strategy abstained) and its predicted stall score. Shared —
// the overlay map and lie lists are read-only, like every cached value.
type qoePropEntry struct {
	overlay map[string][]fibbing.Lie
	score   float64
}

// PlanArtifacts memoises the expensive planner inputs for one topology.
// It is safe for concurrent use (the strategy fan-out shares one
// instance); computations run outside the lock, so concurrent strategies
// never serialise on each other's cache fills. Cached values are shared —
// callers must treat returned trees, paths, views and load maps as
// read-only.
type PlanArtifacts struct {
	mu    sync.Mutex
	topo  *topo.Topology
	graph memo[struct{}, graphEntry]
	trees memo[topo.NodeID, *spf.Tree]
	ksp   memo[string, [][]topo.NodeID]
	views memo[string, viewsEntry]
	loads memo[string, loadsEntry]
	mmx   memo[string, minmaxEntry]
	augs  memo[string, augEntry]
	qoe   memo[string, qoeEntry]
	cands memo[string, [][]fibbing.Lie]
	props memo[string, qoePropEntry]

	// lp and stats are shared across cache generations (and with the
	// ephemeral failover artifacts): the warm-start basis must survive a
	// demand-gen reset — volume-only changes are exactly the warm case —
	// and the counters are cumulative per controller.
	lp    *te.MinMaxSolver
	stats *ArtifactStats
}

// NewPlanArtifacts returns an empty cache bound to t, with fresh stats
// and a fresh warm-LP solver.
func NewPlanArtifacts(t *topo.Topology) *PlanArtifacts {
	return newPlanArtifacts(t, &ArtifactStats{}, te.NewMinMaxSolver())
}

func newPlanArtifacts(t *topo.Topology, stats *ArtifactStats, lp *te.MinMaxSolver) *PlanArtifacts {
	if lp == nil {
		lp = te.NewMinMaxSolver()
	}
	return &PlanArtifacts{topo: t, lp: lp, stats: stats}
}

// Topology returns the topology this cache is bound to.
func (a *PlanArtifacts) Topology() *topo.Topology { return a.topo }

// Stats snapshots the cumulative hit/miss counters.
func (a *PlanArtifacts) Stats() ArtifactStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return *a.stats
}

// LPStats snapshots the warm-LP solver's counters.
func (a *PlanArtifacts) LPStats() te.WarmLPStats { return a.lp.Stats() }

// Graph returns the memoised spf.Graph and host-skip for the bound
// topology.
func (a *PlanArtifacts) Graph() (*spf.Graph, func(topo.NodeID) bool) {
	e := a.graph.get(a, planTally, struct{}{}, func() graphEntry {
		return graphEntry{g: spf.FromTopology(a.topo), skip: spf.HostSkip(a.topo)}
	})
	return e.g, e.skip
}

// Tree returns the memoised SPF tree rooted at src.
func (a *PlanArtifacts) Tree(src topo.NodeID) *spf.Tree {
	return a.trees.get(a, planTally, src, func() *spf.Tree {
		g, skip := a.Graph()
		return spf.Compute(g, src, skip)
	})
}

// KShortest returns the memoised Yen k-shortest-path set.
func (a *PlanArtifacts) KShortest(src, dst topo.NodeID, k, spurLimit int) [][]topo.NodeID {
	key := strconv.FormatInt(int64(src), 10) + "|" + strconv.FormatInt(int64(dst), 10) +
		"|" + strconv.Itoa(k) + "|" + strconv.Itoa(spurLimit)
	return a.ksp.get(a, planTally, key, func() [][]topo.NodeID {
		g, skip := a.Graph()
		return spf.KShortestSpurLimit(g, src, dst, k, spurLimit, skip)
	})
}

// Views returns the memoised believed-topology compilation for one
// prefix under the given lie set (nil lies = the plain IGP view). This is
// the planner's most frequent repeated cost: fibbing.Evaluate runs one
// reverse SPF from the prefix plus a scan of every router's links.
func (a *PlanArtifacts) Views(prefix string, lies []fibbing.Lie) (map[topo.NodeID]fibbing.RouteView, error) {
	var sb strings.Builder
	sb.WriteString(prefix)
	encodeLies(&sb, lies)
	e := a.views.get(a, planTally, sb.String(), func() viewsEntry {
		views, err := fibbing.Evaluate(a.topo, prefix, lies)
		return viewsEntry{views: views, err: err}
	})
	return e.views, e.err
}

// viewsFor collects the memoised views of every demanded prefix under
// the full lie set, keyed by prefix name.
func (a *PlanArtifacts) viewsFor(lies map[string][]fibbing.Lie, demands []topo.Demand) (map[string]map[topo.NodeID]fibbing.RouteView, error) {
	views := make(map[string]map[topo.NodeID]fibbing.RouteView)
	for _, d := range demands {
		if _, ok := views[d.PrefixName]; ok {
			continue
		}
		v, err := a.Views(d.PrefixName, lies[d.PrefixName])
		if err != nil {
			return nil, err
		}
		views[d.PrefixName] = v
	}
	return views, nil
}

// MaxUtil routes demands over the full lie set (all prefixes, merged)
// with the fluid model and returns the max link utilisation, memoised on
// the (lies, demands) value. The per-prefix views inside the routing go
// through Views, so two lie sets differing in one prefix share the other
// prefixes' compilations.
func (a *PlanArtifacts) MaxUtil(lies map[string][]fibbing.Lie, demands []topo.Demand) (float64, error) {
	e := a.loadsFor(lies, demands)
	return e.util, e.err
}

// Loads is MaxUtil's sibling returning the per-link load map itself
// (read-only; shared with the cache).
func (a *PlanArtifacts) Loads(lies map[string][]fibbing.Lie, demands []topo.Demand) (map[topo.LinkID]float64, error) {
	e := a.loadsFor(lies, demands)
	return e.loads, e.err
}

func (a *PlanArtifacts) loadsFor(lies map[string][]fibbing.Lie, demands []topo.Demand) loadsEntry {
	return a.loads.get(a, planTally, loadsKey(lies, demands), func() loadsEntry {
		views, err := a.viewsFor(lies, demands)
		if err != nil {
			return loadsEntry{err: err}
		}
		loads, err := te.LinkLoads(a.topo, views, demands)
		if err != nil {
			return loadsEntry{err: err}
		}
		return loadsEntry{loads: loads, util: te.MaxUtilOfLoads(a.topo, loads)}
	})
}

// SolveMinMax returns the memoised min-max LP optimum for the demand
// set. A repeated demand set within one cache generation is a pure
// lookup; a changed one re-solves through the shared warm-start solver,
// which re-enters simplex from the previous basis when only volumes
// moved.
func (a *PlanArtifacts) SolveMinMax(demands []topo.Demand) (*te.MinMaxResult, error) {
	var sb strings.Builder
	encodeDemands(&sb, demands)
	e := a.mmx.get(a, planTally, sb.String(), func() minmaxEntry {
		res, err := a.lp.Solve(a.topo, demands)
		return minmaxEntry{res: res, err: err}
	})
	return e.res, e.err
}

// CompileDAG returns the memoised compileDAG outcome for a requirement
// DAG on one prefix: the add-paths-then-pin-all compilation plus the
// Verify sweep, each of which runs fibbing.Evaluate (one reverse SPF)
// internally. The KSP strategy's greedy path accumulation retries the
// same candidate DAGs on every invocation, making this the planner's
// second-largest repeated cost after the view compilations. The returned
// augmentation is shared — callers must treat it as read-only.
func (a *PlanArtifacts) CompileDAG(prefix string, dag fibbing.DAG) (*fibbing.Augmentation, bool, error) {
	var sb strings.Builder
	sb.WriteString(prefix)
	encodeDAG(&sb, dag)
	e := a.augs.get(a, planTally, sb.String(), func() augEntry {
		aug, pinned, err := compileDAG(a.topo, prefix, dag)
		return augEntry{aug: aug, pinned: pinned, err: err}
	})
	return e.aug, e.pinned, e.err
}

// predictQoE maps the full lie set and demand set to the analytic
// plan-level QoE prediction (qoe.PredictPlan over the memoised per-prefix
// views), memoised on the (lies, demands, model) value under the QoE
// counters. modelKey is encodeModel(model), hoisted out because the
// planner consults the predictor once per candidate overlay under an
// unchanging model.
func (a *PlanArtifacts) predictQoE(modelKey string, lies map[string][]fibbing.Lie, demands []topo.Demand, model qoe.Model) (qoe.PlanQoE, error) {
	key := loadsKey(lies, demands) + "!" + modelKey
	e := a.qoe.get(a, qoeTally, key, func() qoeEntry {
		views, err := a.viewsFor(lies, demands)
		if err != nil {
			return qoeEntry{err: err}
		}
		q, err := qoe.PredictPlan(a.topo, views, demands, model)
		return qoeEntry{q: q, err: err}
	})
	return e.q, e.err
}

// QoECandidates memoises the qoe-greedy strategy's per-prefix candidate
// sweep. The candidate lie sets depend only on the topology (through the
// SPF tree and attachment set), the prefix, the hot router and the path
// count — all fixed within one cache generation — while building them
// costs k DAG constructions plus k compile-memo key encodings per
// planning round. An alarm train re-planning the same hot link skips all
// of it.
func (a *PlanArtifacts) QoECandidates(prefix string, hot topo.NodeID, k int, build func() [][]fibbing.Lie) [][]fibbing.Lie {
	key := prefix + "|" + strconv.FormatInt(int64(hot), 10) + "|" + strconv.Itoa(k)
	return a.cands.get(a, planTally, key, build)
}

// qoeProposal memoises the qoe-greedy strategy's whole greedy descent
// under the QoE counters. The descent is a pure function of the
// candidate sets (topology-bound, see QoECandidates), the installed
// lies, the demand set and the viewer model — exactly what the key
// encodes — so an alarm train re-raising the same hot link replays the
// chosen overlay (or the abstention) with one lookup instead of a
// per-candidate predictor sweep.
func (a *PlanArtifacts) qoeProposal(key string, build func() qoePropEntry) qoePropEntry {
	return a.props.get(a, qoeTally, key, build)
}

// encodeModel appends a value-complete encoding of a qoe.Model: member
// counts in sorted (prefix, ingress) order, then the playback config and
// horizon (exact float bits for the ladder).
func encodeModel(sb *strings.Builder, m qoe.Model) {
	prefixes := make([]string, 0, len(m.Members))
	for name := range m.Members {
		prefixes = append(prefixes, name)
	}
	slices.Sort(prefixes)
	for _, name := range prefixes {
		sb.WriteByte('&')
		sb.WriteString(name)
		nodes := make([]topo.NodeID, 0, len(m.Members[name]))
		for n := range m.Members[name] {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		for _, n := range nodes {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatInt(int64(n), 10))
			sb.WriteByte('=')
			sb.WriteString(strconv.Itoa(m.Members[name][n]))
		}
	}
	sb.WriteByte('/')
	for _, r := range m.Session.Ladder {
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(r, 'x', -1, 64))
	}
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatInt(int64(m.Session.SegmentDuration), 10))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatFloat(m.Session.SafetyFactor, 'x', -1, 64))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatFloat(m.Session.StartupBuffer, 'x', -1, 64))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatInt(int64(m.Horizon), 10))
}

// encodeDAG appends a canonical encoding of a requirement DAG: routers in
// id order, each with its next-hop weights in id order. Weights are kept
// un-normalised — {B:1,R1:2} and {B:2,R1:4} would compile to the same
// lies, but a duplicate entry is cheaper than normalising here.
func encodeDAG(sb *strings.Builder, dag fibbing.DAG) {
	routers := make([]topo.NodeID, 0, len(dag))
	for u := range dag {
		routers = append(routers, u)
	}
	slices.Sort(routers)
	for _, u := range routers {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatInt(int64(u), 10))
		sb.WriteByte('=')
		nhs := make([]topo.NodeID, 0, len(dag[u]))
		for v := range dag[u] {
			nhs = append(nhs, v)
		}
		slices.Sort(nhs)
		for _, v := range nhs {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatInt(int64(v), 10))
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(dag[u][v]))
		}
	}
}

// encodeLies appends a value-complete encoding of one prefix's lie list.
// Lie lists are built deterministically by the compilers, so the order
// is stable and kept significant (a reordered but equal set would only
// cost a duplicate cache entry, never a wrong hit). The prefix goes in
// as raw address bytes plus mask length: Prefix.String showed up as the
// single hottest piece of the planner's warm path (keys are encoded on
// every memo hit).
func encodeLies(sb *strings.Builder, lies []fibbing.Lie) {
	for _, l := range lies {
		sb.WriteByte('|')
		addr := l.Prefix.Addr().As16()
		sb.Write(addr[:])
		sb.WriteByte(byte(l.Prefix.Bits()))
		sb.WriteByte('@')
		sb.WriteString(strconv.FormatInt(int64(l.Attach), 10))
		sb.WriteByte('>')
		sb.WriteString(strconv.FormatInt(int64(l.Via), 10))
		sb.WriteByte('$')
		sb.WriteString(strconv.FormatInt(l.Cost, 10))
	}
}

// encodeDemands appends a value-complete encoding of a demand set
// (exact float bits for the volumes).
func encodeDemands(sb *strings.Builder, demands []topo.Demand) {
	for _, d := range demands {
		sb.WriteByte(';')
		sb.WriteString(d.PrefixName)
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(int64(d.Ingress), 10))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(d.Volume, 'x', -1, 64))
	}
}

// loadsKey encodes (full lie set, demand set): prefixes in sorted order
// for a canonical map encoding.
func loadsKey(lies map[string][]fibbing.Lie, demands []topo.Demand) string {
	names := make([]string, 0, len(lies))
	for name, ls := range lies {
		if len(ls) > 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteByte('#')
		sb.WriteString(name)
		encodeLies(&sb, lies[name])
	}
	sb.WriteByte('~')
	encodeDemands(&sb, demands)
	return sb.String()
}
