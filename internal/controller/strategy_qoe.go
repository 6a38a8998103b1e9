package controller

import (
	"fmt"
	"math"
	"strconv"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// QoEGreedyStrategy places viewer crowds for minimum predicted pain: per
// prefix it enumerates detour candidates — keep the installed routing,
// each of K loopless shortest paths from the hot router, and their
// cumulative unions (splitting the crowd over several paths at once) —
// and greedily keeps whichever the stall predictor scores best. Unlike
// the utilisation strategies it will accept a hotter link when that
// concentrates the shortfall on fewer (or fatter) sessions: under
// max-min fair sharing, moving a thin crowd onto a shared path can
// protect every thin session at the cost of the fat ones, a trade
// invisible to max-utilisation scoring. It abstains without a QoE
// predictor (utilisation scoring) and when no candidate strictly
// improves the no-op plan's predicted stall score.
type QoEGreedyStrategy struct {
	// K is the number of loopless paths to consider per prefix
	// (default 3).
	K int
}

// Name implements Strategy.
func (QoEGreedyStrategy) Name() string { return "qoe-greedy" }

// Propose implements Strategy.
func (s QoEGreedyStrategy) Propose(ctx PlanContext) (*Plan, error) {
	if ctx.Event.Kind != EventAlarmRaised || ctx.PredictQoE == nil || len(ctx.Demands) == 0 {
		return nil, nil
	}
	k := s.K
	if k <= 0 {
		k = 3
	}
	hot := ctx.Topo.Link(ctx.Event.Alarm.Link).From

	// The whole descent is a pure function of (topology, hot, k,
	// installed lies, demands, viewer model): on an alarm train
	// re-raising the same hot link, replay the outcome from the artifact
	// cache instead of re-sweeping the candidates.
	key := strconv.FormatInt(int64(hot), 10) + "|" + strconv.Itoa(k) + "|" +
		loadsKey(ctx.Installed, ctx.Demands) + "!" + ctx.qoeModelKey
	e := ctx.Artifacts.qoeProposal(key, func() qoePropEntry { return s.descend(ctx, hot, k) })
	if e.overlay == nil {
		return nil, nil // nothing strictly improves the no-op plan
	}
	util, err := ctx.Evaluate(e.overlay)
	if err != nil {
		return nil, fmt.Errorf("qoe-greedy: %w", err)
	}
	improve := 0.0
	if !math.IsInf(ctx.BaseStall, 1) {
		improve = ctx.BaseStall - e.score
	}
	return &Plan{
		Strategy:      s.Name(),
		Lies:          e.overlay,
		PredictedUtil: util,
		Rationale: fmt.Sprintf("predicted stall score %.1fs (-%.1fs) after %s hit %.0f%%",
			e.score, improve, ctx.Event.Alarm.Name, 100*ctx.Event.Alarm.Utilisation),
	}, nil
}

// descend runs the greedy per-prefix descent: overlay accumulates the
// choices made so far, and each prefix keeps whichever candidate
// minimises the combined predicted pain given the earlier choices.
// Prefixes is sorted, so the descent order is deterministic. A nil
// overlay in the returned entry means abstain.
func (s QoEGreedyStrategy) descend(ctx PlanContext, hot topo.NodeID, k int) qoePropEntry {
	tree := ctx.SPFTree(hot)
	overlay := make(map[string][]fibbing.Lie)
	bestScore := ctx.BaseStall
	for _, prefix := range ctx.Prefixes {
		var bestLies []fibbing.Lie
		// The sweep depends only on (topology, prefix, hot, k): an alarm
		// train re-planning the same hot link reuses the compiled lie sets
		// without rebuilding or re-keying the candidate DAGs.
		cands := ctx.Artifacts.QoECandidates(prefix, hot, k, func() [][]fibbing.Lie {
			return s.candidates(ctx, prefix, hot, tree, k)
		})
		for _, lies := range cands {
			overlay[prefix] = lies
			q, err := ctx.PredictQoE(overlay)
			if err != nil {
				continue
			}
			if score := q.Score(); score < bestScore-utilEps(score, bestScore) {
				bestScore, bestLies = score, lies
			}
		}
		if bestLies != nil {
			overlay[prefix] = bestLies
		} else {
			delete(overlay, prefix)
		}
	}
	if len(overlay) == 0 {
		return qoePropEntry{}
	}
	return qoePropEntry{overlay: overlay, score: bestScore}
}

// candidates builds one prefix's compiled lie-set candidates: each of
// the k loopless shortest paths from the hot router to the prefix's
// nearest attachment alone, plus their cumulative unions (path 1, paths
// 1+2, paths 1+2+3, ...) — the unions are what split a crowd across
// disjoint detours, the single paths what moves it wholesale. Candidates
// that fail to compile or verify are dropped.
func (s QoEGreedyStrategy) candidates(ctx PlanContext, prefix string, hot topo.NodeID, tree *spf.Tree, k int) [][]fibbing.Lie {
	p, ok := ctx.Topo.PrefixByName(prefix)
	if !ok {
		return nil
	}
	dst, ok := nearestAttachment(tree, p)
	if !ok || dst == hot {
		return nil
	}
	paths := ctx.KShortestPaths(hot, dst, k, 8)
	if len(paths) == 0 {
		return nil
	}
	var out [][]fibbing.Lie
	add := func(dag fibbing.DAG) {
		aug, _, err := ctx.CompileDAG(prefix, normalizeDAG(dag))
		if err == nil {
			out = append(out, aug.Lies)
		}
	}
	// Single paths (wholesale moves).
	for _, path := range paths {
		add(addPathToDAG(nil, path))
	}
	// Cumulative unions (splits), starting from two paths: the one-path
	// union is the first single-path candidate.
	var union fibbing.DAG
	for i, path := range paths {
		union = addPathToDAG(union, path)
		if i > 0 {
			add(union)
		}
	}
	return out
}
