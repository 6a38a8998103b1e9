package controller

import (
	"fmt"
	"math"
	"strings"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
)

// ScoreMode selects what the planner optimises when scoring admissible
// plans. The zero value is the historical behaviour (max utilisation),
// so existing configurations are unchanged.
type ScoreMode int

const (
	// ScoreUtil scores plans on predicted max link utilisation alone
	// (the original planner order: target satisfaction, lie cost,
	// predicted utilisation).
	ScoreUtil ScoreMode = iota
	// ScoreQoE scores plans on predicted viewer pain first: fewer
	// stall-seconds beat a cooler link. Admissibility is restated in QoE
	// terms — a plan may exceed the utilisation target only if its
	// predicted stall-seconds strictly improve on the no-op plan.
	ScoreQoE
)

// String returns the flag-format name ("util" or "qoe").
func (m ScoreMode) String() string {
	if m == ScoreQoE {
		return "qoe"
	}
	return "util"
}

// ParseScoreMode resolves the flag-format name, case-insensitively.
// Empty means ScoreUtil.
func ParseScoreMode(s string) (ScoreMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "util", "utilisation", "utilization":
		return ScoreUtil, nil
	case "qoe":
		return ScoreQoE, nil
	}
	return ScoreUtil, fmt.Errorf("controller: unknown score mode %q (want util or qoe)", s)
}

// WithQoE equips a context with the viewer model: it installs the
// memoised stall predictor (the QoE sibling of Evaluate) and the no-op
// plan's baseline score the admissibility restatement compares against.
// Call it after buildPlanContext, before planning; contexts without it
// plan exactly as before (qoe-greedy abstains, scoring falls back to
// utilisation terms). The predictor has Evaluate's overlay semantics
// and is memoised on the merged lie set; the model's part of the memo
// key is encoded once here, since it never changes within one context.
func (ctx PlanContext) WithQoE(model qoe.Model) PlanContext {
	var sb strings.Builder
	encodeModel(&sb, model)
	modelKey, arts, installed, demands := sb.String(), ctx.Artifacts, ctx.Installed, ctx.Demands
	ctx.QoEModel, ctx.qoeModelKey = model, modelKey
	ctx.PredictQoE = func(overlay map[string][]fibbing.Lie) (qoe.PlanQoE, error) {
		return arts.predictQoE(modelKey, overlaid(installed, overlay), demands, model)
	}
	if len(ctx.Demands) == 0 {
		return ctx
	}
	if q, err := ctx.PredictQoE(nil); err == nil {
		ctx.BaseStall = q.Score()
	} else {
		ctx.BaseStall = math.Inf(1)
	}
	return ctx
}
