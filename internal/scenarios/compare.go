package scenarios

// The comparison harness. Every claim the scenarios check is a
// comparison: the same spec run several ways — controller on and off,
// fast and slow failure detection, one scoring objective against
// another — and judged by invariants over the runs together. A Suite is
// one such comparison as data: its cells, its variants and its
// invariants.

import (
	"fmt"
	"strings"
)

// Variant is one way of running a comparison cell.
type Variant struct {
	// Name labels the run in Runs and in the rendered output.
	Name string
	// Ctrl switches the Fibbing controller on.
	Ctrl bool
	// Edit, when set, derives the run's spec from the cell's.
	Edit func(Spec) Spec
}

// Runs maps a cell's variant names to their reports.
type Runs map[string]*Report

// Invariant checks one property of a cell's runs and returns
// human-readable violations (empty means the property holds).
type Invariant func(spec Spec, runs Runs) []string

// Suite is a family of comparison cells checked alike: each spec runs
// once per variant and every invariant judges the runs together. The
// first variant is the run the suite's claim is about.
type Suite struct {
	Specs      []Spec
	Variants   []Variant
	Invariants []Invariant
	// Summary renders one run's line; nil uses (*Report).Summary.
	Summary func(*Report) string
}

// Comparison is the outcome of one cell: its runs and the invariant
// violations found between them.
type Comparison struct {
	Spec       Spec     `json:"spec"`
	Runs       Runs     `json:"runs"`
	Violations []string `json:"violations,omitempty"`
}

// Compare runs spec once per variant of the suite and checks the suite's
// invariants over the runs.
func (s Suite) Compare(spec Spec) (*Comparison, error) {
	spec = spec.withDefaults()
	c := &Comparison{Spec: spec, Runs: make(Runs, len(s.Variants))}
	for _, v := range s.Variants {
		vs := spec
		if v.Edit != nil {
			vs = v.Edit(spec)
		}
		rep, err := Run(vs, v.Ctrl)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", v.Name, err)
		}
		c.Runs[v.Name] = rep
	}
	for _, inv := range s.Invariants {
		c.Violations = append(c.Violations, inv(spec, c.Runs)...)
	}
	return c, nil
}

// Render writes a comparison as an indented human-readable block: the
// cell name, one summary line per run in variant order, then the
// violations.
func (s Suite) Render(b *strings.Builder, c *Comparison) {
	summary := s.Summary
	if summary == nil {
		summary = (*Report).Summary
	}
	b.WriteString(c.Spec.Name + "\n")
	for _, v := range s.Variants {
		b.WriteString("  " + summary(c.Runs[v.Name]) + "\n")
	}
	for _, v := range c.Violations {
		b.WriteString("  VIOLATION: " + v + "\n")
	}
}
