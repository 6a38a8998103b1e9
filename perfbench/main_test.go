package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/monitor"
)

// heldOutSeed is a seed no tuning run used.
const heldOutSeed = 424242

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different input sets", name)
		}
		c, err := generate(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Waves, c.Waves) {
			t.Errorf("%s: seeds 7 and 8 generated the same waves", name)
		}
		if !reflect.DeepEqual(a.Failures, c.Failures) || !reflect.DeepEqual(a.Episodes, c.Episodes) {
			t.Errorf("%s: the failure schedule or episode structure depends on the seed", name)
		}
	}
}

// TestHeldOutSeedSaturatesIGP runs each workload on a held-out seed with
// the controller off: plain IGP routing must saturate a link in every
// crowd episode and failure window, so the controller always has work
// to do. Saturated means at least 0.95: one wan-crowds ingress has two
// equal-cost paths, and ECMP hashing can leave its hotter link at 0.96.
func TestHeldOutSeedSaturatesIGP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		in, err := generate(name, heldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		tp, prefix, err := in.Topo.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, _ := tp.PrefixByName(prefix)
		sim, err := controller.NewSim(controller.SimOpts{
			Topology: tp, Prefix: prefix, AttachAt: tp.Name(p.Attachments[0].Node),
			Monitor: monitor.Config{HighThreshold: 0.85},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range in.Failures {
			sim.Sched.At(f.At, func() {
				if err := sim.SetLinkState(f.A, f.B, f.Up); err != nil {
					t.Error(err)
				}
			})
		}
		peaks := make([]float64, len(in.Episodes))
		for i, w := range in.Episodes {
			for at := w.From; at <= w.To; at += 500 * time.Millisecond {
				sim.Sched.At(at, func() { peaks[i] = max(peaks[i], sim.Net.MaxUtilisation()) })
			}
		}
		if err := sim.Runner.Schedule(in.Waves); err != nil {
			t.Fatal(err)
		}
		sim.Run(in.Horizon)
		for i, w := range in.Episodes {
			if peaks[i] < 0.95 {
				t.Errorf("%s seed %d: IGP-only peak utilisation %.3f in %s; the workload does not stress the IGP",
					name, heldOutSeed, peaks[i], w.Label)
			}
		}
	}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// TestMetricNames checks BENCHMARK.json against what the program emits:
// every metric named there is produced, with the same unit, nothing
// else is, and every name is well formed.
func TestMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced simulation")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workload {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the program generates (%v)", w.Name, workloadNames)
		}
	}

	in, err := generate("wan-crowds", heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := simulate(in, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	runs := []*outcome{o}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, c := range []struct {
		kind    string
		want    []struct{ Name, Unit string }
		emitted map[string]metric
	}{
		{"end_to_end", bf.EndToEnd, endToEnd(in, runs)},
		{"per_layer", bf.PerLayer, perLayer(runs, runs, map[string]float64{})},
	} {
		for _, m := range c.want {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s metric %q is not a valid name", c.kind, m.Name)
			}
			got, ok := c.emitted[m.Name]
			if !ok {
				t.Errorf("%s metric %q is not emitted", c.kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", c.kind, m.Name, got.Unit, m.Unit)
			}
		}
		if len(c.emitted) != len(c.want) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json lists %d", c.kind, len(c.emitted), len(c.want))
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}}, 0, 100, 10},
		{[][2]int64{{30, 50}, {10, 40}}, 0, 100, 40},
		{[][2]int64{{10, 20}, {30, 40}}, 0, 100, 20},
		{[][2]int64{{10, 20}, {12, 15}}, 0, 100, 10},
		{[][2]int64{{-5, 20}, {90, 120}}, 0, 100, 30},
	} {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("unionLen(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}
