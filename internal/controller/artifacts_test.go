package controller

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// TestArtifactsSingleflight pins the in-flight accounting rule: N
// goroutines look up one key at once; the first computes it (one miss,
// plus the nested Tree and Graph lookups its computation makes), the
// other N-1 count a hit and wait for that result instead of computing
// their own. The build blocks until every other caller has arrived, so
// without a per-key in-flight entry all N callers would build.
func TestArtifactsSingleflight(t *testing.T) {
	const n = 8
	tp := topo.Fig1(topo.Fig1Opts{})
	arts := NewPlanArtifacts(tp)
	src := tp.MustNode("A")

	var builds atomic.Int32
	release := make(chan struct{})
	build := func() [][]fibbing.Lie {
		builds.Add(1)
		<-release
		arts.Tree(src) // nested lookup: Tree miss, which looks up Graph
		return [][]fibbing.Lie{nil}
	}

	results := make([][][]fibbing.Lie, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = arts.QoECandidates("blue", src, 3, build)
		}()
	}
	// Release the build once every caller is either waiting on it (a hit)
	// or building itself; the deadline only bounds a broken cache.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := arts.Stats(); st.Hits+uint64(builds.Load()) >= n {
			break
		}
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	for i, r := range results {
		if len(r) != 1 || &r[0] != &results[0][0] {
			t.Fatalf("caller %d got %v, not the shared result", i, r)
		}
	}
	// One miss each for the candidates key, the nested Tree and its
	// nested Graph; every waiter is one hit and made no nested lookups.
	if st := arts.Stats(); st.Misses != 3 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 3 misses and %d hits", st, n-1)
	}

	// A later lookup is a plain hit.
	arts.QoECandidates("blue", src, 3, func() [][]fibbing.Lie {
		t.Fatal("build ran for a cached key")
		return nil
	})
	if st := arts.Stats(); st.Misses != 3 || st.Hits != n {
		t.Fatalf("after a repeat lookup stats = %+v, want 3 misses and %d hits", st, n)
	}
}
