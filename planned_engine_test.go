package slicer_test

import (
	"fmt"
	"sync"
	"testing"

	slicer "dynslice"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

// plannedRecording builds an engineSrc recording wired for planned
// dispatch: query log + workload stats attached, graphs deferred so the
// planner has a genuinely cold start to work with.
func plannedRecording(t *testing.T) (*slicer.Recording, *querylog.Log, *stats.Recorder) {
	t.Helper()
	p, err := slicer.Compile(engineSrc)
	if err != nil {
		t.Fatal(err)
	}
	qlog := querylog.New(4096)
	qstats := stats.New()
	rec, err := p.Record(slicer.RunOptions{
		QueryLog:    qlog,
		QueryStats:  qstats,
		DeferGraphs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Close)
	return rec, qlog, qstats
}

// TestPlannedEngineMatchesFixed: whatever backend the planner picks,
// answers must be identical to a fixed backend's — the planner changes
// latency, never slices. The cache is disabled so every query really
// goes through plan.Decide.
func TestPlannedEngineMatchesFixed(t *testing.T) {
	rec, _, _ := plannedRecording(t)
	addrs := engineAddrs(t, rec)

	// Baseline from the demand-driven backend: it does not warm any
	// graph, so the planner's availability picture stays untouched.
	lp := rec.LP()
	want := make(map[int64]*slicer.Slice, len(addrs))
	for _, a := range addrs {
		sl, err := lp.SliceAddr(a)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = sl
	}

	e := rec.Engine(slicer.EngineOptions{CacheSize: -1})
	for _, a := range addrs {
		sl, err := e.SliceAddr(a)
		if err != nil {
			t.Fatalf("planned SliceAddr(%d): %v", a, err)
		}
		if !sl.Raw().Equal(want[a].Raw()) {
			t.Fatalf("planned slice for %d diverges from LP baseline", a)
		}
	}
	batched, err := e.SliceAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if !batched[i].Raw().Equal(want[a].Raw()) {
			t.Fatalf("planned batch slice for %d diverges from LP baseline", a)
		}
	}
	ex, err := e.Explain(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Slice.Raw().Equal(want[addrs[0]].Raw()) {
		t.Fatal("planned explain slice diverges from LP baseline")
	}
}

// TestPlannedEngineAttribution: planned queries carry the planner's
// choice and rationale in their audit records, and with no backend
// faults the plan and the answering backend agree.
func TestPlannedEngineAttribution(t *testing.T) {
	rec, qlog, qstats := plannedRecording(t)
	addrs := engineAddrs(t, rec)

	d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1})
	if d.Backend == "" || d.Reason == "" {
		t.Fatalf("empty plan for a fresh recording: %+v", d)
	}

	e := rec.Engine(slicer.EngineOptions{CacheSize: 4})
	if _, err := e.SliceAddr(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SliceAddr(addrs[0]); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := e.SliceAddrs(addrs[:4]); err != nil {
		t.Fatal(err)
	}

	var misses, hits int
	for _, r := range qlog.Recent(0) {
		if r.CacheHit {
			hits++
			continue
		}
		misses++
		if r.Plan == "" || r.PlanReason == "" {
			t.Fatalf("planned query %d missing attribution: %+v", r.ID, r)
		}
		if r.Plan != r.Backend {
			t.Fatalf("query %d: plan %q but backend %q with no fault in play (%s)",
				r.ID, r.Plan, r.Backend, r.PlanReason)
		}
	}
	if misses == 0 || hits == 0 {
		t.Fatalf("expected both misses and cache hits, got %d/%d", misses, hits)
	}
	snap := qstats.Snapshot()
	if bs, ok := snap.Backends[d.Backend]; !ok || bs.Queries == 0 {
		t.Fatalf("planned backend %q absent from workload stats: %+v", d.Backend, snap.Backends)
	}
}

// TestEnginePlannerConcurrentHammer drives 16 goroutines through a
// planned engine while the workload EWMAs the planner reads are updated
// by the same queries, and deferred graph builds race with dispatch.
// Run under -race; every answer must match the sequential baseline.
func TestEnginePlannerConcurrentHammer(t *testing.T) {
	rec, _, _ := plannedRecording(t)
	addrs := engineAddrs(t, rec)

	lp := rec.LP()
	want := make(map[int64]*slicer.Slice, len(addrs))
	for _, a := range addrs {
		sl, err := lp.SliceAddr(a)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = sl
	}

	e := rec.Engine(slicer.EngineOptions{Workers: 4, CacheSize: 8})
	const goroutines = 16
	const rounds = 3
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch g % 3 {
				case 0: // singles
					for _, a := range addrs {
						sl, err := e.SliceAddr(a)
						if err != nil {
							errc <- fmt.Errorf("g%d SliceAddr(%d): %v", g, a, err)
							return
						}
						if !sl.Raw().Equal(want[a].Raw()) {
							errc <- fmt.Errorf("g%d: slice for %d diverges", g, a)
							return
						}
					}
				case 1: // batches, rotated so chunks differ per goroutine
					rot := append(append([]int64{}, addrs[g%len(addrs):]...), addrs[:g%len(addrs)]...)
					slices, err := e.SliceAddrs(rot)
					if err != nil {
						errc <- fmt.Errorf("g%d SliceAddrs: %v", g, err)
						return
					}
					for i, a := range rot {
						if !slices[i].Raw().Equal(want[a].Raw()) {
							errc <- fmt.Errorf("g%d: batch slice for %d diverges", g, a)
							return
						}
					}
				case 2: // observed queries
					a := addrs[(g+r)%len(addrs)]
					ex, err := e.Explain(a)
					if err != nil {
						errc <- fmt.Errorf("g%d Explain(%d): %v", g, a, err)
						return
					}
					if !ex.Slice.Raw().Equal(want[a].Raw()) {
						errc <- fmt.Errorf("g%d: explain slice for %d diverges", g, a)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPlannerFeedbackIgnoresHitsAndExplains: the planner's evidence
// must measure what it assumes — the per-criterion cost of an uncached
// slice. Interleaving explain traversals (slower than plain slices) and
// engine cache hits (microseconds) on other backends must leave the
// sequence of plan decisions exactly as it is without them.
func TestPlannerFeedbackIgnoresHitsAndExplains(t *testing.T) {
	decisions := func(noise bool) []string {
		p, err := slicer.Compile(engineSrc)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := p.Record(slicer.RunOptions{QueryStats: stats.New()})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		addrs := engineAddrs(t, rec)
		planned := rec.Engine(slicer.EngineOptions{CacheSize: -1})
		fixed := rec.FP().Engine(slicer.EngineOptions{})
		var got []string
		for i := 0; i < 40; i++ {
			a := addrs[i%len(addrs)]
			d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1})
			got = append(got, fmt.Sprintf("%s %v", d.Backend, d.Fallback))
			if _, err := planned.SliceAddr(a); err != nil {
				t.Fatal(err)
			}
			if !noise {
				continue
			}
			// An explain on FP fills the fixed engine's cache, so the
			// slices after it are all hits.
			if _, err := fixed.Explain(a); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ {
				if _, err := fixed.SliceAddr(a); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := rec.OPT().ExplainAddr(a); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	clean, noisy := decisions(false), decisions(true)
	for i := range clean {
		if clean[i] != noisy[i] {
			t.Fatalf("decision %d: %q with explain and cache-hit traffic, %q without", i, noisy[i], clean[i])
		}
	}
}
