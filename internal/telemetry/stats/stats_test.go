package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dynslice/internal/telemetry/qtrace"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.ObserveQuery("OPT", time.Millisecond, 0, false, false)
	r.ObserveEdges("OPT", 1, 2, 3)
	s := r.Snapshot()
	if s == nil || len(s.Backends) != 0 || s.Queries != 0 {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
}

func TestObserveQueryAggregates(t *testing.T) {
	r := New()
	// Four OPT queries: 1ms, 2ms, 3ms, and a 10ms cache hit.
	r.ObserveQuery("OPT", 1*time.Millisecond, 0, false, false)
	r.ObserveQuery("OPT", 2*time.Millisecond, 0, false, false)
	r.ObserveQuery("OPT", 3*time.Millisecond, 0, false, false)
	r.ObserveQuery("OPT", 10*time.Millisecond, 0, true, false)
	// One errored FP query: no latency contribution.
	r.ObserveQuery("FP", time.Hour, 0, false, true)

	s := r.Snapshot()
	opt := s.Backends["OPT"]
	if opt.Queries != 4 || opt.CacheHit != 1 {
		t.Errorf("OPT queries/hits = %d/%d", opt.Queries, opt.CacheHit)
	}
	if want := (1.0 + 2 + 3 + 10) / 4; math.Abs(opt.MeanMs-want) > 1e-9 {
		t.Errorf("OPT MeanMs = %v, want %v", opt.MeanMs, want)
	}
	// The planner's EWMA is fed by ObserveCost alone.
	if opt.EWMAMs != 0 || opt.Samples != 0 {
		t.Errorf("ObserveQuery fed the planner EWMA: %v over %d samples", opt.EWMAMs, opt.Samples)
	}
	// Quantiles in milliseconds must stay within the observed range
	// (bucket blur allows up to 2x the max).
	if opt.P50Ms <= 0 || opt.P99Ms < opt.P50Ms || opt.P99Ms > 20 {
		t.Errorf("OPT quantiles p50=%v p99=%v", opt.P50Ms, opt.P99Ms)
	}
	fp := s.Backends["FP"]
	if fp.Queries != 1 || fp.Errors != 1 {
		t.Errorf("FP queries/errors = %d/%d", fp.Queries, fp.Errors)
	}
	if fp.MeanMs != 0 {
		t.Errorf("errored query leaked into FP latency: mean %v", fp.MeanMs)
	}
	if s.Queries != 5 {
		t.Errorf("total queries = %d", s.Queries)
	}
	if want := 1.0 / 5; math.Abs(s.CacheHitRate-want) > 1e-9 {
		t.Errorf("CacheHitRate = %v, want %v", s.CacheHitRate, want)
	}
}

func TestEWMASeedAndDecay(t *testing.T) {
	r := New()
	r.ObserveCost("LP", 100*time.Millisecond)
	if got := r.Snapshot().Backends["LP"].EWMAMs; got != 100 {
		t.Fatalf("EWMA seed = %v, want 100", got)
	}
	r.ObserveCost("LP", 0)
	lp := r.Snapshot().Backends["LP"]
	if got, want := lp.EWMAMs, (1-EWMAAlpha)*100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("EWMA after decay = %v, want %v", got, want)
	}
	if lp.Samples != 2 || lp.Queries != 0 {
		t.Fatalf("samples/queries = %d/%d, want 2/0", lp.Samples, lp.Queries)
	}
}

func TestBatchDistribution(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		r.ObserveQuery("OPT", time.Millisecond, 25, false, false)
	}
	r.ObserveQuery("OPT", time.Millisecond, 0, false, false) // single: not batched
	r.ObserveQuery("OPT", time.Millisecond, 1, false, false) // batch of 1: not batched
	s := r.Snapshot()
	if s.Batches != 10 {
		t.Errorf("Batches = %d, want 10", s.Batches)
	}
	if s.BatchMax != 25 {
		t.Errorf("BatchMax = %d, want 25", s.BatchMax)
	}
	// 25 lives in bucket [16,31].
	if s.BatchP50 < 16 || s.BatchP50 > 31 {
		t.Errorf("BatchP50 = %v, want within [16,31]", s.BatchP50)
	}
}

func TestInferredRatio(t *testing.T) {
	r := New()
	r.ObserveEdges("OPT", 75, 25, 40)
	s := r.Snapshot().Backends["OPT"]
	if s.Observed != 1 || s.ExplicitEdges != 75 || s.InferredEdges != 25 || s.ShortcutEdges != 40 {
		t.Errorf("edge totals = %+v", s)
	}
	if want := 0.25; math.Abs(s.InferredRatio-want) > 1e-9 {
		t.Errorf("InferredRatio = %v, want %v", s.InferredRatio, want)
	}
}

func TestExemplars(t *testing.T) {
	var nr *Recorder
	nr.ObserveExemplar("OPT", time.Millisecond, 1) // nil-safe

	r := New()
	r.ObserveQuery("OPT", 3*time.Millisecond, 0, false, false)
	r.ObserveExemplar("OPT", 3*time.Millisecond, 0) // zero ID is dropped
	if ex := r.Snapshot().Backends["OPT"].Exemplars; len(ex) != 0 {
		t.Fatalf("zero trace ID stored: %+v", ex)
	}
	r.ObserveExemplar("OPT", 3*time.Millisecond, 0xbeef)
	r.ObserveExemplar("OPT", 3200*time.Microsecond, 0xcafe) // same bucket: overwrites
	r.ObserveExemplar("OPT", 40*time.Millisecond, 0xf00d)
	s := r.Snapshot()
	ex := s.Backends["OPT"].Exemplars
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2 buckets", ex)
	}
	found := map[qtrace.TraceID]bool{}
	for _, e := range ex {
		found[e.TraceID] = true
	}
	if !found[0xcafe] || !found[0xf00d] || found[0xbeef] {
		t.Fatalf("exemplar overwrite wrong: %+v", ex)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b, "dynslice"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# {trace_id="000000000000cafe"} 0.0032`) {
		t.Errorf("bucket exemplar missing from exposition:\n%s", out)
	}
	// The 40ms exemplar's bucket has no latency observation (a trace's
	// wall time spans more than the recorded query latency): the bucket
	// line must still be emitted so the exemplar is not silently lost.
	if !strings.Contains(out, `# {trace_id="000000000000f00d"} 0.04`) {
		t.Errorf("exemplar on count-zero bucket missing from exposition:\n%s", out)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.ObserveQuery("OPT", 3*time.Millisecond, 25, false, false)
	r.ObserveQuery("OPT", 5*time.Millisecond, 0, true, false)
	r.ObserveQuery("FP", 40*time.Millisecond, 0, false, false)
	r.ObserveEdges("OPT", 60, 40, 10)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "dynslice"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dynslice_queries_total{backend="FP"} 1`,
		`dynslice_queries_total{backend="OPT"} 2`,
		`dynslice_query_latency_seconds_count{backend="OPT"} 2`,
		`dynslice_query_latency_seconds_bucket{backend="OPT",le="+Inf"} 2`,
		`dynslice_query_inferred_ratio{backend="OPT"} 0.4`,
		`dynslice_query_cache_hits_total 1`,
		`dynslice_query_cache_misses_total 2`,
		`dynslice_query_batched_total 1`,
		`dynslice_query_batch_max 25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentObservers(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.ObserveQuery("OPT", time.Duration(i)*time.Microsecond, i%30, i%5 == 0, false)
				if i%50 == 0 {
					r.ObserveEdges("OPT", 10, 3, 1)
				}
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Queries != workers*per {
		t.Errorf("Queries = %d, want %d", s.Queries, workers*per)
	}
	if s.CacheHits+s.CacheMisses != workers*per {
		t.Errorf("hits+misses = %d", s.CacheHits+s.CacheMisses)
	}
}
