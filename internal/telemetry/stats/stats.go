// Package stats maintains per-recording rolling workload statistics
// over the query stream: per-backend latency distributions (power-of-two
// microsecond buckets with p50/p90/p99 estimates) over every query, the
// batch-size distribution, cache hit rate, the explicit-vs-inferred
// edge-resolution ratio of observed queries, and — fed separately — an
// exponentially weighted moving average of the per-criterion cost of
// uncached slices.
//
// Snapshot is the feedback input of the cost-based query planner
// (internal/slicing/plan): the EWMA and its sample count tell it how
// fast each backend has actually sliced on THIS workload, so it can pick
// the cheapest backend for the next query instead of trusting the static
// cost model alone. The same numbers feed the Prometheus exposition
// (`/metrics` on cmd/slicer's -pprof server) and BENCH_queries.json
// (`cmd/experiments -exp queries`).
//
// All methods are safe for concurrent use and on a nil *Recorder
// (recording disabled), mirroring internal/telemetry.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
)

// EWMAAlpha is the smoothing factor of the per-backend cost EWMA: each
// new sample contributes 20%, so the average tracks roughly the last
// ~10 uncached calls — recent enough for a planner to notice a backend
// going cold (e.g. hybrid epochs evicted) without flapping on one
// outlier.
const EWMAAlpha = 0.2

const latBuckets = 64

// backend accumulates one algorithm's query stream.
type backend struct {
	queries  int64
	errors   int64
	cacheHit int64
	latSumNS int64
	ewmaMS   float64              // planner feedback: per-criterion cost of uncached slices
	samples  int64                // calls folded into ewmaMS
	lat      [latBuckets]int64    // pow2 buckets of latency in microseconds
	exemplar [latBuckets]Exemplar // most recent retained trace per bucket
	observed int64                // explain queries folded in
	explicit int64
	inferred int64
	shortcut int64
}

// Exemplar links one latency bucket to a recent retained qtrace trace
// that landed in it, so a p99 spike in /metrics points at a concrete
// span tree (/debug/qtrace/<trace_id>).
type Exemplar struct {
	TraceID qtrace.TraceID `json:"trace_id"`
	Seconds float64        `json:"seconds"` // the exemplar query's latency
}

// Recorder collects the statistics for one recording.
type Recorder struct {
	mu       sync.Mutex
	backends map[string]*backend
	batch    [latBuckets]int64 // pow2 buckets of per-query batch sizes
	batches  int64             // queries that arrived as part of a batch
	batchMax int64
	hits     int64
	misses   int64
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{backends: map[string]*backend{}}
}

func (r *Recorder) backendLocked(name string) *backend {
	b, ok := r.backends[name]
	if !ok {
		b = &backend{}
		r.backends[name] = b
	}
	return b
}

// ObserveQuery folds one answered query into the rolling statistics.
// batch is the enclosing batch size (0 for single queries); cacheHit
// marks engine LRU hits; errored queries count toward Errors but not
// the latency distribution. Every query kind counts here — the planner
// feedback EWMA is fed separately, by ObserveCost.
func (r *Recorder) ObserveQuery(backendName string, d time.Duration, batch int, cacheHit, errored bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backendLocked(backendName)
	b.queries++
	if cacheHit {
		b.cacheHit++
		r.hits++
	} else {
		r.misses++
	}
	if errored {
		b.errors++
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b.latSumNS += d.Nanoseconds()
	b.lat[bits.Len64(uint64(us))]++
	if batch > 1 {
		r.batch[bits.Len64(uint64(batch))]++
		r.batches++
		if int64(batch) > r.batchMax {
			r.batchMax = int64(batch)
		}
	}
}

// ObserveCost folds one uncached slice or batch call into the
// backend's planner feedback: perCriterion (the call's wall time
// divided by its criteria) updates the EWMA, and Samples counts the
// calls. Cache hits and explain traversals must not come here — the
// planner prices uncached slicing, and a µs hit or a slower observed
// traversal would skew that price.
func (r *Recorder) ObserveCost(backendName string, perCriterion time.Duration) {
	if r == nil {
		return
	}
	ms := float64(perCriterion.Nanoseconds()) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backendLocked(backendName)
	b.samples++
	if b.samples == 1 {
		b.ewmaMS = ms
	} else {
		b.ewmaMS = EWMAAlpha*ms + (1-EWMAAlpha)*b.ewmaMS
	}
}

// ObserveExemplar records a retained trace as the exemplar of the
// latency bucket its query landed in, overwriting any earlier exemplar
// there — "a recent interesting query this slow". Callers only pass
// retained traces, so every exposed exemplar resolves at /debug/qtrace.
func (r *Recorder) ObserveExemplar(backendName string, d time.Duration, id qtrace.TraceID) {
	if r == nil || id == 0 {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	r.mu.Lock()
	b := r.backendLocked(backendName)
	b.exemplar[bits.Len64(uint64(us))] = Exemplar{TraceID: id, Seconds: d.Seconds()}
	r.mu.Unlock()
}

// ObserveEdges folds one observed query's edge-resolution attribution
// (explain.Profile) into the backend's totals.
func (r *Recorder) ObserveEdges(backendName string, explicit, inferred, shortcut int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backendLocked(backendName)
	b.observed++
	b.explicit += explicit
	b.inferred += inferred
	b.shortcut += shortcut
}

// BackendStats is the exported view of one backend's query stream.
type BackendStats struct {
	Queries  int64   `json:"queries"`
	Errors   int64   `json:"errors,omitempty"`
	CacheHit int64   `json:"cache_hits"`
	MeanMs   float64 `json:"mean_ms"`
	// EWMAMs and Samples are the planner's feedback (ObserveCost): the
	// smoothed per-criterion cost of uncached slice and batch calls,
	// and how many calls it has seen.
	EWMAMs  float64 `json:"ewma_ms"`
	Samples int64   `json:"ewma_samples"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// Observed queries and their edge attribution (zero unless explain
	// queries ran on this backend).
	Observed      int64   `json:"observed,omitempty"`
	ExplicitEdges int64   `json:"explicit_edges,omitempty"`
	InferredEdges int64   `json:"inferred_edges,omitempty"`
	ShortcutEdges int64   `json:"shortcut_edges,omitempty"`
	InferredRatio float64 `json:"inferred_ratio,omitempty"`
	// Exemplars maps a latency bucket's upper bound in seconds (the
	// same %g rendering as the Prometheus le label) to the most recent
	// retained trace that landed in it.
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`

	latencyUS  [latBuckets]int64
	exemplarUS [latBuckets]Exemplar
	latSumNS   int64
}

// LatencyBucketsUS exposes the raw power-of-two microsecond bucket
// counts (for exposition formats that need the full distribution).
func (b *BackendStats) LatencyBucketsUS() []int64 { return b.latencyUS[:] }

// LatencySumNS exposes the exact latency sum in nanoseconds.
func (b *BackendStats) LatencySumNS() int64 { return b.latSumNS }

// LatencyExemplars exposes the per-bucket exemplars positionally
// aligned with LatencyBucketsUS (zero TraceID means no exemplar).
func (b *BackendStats) LatencyExemplars() []Exemplar { return b.exemplarUS[:] }

// Snapshot is a point-in-time view of a recording's workload
// statistics — the planner feedback record (see the package comment).
type Snapshot struct {
	Backends map[string]BackendStats `json:"backends"`
	// Queries counts every query across backends; CacheHitRate is
	// hits/(hits+misses) over the engine's LRU.
	Queries      int64   `json:"queries"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Batch-size distribution over queries that arrived in a batch of
	// size > 1 (each such query contributes its batch's size once).
	Batches  int64   `json:"batched_queries,omitempty"`
	BatchP50 float64 `json:"batch_p50,omitempty"`
	BatchP90 float64 `json:"batch_p90,omitempty"`
	BatchMax int64   `json:"batch_max,omitempty"`
}

// Snapshot captures the current statistics. Safe on nil (returns an
// empty snapshot).
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Backends: map[string]BackendStats{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, b := range r.backends {
		bs := BackendStats{
			Queries:       b.queries,
			Errors:        b.errors,
			CacheHit:      b.cacheHit,
			EWMAMs:        b.ewmaMS,
			Samples:       b.samples,
			Observed:      b.observed,
			ExplicitEdges: b.explicit,
			InferredEdges: b.inferred,
			ShortcutEdges: b.shortcut,
			latencyUS:     b.lat,
			exemplarUS:    b.exemplar,
			latSumNS:      b.latSumNS,
		}
		for i, ex := range b.exemplar {
			if ex.TraceID == 0 {
				continue
			}
			if bs.Exemplars == nil {
				bs.Exemplars = map[string]Exemplar{}
			}
			bs.Exemplars[fmt.Sprintf("%g", pow2USUpperSeconds(i))] = ex
		}
		if n := b.queries - b.errors; n > 0 {
			bs.MeanMs = float64(b.latSumNS) / 1e6 / float64(n)
		}
		bs.P50Ms = usToMS(telemetry.Pow2Quantile(b.lat[:], 0.50))
		bs.P90Ms = usToMS(telemetry.Pow2Quantile(b.lat[:], 0.90))
		bs.P99Ms = usToMS(telemetry.Pow2Quantile(b.lat[:], 0.99))
		if n := b.explicit + b.inferred; n > 0 {
			bs.InferredRatio = float64(b.inferred) / float64(n)
		}
		s.Backends[name] = bs
		s.Queries += b.queries
	}
	s.CacheHits = r.hits
	s.CacheMisses = r.misses
	if n := r.hits + r.misses; n > 0 {
		s.CacheHitRate = float64(r.hits) / float64(n)
	}
	s.Batches = r.batches
	s.BatchMax = r.batchMax
	if r.batches > 0 {
		s.BatchP50 = telemetry.Pow2Quantile(r.batch[:], 0.50)
		s.BatchP90 = telemetry.Pow2Quantile(r.batch[:], 0.90)
	}
	return s
}

func usToMS(us float64) float64 { return us / 1000 }

// WritePrometheus renders the snapshot's querylog-derived series in
// Prometheus text format under the namespace prefix: per-backend query
// counters, latency histograms (cumulative buckets in seconds), EWMA
// and inferred-ratio gauges, and the cache/batch series.
func (s *Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	names := make([]string, 0, len(s.Backends))
	for name := range s.Backends {
		names = append(names, name)
	}
	sort.Strings(names)

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	fam := func(suffix string) string { return telemetry.PromName(namespace, suffix) }

	p("# HELP %s Queries answered, by backend.\n", fam("queries.total"))
	p("# TYPE %s counter\n", fam("queries.total"))
	for _, n := range names {
		p("%s{backend=%q} %d\n", fam("queries.total"), n, s.Backends[n].Queries)
	}
	p("# HELP %s Failed queries, by backend.\n", fam("query.errors.total"))
	p("# TYPE %s counter\n", fam("query.errors.total"))
	for _, n := range names {
		p("%s{backend=%q} %d\n", fam("query.errors.total"), n, s.Backends[n].Errors)
	}
	p("# HELP %s Query wall latency, by backend.\n", fam("query.latency.seconds"))
	p("# TYPE %s histogram\n", fam("query.latency.seconds"))
	for _, n := range names {
		b := s.Backends[n]
		exemplars := b.LatencyExemplars()
		var cum int64
		for i, c := range b.LatencyBucketsUS() {
			// An exemplar's bucket comes from its trace's wall time, which
			// includes hops outside the recorded query latency — it can
			// land in a bucket no latency observation has, so an exemplar
			// alone keeps the (cumulative, hence still correct) line.
			ex := exemplars[i]
			if c == 0 && ex.TraceID == 0 {
				continue
			}
			cum += c
			p("%s_bucket{backend=%q,le=\"%g\"} %d",
				fam("query.latency.seconds"), n, pow2USUpperSeconds(i), cum)
			// OpenMetrics-style exemplar: the bucket carries the trace ID
			// of a recent retained query this slow, so a latency spike in
			// /metrics points straight at /debug/qtrace/<id>.
			if ex.TraceID != 0 {
				p(" # {trace_id=%q} %g", ex.TraceID.String(), ex.Seconds)
			}
			p("\n")
		}
		p("%s_bucket{backend=%q,le=\"+Inf\"} %d\n", fam("query.latency.seconds"), n, cum)
		p("%s_sum{backend=%q} %g\n", fam("query.latency.seconds"), n, float64(b.LatencySumNS())/1e9)
		p("%s_count{backend=%q} %d\n", fam("query.latency.seconds"), n, cum)
	}
	p("# HELP %s EWMA per-criterion cost of uncached slices in milliseconds (alpha=%g), by backend.\n",
		fam("query.latency.ewma.ms"), EWMAAlpha)
	p("# TYPE %s gauge\n", fam("query.latency.ewma.ms"))
	for _, n := range names {
		p("%s{backend=%q} %g\n", fam("query.latency.ewma.ms"), n, s.Backends[n].EWMAMs)
	}
	p("# HELP %s Inferred share of edge resolutions in observed queries, by backend.\n",
		fam("query.inferred.ratio"))
	p("# TYPE %s gauge\n", fam("query.inferred.ratio"))
	for _, n := range names {
		p("%s{backend=%q} %g\n", fam("query.inferred.ratio"), n, s.Backends[n].InferredRatio)
	}
	p("# HELP %s Engine LRU cache hits.\n", fam("query.cache.hits.total"))
	p("# TYPE %s counter\n", fam("query.cache.hits.total"))
	p("%s %d\n", fam("query.cache.hits.total"), s.CacheHits)
	p("# HELP %s Engine LRU cache misses.\n", fam("query.cache.misses.total"))
	p("# TYPE %s counter\n", fam("query.cache.misses.total"))
	p("%s %d\n", fam("query.cache.misses.total"), s.CacheMisses)
	p("# HELP %s Queries that arrived in a batch of size > 1.\n", fam("query.batched.total"))
	p("# TYPE %s counter\n", fam("query.batched.total"))
	p("%s %d\n", fam("query.batched.total"), s.Batches)
	p("# HELP %s Largest batch observed.\n", fam("query.batch.max"))
	p("# TYPE %s gauge\n", fam("query.batch.max"))
	p("%s %d\n", fam("query.batch.max"), s.BatchMax)
	return err
}

// pow2USUpperSeconds converts power-of-two microsecond bucket i's
// inclusive upper bound to seconds.
func pow2USUpperSeconds(i int) float64 {
	if i == 0 {
		return 0
	}
	return (math.Ldexp(1, i) - 1) / 1e6
}
