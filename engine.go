package slicer

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynslice/internal/slicing/plan"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// EngineOptions configures a QueryEngine.
type EngineOptions struct {
	// Workers bounds the worker pool a batched SliceAddrs traversal runs
	// on (default: 4). The pool lives inside the backend's work-stealing
	// scheduler, so concurrent workers share one visited table instead of
	// re-walking subgraphs their siblings already covered; backends
	// without a scheduler (LP's trace scan) answer the batch in one pass
	// regardless.
	Workers int
	// CacheSize is the number of slices the LRU cache retains, keyed by
	// criterion address (default: 64; negative disables caching).
	CacheSize int
}

const (
	defaultEngineWorkers = 4
	defaultEngineCache   = 64
)

// QueryEngine answers slicing queries concurrently with a small LRU
// result cache. All its methods are safe for concurrent use. Repeated
// criteria — common when a user explores a fault from several variables
// that share dependences — hit the cache and cost one map lookup.
//
// An engine wraps either one fixed Slicer (Slicer.Engine) or, when
// created with Recording.Engine, the cost-based planner: each cache
// miss consults plan.Decide for the cheapest backend given the query's
// shape, which graphs are warm, and the live workload statistics, then
// walks the decision's fallback ladder until a backend answers. All
// backends return identical slices (the differential matrix proves
// it), so the shared cache and the planner only ever change latency,
// never answers.
type QueryEngine struct {
	s       *Slicer    // fixed backend; nil for a planned engine
	rec     *Recording // owning recording (always set)
	workers int

	mu    sync.Mutex
	cache map[int64]*list.Element // addr -> entry; nil when disabled
	lru   list.List               // front = most recent
	max   int

	hits, misses atomic.Int64
}

type cacheEntry struct {
	addr    int64
	sl      *Slice
	backend string // backend that computed the slice (for hit audit records)
}

// Engine wraps the slicer in a concurrent query engine with a fixed
// backend.
func (s *Slicer) Engine(o EngineOptions) *QueryEngine {
	e := newEngine(s.rec, o)
	e.s = s
	return e
}

// Engine returns a planned query engine: every cache miss is dispatched
// to the backend the cost-based planner picks for it (see
// docs/PLANNER.md). The planner never changes results — only which
// backend computes them.
func (r *Recording) Engine(o EngineOptions) *QueryEngine {
	return newEngine(r, o)
}

func newEngine(r *Recording, o EngineOptions) *QueryEngine {
	e := &QueryEngine{rec: r, workers: o.Workers, max: o.CacheSize}
	if e.workers <= 0 {
		e.workers = defaultEngineWorkers
	}
	if e.max == 0 {
		e.max = defaultEngineCache
	}
	if e.max > 0 {
		e.cache = make(map[int64]*list.Element, e.max)
	}
	return e
}

// errNoBackend is returned by a planned engine when no backend at all
// can answer the query shape.
var errNoBackend = errors.New("slicer: no backend available for this query")

// dispatch walks one query's fallback ladder until a rung answers.
// A fixed engine's ladder is its one backend, with no plan and no
// attempt span: the execution span nests directly under the root. A
// planned engine plans the query shape and tries the chosen backend
// first, then the remaining candidates cheapest-first. Backend faults
// (a desynced re-execution, a missing trace file) move down the ladder;
// criterion errors are terminal — every backend would reject the same
// address the same way, because answers never differ.
//
// The query's causal trace records a planned walk as it happens: a
// "plan" span carrying the decision (chosen backend, reason,
// per-backend cost estimates), then one "attempt/<backend>" span per
// rung — each with an "acquire" child covering backend acquisition
// (which is where deferred graphs get built) — ending with the error
// class that demoted it, or cleanly for the rung that answered.
func (e *QueryEngine) dispatch(qt *qtrace.Trace, shape plan.Shape, run func(*Slicer) error) error {
	var d plan.Decision
	var ladder []string
	if e.s != nil {
		ladder = []string{e.s.name}
	} else {
		d = e.rec.PlanFor(shape)
		if qt != nil {
			psp := qt.Root().Child("plan").Str("backend", d.Backend).Str("reason", d.Reason)
			for _, name := range plannedCostOrder(d.CostMs) {
				psp.Str("cost/"+name, fmt.Sprintf("%.3fms", d.CostMs[name]))
			}
			psp.End()
			qt.SetPlan(d.Backend)
		}
		if d.Backend == "" {
			qt.SetError(querylog.Classify(errNoBackend))
			return errNoBackend
		}
		ladder = d.Ladder()
	}
	var lastErr error
	for i, name := range ladder {
		s, asp := e.rung(qt, name)
		if s == nil {
			asp.EndErr("unavailable")
			continue
		}
		s.plan = d.Backend
		if i == 0 {
			s.planReason = d.Reason
		} else {
			s.planReason = fmt.Sprintf("fallback from %s: %v", ladder[i-1], lastErr)
		}
		err := run(s)
		if err == nil {
			asp.End()
			qt.SetBackend(s.name)
			return nil
		}
		class := querylog.Classify(err)
		asp.EndErr(class)
		if class == "bad_criterion" {
			qt.SetError(class)
			return err
		}
		lastErr = err
	}
	qt.SetError(querylog.Classify(lastErr))
	return lastErr
}

// rung returns a fresh slicer for one ladder step, stamped with the
// query's trace, so concurrent dispatches never share mutable
// attribution state, together with the step's attempt span (inert for
// a fixed engine).
func (e *QueryEngine) rung(qt *qtrace.Trace, name string) (*Slicer, qtrace.SpanRef) {
	if e.s != nil {
		s := *e.s
		s.qt, s.qspan = qt, qt.Root()
		return &s, qtrace.SpanRef{}
	}
	asp := qt.Root().Child("attempt/" + name)
	acq := asp.Child("acquire")
	s := e.rec.backendSlicer(name)
	acq.End()
	if s != nil {
		s.qt, s.qspan = qt, asp
	}
	return s, asp
}

// plannedCostOrder returns the cost map's backends in a stable order so
// plan-span attributes don't depend on map iteration.
func plannedCostOrder(costs map[string]float64) []string {
	names := make([]string, 0, len(costs))
	for name := range costs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CacheStats reports cache hits and misses since the engine was created.
func (e *QueryEngine) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

func (e *QueryEngine) lookup(addr int64) (*Slice, string, bool) {
	if e.cache == nil {
		return nil, "", false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.cache[addr]
	if !ok {
		return nil, "", false
	}
	e.lru.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.sl, ent.backend, true
}

func (e *QueryEngine) insert(addr int64, sl *Slice, backend string) {
	if e.cache == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.cache[addr]; ok {
		e.lru.MoveToFront(el)
		return
	}
	e.cache[addr] = e.lru.PushFront(&cacheEntry{addr: addr, sl: sl, backend: backend})
	if e.lru.Len() > e.max {
		old := e.lru.Back()
		e.lru.Remove(old)
		delete(e.cache, old.Value.(*cacheEntry).addr)
	}
}

func (e *QueryEngine) tally(hits, misses int64) {
	e.hits.Add(hits)
	e.misses.Add(misses)
	if reg := e.rec.tel; reg != nil {
		reg.Counter("engine.cache.hits").Add(hits)
		reg.Counter("engine.cache.misses").Add(misses)
	}
}

// SliceAddr answers one address criterion, consulting the cache first.
func (e *QueryEngine) SliceAddr(addr int64) (*Slice, error) {
	outs, err := e.slice(querylog.KindSlice, []int64{addr})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// SliceVar is SliceAddr on a global scalar variable.
func (e *QueryEngine) SliceVar(name string) (*Slice, error) {
	addr, err := e.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return e.SliceAddr(addr)
}

// Explain answers one address criterion with provenance recording
// (Slicer.ExplainAddr). Observed queries bypass the cache: the witness
// and profile are products of an actual traversal, so a cached slice
// cannot answer them. The slice itself is still inserted, so later
// SliceAddr calls for the same address hit. A planned engine plans the
// explain shape (forward slicing is never a candidate: it cannot
// attribute edges).
func (e *QueryEngine) Explain(addr int64) (*Explanation, error) {
	qt := e.rec.qtr.StartQuery(querylog.KindExplain, addr, 0)
	var ex *Explanation
	var backend string
	err := e.dispatch(qt, plan.Shape{Kind: plan.KindExplain, Batch: 1}, func(s *Slicer) error {
		var rerr error
		ex, rerr = s.ExplainAddr(addr)
		backend = s.name
		return rerr
	})
	e.rec.finishTrace(qt)
	if err != nil {
		return nil, err
	}
	e.insert(addr, ex.Slice, backend)
	return ex, nil
}

// ExplainVar is Explain on a global scalar variable.
func (e *QueryEngine) ExplainVar(name string) (*Explanation, error) {
	addr, err := e.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return e.Explain(addr)
}

// SliceAddrs answers a batch of criteria: cached results are returned
// directly; the distinct misses are answered by ONE batched traversal
// (SliceAddrs on the underlying slicer), parallelized internally by the
// backend's work-stealing scheduler across the engine's workers. One
// shared traversal beats splitting the batch across goroutines — split
// chunks each re-walk the subgraph the criteria share, which is most of
// the work. Results are positionally aligned with addrs. A planned
// engine plans once per batch, on the distinct-miss count.
func (e *QueryEngine) SliceAddrs(addrs []int64) ([]*Slice, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	return e.slice(querylog.KindBatch, addrs)
}

// slice answers a single query (kind slice, one address) or a batch
// through the cache: every hit is reported as its own cache-hit event,
// and the distinct misses, sorted, are answered by one dispatch.
func (e *QueryEngine) slice(kind string, addrs []int64) ([]*Slice, error) {
	batch := 0
	if kind == querylog.KindBatch {
		batch = len(addrs)
	}
	var start time.Time
	if e.rec.queryObserved() {
		start = time.Now()
	}
	qt := e.rec.qtr.StartQuery(kind, addrs[0], batch)
	outs := make([]*Slice, len(addrs))
	missSet := make(map[int64][]int) // addr -> positions in addrs
	var hits int64
	for i, a := range addrs {
		sl, backend, ok := e.lookup(a)
		if !ok {
			missSet[a] = append(missSet[a], i)
			continue
		}
		outs[i] = sl
		hits++
		// A single query's hit answers it whole, so its event owns the
		// trace; a batch's hits share the batch's trace.
		e.rec.finish(&queryEvent{
			kind: kind, addrs: addrs[i : i+1], batch: batch, backend: backend,
			start: start, elapsed: time.Since(start), cacheHit: true,
			slices: outs[i : i+1], qt: qt, owned: batch == 0,
		})
	}
	e.tally(hits, int64(len(missSet)))
	if len(missSet) == 0 {
		// Every criterion hit. A single query's hit event has already
		// finished its trace; a batch's trace is finished here.
		if batch > 0 {
			qt.SetCacheHit()
			e.rec.finishTrace(qt)
		}
		return outs, nil
	}
	qt.SetCacheMiss()
	miss := make([]int64, 0, len(missSet))
	for a := range missSet {
		miss = append(miss, a)
	}
	// Deterministic chunking: map iteration order must not decide which
	// criteria share a 64-bit mask chunk.
	sort.Slice(miss, func(i, j int) bool { return miss[i] < miss[j] })

	// Query-log kinds and plan shape kinds share their names.
	var ev *queryEvent
	err := e.dispatch(qt, plan.Shape{Kind: kind, Batch: len(miss)}, func(s *Slicer) error {
		if sw, ok := s.impl.(interface{ SetWorkers(int) }); ok {
			sw.SetWorkers(e.workers)
		}
		ev = s.run(kind, miss, nil)
		return ev.err
	})
	e.rec.finishTrace(qt)
	if err != nil {
		return nil, err
	}
	for k, sl := range ev.slices {
		e.insert(miss[k], sl, ev.backend)
		for _, pos := range missSet[miss[k]] {
			outs[pos] = sl
		}
	}
	return outs, nil
}
