package slicer

// The query-event seam. Every query the façade answers — a direct
// slice, batch or explain, one rung of an engine's ladder, or an engine
// cache hit — ends as one queryEvent, and Recording.finish is the only
// code that reports it to the four sinks: telemetry, the query log, the
// workload statistics and the causal trace. docs/OBSERVABILITY.md lists
// what each sink receives per kind; a root test keeps the sinks' calls
// out of every other file.

import (
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// queryEvent is one finished query as the sinks see it.
type queryEvent struct {
	kind  string  // querylog.KindSlice, KindBatch or KindExplain
	addrs []int64 // criteria, positionally aligned with slices
	batch int     // enclosing batch size (0 for single queries)

	backend    string
	plan       string // planner attribution ("" outside a planned engine)
	planReason string

	start    time.Time
	elapsed  time.Duration
	cacheHit bool

	slices []*Slice         // one per criterion; nil when err is set
	stats  *slicing.Stats   // traversal effort of the whole call
	prof   *explain.Profile // explain queries only
	err    error

	qt    *qtrace.Trace
	exec  qtrace.SpanRef // the backend's execution span (inert for cache hits)
	owned bool           // the query owns qt: finish stamps and closes it
}

// run answers one query on this slicer's backend — a single criterion
// through impl.Slice (SliceObserved when an explain recorder is given)
// or a batch through impl.SliceAll — and reports it through finish.
// A single query keeps its own call: answering it as a batch of one
// costs 1.5–1.8× on FP and OPT.
func (s *Slicer) run(kind string, addrs []int64, xr *explain.Recorder) *queryEvent {
	ev := &queryEvent{kind: kind, addrs: addrs, backend: s.name, plan: s.plan, planReason: s.planReason}
	var cs []slicing.Criterion
	if kind == querylog.KindBatch {
		ev.batch = len(addrs)
		cs = make([]slicing.Criterion, len(addrs))
		for i, a := range addrs {
			cs[i] = slicing.AddrCriterion(a)
		}
	}
	// An engine stamps its trace on the slicer; a direct query starts
	// and owns its own when the recording has a tracer attached.
	ev.qt = s.qt
	parent := s.qspan
	if ev.qt == nil && s.rec.qtr != nil {
		ev.qt = s.rec.qtr.StartQuery(kind, addrs[0], ev.batch)
		parent, ev.owned = ev.qt.Root(), true
	}
	ev.exec = parent.Child("exec/" + s.name)
	ev.start = time.Now()
	var raws []*slicing.Slice
	if cs != nil {
		raws, ev.stats, ev.err = s.impl.SliceAll(cs)
	} else {
		var raw *slicing.Slice
		if xr != nil {
			raw, ev.stats, ev.err = s.impl.(slicing.Explainer).SliceObserved(slicing.AddrCriterion(addrs[0]), xr)
		} else {
			raw, ev.stats, ev.err = s.impl.Slice(slicing.AddrCriterion(addrs[0]))
		}
		raws = []*slicing.Slice{raw}
	}
	ev.elapsed = time.Since(ev.start)
	if ev.err == nil {
		ev.slices = make([]*Slice, len(raws))
		for i, raw := range raws {
			ev.slices[i] = &Slice{
				Lines:   raw.Lines(s.rec.p.ir),
				Stmts:   raw.Len(),
				Time:    ev.elapsed / time.Duration(len(raws)),
				TraceID: ev.qt.ID(),
				raw:     raw,
			}
		}
		if xr != nil {
			ev.prof = xr.Profile()
			ev.prof.Elapsed = ev.elapsed
			ev.prof.SliceStmts = raws[0].Len()
			if st := ev.stats; st != nil {
				ev.prof.LabelProbes = st.LabelProbes
				ev.prof.SegScans = st.SegScans
				ev.prof.SegSkips = st.SegSkips
			}
		}
	}
	s.rec.finish(ev)
	return ev
}

// finish reports one finished query to every attached sink:
//
//   - telemetry (answered traversals only): the slice/<backend> or
//     explain/<backend> span and the slice.* counters;
//   - the query log: one record per criterion (one for a failed call),
//     each minted a fresh ID that the computed slice carries;
//   - the workload statistics: every record's latency, outcome and
//     cache hit, an explain's edge attribution, and — for uncached
//     slices and batches only — one planner-feedback sample of the
//     call's wall time per criterion;
//   - the causal trace: the execution span's effort attributes and the
//     query ID; an owned trace also gets the backend (or error class)
//     and is finished.
func (r *Recording) finish(ev *queryEvent) {
	class := querylog.Classify(ev.err)
	computed := ev.err == nil && !ev.cacheHit

	if reg := r.tel; reg != nil && computed {
		span := "slice/"
		if ev.kind == querylog.KindExplain {
			span = "explain/"
			reg.Counter("slice.explained").Inc()
		}
		reg.ObserveSpan(span+ev.backend, ev.elapsed)
		reg.Counter("slice.queries").Add(int64(len(ev.slices)))
		for _, sl := range ev.slices {
			reg.Histogram("slice.size").Observe(int64(sl.Stmts))
		}
		if st := ev.stats; st != nil {
			reg.Counter("slice.instances").Add(st.Instances)
			reg.Counter("slice.label_probes").Add(st.LabelProbes)
		}
	}

	var firstID uint64
	if r.queryObserved() {
		n := max(len(ev.slices), 1)
		qr := querylog.Record{
			Start: ev.start, Backend: ev.backend, Kind: ev.kind, Addr: ev.addrs[0],
			Batch: ev.batch, Latency: ev.elapsed / time.Duration(n), CacheHit: ev.cacheHit,
			Err: class, Plan: ev.plan, PlanReason: ev.planReason, Source: r.source,
			TraceID: ev.qt.ID(),
		}
		// The call's traversal effort rides on its first record.
		if p := ev.prof; p != nil {
			qr.Instances, qr.LabelProbes = p.NodesVisited, p.LabelProbes
			qr.Explicit, qr.Inferred, qr.Shortcut = p.Explicit, p.Inferred, p.Shortcut
		} else if st := ev.stats; st != nil && ev.err == nil {
			qr.Instances, qr.LabelProbes = st.Instances, st.LabelProbes
		}
		for i := 0; i < n; i++ {
			qr.ID = r.qlog.NextID()
			if i > 0 {
				qr.Instances, qr.LabelProbes = 0, 0
			}
			if i < len(ev.slices) {
				sl := ev.slices[i]
				qr.Addr, qr.Stmts, qr.Lines = ev.addrs[i], sl.Stmts, len(sl.Lines)
				if !ev.cacheHit {
					// A cached slice keeps the ID of the query that computed it.
					sl.QueryID = qr.ID
				}
			}
			if i == 0 {
				firstID = qr.ID
			}
			r.qlog.Add(qr)
			r.qstats.ObserveQuery(qr.Backend, qr.Latency, qr.Batch, qr.CacheHit, qr.Err != "")
		}
		if ev.kind == querylog.KindExplain {
			r.qstats.ObserveEdges(ev.backend, qr.Explicit, qr.Inferred, qr.Shortcut)
		} else if computed {
			r.qstats.ObserveCost(ev.backend, qr.Latency)
		}
	}

	switch {
	case ev.err != nil:
		ev.exec.EndErr(class)
	case !ev.cacheHit:
		if ev.qt != nil {
			ev.annotateExec()
		}
		ev.exec.End()
		ev.qt.SetQueryID(firstID)
	}
	if ev.owned {
		if ev.err != nil {
			ev.qt.SetError(class)
		} else {
			if ev.cacheHit {
				ev.qt.SetCacheHit()
			}
			ev.qt.SetBackend(ev.backend)
		}
		r.finishTrace(ev.qt)
	}
}

// annotateExec attaches a computed query's size and traversal effort —
// instance and probe counts (an explain's edge attribution instead),
// and for trace-scanning backends the segments and bytes decoded — to
// its execution span.
func (ev *queryEvent) annotateExec() {
	sp := ev.exec
	if ev.kind == querylog.KindBatch {
		sp.Int("criteria", int64(len(ev.addrs)))
	} else {
		sp.Int("stmts", int64(ev.slices[0].Stmts))
	}
	st := ev.stats
	if p := ev.prof; p != nil {
		sp.Int("nodes_visited", p.NodesVisited).Int("label_probes", p.LabelProbes).
			Int("edges_explicit", p.Explicit).Int("edges_inferred", p.Inferred).
			Int("edges_shortcut", p.Shortcut)
	} else if st != nil {
		sp.Int("instances", st.Instances).Int("label_probes", st.LabelProbes)
	}
	if st != nil && (st.SegScans > 0 || st.SegSkips > 0) {
		sp.Int("seg_scans", st.SegScans).Int("seg_skips", st.SegSkips).Int("seg_bytes", st.SegBytes)
	}
}

// finishTrace closes one query's causal trace and, when the tracer
// retained it, links it as the latency-histogram exemplar of the bucket
// the query landed in — the /metrics → /debug/qtrace hop. Safe on nil.
func (r *Recording) finishTrace(t *qtrace.Trace) {
	if t == nil {
		return
	}
	r.qtr.Finish(t)
	if t.Retained() {
		if b := t.Backend(); b != "" {
			r.qstats.ObserveExemplar(b, t.Duration(), t.ID())
		}
	}
}
