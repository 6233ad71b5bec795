package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	slicer "dynslice"
	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/trace"
)

// layerResult is what one layer-by-layer replay of a session yields.
type layerResult struct {
	counts  map[string]float64 // exact counts, set in both traced and untraced replays
	timings map[string]float64 // span-derived timings, traced replays only
	checks  tally
	wall    time.Duration
}

// runLayers replays the workload's session by calling each layer's
// public functions directly, in Record's order of steps but one layer at
// a time: compile, profile run, instrumented run with the trace writer,
// a decode-only replay, the FP and OPT builds (or the re-execution
// index for a deferred recording), then the session's queries straight
// on the backend. A second part replays the same queries through the
// façade's planned engine to measure the plan and slicer layers. With a
// nil tracer nothing is timed; the counts and checks are the same.
func runLayers(w *workload, seed int64, ref *reference, tr *tracer, dir string) (*layerResult, error) {
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	lr := &layerResult{counts: map[string]float64{}, timings: map[string]float64{}}
	t0 := time.Now()
	var tm timings

	sp := tr.begin("compile", "compile.SourceWith")
	prog, err := compile.SourceWith(src, nil)
	tm.add("compile.ms", tr.end(sp))
	if err != nil {
		return nil, err
	}

	sp = tr.begin("profile", "interp.Run+profile.Collector")
	col := profile.NewCollector(prog)
	_, err = interp.Run(prog, interp.Options{Input: w.input, Sink: col})
	hot, cuts := col.HotPaths(1, 0), col.Cuts()
	tm.add("profile.run_ms", tr.end(sp))
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}

	tracePath := filepath.Join(dir, "layers.trace")
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tracePath)
	var ckEvery int64
	if w.deferred {
		ckEvery = 4096 // Record's default for a deferred recording
	}
	sp = tr.begin("interp", "interp.Run+trace.Writer+CritPicker")
	cw := &countingWriter{w: f}
	tw := trace.NewWriter(prog, cw, 4096)
	picker := trace.NewCritPicker()
	run, err := interp.Run(prog, interp.Options{Input: w.input, Sink: trace.Multi{tw, picker}, CheckpointEvery: ckEvery})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	tm.add("interp.record_run_ms", tr.end(sp))
	if err == nil {
		err = tw.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("instrumented run: %w", err)
	}
	segs := tw.Segments()
	sp = tr.begin("trace", "trace.CritPicker.Pick")
	pool := picker.Pick(w.track)
	tm.add("trace.pick_ms", tr.end(sp))
	lr.counts["interp.steps"] = float64(run.Steps)
	lr.counts["trace.write_bytes"] = float64(cw.n)
	lr.counts["trace.segments"] = float64(len(segs))

	sp = tr.begin("trace", "trace.ReplayWith(decode-only)")
	err = replayFile(prog, tracePath, nopSink{})
	decode := tr.end(sp)
	tm.add("trace.decode_ms", decode)
	if err != nil {
		return nil, err
	}

	var be slicing.MultiSlicer
	if w.deferred {
		sp = tr.begin("reexec", "reexec.New")
		be = reexec.New(prog, segs, reexec.Options{Input: w.input, TotalBlocks: run.BlockExecs, Checkpoints: run.Checkpoints})
		tr.end(sp)
	} else {
		// Record's default pipelined build seals label epochs on encode
		// workers; the replay builds the same way, one builder at a time.
		sp = tr.begin("fp", "trace.ReplayWith->fp.NewGraph")
		fg := fp.NewGraph(prog)
		fg.SetParallelEncode(0)
		err = replayFile(prog, tracePath, fg)
		tm.add("fp.build_ms", tr.end(sp)-decode)
		if err != nil {
			return nil, fmt.Errorf("FP build: %w", err)
		}
		lr.counts["fp.resident_bytes"] = float64(fg.ResidentBytes())

		sp = tr.begin("opt", "trace.ReplayWith->opt.NewGraph")
		og := opt.NewGraph(prog, opt.Full(), hot, cuts)
		og.SetParallelEncode(0)
		err = replayFile(prog, tracePath, og)
		tm.add("opt.build_ms", tr.end(sp)-decode)
		if err != nil {
			return nil, fmt.Errorf("OPT build: %w", err)
		}
		lr.counts["opt.resident_bytes"] = float64(og.ResidentBytes())
		lr.counts["opt.label_pairs"] = float64(og.LabelPairs())
		// One worker: with more, the label probes a batch makes depend
		// on how the scheduler splits it, and the counts would not repeat.
		og.SetWorkers(1)
		be = og
	}

	order := newQueries(w, seed, pool).round()
	q := &backendQueries{be: be, tr: tr, ref: ref, w: w, tm: &tm}
	if !w.deferred {
		q.warmUp(pool)
	}
	for _, s := range order {
		if s.batch != nil {
			q.batch(s.batch)
		} else {
			q.single(s.addr, s.repeat)
		}
	}
	q.finish(lr)

	if err := facadeQueries(w, src, order, pool, ref, tr, dir, &tm, lr); err != nil {
		return nil, err
	}
	lr.wall = time.Since(t0)
	tm.into(lr.timings)
	return lr, nil
}

// backendQueries replays the session's queries on the backend itself.
// A repeated criterion is skipped: the façade answers it from its cache
// without calling the backend.
type backendQueries struct {
	be  slicing.MultiSlicer
	tr  *tracer
	ref *reference
	w   *workload
	tm  *timings

	checks              tally
	singles             int
	stats, batchStats   slicing.Stats
	sliceDur, batchDurs []time.Duration
}

func (q *backendQueries) layer() string {
	if q.w.deferred {
		return "reexec"
	}
	return "opt"
}

func (q *backendQueries) single(addr int64, repeat bool) {
	if repeat {
		return
	}
	sp := q.tr.begin(q.layer(), q.layer()+".Slice")
	sl, st, err := q.be.Slice(slicing.AddrCriterion(addr))
	q.sliceDur = append(q.sliceDur, q.tr.end(sp))
	if err != nil {
		q.checks.fail(1)
		return
	}
	q.checks.check(q.ref, addr, sl)
	q.singles++
	addStats(&q.stats, st)
}

// warmUp times the first Slice on the fresh graph, the one that computes
// the first shortcut closures. It slices the pool's criterion with the
// largest reference slice, so the figure does not depend on which
// criterion the seed draws first.
func (q *backendQueries) warmUp(pool []int64) {
	addr := pool[0]
	for _, a := range pool {
		if q.ref.sets[a].Len() > q.ref.sets[addr].Len() {
			addr = a
		}
	}
	sp := q.tr.begin("opt", "opt.Slice(first)")
	sl, _, err := q.be.Slice(slicing.AddrCriterion(addr))
	q.tm.add("opt.first_slice_ms", q.tr.end(sp))
	if err != nil {
		q.checks.fail(1)
		return
	}
	q.checks.check(q.ref, addr, sl)
}

func (q *backendQueries) batch(addrs []int64) {
	cs := make([]slicing.Criterion, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
	}
	layer := "batch"
	if q.w.deferred {
		layer = "reexec"
	}
	sp := q.tr.begin(layer, q.layer()+".SliceAll")
	out, st, err := q.be.SliceAll(cs)
	d := q.tr.end(sp)
	if !q.w.deferred {
		q.batchDurs = append(q.batchDurs, d)
	}
	if err != nil {
		q.checks.fail(len(addrs))
		return
	}
	for i, sl := range out {
		q.checks.check(q.ref, addrs[i], sl)
	}
	if !q.w.deferred {
		addStats(&q.batchStats, st)
	}
}

func (q *backendQueries) finish(lr *layerResult) {
	lr.checks.add(q.checks)
	per := func(v int64) float64 {
		if q.singles == 0 {
			return 0
		}
		return float64(v) / float64(q.singles)
	}
	if q.w.deferred {
		q.tm.addAll("reexec.slice_ms", q.sliceDur)
		lr.counts["reexec.seg_scans"] = per(q.stats.SegScans)
		lr.counts["reexec.seg_skips"] = per(q.stats.SegSkips)
		return
	}
	q.tm.addAll("opt.slice_ms", q.sliceDur)
	q.tm.addAll("batch.slice_all_ms", q.batchDurs)
	lr.counts["opt.label_probes"] = per(q.stats.LabelProbes)
	lr.counts["opt.instances"] = per(q.stats.Instances)
	lr.counts["batch.label_probes"] = float64(q.batchStats.LabelProbes)
	lr.counts["batch.instances"] = float64(q.batchStats.Instances)
}

func addStats(dst *slicing.Stats, st *slicing.Stats) {
	if st == nil {
		return
	}
	dst.Instances += st.Instances
	dst.LabelProbes += st.LabelProbes
	dst.SegScans += st.SegScans
	dst.SegSkips += st.SegSkips
}

// facadeQueries replays the same queries through a fresh recording's
// planned engine. Before each call it asks the planner for the decision
// the engine is about to make; a call that the engine answers from its
// cache is not routed. The façade's own share of a missed query is its
// wall time minus the backend time the slice reports.
func facadeQueries(w *workload, src string, order []step, pool []int64, ref *reference, tr *tracer, dir string, tm *timings, lr *layerResult) error {
	sp := tr.begin("slicer", "slicer.Compile+Program.Record")
	_, rec, release, _, err := record(w, src, dir)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer release()
	defer rec.Close()
	if !slices.Equal(rec.Criteria(), pool) {
		return fmt.Errorf("façade and layer runs tracked different criteria")
	}

	routed := map[string]int{}
	var hitDur, overhead []time.Duration
	var singles int
	opts := slicer.EngineOptions{Workers: runtime.NumCPU()}
	single := rec.Engine(opts)
	var batch *slicer.QueryEngine
	for _, s := range order {
		e := single
		if s.batch != nil {
			if s.newPass {
				batch = rec.Engine(opts)
			}
			e = batch
		}
		shape := plan.Shape{Kind: plan.KindSlice, Batch: 1}
		if s.batch != nil {
			shape = plan.Shape{Kind: plan.KindBatch, Batch: len(s.batch)}
		}
		sp := tr.begin("plan", "Recording.PlanFor")
		d := rec.PlanFor(shape)
		tm.add("plan.decide_us", tr.end(sp))
		h0, _ := e.CacheStats()
		if s.batch != nil {
			sp = tr.begin("slicer", "QueryEngine.SliceAddrs")
			out, err := e.SliceAddrs(s.batch)
			tr.end(sp)
			if err != nil {
				lr.checks.fail(len(s.batch))
				continue
			}
			for i, sl := range out {
				lr.checks.check(ref, s.batch[i], sl.Raw())
			}
			routed[d.Backend]++
			continue
		}
		singles++
		sp = tr.begin("slicer", "QueryEngine.SliceAddr")
		sl, err := e.SliceAddr(s.addr)
		dur := tr.end(sp)
		if err != nil {
			lr.checks.fail(1)
			continue
		}
		lr.checks.check(ref, s.addr, sl.Raw())
		if h1, _ := e.CacheStats(); h1 > h0 {
			hitDur = append(hitDur, dur)
			continue
		}
		routed[d.Backend]++
		overhead = append(overhead, dur-sl.Time)
	}
	for _, b := range []string{plan.FP, plan.OPT, plan.LP, plan.Reexec, plan.Forward} {
		lr.counts["plan.routed."+b] = float64(routed[b])
	}
	lr.counts["slicer.cache_hit_rate"] = float64(len(hitDur)) / float64(singles)
	tm.addAll("slicer.cache_hit_us", hitDur)
	tm.addAll("slicer.overhead_ms", overhead)
	return nil
}

// timings collects span durations per metric; a metric reports the
// median of its samples in the unit the catalogue gives it.
type timings map[string][]time.Duration

func (t *timings) add(name string, d time.Duration) {
	if *t == nil {
		*t = timings{}
	}
	(*t)[name] = append((*t)[name], d)
}

func (t *timings) addAll(name string, ds []time.Duration) {
	for _, d := range ds {
		t.add(name, d)
	}
}

func (t timings) into(m map[string]float64) {
	for name, ds := range t {
		m[name] = median(inUnit(ds, unitOf(name)))
	}
}

// replayFile decodes a trace file into a sink.
func replayFile(p *ir.Program, path string, sink trace.Sink) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.ReplayWith(p, f, sink, nil)
}

// nopSink consumes a replay without building anything: the decode-only
// baseline the FP and OPT build times are measured against.
type nopSink struct{}

func (nopSink) Block(*ir.Block)                  {}
func (nopSink) Stmt(*ir.Stmt, []int64, []int64)  {}
func (nopSink) RegionDef(*ir.Stmt, int64, int64) {}
func (nopSink) End()                             {}

// countingWriter counts the trace bytes the writer emits.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}
