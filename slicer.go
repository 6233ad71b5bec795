// Package slicer is the public API of dynslice, a reproduction of
// "Cost Effective Dynamic Program Slicing" (Zhang & Gupta, PLDI 2004).
//
// The package compiles MiniC programs, executes them under an
// instrumenting interpreter, and answers dynamic slicing queries with any
// of the paper's three algorithms:
//
//   - FP: the full dynamic dependence graph, every dependence instance
//     labeled with a timestamp pair (paper §2),
//   - LP: demand-driven backward traversal of an on-disk execution trace
//     with summary-guided segment skipping (the paper's prior algorithm),
//   - OPT: the paper's contribution — a compacted dependence graph whose
//     labels are mostly inferred from statically introduced unlabeled
//     edges (OPT-1 … OPT-6 plus shortcut edges).
//
// Typical use:
//
//	p, _ := slicer.Compile(src)
//	rec, _ := p.Record(slicer.RunOptions{Input: []int64{42}})
//	defer rec.Close()
//	s, _ := rec.OPT().SliceVar("result")
//	fmt.Println(s.Lines) // source lines the final value of result depends on
package slicer

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dynslice/internal/compile"
	"dynslice/internal/interp"
	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/forward"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/lp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/slicing/snapshot"
	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
	"dynslice/internal/trace"
)

// Program is a compiled MiniC program.
type Program struct {
	ir *ir.Program
}

// Compile parses, checks, lowers, and analyzes MiniC source text.
func Compile(src string) (*Program, error) {
	return CompileWith(src, nil)
}

// CompileWith is Compile with telemetry: compile-phase spans and
// program-shape gauges land on reg. A nil registry costs nothing.
func CompileWith(src string, reg *telemetry.Registry) (*Program, error) {
	p, err := compile.SourceWith(src, reg)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// IR returns the analyzed intermediate representation (read-only).
func (p *Program) IR() *ir.Program { return p.ir }

// DumpIR renders the lowered program for inspection.
func (p *Program) DumpIR() string { return p.ir.Dump() }

// RunOptions configures Record.
type RunOptions struct {
	Input    []int64 // values consumed by input()
	MaxSteps int64   // statement budget (0 = interp.DefaultMaxSteps)
	TraceDir string  // where the trace file is written (default: temp dir)
	// OptConfig overrides the OPT configuration (default: opt.Full()).
	OptConfig *opt.Config
	// SequentialBuild disables the pipelined build: graph builders run
	// inline on the interpreter's goroutine instead of concurrently on
	// batched event feeds. The graphs are identical either way (see
	// docs/PERFORMANCE.md).
	SequentialBuild bool
	// Telemetry receives phase spans and pipeline counters for this
	// recording and its slicers. Nil disables collection at near-zero
	// cost (see docs/OBSERVABILITY.md).
	Telemetry *telemetry.Registry
	// QueryLog receives one audit record per slicing query answered
	// against this recording (single, batched, cached, or observed) —
	// the query flight recorder. Nil disables recording at the cost of
	// one nil check per query (see docs/OBSERVABILITY.md).
	QueryLog *querylog.Log
	// QueryStats accumulates per-backend rolling workload statistics
	// (latency quantiles, EWMA, cache hit rate, inferred-edge ratio)
	// over the same query stream — the cost-based planner's feedback
	// input. Nil disables collection.
	QueryStats *stats.Recorder
	// QueryTrace captures per-query causal span trees: the planner
	// decision, each fallback-ladder rung, backend execution, lazy graph
	// builds, and snapshot load, retained under the tracer's tail-based
	// sampling policy (see internal/telemetry/qtrace and
	// docs/OBSERVABILITY.md "Per-query tracing"). Nil disables tracing
	// at the cost of nil checks on the query path.
	QueryTrace *qtrace.Tracer
	// TrackCriteria, when positive, records up to this many slicing
	// criteria during the instrumented run (distinct addresses, most
	// recently defined first — the paper's selection), retrievable via
	// Recording.Criteria.
	TrackCriteria int
	// Snapshot enables the persistent graph cache: with Read set, Record
	// first looks for an on-disk graph image content-addressed by
	// (program, input, configuration) and, on a hit, returns a recording
	// without executing the program at all; with Write set, a freshly
	// built recording is saved back. See docs/PERFORMANCE.md "Snapshot
	// format".
	Snapshot SnapshotOptions
	// DeferGraphs skips the FP and OPT graph construction during Record:
	// only the trace file (and segment summaries) are produced, and the
	// graphs are built lazily — by replaying the trace — the first time
	// an FP or OPT query needs them. A rare-query workload answered by
	// the re-execution or LP backend then never pays graph construction
	// at all. Ignored when Snapshot.Write is set (the snapshot needs the
	// graphs). See docs/PLANNER.md.
	DeferGraphs bool
	// CheckpointEvery captures an interpreter checkpoint every N block
	// executions during the instrumented run, giving the re-execution
	// backend resume points (see internal/slicing/reexec). 0 picks a
	// default (one checkpoint per trace segment) when DeferGraphs is
	// set and disables capture otherwise; negative always disables.
	CheckpointEvery int64
	// Planner supplies the cost-based query planner consulted by
	// Recording.Engine. Nil creates a fresh one seeded from this
	// recording's features. See docs/PLANNER.md.
	Planner *plan.Planner
	// WithForward additionally computes the forward-slicing index during
	// the instrumented run (precomputed slice sets; O(1) queries, no
	// explain support). It becomes a planner candidate.
	WithForward bool
}

// SnapshotOptions configures the persistent graph cache (see
// RunOptions.Snapshot).
type SnapshotOptions struct {
	// Dir is the cache directory; empty means the per-user default
	// (os.UserCacheDir()/dynslice/snapshots).
	Dir string
	// Read makes Record try to load a cached graph image before running
	// the program. A corrupt or mismatched image is counted
	// (engine.snapshot.fallback, snapshot.read.err.<class>) and falls
	// back to a fresh build — never an error, never a wrong slice.
	Read bool
	// Write makes Record save the built graphs after a fresh build (or a
	// cache miss). Write failures are counted (snapshot.write.err) but do
	// not fail the recording.
	Write bool
}

// Recording is one instrumented execution: its outputs, its on-disk trace,
// and the dependence graphs built from it.
type Recording struct {
	p       *Program
	Output  []int64
	Steps   int64
	Return  int64
	path    string
	cleanup func()
	tel     *telemetry.Registry
	qlog    *querylog.Log
	qstats  *stats.Recorder
	qtr     *qtrace.Tracer
	crit    []int64
	source  string // "build" or "snapshot"

	segs    []*trace.Segment
	fpG     *fp.Graph
	optG    *opt.Graph
	lpS     *lp.Slicer
	reexecS *reexec.Slicer
	fwd     *forward.Slicer
	optCfg  opt.Config
	hot     []*profile.PathProfile
	cuts    *profile.Cuts
	lastErr error

	// Inputs of the instrumented run, kept so the re-execution backend
	// (and deferred graph builds) can regenerate it.
	input       []int64
	maxSteps    int64
	totalBlocks int64

	// Deferred graph construction (RunOptions.DeferGraphs): fpG/optG stay
	// nil until first use; buildMu serializes the lazy builds and guards
	// the graph fields against concurrent planner availability checks.
	deferred      bool
	buildMu       sync.Mutex
	fpErr, optErr error
	planner       *plan.Planner
}

// Record runs the program twice — once to collect the Ball-Larus path
// profile (as the paper does), once instrumented — building the FP and OPT
// graphs online and writing the trace file the LP slicer reads.
func (p *Program) Record(o RunOptions) (*Recording, error) {
	// The recording itself gets a causal trace (kind "record"): profile
	// run, snapshot load, and the instrumented run with its trace write
	// each render as a span. Retention follows the query policy — a
	// snapshot miss marks the trace cache-missed.
	qt := o.QueryTrace.StartQuery("record", 0, 0)
	rec, err := p.record(o, qt)
	if err != nil {
		qt.SetError(querylog.Classify(err))
	}
	o.QueryTrace.Finish(qt)
	return rec, err
}

func (p *Program) record(o RunOptions, qt *qtrace.Trace) (*Recording, error) {
	rec := &Recording{p: p, optCfg: opt.Full(), tel: o.Telemetry, qlog: o.QueryLog, qstats: o.QueryStats, qtr: o.QueryTrace, source: "build"}
	if o.OptConfig != nil {
		rec.optCfg = *o.OptConfig
	}
	span := o.Telemetry.StartSpan("record")
	defer span.End()

	// Persistent graph cache: resolve the content address first; a hit
	// answers the whole Record call without executing the program.
	var cache *snapshot.Cache
	var key snapshot.Key
	if o.Snapshot.Read || o.Snapshot.Write {
		var err error
		if cache, err = snapshot.NewCache(o.Snapshot.Dir); err != nil {
			if reg := o.Telemetry; reg != nil {
				reg.Counter("snapshot.cache.err").Inc()
			}
			cache = nil // cache trouble disables snapshotting, never the build
		} else {
			key = snapshot.Key{
				Program: snapshot.HashProgram(p.ir),
				Input:   snapshot.HashInput(o.Input, o.MaxSteps),
				Config:  snapshot.HashConfig(configFingerprint(rec.optCfg, o.TrackCriteria)),
			}
		}
	}
	if cache != nil && o.Snapshot.Read {
		lsp := qt.Root().Child("snapshot-load")
		hit := p.loadSnapshot(cache, key, o, rec.optCfg, lsp)
		lsp.End()
		if hit != nil {
			qt.SetCacheHit()
			return hit, nil
		}
		qt.SetCacheMiss()
	}

	sp := span.Child("profile")
	qsp := qt.Root().Child("profile")
	col := profile.NewCollector(p.ir)
	_, err := interp.Run(p.ir, interp.Options{Input: o.Input, MaxSteps: o.MaxSteps, Sink: col, Telemetry: o.Telemetry})
	sp.End()
	qsp.End()
	if err != nil {
		return nil, fmt.Errorf("slicer: profiling run: %w", err)
	}
	rec.hot = col.HotPaths(1, 0)
	rec.cuts = col.Cuts()

	dir := o.TraceDir
	var tmp string
	if dir == "" {
		tmp, err = os.MkdirTemp("", "dynslice")
		if err != nil {
			return nil, err
		}
		dir = tmp
	}
	rec.path = filepath.Join(dir, "run.trace")
	tracePath := rec.path
	rec.cleanup = func() {
		// The trace file may live in a caller-supplied directory; remove
		// it explicitly before removing our own temp dir (if any).
		os.Remove(tracePath)
		if tmp != "" {
			os.RemoveAll(tmp)
		}
	}
	// Until the recording is complete, every error return must release
	// what was created so far (trace file, temp dir).
	ok := false
	defer func() {
		if !ok {
			rec.Close()
		}
	}()
	f, err := os.Create(rec.path)
	if err != nil {
		return nil, err
	}
	tw := trace.NewWriter(p.ir, f, 4096)
	tw.SetMetrics(trace.NewMetrics(o.Telemetry))
	// DeferGraphs skips the online FP/OPT construction entirely (the
	// graphs are replay-built on demand); a snapshot write needs them
	// now, so it overrides the deferral.
	rec.deferred = o.DeferGraphs && !(cache != nil && o.Snapshot.Write)
	sink := trace.Multi{tw}
	var picker *trace.CritPicker
	if o.TrackCriteria > 0 {
		picker = trace.NewCritPicker()
	}
	var asyncs []*trace.Async
	if !rec.deferred {
		rec.fpG = fp.NewGraph(p.ir)
		rec.fpG.SetTelemetry(o.Telemetry)
		rec.optG = opt.NewGraph(p.ir, rec.optCfg, rec.hot, rec.cuts)
		rec.optG.SetTelemetry(o.Telemetry)
		if o.SequentialBuild {
			sink = append(sink, rec.fpG, rec.optG)
		} else {
			// By default the graph builders run as pipelined Async sinks:
			// the interpreter batches events into pooled buffers and each
			// builder consumes its own feed concurrently. The trace writer
			// stays inline so trace I/O errors surface synchronously. An
			// attached timeline (telemetry.AttachTimeline) gives each
			// builder worker its own named row of per-batch activity.
			tl := o.Telemetry.Timeline()
			// Epoch-parallel block sealing rides along with the pipelined
			// build: each builder ships filled label epochs to encode
			// workers instead of bit-packing them inline.
			rec.fpG.SetParallelEncode(0)
			rec.optG.SetParallelEncode(0)
			afp := trace.NewAsync(rec.fpG, trace.PipelineConfig{Timeline: tl, TimelineNames: []string{"fp-build"}})
			aopt := trace.NewAsync(rec.optG, trace.PipelineConfig{Timeline: tl, TimelineNames: []string{"opt-build"}})
			asyncs = []*trace.Async{afp, aopt}
			sink = append(sink, afp, aopt)
		}
	}
	if o.WithForward {
		// The forward index builder stays inline like the picker: its
		// per-event work is set arithmetic on interned IDs.
		rec.fwd = forward.New(p.ir)
		sink = append(sink, rec.fwd)
	}
	if picker != nil {
		// Criterion tracking stays inline: the picker is cheap (two map
		// stores per defining statement) and must see the full run.
		sink = append(sink, picker)
	}
	// Checkpoint capture feeds the re-execution backend. The default
	// Record path leaves it off; DeferGraphs turns it on (one checkpoint
	// per trace segment) since re-execution is then the expected backend.
	ckEvery := o.CheckpointEvery
	if ckEvery == 0 && rec.deferred {
		ckEvery = 4096
	}
	if ckEvery < 0 {
		ckEvery = 0
	}
	sp = span.Child("interp")
	qsp = qt.Root().Child("interp")
	res, err := interp.Run(p.ir, interp.Options{
		Input:           o.Input,
		MaxSteps:        o.MaxSteps,
		Sink:            sink,
		Telemetry:       o.Telemetry,
		CheckpointEvery: ckEvery,
	})
	sp.End()
	qsp.End()
	if err != nil {
		// The interpreter never delivered End; drain the async builders
		// so their goroutines exit before we tear the recording down.
		for _, a := range asyncs {
			a.Close()
		}
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if tw.Err() != nil {
		return nil, tw.Err()
	}
	rec.segs = tw.Segments()
	// Annotate the instrumented-run span with the trace I/O it produced.
	if qt != nil {
		qsp.Int("steps", res.Steps).Int("blocks", res.BlockExecs).Int("trace_segments", int64(len(rec.segs)))
	}
	rec.lpS = lp.New(p.ir, rec.path, rec.segs)
	rec.lpS.SetTelemetry(o.Telemetry)
	rec.Output = res.Output
	rec.Steps = res.Steps
	rec.Return = res.ReturnValue
	rec.input = o.Input
	rec.maxSteps = o.MaxSteps
	rec.totalBlocks = res.BlockExecs
	rec.reexecS = reexec.New(p.ir, rec.segs, reexec.Options{
		Input:       o.Input,
		MaxSteps:    o.MaxSteps,
		TotalBlocks: res.BlockExecs,
		Checkpoints: res.Checkpoints,
	})
	rec.reexecS.SetTelemetry(o.Telemetry)
	rec.planner = o.Planner
	if rec.planner == nil {
		rec.planner = plan.New()
	}
	rec.planner.Seed(plan.Features{
		TraceBlocks: res.BlockExecs,
		TraceSteps:  res.Steps,
		Segments:    len(rec.segs),
		IRStmts:     len(p.ir.Stmts),
	})
	if picker != nil {
		rec.crit = picker.Pick(o.TrackCriteria)
	}
	ok = true
	if cache != nil && o.Snapshot.Write {
		rec.writeSnapshot(cache, key)
	}
	return rec, nil
}

// configFingerprint renders every knob that shapes the built graphs (and
// therefore the snapshot bytes) into the stable string the cache key's
// Config digest covers. Telemetry, logging, and build parallelism are
// deliberately absent: they do not change the graph.
func configFingerprint(cfg opt.Config, trackCriteria int) string {
	return fmt.Sprintf("opt=%+v|crit=%d", cfg, trackCriteria)
}

// loadSnapshot tries to answer Record from the cache. It returns nil on
// any miss — absent file, corrupt file, mismatched key — counting the
// reason; the caller falls back to a fresh build. sp (the record
// trace's snapshot-load span) is annotated with the outcome and, on a
// hit, the image size.
func (p *Program) loadSnapshot(cache *snapshot.Cache, key snapshot.Key, o RunOptions, cfg opt.Config, sp qtrace.SpanRef) *Recording {
	path := cache.Path(key)
	fi, err := os.Stat(path)
	if err != nil {
		if reg := o.Telemetry; reg != nil {
			reg.Counter("engine.snapshot.miss").Inc()
		}
		sp.Str("result", "miss")
		return nil
	}
	t0 := time.Now()
	img, err := snapshot.Read(path, p.ir, key)
	if err != nil {
		if reg := o.Telemetry; reg != nil {
			reg.Counter("snapshot.read.err." + snapshot.Classify(err)).Inc()
			reg.Counter("engine.snapshot.fallback").Inc()
		}
		sp.Str("result", "fallback").Str("err_class", snapshot.Classify(err))
		return nil
	}
	if reg := o.Telemetry; reg != nil {
		reg.Counter("engine.snapshot.hit").Inc()
		reg.Counter("snapshot.load.ns").Add(time.Since(t0).Nanoseconds())
		reg.Counter("snapshot.load.bytes").Add(fi.Size())
	}
	sp.Str("result", "hit").Int("bytes", fi.Size())
	rec := &Recording{
		p: p, optCfg: cfg, tel: o.Telemetry, qlog: o.QueryLog, qstats: o.QueryStats,
		qtr:    o.QueryTrace,
		source: "snapshot",
		Output: img.Output, Steps: img.Steps, Return: img.Return, crit: img.Criteria,
		segs: img.Segs, fpG: img.FP, optG: img.OPT,
	}
	rec.fpG.SetTelemetry(o.Telemetry)
	rec.optG.SetTelemetry(o.Telemetry)
	// A snapshot persists the graphs, not the trace — but the inputs are
	// part of the cache key, so the re-execution backend still works: it
	// regenerates any segment from scratch (no checkpoints survive the
	// snapshot round-trip).
	rec.input = o.Input
	rec.maxSteps = o.MaxSteps
	if n := len(img.Segs); n > 0 {
		rec.totalBlocks = img.Segs[n-1].EndOrd
	}
	rec.reexecS = reexec.New(p.ir, rec.segs, reexec.Options{
		Input:       o.Input,
		MaxSteps:    o.MaxSteps,
		TotalBlocks: rec.totalBlocks,
	})
	rec.reexecS.SetTelemetry(o.Telemetry)
	rec.planner = o.Planner
	if rec.planner == nil {
		rec.planner = plan.New()
	}
	rec.planner.Seed(plan.Features{
		TraceBlocks: rec.totalBlocks,
		TraceSteps:  img.Steps,
		Segments:    len(img.Segs),
		IRStmts:     len(p.ir.Stmts),
	})
	return rec
}

// writeSnapshot saves the built graphs to the cache. Failures are counted
// but never fail the recording: the snapshot is an accelerator, not an
// output.
func (r *Recording) writeSnapshot(cache *snapshot.Cache, key snapshot.Key) {
	img := &snapshot.Image{
		Output: r.Output, Steps: r.Steps, Return: r.Return, Criteria: r.crit,
		Segs: r.segs, FP: r.fpG, OPT: r.optG,
	}
	t0 := time.Now()
	n, err := snapshot.Write(cache.Path(key), key, img)
	if reg := r.tel; reg != nil {
		if err != nil {
			reg.Counter("snapshot.write.err").Inc()
			return
		}
		reg.Counter("snapshot.write.ns").Add(time.Since(t0).Nanoseconds())
		reg.Counter("snapshot.write.bytes").Add(n)
	}
}

// Close removes temporary artifacts (the trace file and, when Record
// created one, its temp directory). Closing twice is a no-op; a
// Recording whose trace was removed can no longer answer LP queries.
func (r *Recording) Close() {
	if r.cleanup != nil {
		r.cleanup()
		r.cleanup = nil
	}
}

// TracePath returns the on-disk trace file location (empty until Record
// has created it; invalid after Close).
func (r *Recording) TracePath() string { return r.path }

// Telemetry returns the registry attached via RunOptions, or nil.
func (r *Recording) Telemetry() *telemetry.Registry { return r.tel }

// QueryLog returns the query flight recorder attached via RunOptions,
// or nil.
func (r *Recording) QueryLog() *querylog.Log { return r.qlog }

// QueryStats returns the workload-statistics recorder attached via
// RunOptions, or nil.
func (r *Recording) QueryStats() *stats.Recorder { return r.qstats }

// Criteria returns the slicing criteria tracked during the instrumented
// run (RunOptions.TrackCriteria): distinct defined addresses, most
// recently defined first. Empty when tracking was off.
func (r *Recording) Criteria() []int64 { return r.crit }

// Source reports where this recording's graphs came from: "build" (fresh
// instrumented execution) or "snapshot" (loaded from the persistent
// graph cache). Every audit record the recording emits carries the same
// value.
func (r *Recording) Source() string { return r.source }

// queryObserved reports whether per-query audit recording is attached.
// When false, the query path pays exactly two nil checks (the
// TestOverhead guard covers this).
func (r *Recording) queryObserved() bool { return r.qlog != nil || r.qstats != nil }

// QueryTrace returns the per-query causal tracer attached via
// RunOptions, or nil.
func (r *Recording) QueryTrace() *qtrace.Tracer { return r.qtr }

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

// logQuery publishes one finished query's audit record to the flight
// recorder and the rolling workload statistics.
func (r *Recording) logQuery(qr querylog.Record) {
	qr.Source = r.source
	r.qlog.Add(qr)
	if r.qstats != nil {
		r.qstats.ObserveQuery(qr.Backend, qr.Latency, qr.Batch, qr.CacheHit, qr.Err != "")
		if qr.Kind == querylog.KindExplain {
			r.qstats.ObserveEdges(qr.Backend, qr.Explicit, qr.Inferred, qr.Shortcut)
		}
	}
}

// Slice is a slicing result mapped back to the source program.
type Slice struct {
	// Lines are the distinct source lines in the slice, ascending.
	Lines []int
	// Stmts is the number of IR statements in the slice.
	Stmts int
	// Time is the wall-clock cost of the query.
	Time time.Duration
	// QueryID is the flight-recorder ID of the query that computed this
	// slice (0 when no query log was attached). A cached result keeps
	// the ID of the query that originally computed it; the cache hit
	// itself is audited under its own ID.
	QueryID uint64
	// TraceID identifies the causal trace of the query that computed
	// this slice (0 when no tracer was attached). When the trace was
	// retained, /debug/qtrace/<id> renders its span tree. Like QueryID,
	// a cached result keeps the computing query's trace.
	TraceID qtrace.TraceID
	raw     *slicing.Slice
}

// HasLine reports whether the slice contains the given source line.
func (s *Slice) HasLine(line int) bool {
	for _, l := range s.Lines {
		if l == line {
			return true
		}
	}
	return false
}

// Raw exposes the underlying statement set.
func (s *Slice) Raw() *slicing.Slice { return s.raw }

// Slicer answers slicing queries against one algorithm's graph.
type Slicer struct {
	rec  *Recording
	name string
	impl slicing.MultiSlicer

	// Planner attribution, set by planned dispatch (Recording.Engine):
	// plan is the backend the planner chose, planReason its rationale
	// (or the fallback cause when this slicer is a later ladder rung).
	// Every dispatch stamps a fresh *Slicer, so these are immutable once
	// queries run.
	plan       string
	planReason string

	// Causal-trace attribution, stamped the same way: qt is the active
	// query trace, qspan the parent span execution spans nest under (the
	// attempt span of this ladder rung, or the root for direct engine
	// dispatch). Nil/zero when the caller carries no trace — the slicer
	// then starts its own when the recording has a tracer attached.
	qt    *qtrace.Trace
	qspan qtrace.SpanRef
}

// withTrace returns a shallow copy stamped with the trace, so shared
// slicers (a fixed-backend engine's) never carry per-query state.
func (s *Slicer) withTrace(qt *qtrace.Trace, parent qtrace.SpanRef) *Slicer {
	if qt == nil {
		return s
	}
	c := *s
	c.qt = qt
	c.qspan = parent
	return &c
}

// logQuery stamps the planner attribution and publishes the record.
func (s *Slicer) logQuery(qr querylog.Record) {
	qr.Plan = s.plan
	qr.PlanReason = s.planReason
	s.rec.logQuery(qr)
}

// ensureFP returns the FP graph, building it from the trace on first
// use when construction was deferred (RunOptions.DeferGraphs). A build
// failure latches: later calls return the same error without retrying.
func (r *Recording) ensureFP() (*fp.Graph, error) {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if r.fpG != nil {
		return r.fpG, nil
	}
	if r.fpErr != nil {
		return nil, r.fpErr
	}
	span := r.tel.StartSpan("fp-deferred-build")
	g := fp.NewGraph(r.p.ir)
	g.SetTelemetry(r.tel)
	if err := r.replayInto(g); err != nil {
		r.fpErr = fmt.Errorf("slicer: deferred FP build: %w", err)
		span.End()
		return nil, r.fpErr
	}
	span.End()
	r.fpG = g
	return g, nil
}

// ensureOPT is ensureFP for the compacted graph.
func (r *Recording) ensureOPT() (*opt.Graph, error) {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if r.optG != nil {
		return r.optG, nil
	}
	if r.optErr != nil {
		return nil, r.optErr
	}
	span := r.tel.StartSpan("opt-deferred-build")
	g := opt.NewGraph(r.p.ir, r.optCfg, r.hot, r.cuts)
	g.SetTelemetry(r.tel)
	if err := r.replayInto(g); err != nil {
		r.optErr = fmt.Errorf("slicer: deferred OPT build: %w", err)
		span.End()
		return nil, r.optErr
	}
	span.End()
	r.optG = g
	return g, nil
}

// replayInto feeds the recorded trace through a sink — the deferred
// graph build path. The event stream is identical to what the builders
// would have seen online, so the graphs are identical too.
func (r *Recording) replayInto(sink trace.Sink) error {
	f, err := os.Open(r.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.ReplayWith(r.p.ir, f, sink, trace.NewMetrics(r.tel))
}

// FP returns the full-graph slicer (building the graph on first use
// when Record deferred it).
func (r *Recording) FP() *Slicer {
	g, err := r.ensureFP()
	if err != nil {
		return &Slicer{rec: r, name: "FP", impl: unavailableSlicer{err}}
	}
	return &Slicer{rec: r, name: "FP", impl: g}
}

// OPT returns the compacted-graph slicer (the paper's algorithm),
// building the graph on first use when Record deferred it.
func (r *Recording) OPT() *Slicer {
	g, err := r.ensureOPT()
	if err != nil {
		return &Slicer{rec: r, name: "OPT", impl: unavailableSlicer{err}}
	}
	return &Slicer{rec: r, name: "OPT", impl: g}
}

// Reexec returns the re-execution slicer: queries are answered by
// resuming the interpreter from checkpoints and running the LP
// traversal over the regenerated events — no graph, no trace reads.
func (r *Recording) Reexec() *Slicer {
	if r.reexecS == nil {
		return &Slicer{rec: r, name: "reexec", impl: unavailableSlicer{errNoReexec}}
	}
	return &Slicer{rec: r, name: "reexec", impl: r.reexecS}
}

// Forward returns the forward-computed slicer (RunOptions.WithForward):
// per-address slice sets precomputed during the run, answered by
// lookup. Unavailable unless the recording was made WithForward.
func (r *Recording) Forward() *Slicer {
	if r.fwd == nil {
		return &Slicer{rec: r, name: "forward", impl: unavailableSlicer{errNoForward}}
	}
	return &Slicer{rec: r, name: "forward", impl: loopMulti{r.fwd}}
}

var (
	errNoReexec  = errors.New("slicer: re-execution backend unavailable for this recording")
	errNoForward = errors.New("slicer: forward index not built (RunOptions.WithForward was off)")
)

// loopMulti lifts a single-criterion slicer into MultiSlicer by
// looping — for backends whose per-query cost is a lookup, batching
// has nothing to share.
type loopMulti struct{ s slicing.Slicer }

func (m loopMulti) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return m.s.Slice(c)
}

func (m loopMulti) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	outs := make([]*slicing.Slice, len(cs))
	agg := &slicing.Stats{}
	for i, c := range cs {
		sl, st, err := m.s.Slice(c)
		if err != nil {
			return nil, nil, err
		}
		outs[i] = sl
		if st != nil {
			agg.Instances += st.Instances
			agg.LabelProbes += st.LabelProbes
		}
	}
	return outs, agg, nil
}

// LP returns the demand-driven trace slicer. A snapshot-loaded recording
// has no trace file, so its LP slicer answers every query with an error
// (snapshots persist the graphs, not the execution trace).
func (r *Recording) LP() *Slicer {
	if r.lpS == nil {
		return &Slicer{rec: r, name: "LP", impl: unavailableSlicer{errLPSnapshot}}
	}
	return &Slicer{rec: r, name: "LP", impl: r.lpS}
}

// errLPSnapshot is returned by LP queries against snapshot-loaded
// recordings.
var errLPSnapshot = errors.New("slicer: LP is unavailable for a snapshot-loaded recording (no trace file)")

// unavailableSlicer rejects every query with a fixed error.
type unavailableSlicer struct{ err error }

func (u unavailableSlicer) Slice(slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return nil, nil, u.err
}

func (u unavailableSlicer) SliceAll([]slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	return nil, nil, u.err
}

// Name reports which algorithm this slicer uses.
func (s *Slicer) Name() string { return s.name }

// queryTrace returns the active causal trace and the parent span this
// query's execution span nests under, minting a fresh trace when the
// caller carries none but the recording has a tracer attached (direct
// façade queries). The bool reports ownership: an owned trace is
// finished by this call; a stamped one belongs to the dispatching
// engine.
func (s *Slicer) queryTrace(kind string, addr int64, batch int) (*qtrace.Trace, qtrace.SpanRef, bool) {
	if s.qt != nil {
		return s.qt, s.qspan, false
	}
	if s.rec.qtr == nil {
		return nil, qtrace.SpanRef{}, false
	}
	qt := s.rec.qtr.StartQuery(kind, addr, batch)
	return qt, qt.Root(), true
}

// annotateExec attaches traversal-effort attributes — instance and
// probe counts, and for LP the trace bytes decoded — to an execution
// span.
func annotateExec(esp qtrace.SpanRef, st *slicing.Stats) {
	if st == nil {
		return
	}
	esp.Int("instances", st.Instances).Int("label_probes", st.LabelProbes)
	if st.SegScans > 0 || st.SegSkips > 0 {
		esp.Int("seg_scans", st.SegScans).Int("seg_skips", st.SegSkips).Int("seg_bytes", st.SegBytes)
	}
}

// SliceAddr slices on the last definition of the given memory address.
func (s *Slicer) SliceAddr(addr int64) (*Slice, error) {
	var id uint64
	obs := s.rec.queryObserved()
	if obs {
		id = s.rec.qlog.NextID()
	}
	qt, parent, owned := s.queryTrace(querylog.KindSlice, addr, 0)
	esp := parent.Child("exec/" + s.name)
	t0 := time.Now()
	raw, st, err := s.impl.Slice(slicing.AddrCriterion(addr))
	elapsed := time.Since(t0)
	if err != nil {
		class := querylog.Classify(err)
		esp.EndErr(class)
		if obs {
			s.logQuery(querylog.Record{
				ID: id, Start: t0, Backend: s.name, Kind: querylog.KindSlice,
				Addr: addr, Latency: elapsed, Err: class, TraceID: qt.ID(),
			})
		}
		if owned {
			qt.SetError(class)
			s.rec.finishTrace(qt)
		}
		return nil, err
	}
	if qt != nil {
		annotateExec(esp.Int("stmts", int64(raw.Len())), st)
	}
	esp.End()
	qt.SetQueryID(id)
	if reg := s.rec.tel; reg != nil {
		reg.ObserveSpan("slice/"+s.name, elapsed)
		reg.Counter("slice.queries").Inc()
		reg.Histogram("slice.size").Observe(int64(raw.Len()))
		if st != nil {
			reg.Counter("slice.instances").Add(st.Instances)
			reg.Counter("slice.label_probes").Add(st.LabelProbes)
		}
	}
	sl := &Slice{
		Lines:   raw.Lines(s.rec.p.ir),
		Stmts:   raw.Len(),
		Time:    elapsed,
		QueryID: id,
		TraceID: qt.ID(),
		raw:     raw,
	}
	if obs {
		qr := querylog.Record{
			ID: id, Start: t0, Backend: s.name, Kind: querylog.KindSlice,
			Addr: addr, Latency: elapsed, Stmts: sl.Stmts, Lines: len(sl.Lines),
			TraceID: qt.ID(),
		}
		if st != nil {
			qr.Instances = st.Instances
			qr.LabelProbes = st.LabelProbes
		}
		s.logQuery(qr)
	}
	if owned {
		qt.SetBackend(s.name)
		s.rec.finishTrace(qt)
	}
	return sl, nil
}

// SliceAddrs answers a batch of address criteria in one shared backward
// traversal (slicing.MultiSlicer): results are identical to calling
// SliceAddr per address, but visited state, label resolution, and — for
// LP — trace segment scans are shared across the whole batch.
func (s *Slicer) SliceAddrs(addrs []int64) ([]*Slice, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	cs := make([]slicing.Criterion, len(addrs))
	for i, a := range addrs {
		cs[i] = slicing.AddrCriterion(a)
	}
	obs := s.rec.queryObserved()
	qt, parent, owned := s.queryTrace(querylog.KindBatch, addrs[0], len(addrs))
	esp := parent.Child("exec/" + s.name)
	t0 := time.Now()
	raws, st, err := s.impl.SliceAll(cs)
	elapsed := time.Since(t0)
	if err != nil {
		class := querylog.Classify(err)
		esp.EndErr(class)
		if obs {
			s.logQuery(querylog.Record{
				ID: s.rec.qlog.NextID(), Start: t0, Backend: s.name,
				Kind: querylog.KindBatch, Addr: addrs[0], Batch: len(addrs),
				Latency: elapsed, Err: class, TraceID: qt.ID(),
			})
		}
		if owned {
			qt.SetError(class)
			s.rec.finishTrace(qt)
		}
		return nil, err
	}
	if qt != nil {
		annotateExec(esp.Int("criteria", int64(len(addrs))), st)
	}
	esp.End()
	if reg := s.rec.tel; reg != nil {
		reg.ObserveSpan("slice/"+s.name, elapsed)
		reg.Counter("slice.queries").Add(int64(len(addrs)))
		if st != nil {
			reg.Counter("slice.instances").Add(st.Instances)
			reg.Counter("slice.label_probes").Add(st.LabelProbes)
		}
	}
	outs := make([]*Slice, len(raws))
	for i, raw := range raws {
		if reg := s.rec.tel; reg != nil {
			reg.Histogram("slice.size").Observe(int64(raw.Len()))
		}
		var id uint64
		if obs {
			id = s.rec.qlog.NextID()
		}
		outs[i] = &Slice{
			Lines:   raw.Lines(s.rec.p.ir),
			Stmts:   raw.Len(),
			Time:    elapsed / time.Duration(len(raws)),
			QueryID: id,
			TraceID: qt.ID(),
			raw:     raw,
		}
		if obs {
			// One audit record per criterion; the batch's wall time is
			// shared evenly, and the batch-aggregate traversal stats ride
			// on the first record. All records of one batch share the
			// batch's causal trace.
			qr := querylog.Record{
				ID: id, Start: t0, Backend: s.name, Kind: querylog.KindBatch,
				Addr: addrs[i], Batch: len(addrs), Latency: outs[i].Time,
				Stmts: outs[i].Stmts, Lines: len(outs[i].Lines),
				TraceID: qt.ID(),
			}
			if i == 0 && st != nil {
				qr.Instances = st.Instances
				qr.LabelProbes = st.LabelProbes
			}
			if i == 0 {
				qt.SetQueryID(id)
			}
			s.logQuery(qr)
		}
	}
	if owned {
		qt.SetBackend(s.name)
		s.rec.finishTrace(qt)
	}
	return outs, nil
}

// SliceVar slices on the last definition of a global scalar variable.
func (s *Slicer) SliceVar(name string) (*Slice, error) {
	addr, err := s.rec.p.GlobalAddr(name)
	if err != nil {
		return nil, err
	}
	return s.SliceAddr(addr)
}

// GlobalAddr returns the address of a global scalar (or the first element
// of a global array).
func (p *Program) GlobalAddr(name string) (int64, error) {
	for _, o := range p.ir.Globals {
		if o.Name == name {
			return interp.GlobalBase + o.Off, nil
		}
	}
	return 0, fmt.Errorf("slicer: no global named %q", name)
}

// GraphStats summarizes the two in-memory dependence graphs, mirroring the
// quantities the paper's tables report.
type GraphStats struct {
	FPLabelPairs  int64
	OPTLabelPairs int64
	FPSizeBytes   int64
	OPTSizeBytes  int64
	StaticEdges   int64
	PathNodes     int
}

// Stats returns graph statistics for this recording, building deferred
// graphs if necessary (zero stats when a deferred build fails).
func (r *Recording) Stats() GraphStats {
	fpG, err1 := r.ensureFP()
	optG, err2 := r.ensureOPT()
	if err1 != nil || err2 != nil {
		return GraphStats{}
	}
	return GraphStats{
		FPLabelPairs:  fpG.LabelPairs(),
		OPTLabelPairs: optG.LabelPairs(),
		FPSizeBytes:   fpG.SizeBytes(),
		OPTSizeBytes:  optG.SizeBytes(),
		StaticEdges:   optG.StaticEdges(),
		PathNodes:     optG.PathNodes(),
	}
}

// Planner returns the recording's cost-based query planner (always
// non-nil after Record).
func (r *Recording) Planner() *plan.Planner { return r.planner }

// PlanFor returns the planner's decision for one query shape against
// the recording's current backend availability and live workload
// statistics. Purely informational: it changes no state.
func (r *Recording) PlanFor(shape plan.Shape) plan.Decision {
	return r.planner.Decide(shape, r.availability(), r.qstats.Snapshot())
}

// availability reports which backends can answer right now and which
// graphs are already built.
func (r *Recording) availability() plan.Availability {
	r.buildMu.Lock()
	fpWarm, optWarm := r.fpG != nil, r.optG != nil
	fpErr, optErr := r.fpErr, r.optErr
	r.buildMu.Unlock()
	return plan.Availability{
		FP:      (fpWarm || r.path != "") && fpErr == nil,
		OPT:     (optWarm || r.path != "") && optErr == nil,
		LP:      r.lpS != nil,
		Reexec:  r.reexecS != nil,
		Forward: r.fwd != nil,
		FPWarm:  fpWarm,
		OPTWarm: optWarm,
	}
}

// backendSlicer maps a planner backend name to this recording's slicer
// for it (nil for unknown names).
func (r *Recording) backendSlicer(name string) *Slicer {
	switch name {
	case plan.FP:
		return r.FP()
	case plan.OPT:
		return r.OPT()
	case plan.LP:
		return r.LP()
	case plan.Reexec:
		return r.Reexec()
	case plan.Forward:
		return r.Forward()
	}
	return nil
}
