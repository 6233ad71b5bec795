package slicer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynslice/internal/slicing/plan"
	"dynslice/internal/slicing/reexec"
	"dynslice/internal/telemetry"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
	"dynslice/internal/telemetry/stats"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

const fanoutSrc = `
var acc = 0;
var spin = 0;
var last = 0;
var peak = 0;

func bump(v) {
	return v + 1;
}

func main() {
	var i = 0;
	while (i < 40) {
		spin = bump(spin);
		acc = acc + spin;
		if (spin > peak) {
			peak = spin;
		}
		i = i + 1;
	}
	last = acc - peak;
	print(last);
}`

// TestQueryFanoutGolden drives every query path — direct slices,
// batches and explains, a fixed engine's misses and hits, a planned
// engine's forced fallback, and bad criteria — with all four sinks
// attached (telemetry, query log, workload stats, causal traces), and
// pins what each sink received, normalized: IDs become ordinals that
// keep record↔trace↔slice links, and timings are dropped. Regenerate
// with -update only when a sink's output is meant to change.
func TestQueryFanoutGolden(t *testing.T) {
	p, err := Compile(fanoutSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	qlog := querylog.New(512)
	qst := stats.New()
	qtr := qtrace.New(256, qtrace.Policy{OnError: true, OnCacheMiss: true, OnPlanDiverge: true, SampleN: 1})
	rec, err := p.Record(RunOptions{
		Telemetry: reg, QueryLog: qlog, QueryStats: qst, QueryTrace: qtr, DeferGraphs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	addr := map[string]int64{}
	for _, name := range []string{"acc", "spin", "last", "peak"} {
		if addr[name], err = p.GlobalAddr(name); err != nil {
			t.Fatal(err)
		}
	}
	acc, spin, last, peak := addr["acc"], addr["spin"], addr["last"], addr["peak"]
	const bogus = int64(1) << 40

	var got []*Slice
	keep := func(sls ...*Slice) { got = append(got, sls...) }
	var errs []string
	step := func(name string, err error) {
		errs = append(errs, fmt.Sprintf("%s: %s", name, querylog.Classify(err)))
	}

	// Planned engine, cold: the planner's first choice (reexec) is
	// broken from the inside, so the first query walks the ladder. The
	// planned steps stay below the planner's evidence threshold, so
	// every plan reason is the static seed's.
	if d := rec.PlanFor(plan.Shape{Kind: plan.KindSlice, Batch: 1}); d.Backend != plan.Reexec {
		t.Fatalf("cold plan chose %q, want %q (%s)", d.Backend, plan.Reexec, d.Reason)
	}
	rec.reexecS = reexec.New(rec.p.ir, nil, reexec.Options{
		Input: rec.input, MaxSteps: rec.maxSteps, TotalBlocks: rec.totalBlocks,
	})
	pe := rec.Engine(EngineOptions{})
	sl, err := pe.SliceAddr(acc)
	step("planned slice", err)
	keep(sl)
	_, err = pe.SliceAddr(bogus)
	step("planned bogus", err)
	ex, err := pe.Explain(spin)
	step("planned explain", err)
	keep(ex.Slice)
	sls, err := pe.SliceAddrs([]int64{last, peak, last})
	step("planned batch", err)
	keep(sls...)
	sl, err = pe.SliceAddr(spin)
	step("planned hit", err)
	keep(sl)
	sls, err = pe.SliceAddrs([]int64{acc, spin})
	step("planned all-hit batch", err)
	keep(sls...)

	// Direct slicer queries.
	sl, err = rec.OPT().SliceAddr(acc)
	step("direct slice", err)
	keep(sl)
	sls, err = rec.FP().SliceAddrs([]int64{acc, spin, last})
	step("direct batch", err)
	keep(sls...)
	ex, err = rec.OPT().ExplainAddr(spin)
	step("direct explain", err)
	keep(ex.Slice)
	sl, err = rec.LP().SliceAddr(last)
	step("direct LP slice", err)
	keep(sl)
	_, err = rec.OPT().SliceAddr(bogus)
	step("direct bogus slice", err)
	_, err = rec.FP().ExplainAddr(bogus)
	step("direct bogus explain", err)
	_, err = rec.LP().SliceAddrs([]int64{acc, bogus})
	step("direct bogus batch", err)

	// Fixed-backend engine: misses, hits, mixed batches, an explain and
	// bad criteria.
	fe := rec.OPT().Engine(EngineOptions{})
	sl, err = fe.SliceAddr(acc)
	step("fixed miss", err)
	keep(sl)
	sl, err = fe.SliceAddr(acc)
	step("fixed hit", err)
	keep(sl)
	sls, err = fe.SliceAddrs([]int64{spin, acc, last, spin})
	step("fixed mixed batch", err)
	keep(sls...)
	sls, err = fe.SliceAddrs([]int64{acc, spin})
	step("fixed all-hit batch", err)
	keep(sls...)
	ex, err = fe.Explain(peak)
	step("fixed explain", err)
	keep(ex.Slice)
	_, err = fe.SliceAddr(bogus)
	step("fixed bogus", err)
	_, err = fe.SliceAddrs([]int64{acc, bogus})
	step("fixed bogus batch", err)

	out := fanoutDump(reg, qlog, qst, qtr, got, errs)
	golden := filepath.Join("testdata", "fanout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("query sink fan-out drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}
}

// fanoutDump renders the four sinks' contents without IDs or timings.
func fanoutDump(reg *telemetry.Registry, qlog *querylog.Log, qst *stats.Recorder, qtr *qtrace.Tracer, got []*Slice, errs []string) string {
	var b strings.Builder
	records := qlog.Recent(0)
	for i, j := 0, len(records)-1; i < j; i, j = i+1, j-1 {
		records[i], records[j] = records[j], records[i]
	}
	traces := qtr.Recent(0)
	for i, j := 0, len(traces)-1; i < j; i, j = i+1, j-1 {
		traces[i], traces[j] = traces[j], traces[i]
	}
	qref := map[uint64]string{0: "-"}
	for i, r := range records {
		qref[r.ID] = fmt.Sprintf("Q%d", i+1)
	}
	tref := map[qtrace.TraceID]string{0: "-"}
	for _, tr := range traces {
		if tr.Kind() != "record" {
			tref[tr.ID()] = fmt.Sprintf("T%d", len(tref))
		}
	}
	ref := func(m map[uint64]string, id uint64) string {
		if s, ok := m[id]; ok {
			return s
		}
		return "?"
	}
	tr := func(id qtrace.TraceID) string {
		if s, ok := tref[id]; ok {
			return s
		}
		return "?"
	}

	b.WriteString("== outcomes\n")
	for _, e := range errs {
		fmt.Fprintf(&b, "%s\n", e)
	}
	b.WriteString("== slices\n")
	for _, sl := range got {
		fmt.Fprintf(&b, "stmts=%d lines=%v query=%s trace=%s\n", sl.Stmts, sl.Lines, ref(qref, sl.QueryID), tr(sl.TraceID))
	}

	b.WriteString("== querylog\n")
	for i, r := range records {
		fmt.Fprintf(&b, "Q%d %s %s addr=%d batch=%d hit=%v stmts=%d lines=%d inst=%d probes=%d edges=%d/%d/%d err=%q plan=%q reason=%q source=%s trace=%s\n",
			i+1, r.Kind, r.Backend, r.Addr, r.Batch, r.CacheHit, r.Stmts, r.Lines,
			r.Instances, r.LabelProbes, r.Explicit, r.Inferred, r.Shortcut,
			r.Err, r.Plan, r.PlanReason, r.Source, tr(r.TraceID))
	}

	b.WriteString("== telemetry\n")
	snap := reg.Snapshot()
	// The batch scheduler's own counters (slice.batch.*) depend on
	// worker timing and are not query observations.
	for _, name := range []string{"engine.cache.hits", "engine.cache.misses",
		"slice.explained", "slice.instances", "slice.label_probes", "slice.queries"} {
		fmt.Fprintf(&b, "counter %s=%d\n", name, snap.Counters[name])
	}
	h := snap.Histograms["slice.size"]
	fmt.Fprintf(&b, "histogram slice.size count=%d sum=%d\n", h.Count, h.Sum)
	var names []string
	for name := range snap.Spans {
		if strings.HasPrefix(name, "slice/") || strings.HasPrefix(name, "explain/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "span %s count=%d\n", name, snap.Spans[name].Count)
	}

	b.WriteString("== stats\n")
	ss := qst.Snapshot()
	names = names[:0]
	for name := range ss.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bs := ss.Backends[name]
		fmt.Fprintf(&b, "%s queries=%d errors=%d hits=%d observed=%d edges=%d/%d/%d exemplars=%v\n",
			name, bs.Queries, bs.Errors, bs.CacheHit, bs.Observed,
			bs.ExplicitEdges, bs.InferredEdges, bs.ShortcutEdges, len(bs.Exemplars) > 0)
	}
	fmt.Fprintf(&b, "total queries=%d hits=%d misses=%d batched=%d batch_max=%d\n",
		ss.Queries, ss.CacheHits, ss.CacheMisses, ss.Batches, ss.BatchMax)

	b.WriteString("== qtrace\n")
	for _, t := range traces {
		if t.Kind() == "record" {
			continue
		}
		e := t.Export()
		fmt.Fprintf(&b, "%s %s addr=%d batch=%d backend=%q plan=%q err=%q hit=%v reason=%s query=%s\n",
			tr(e.TraceID), e.Kind, e.Addr, e.Batch, e.Backend, e.Plan, e.Err, e.Hit, e.Reason, ref(qref, e.QueryID))
		for _, sp := range e.Spans {
			var attrs []string
			for k, v := range sp.Attrs {
				attrs = append(attrs, fmt.Sprintf("%s=%v", k, v))
			}
			sort.Strings(attrs)
			fmt.Fprintf(&b, "  span %d<%d %s err=%q %s\n", sp.ID, sp.Parent, sp.Name, sp.Err, strings.Join(attrs, " "))
		}
	}
	return b.String()
}
