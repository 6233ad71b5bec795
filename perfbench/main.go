// Command perfbench is the repository benchmark. It runs one user
// session per workload (record a program once, then answer slicing
// queries) through the public façade and prints the end-to-end metrics;
// with -trace 1 it replays the session layer by layer, with a span
// around each call, and prints the per-layer metrics instead. Every
// slice is checked against an independent reference. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cold-gzip --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	slicer "dynslice"
)

// metricDef is one reported metric. An exact metric repeats to the last
// digit for a given seed; the others are timings.
type metricDef struct {
	name  string
	unit  string
	exact bool
}

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "slice_p50_ms", unit: "ms"},
	{name: "slice_p90_ms", unit: "ms"},
	{name: "batch_crit_per_s", unit: "criteria/s"},
	{name: "live_heap_mb", unit: "MB"},
}

// perLayer come from the traced run. A layer a workload does not reach
// reports 0.
var perLayer = []metricDef{
	{name: "compile.ms", unit: "ms"},
	{name: "profile.run_ms", unit: "ms"},
	{name: "interp.record_run_ms", unit: "ms"},
	{name: "interp.steps", unit: "count", exact: true},
	{name: "trace.write_bytes", unit: "bytes", exact: true},
	{name: "trace.segments", unit: "count", exact: true},
	{name: "trace.pick_ms", unit: "ms"},
	{name: "trace.decode_ms", unit: "ms"},
	{name: "fp.build_ms", unit: "ms"},
	{name: "opt.build_ms", unit: "ms"},
	{name: "fp.resident_bytes", unit: "bytes", exact: true},
	{name: "opt.resident_bytes", unit: "bytes", exact: true},
	{name: "opt.label_pairs", unit: "count", exact: true},
	{name: "opt.slice_ms", unit: "ms"},
	{name: "opt.first_slice_ms", unit: "ms"},
	{name: "opt.label_probes", unit: "count/query", exact: true},
	{name: "opt.instances", unit: "count/query", exact: true},
	{name: "batch.slice_all_ms", unit: "ms"},
	{name: "batch.label_probes", unit: "count", exact: true},
	{name: "batch.instances", unit: "count", exact: true},
	{name: "reexec.slice_ms", unit: "ms"},
	{name: "reexec.seg_scans", unit: "count/query", exact: true},
	{name: "reexec.seg_skips", unit: "count/query", exact: true},
	{name: "plan.decide_us", unit: "us"},
	{name: "plan.routed.FP", unit: "count", exact: true},
	{name: "plan.routed.OPT", unit: "count", exact: true},
	{name: "plan.routed.LP", unit: "count", exact: true},
	{name: "plan.routed.reexec", unit: "count", exact: true},
	{name: "plan.routed.forward", unit: "count", exact: true},
	{name: "slicer.cache_hit_rate", unit: "hits/query", exact: true},
	{name: "slicer.cache_hit_us", unit: "us"},
	{name: "slicer.overhead_ms", unit: "ms"},
	{name: "traced.wall_s", unit: "s"},
	{name: "traced.coverage", unit: "%"},
	{name: "tracing.overhead_ms", unit: "ms"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: metric missing from the catalogue: " + name)
}

// minCoverage is the traced run's self-check: the layer spans must
// account for this share of its wall time.
const minCoverage = 0.95

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: interactive-li or cold-gzip")
	seed := flag.Int64("seed", 1, "workload seed: query order, repeats and batch composition")
	secs := flag.Float64("seconds", 20, "length of the timed query phase")
	traced := flag.Int("trace", 0, "1 replays the session layer by layer and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-runs"), "directory for traces, query sinks and span dumps")
	flag.Parse()

	res, err := run(*name, *seed, *secs, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, secs float64, traced bool, out string) (*result, error) {
	w, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if traced {
		return runTraced(w, seed, dir, out)
	}
	return runEndToEnd(w, seed, secs, dir)
}

func runEndToEnd(w *workload, seed int64, secs float64, dir string) (*result, error) {
	r, err := runSession(w, seed, secs, dir)
	if err != nil {
		return nil, err
	}
	m := r.metrics()
	fmt.Printf("workload %s seed %d: %d single queries (p90 has %d samples above it), %d batched criteria, %d of the singles cache hits, session %.2fs\n",
		w.name, seed, len(r.singles), len(r.singles)-int(0.9*float64(len(r.singles))), r.batchCrit, r.hits, r.wall.Seconds())
	fmt.Printf("  error_rate %g (%d failed of %d attempted)\n", r.checks.errorRate(), r.checks.failed, r.checks.attempted)
	return report(endToEnd, m, r.checks), nil
}

// runTraced builds the reference, replays the session layer by layer
// untraced, traced and untraced again, and writes the spans out. The
// traced wall time minus the mean of the two untraced ones is the
// tracing and serialisation overhead; the bracketing keeps order effects
// (page cache, heap growth, pooled state) out of it.
func runTraced(w *workload, seed int64, dir, out string) (*result, error) {
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	p, err := slicer.Compile(src)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(p, w, dir)
	if err != nil {
		return nil, err
	}
	before, err := runLayers(w, seed, ref, nil, dir)
	if err != nil {
		return nil, err
	}
	tr := newTracer(fmt.Sprintf("%s/seed%d", w.name, seed))
	lr, err := runLayers(w, seed, ref, tr, dir)
	if err != nil {
		return nil, err
	}
	tr.finish()
	spanPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	start := time.Now()
	if err := writeSpans(tr, spanPath); err != nil {
		return nil, err
	}
	tracedWall := tr.spans[0].dur() + time.Since(start)
	after, err := runLayers(w, seed, ref, nil, dir)
	if err != nil {
		return nil, err
	}
	bareWall := (before.wall + after.wall) / 2

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range lr.counts {
		m[k] = v
	}
	for k, v := range lr.timings {
		m[k] = v
	}
	cov := float64(tr.covered()) / float64(tracedWall)
	m["traced.wall_s"] = tracedWall.Seconds()
	m["traced.coverage"] = 100 * cov
	m["tracing.overhead_ms"] = float64(tracedWall-bareWall) / float64(time.Millisecond)
	checks := lr.checks
	for _, bare := range []*layerResult{before, after} {
		for k, v := range bare.counts {
			if lr.counts[k] != v {
				return nil, fmt.Errorf("count %s differs between an untraced (%g) and the traced (%g) replay", k, v, lr.counts[k])
			}
		}
		checks.add(bare.checks)
	}
	fmt.Printf("workload %s seed %d traced: %d spans in %s, coverage %.2f%%, untraced replays %.2fs and %.2fs, traced %.2fs\n",
		w.name, seed, len(tr.spans), spanPath, 100*cov, before.wall.Seconds(), after.wall.Seconds(), tracedWall.Seconds())
	fmt.Printf("  error_rate %g (%d failed of %d attempted)\n", checks.errorRate(), checks.failed, checks.attempted)
	res := report(perLayer, m, checks)
	if cov < minCoverage {
		fmt.Fprintf(os.Stderr, "perfbench: layer spans cover %.2f%% of the traced run, below %.0f%%\n", 100*cov, 100*minCoverage)
		res.Correct = false
	}
	return res, nil
}

// report prints every metric by name with its unit and builds the
// result line.
func report(defs []metricDef, m map[string]float64, checks tally) *result {
	res := &result{
		Correct:   checks.failed == 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			panic("perfbench: metric not measured: " + d.name)
		}
		kind := "timing"
		if d.exact {
			kind = "exact"
		}
		fmt.Printf("  %-24s %14.6g %-12s %s\n", d.name, v, d.unit, kind)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func writeSpans(tr *tracer, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return tr.write(bufio.NewWriter(f))
}
