// Command benchdiff compares the current benchmark JSON artifacts
// against checked-in baselines and fails on regressions — the CI gate
// behind `make bench-check`.
//
// Usage:
//
//	benchdiff [-baseline bench/baselines] [-current .] [-tolerance 0.20]
//
// Both directories are expected to hold the BENCH_*.json files written
// by cmd/experiments. For every workload present in BOTH the baseline
// and the current artifact, benchdiff compares the key metrics:
//
//	BENCH_parallel.json   lp_batch_speedup, build_speedup      (higher is better)
//	                      opt_batch_slice_ms                   (lower is better)
//	BENCH_memory.json     fp/opt compact_resident_bytes        (lower is better)
//	                      fp/opt slice_overhead                (lower is better)
//	BENCH_telemetry.json  slice_avg_ms.{FP,OPT,LP}             (lower is better)
//	BENCH_snapshot.json   snapshot_load_speedup                (higher is better)
//	                      file_bytes                           (lower is better)
//	BENCH_planner.json    reexec_vs_build_speedup              (higher is better)
//	                      planner_regret                       (lower is better)
//	BENCH_queries.json    cache_hit_rate                       (higher is better)
//	                      stats.backends.{OPT,LP}.p99_ms       (lower is better)
//	BENCH_explain.json    opt.inferred_pct                     (higher is better)
//	                      opt/lp slice_ms                      (lower is better)
//	BENCH_qtrace.json     retained_rate (deterministic sampler) (lower is better)
//	                      traced_overhead_ratio                (lower is better)
//
// BENCH_parallel.json carries one row per (workload, GOMAXPROCS)
// setting; rows are keyed "name@pN" so every setting is gated
// independently — a speedup that holds at GOMAXPROCS=1 but collapses at
// 4 is a regression of the parallel path even though the workload's
// other row looks fine.
//
// A metric family (one spec, all workloads) regresses when the MEDIAN
// of its per-workload deltas moves in the bad direction by more than
// its allowance: -tolerance (a ratio; 0.20 means 20%) scaled by the
// metric's noise factor — 1x for deterministic byte counts, 1.5x for
// speedup ratios, 2.5x for raw wall times. Gating the median rather
// than individual workloads is what makes timing metrics usable at
// all: single-workload wall times flap 50%+ run-to-run on a loaded
// machine, but that noise is uncorrelated across the ten workloads,
// while a real regression shifts all of them. Per-workload rows are
// still printed for inspection. Baselines are machine-dependent and
// should be regenerated on the machine that runs the gate
// (`make bench-baseline`). Missing files or workloads are reported and
// skipped, not failed: a partial run gates what it can.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec names one guarded metric: a dot path into each workload's
// JSON object, the direction in which change is a regression, and a
// noise factor scaling the base tolerance (timing metrics flap more
// than byte counts).
type metricSpec struct {
	path         string // e.g. "fp.compact_resident_bytes" or "slice_avg_ms.FP"
	higherBetter bool
	noise        float64 // tolerance multiplier; 0 means 1
}

var specs = map[string][]metricSpec{
	"BENCH_parallel.json": {
		{path: "lp_batch_speedup", higherBetter: true, noise: 1.5},
		// OPT's batch path is gated on its own wall time, not on its
		// speedup over the sequential loop: that ratio falls whenever
		// the sequential path gets faster (telemetry gates that path).
		{path: "opt_batch_slice_ms", noise: 2.5},
		{path: "build_speedup", higherBetter: true, noise: 1.5},
	},
	"BENCH_memory.json": {
		{path: "fp.compact_resident_bytes"},
		{path: "opt.compact_resident_bytes"},
		// compact / plain slice time: a ratio of two timings taken on
		// the same machine minutes apart, as noisy as the speedups.
		{path: "fp.slice_overhead", noise: 1.5},
		{path: "opt.slice_overhead", noise: 1.5},
	},
	"BENCH_telemetry.json": {
		{path: "slice_avg_ms.FP", noise: 2.5},
		{path: "slice_avg_ms.OPT", noise: 2.5},
		{path: "slice_avg_ms.LP", noise: 2.5},
	},
	"BENCH_snapshot.json": {
		{path: "snapshot_load_speedup", higherBetter: true, noise: 1.5},
		{path: "file_bytes"},
	},
	"BENCH_planner.json": {
		{path: "reexec_vs_build_speedup", higherBetter: true, noise: 1.5},
		{path: "planner_regret", noise: 1.5},
	},
	"BENCH_queries.json": {
		{path: "cache_hit_rate", higherBetter: true},
		{path: "stats.backends.OPT.p99_ms", noise: 2.5},
		{path: "stats.backends.LP.p99_ms", noise: 2.5},
	},
	"BENCH_explain.json": {
		{path: "opt.inferred_pct", higherBetter: true},
		{path: "opt.slice_ms", noise: 2.5},
		{path: "lp.slice_ms", noise: 2.5},
	},
	"BENCH_qtrace.json": {
		// The bench's retention policy is the deterministic sampler
		// alone, so retained_rate is noise-free: any drift means the
		// tail-sampling decision changed.
		{path: "retained_rate"},
		{path: "traced_overhead_ratio", noise: 2.5},
	},
}

// fileOrder keeps the report deterministic (map iteration is not).
var fileOrder = []string{"BENCH_parallel.json", "BENCH_memory.json", "BENCH_telemetry.json", "BENCH_snapshot.json", "BENCH_planner.json", "BENCH_queries.json", "BENCH_explain.json", "BENCH_qtrace.json"}

func main() {
	baselineDir := flag.String("baseline", "bench/baselines", "directory with baseline BENCH_*.json files")
	currentDir := flag.String("current", ".", "directory with freshly generated BENCH_*.json files")
	tolerance := flag.Float64("tolerance", 0.20, "allowed regression ratio before failing (0.20 = 20%)")
	flag.Parse()

	var regressions, compared int
	for _, file := range fileOrder {
		base, ok := loadBench(filepath.Join(*baselineDir, file))
		if !ok {
			fmt.Printf("skip %s: no baseline\n", file)
			continue
		}
		cur, ok := loadBench(filepath.Join(*currentDir, file))
		if !ok {
			fmt.Printf("skip %s: no current artifact\n", file)
			continue
		}
		fmt.Printf("%s (tolerance %.0f%%)\n", file, *tolerance*100)
		fmt.Printf("  %-12s %-28s %14s %14s %8s\n", "workload", "metric", "baseline", "current", "delta")
		badDeltas := make(map[string][]float64) // spec path -> per-workload bad-direction deltas
		for _, name := range sortedNames(base) {
			bw, cw := base[name], cur[name]
			if cw == nil {
				fmt.Printf("  %-12s missing from current artifact — skipped\n", name)
				continue
			}
			for _, spec := range specs[file] {
				bv, bok := lookup(bw, spec.path)
				cv, cok := lookup(cw, spec.path)
				if !bok || !cok {
					continue
				}
				delta := ratioDelta(bv, cv)
				bad := delta
				if spec.higherBetter {
					bad = -delta
				}
				badDeltas[spec.path] = append(badDeltas[spec.path], bad)
				fmt.Printf("  %-12s %-28s %14.3f %14.3f %+7.1f%%\n",
					name, spec.path, bv, cv, delta*100)
			}
		}
		for _, spec := range specs[file] {
			bads := badDeltas[spec.path]
			if len(bads) == 0 {
				continue
			}
			compared++
			med := median(bads)
			allow := *tolerance
			if spec.noise > 0 {
				allow *= spec.noise
			}
			sign := 1.0
			if spec.higherBetter {
				sign = -1 // report in the metric's own direction
			}
			status := ""
			if med > allow {
				status = "  <-- REGRESSION"
				regressions++
			}
			fmt.Printf("  median over %d workloads: %-28s %+7.1f%% (allow %.0f%%)%s\n",
				len(bads), spec.path, sign*med*100, allow*100, status)
		}
	}
	if compared == 0 {
		fmt.Println("benchdiff: nothing compared — generate baselines with `make bench-baseline`")
		return
	}
	if regressions > 0 {
		fmt.Printf("\nbenchdiff: %d metric famil(ies) regressed beyond %.0f%%\n", regressions, *tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: %d metric families within tolerance\n", compared)
}

// loadBench reads one BENCH_*.json artifact (an array of per-workload
// objects with a "name" field) into a keyed map. Artifacts with several
// rows per workload (the parallel sweep) append a "@pN" GOMAXPROCS
// discriminator so every row gates independently.
func loadBench(path string) (map[string]map[string]any, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var arr []map[string]any
	if err := json.Unmarshal(data, &arr); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		return nil, false
	}
	out := make(map[string]map[string]any, len(arr))
	for _, w := range arr {
		name, ok := w["name"].(string)
		if !ok {
			continue
		}
		if p, ok := w["gomaxprocs"].(float64); ok {
			name = fmt.Sprintf("%s@p%.0f", name, p)
		}
		out[name] = w
	}
	return out, len(out) > 0
}

// lookup resolves a dot path ("fp.compact_resident_bytes") to a number.
func lookup(obj map[string]any, path string) (float64, bool) {
	parts := strings.Split(path, ".")
	for _, p := range parts[:len(parts)-1] {
		sub, ok := obj[p].(map[string]any)
		if !ok {
			return 0, false
		}
		obj = sub
	}
	v, ok := obj[parts[len(parts)-1]].(float64)
	return v, ok
}

// ratioDelta is the relative change from base to cur; +0.25 means cur
// is 25% larger.
func ratioDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - base) / base
}

// median of a non-empty slice (sorts a copy; even length averages the
// two middle values).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedNames(m map[string]map[string]any) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
