package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/fp"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/trace"
)

// MemoryAlg is one algorithm's label storage on one workload: what the
// FOR bit-packed label blocks actually occupy, measured rather than taken
// from the paper's 16-bytes/pair accounting model, and what they cost to
// build and to query.
type MemoryAlg struct {
	LabelPairs           int64   `json:"label_pairs"`
	CompactLabelBytes    int64   `json:"compact_label_bytes"`
	CompactResidentBytes int64   `json:"compact_resident_bytes"` // labels + edge/slot tables
	CompactBytesPerDep   float64 `json:"compact_bytes_per_dep"`
	CompactHeapMB        float64 `json:"compact_heap_mb"` // live heap after build, a peak-RSS proxy
	CompactBuildMs       float64 `json:"compact_build_ms"`
	CompactSliceMs       float64 `json:"compact_slice_ms"` // sequential pass over the criteria, median sample
	// LabelProbes is the exact Stats.LabelProbes total of one sequential
	// pass: a machine-independent count of the label lookups' Tu
	// comparisons, so a slower Find shows here even when timings are noisy.
	LabelProbes int64 `json:"label_probes"`
}

// MemoryBench is one workload's record in BENCH_memory.json.
type MemoryBench struct {
	Name      string    `json:"name"`
	NCriteria int       `json:"n_criteria"`
	FP        MemoryAlg `json:"fp"`
	OPT       MemoryAlg `json:"opt"`
}

const memoryReps = 3

// maxLabelBytesPerPair bounds the packed labels: at most half of the
// 16 bytes a flat (Td, Tu) pair of int64s would take.
const maxLabelBytesPerPair = 0.5 * 16

// Slice timing takes sliceSamples samples of the sequential slice loop
// on each of sliceBuilds freshly built graphs and reports the median of
// all of them: how one build happens to lay a graph out in memory moves
// its slice time too. One sample repeats whole passes over the criteria
// for at least sliceSampleMin and reports the mean pass.
const (
	sliceBuilds    = 3
	sliceSamples   = 2
	sliceSampleMin = 50 * time.Millisecond
)

// RunMemory measures the label storage of FP and OPT on every workload
// and writes per-workload records to outPath (cmd/experiments -exp
// memory). It fails, after the artifact is written, if either
// algorithm's labels take more than maxLabelBytesPerPair bytes per pair
// on any workload.
func RunMemory(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Memory layout: FOR bit-packed label blocks",
		fmt.Sprintf("%-12s %10s %8s %10s %9s %10s %8s %10s %9s\n",
			"Program", "fp-pairs", "fp-B/p", "fp-probes", "fp-ms", "opt-pairs", "opt-B/p", "opt-probes", "opt-ms"))
	var out []MemoryBench
	var fails []error
	for _, wl := range workloads {
		res, err := Build(wl, Options{})
		if err != nil {
			return err
		}
		mb, err := measureMemory(res)
		res.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10d %8.2f %10d %9.2f %10d %8.2f %10d %9.2f\n", wl.Name,
			mb.FP.LabelPairs, perPair(mb.FP), mb.FP.LabelProbes, mb.FP.CompactSliceMs,
			mb.OPT.LabelPairs, perPair(mb.OPT), mb.OPT.LabelProbes, mb.OPT.CompactSliceMs)
		for _, alg := range []struct {
			name string
			m    *MemoryAlg
		}{{"fp", &mb.FP}, {"opt", &mb.OPT}} {
			if perPair(*alg.m) > maxLabelBytesPerPair {
				fails = append(fails, fmt.Errorf("memory %s: %s label bytes %d are %.2f B/pair over %d pairs, max %.0f",
					wl.Name, alg.name, alg.m.CompactLabelBytes, perPair(*alg.m), alg.m.LabelPairs, maxLabelBytesPerPair))
			}
		}
		out = append(out, mb)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", outPath)
	}
	return errors.Join(fails...)
}

// perPair is the packed label bytes per stored pair (0 without pairs).
func perPair(m MemoryAlg) float64 {
	if m.LabelPairs == 0 {
		return 0
	}
	return float64(m.CompactLabelBytes) / float64(m.LabelPairs)
}

// graphStats is the build, query and accounting surface both graph
// types expose.
type graphStats interface {
	trace.Sink
	slicing.Slicer
	LabelPairs() int64
	LabelBytes() int64
	ResidentBytes() int64
}

func measureMemory(res *Result) (MemoryBench, error) {
	mb := MemoryBench{Name: res.W.Name, NCriteria: len(res.Crit)}

	hot, cuts, err := reprofile(res)
	if err != nil {
		return mb, err
	}
	replay := func(g graphStats) (graphStats, error) { return g, replayFile(res, g) }
	if mb.FP, err = measureAlg(res, func() (graphStats, error) {
		return replay(fp.NewGraph(res.P))
	}); err != nil {
		return mb, err
	}
	mb.OPT, err = measureAlg(res, func() (graphStats, error) {
		return replay(opt.NewGraph(res.P, opt.Full(), hot, cuts))
	})
	return mb, err
}

// measureAlg fills one algorithm's MemoryAlg. Build time is the best of
// memoryReps builds (GC before each, no graph retained across a timed
// build); bytes, live heap and probes come from one more build, slice
// time from that and further builds, the slice loop timed at
// GOMAXPROCS=1.
func measureAlg(res *Result, build func() (graphStats, error)) (MemoryAlg, error) {
	var m MemoryAlg
	best := time.Duration(1 << 62)
	for rep := 0; rep < memoryReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := build(); err != nil {
			return m, err
		}
		best = min(best, time.Since(t0))
	}
	m.CompactBuildMs = ms(best)

	g, err := build()
	if err != nil {
		return m, err
	}
	m.LabelPairs = g.LabelPairs()
	m.CompactLabelBytes = g.LabelBytes()
	m.CompactResidentBytes = g.ResidentBytes()
	if m.LabelPairs > 0 {
		m.CompactBytesPerDep = float64(m.CompactResidentBytes) / float64(m.LabelPairs)
	}
	m.CompactHeapMB = liveHeapMB()

	for _, a := range res.Crit {
		_, st, err := g.Slice(slicing.AddrCriterion(a))
		if err != nil {
			return m, err
		}
		m.LabelProbes += st.LabelProbes
	}

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var samples []float64
	for b := range sliceBuilds {
		if b > 0 {
			g = nil // let the last build go first
			if g, err = build(); err != nil {
				return m, err
			}
		}
		for range sliceSamples {
			runtime.GC()
			t0 := time.Now()
			passes := 0
			for passes == 0 || time.Since(t0) < sliceSampleMin {
				if _, err := sliceLoop(g, res.Crit); err != nil {
					return m, err
				}
				passes++
			}
			samples = append(samples, ms(time.Since(t0)/time.Duration(passes)))
		}
	}
	m.CompactSliceMs = medianOf(samples)
	return m, nil
}

// liveHeapMB forces a GC and returns the live heap in MiB — the closest
// portable stand-in for peak RSS attributable to the graph just built.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
