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
)

// MemoryAlg is one algorithm's old-vs-new layout comparison: the same
// trace built twice, once with the flat pre-compaction label layout
// (-compact=false) and once with the FOR bit-packed block layout,
// measuring what the labels actually occupy rather than the paper's
// 16-bytes/pair accounting model, and what each layout costs a query.
type MemoryAlg struct {
	LabelPairs int64 `json:"label_pairs"`

	PlainLabelBytes   int64   `json:"plain_label_bytes"`
	CompactLabelBytes int64   `json:"compact_label_bytes"`
	LabelRatio        float64 `json:"label_ratio"` // plain / compact, the headline

	PlainResidentBytes   int64   `json:"plain_resident_bytes"` // labels + edge/slot tables
	CompactResidentBytes int64   `json:"compact_resident_bytes"`
	PlainBytesPerDep     float64 `json:"plain_bytes_per_dep"`
	CompactBytesPerDep   float64 `json:"compact_bytes_per_dep"`

	PlainHeapMB   float64 `json:"plain_heap_mb"` // live heap after build, a peak-RSS proxy
	CompactHeapMB float64 `json:"compact_heap_mb"`

	PlainBuildMs   float64 `json:"plain_build_ms"`
	CompactBuildMs float64 `json:"compact_build_ms"`
	BuildOverhead  float64 `json:"build_overhead"` // compact / plain wall time

	PlainSliceMs   float64 `json:"plain_slice_ms"` // sequential pass over the criteria, median sample
	CompactSliceMs float64 `json:"compact_slice_ms"`
	SliceOverhead  float64 `json:"slice_overhead"` // median of paired compact / plain sample ratios

	IdenticalSlices bool `json:"identical_slices"`
}

// MemoryBench is one workload's record in BENCH_memory.json.
type MemoryBench struct {
	Name      string    `json:"name"`
	NCriteria int       `json:"n_criteria"`
	FP        MemoryAlg `json:"fp"`
	OPT       MemoryAlg `json:"opt"`
}

const memoryReps = 3

// maxSliceOverhead bounds what the compact layout may cost a query: its
// sequential slice loop may take at most 10% longer than the flat
// layout's, as the median of paired samples.
const maxSliceOverhead = 1.10

// Slice timing takes samples in interleaved plain/compact pairs and
// gates the median of the per-pair compact/plain ratios: host speed
// drifts over minutes on a shared machine, but the two samples of a pair
// run back to back, so drift cancels within a pair and a hiccup spoils
// one ratio instead of a layout's best time. How one build happens to lay
// a graph out in memory also moves its slice time (bzip2's OPT ratio read
// 1.00 in one process and 1.11 in the next), so the pairs are spread
// over sliceInstances freshly built graph pairs and pooled. Each instance
// takes pairs until slicePairsMin are done and sliceBudget has elapsed,
// at most slicePairsMax; one sample repeats whole passes over the
// criteria for at least sliceSampleMin and reports the mean pass.
const (
	sliceInstances = 3
	slicePairsMin  = 2
	slicePairsMax  = 11
	sliceBudget    = 5 * time.Second
	sliceSampleMin = 50 * time.Millisecond
)

// RunMemory compares the compact dependence storage against the flat
// escape-hatch layout on every workload and writes per-workload records
// to outPath (cmd/experiments -exp memory). It fails if OPT's compact
// resident label bytes exceed half the uncompacted baseline, if either
// algorithm's compact slice loop is more than maxSliceOverhead times
// slower than its plain one, or if any slice differs between the two
// layouts. Slice-overhead failures are reported for every workload,
// after the artifact is written.
func RunMemory(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Memory layout: FOR bit-packed label blocks vs flat pairs",
		fmt.Sprintf("%-12s %12s %12s %7s %9s %9s %12s %12s %7s %8s %8s\n",
			"Program", "fp-plain", "fp-compact", "fp-x", "B/dep", "opt-B/dep", "opt-plain", "opt-compact", "opt-x", "fp-t", "opt-t"))
	var out []MemoryBench
	var slow []error // slice-overhead failures, reported after the artifact is written
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
		fmt.Fprintf(w, "%-12s %11dB %11dB %6.2fx %8.2fB %8.2fB %11dB %11dB %6.2fx %7.2fx %7.2fx\n",
			wl.Name, mb.FP.PlainLabelBytes, mb.FP.CompactLabelBytes, mb.FP.LabelRatio,
			mb.FP.CompactBytesPerDep, mb.OPT.CompactBytesPerDep,
			mb.OPT.PlainLabelBytes, mb.OPT.CompactLabelBytes, mb.OPT.LabelRatio,
			mb.FP.SliceOverhead, mb.OPT.SliceOverhead)
		for _, alg := range []struct {
			name string
			m    *MemoryAlg
		}{{"fp", &mb.FP}, {"opt", &mb.OPT}} {
			if !alg.m.IdenticalSlices {
				return fmt.Errorf("memory %s: %s slices diverge between -compact on and off", wl.Name, alg.name)
			}
			if alg.m.SliceOverhead > maxSliceOverhead {
				slow = append(slow, fmt.Errorf("memory %s: %s compact/plain slice time is %.2fx (median samples %.3f vs %.3f ms, max %.2fx)",
					wl.Name, alg.name, alg.m.SliceOverhead, alg.m.CompactSliceMs, alg.m.PlainSliceMs, maxSliceOverhead))
			}
		}
		if mb.OPT.LabelPairs > 0 && float64(mb.OPT.CompactLabelBytes) > 0.5*float64(mb.OPT.PlainLabelBytes) {
			return fmt.Errorf("memory %s: opt compact label bytes %d > 0.5x plain %d",
				wl.Name, mb.OPT.CompactLabelBytes, mb.OPT.PlainLabelBytes)
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
	return errors.Join(slow...)
}

// graphStats is the accounting surface both graph types expose.
type graphStats interface {
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

	buildFP := func(plain bool) (graphStats, time.Duration, error) {
		g := fp.NewGraph(res.P)
		g.SetPlainLabels(plain)
		t0 := time.Now()
		if err := replayFile(res, g); err != nil {
			return nil, 0, err
		}
		return g, time.Since(t0), nil
	}
	buildOPT := func(plain bool) (graphStats, time.Duration, error) {
		cfg := opt.Full()
		cfg.PlainLabels = plain
		g := opt.NewGraph(res.P, cfg, hot, cuts)
		t0 := time.Now()
		if err := replayFile(res, g); err != nil {
			return nil, 0, err
		}
		return g, time.Since(t0), nil
	}

	if mb.FP, err = compareLayouts(res, buildFP); err != nil {
		return mb, err
	}
	if mb.OPT, err = compareLayouts(res, buildOPT); err != nil {
		return mb, err
	}
	return mb, nil
}

// compareLayouts builds the plain and compact variants of one algorithm's
// graph and fills a MemoryAlg. Timing reps interleave the two layouts
// (best-of-memoryReps each, GC before every rep, no graph retained across
// a timed build) so clock drift and GC debt land on both sides equally;
// byte and heap figures then come from one untimed build per layout, the
// plain graph released before the compact one so the two heap readings
// are comparable. The sequential slice loops (GOMAXPROCS=1) are timed in
// interleaved pairs over sliceInstances graph pairs, both layouts
// resident while they are timed.
func compareLayouts(res *Result, build func(plain bool) (graphStats, time.Duration, error)) (MemoryAlg, error) {
	var m MemoryAlg

	plainTime := time.Duration(1 << 62)
	compactTime := time.Duration(1 << 62)
	for rep := 0; rep < memoryReps; rep++ {
		for _, plainRep := range []bool{true, false} {
			runtime.GC()
			_, d, err := build(plainRep)
			if err != nil {
				return m, err
			}
			if plainRep {
				plainTime = min(plainTime, d)
			} else {
				compactTime = min(compactTime, d)
			}
		}
	}

	plain, _, err := build(true)
	if err != nil {
		return m, err
	}
	m.LabelPairs = plain.LabelPairs()
	m.PlainLabelBytes = plain.LabelBytes()
	m.PlainResidentBytes = plain.ResidentBytes()
	m.PlainBuildMs = ms(plainTime)
	m.PlainHeapMB = liveHeapMB()
	runtime.KeepAlive(plain) // the heap reading must include the graph

	compact, _, err := build(false)
	if err != nil {
		return m, err
	}
	m.CompactLabelBytes = compact.LabelBytes()
	m.CompactResidentBytes = compact.ResidentBytes()
	m.CompactBuildMs = ms(compactTime)
	m.CompactHeapMB = liveHeapMB()

	var st sliceTimes
	m.IdenticalSlices = true
	for inst := 0; inst < sliceInstances; inst++ {
		if inst > 0 {
			plain, compact = nil, nil // let the last instance go first
			if compact, _, err = build(false); err != nil {
				return m, err
			}
		}
		if plain, _, err = build(true); err != nil {
			return m, err
		}
		slices, err := st.pairs([2]graphStats{plain, compact}, res.Crit)
		if err != nil {
			return m, err
		}
		for i := range slices[0] {
			if !slices[0][i].Equal(slices[1][i]) {
				m.IdenticalSlices = false
			}
		}
	}
	m.PlainSliceMs, m.CompactSliceMs = medianOf(st.samples[0]), medianOf(st.samples[1])
	m.SliceOverhead = medianOf(st.ratios)

	if m.CompactLabelBytes > 0 {
		m.LabelRatio = float64(m.PlainLabelBytes) / float64(m.CompactLabelBytes)
	}
	if m.LabelPairs > 0 {
		m.PlainBytesPerDep = float64(m.PlainResidentBytes) / float64(m.LabelPairs)
		m.CompactBytesPerDep = float64(m.CompactResidentBytes) / float64(m.LabelPairs)
	}
	if plainTime > 0 {
		m.BuildOverhead = float64(compactTime) / float64(plainTime)
	}
	return m, nil
}

// sliceTimes pools paired slice-loop samples over graph instances.
type sliceTimes struct {
	samples [2][]float64 // mean pass in ms: plain, compact
	ratios  []float64    // compact / plain, one per pair
}

// pairs times the sequential slice loop of graphs[0] (plain) and
// graphs[1] (compact) at GOMAXPROCS=1 in interleaved pairs, the layout
// sampled first alternating, and returns the last sample's slices of
// each layout.
func (st *sliceTimes) pairs(graphs [2]graphStats, crit []int64) (slices [2][]*slicing.Slice, err error) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	t0 := time.Now()
	for pair := 0; pair < slicePairsMax && (pair < slicePairsMin || time.Since(t0) < sliceBudget); pair++ {
		var d [2]time.Duration
		for k := range graphs {
			i := k ^ pair&1
			runtime.GC()
			if d[i], slices[i], err = timeSliceSample(graphs[i], crit); err != nil {
				return slices, err
			}
			st.samples[i] = append(st.samples[i], ms(d[i]))
		}
		if d[0] > 0 {
			st.ratios = append(st.ratios, float64(d[1])/float64(d[0]))
		}
	}
	return slices, nil
}

// timeSliceSample runs whole sequential passes over crit until
// sliceSampleMin has elapsed, reporting the mean pass and the last
// pass's slices.
func timeSliceSample(g graphStats, crit []int64) (time.Duration, []*slicing.Slice, error) {
	var outs []*slicing.Slice
	t0 := time.Now()
	passes := 0
	for passes == 0 || time.Since(t0) < sliceSampleMin {
		o, err := sliceLoop(g, crit)
		if err != nil {
			return 0, nil, err
		}
		outs = o
		passes++
	}
	return time.Since(t0) / time.Duration(passes), outs, nil
}

// liveHeapMB forces a GC and returns the live heap in MiB — the closest
// portable stand-in for peak RSS attributable to the graph just built.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
