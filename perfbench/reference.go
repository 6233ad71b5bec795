package main

import (
	"fmt"
	"os"

	slicer "dynslice"
	"dynslice/internal/slicing"
)

// reference holds the criterion pool and the expected statement set of
// every criterion in it. The sets come from the forward slicer, an
// algorithm independent of the backward backends the sessions query (the
// fuzz matrix checks it against the oracle), so a wrong slice from any
// backend, the engine cache or the batch path shows as a mismatch.
type reference struct {
	pool []int64
	sets map[int64]*slicing.Slice
}

// buildReference records the program once more with the forward index,
// tracking the workload's criteria, keeps the per-criterion statement
// sets and drops the recording.
func buildReference(p *slicer.Program, w *workload, dir string) (*reference, error) {
	rd, err := os.MkdirTemp(dir, "reference")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rd)
	rec, err := p.Record(slicer.RunOptions{
		Input:           w.input,
		TraceDir:        rd,
		TrackCriteria:   w.track,
		DeferGraphs:     true,
		CheckpointEvery: -1,
		WithForward:     true,
	})
	if err != nil {
		return nil, fmt.Errorf("reference recording: %w", err)
	}
	defer rec.Close()
	fw := rec.Forward()
	ref := &reference{pool: rec.Criteria(), sets: map[int64]*slicing.Slice{}}
	for _, a := range ref.pool {
		sl, err := fw.SliceAddr(a)
		if err != nil {
			return nil, fmt.Errorf("reference slice of %d: %w", a, err)
		}
		ref.sets[a] = sl.Raw()
	}
	return ref, nil
}

// matches reports whether a returned statement set equals the
// reference for its criterion.
func (r *reference) matches(addr int64, got *slicing.Slice) bool {
	want, ok := r.sets[addr]
	return ok && got != nil && got.Equal(want)
}

// tally counts attempted and failed queries; a batch counts each
// criterion once.
type tally struct {
	attempted, failed int
}

// check scores one answered criterion.
func (t *tally) check(r *reference, addr int64, got *slicing.Slice) {
	t.attempted++
	if !r.matches(addr, got) {
		t.failed++
	}
}

// fail scores criteria whose query returned an error.
func (t *tally) fail(n int) {
	t.attempted += n
	t.failed += n
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
