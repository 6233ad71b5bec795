package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	slicer "dynslice"
)

// e2eResult is what the untraced session measures.
type e2eResult struct {
	setup     []time.Duration // one per Compile+Record repeat
	singles   []time.Duration // every single SliceAddr call, cache hits included
	batchCrit int             // criteria answered by batched calls
	batchWall time.Duration   // summed wall time of the batched calls
	heapBytes uint64          // HeapAlloc after GC, only the ready recording live
	wall      time.Duration   // set-up and query loop
	checks    tally
	hits      int64 // single queries answered from the engine cache
}

// session is one user session through the public façade, with no
// observation on but the workload's own query sinks.
type session struct {
	w       *workload
	src     string
	dir     string
	rec     *slicer.Recording
	release func()
	ref     *reference
	res     *e2eResult
}

// runSession sets the session up, then queries for the given seconds.
func runSession(w *workload, seed int64, seconds float64, dir string) (*e2eResult, error) {
	s, err := setUp(w, dir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	return s.query(seed, seconds)
}

// setUp records the program, measures the ready recording's live heap,
// then builds the reference.
func setUp(w *workload, dir string) (*session, error) {
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	s := &session{w: w, src: src, dir: dir, res: &e2eResult{}}
	t0 := time.Now()
	p, rec, release, took, err := record(w, src, dir)
	if err != nil {
		return nil, err
	}
	s.rec, s.release = rec, release
	s.res.setup = append(s.res.setup, took)
	s.res.heapBytes = liveHeap()
	if s.ref, err = buildReference(p, w, dir); err != nil {
		s.close()
		return nil, err
	}
	if !slices.Equal(s.ref.pool, rec.Criteria()) {
		s.close()
		return nil, fmt.Errorf("the reference recording tracked other criteria")
	}
	runtime.GC()
	s.res.wall = time.Since(t0)
	return s, nil
}

func (s *session) close() {
	s.rec.Close()
	s.release()
}

// query runs rounds until the time is up and the single-query floor is
// met, doing the remaining setup repeats between rounds.
func (s *session) query(seed int64, seconds float64) (*e2eResult, error) {
	w, res := s.w, s.res
	span := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	qs := newQueries(w, seed, s.rec.Criteria())
	opts := slicer.EngineOptions{Workers: runtime.NumCPU()}
	singles := s.rec.Engine(opts)
	var batch *slicer.QueryEngine
	for time.Since(start) < span || len(res.singles) < w.minSingles {
		for _, st := range qs.round() {
			if st.batch == nil {
				res.single(singles, st.addr, s.ref)
				continue
			}
			if st.newPass {
				batch = s.rec.Engine(opts)
			}
			res.batch(batch, st.batch, s.ref)
		}
		// The other setup repeats are spread evenly over the loop.
		for len(res.setup) < w.setups && time.Since(start) >= span*time.Duration(len(res.setup))/time.Duration(w.setups) {
			if err := s.extraSetup(); err != nil {
				return nil, err
			}
		}
	}
	for len(res.setup) < w.setups {
		if err := s.extraSetup(); err != nil {
			return nil, err
		}
	}
	res.hits, _ = singles.CacheStats()
	res.wall += time.Since(start)
	return res, nil
}

// extraSetup times one more Compile+Record and discards the recording.
func (s *session) extraSetup() error {
	_, rec, release, took, err := record(s.w, s.src, s.dir)
	if err != nil {
		return err
	}
	rec.Close()
	release()
	s.res.setup = append(s.res.setup, took)
	return nil
}

// record compiles the program and records it with the workload's
// options in a fresh directory under dir. It returns the time Compile and
// Record took, and a function that closes the query sink files.
func record(w *workload, src, dir string) (*slicer.Program, *slicer.Recording, func(), time.Duration, error) {
	rd, err := os.MkdirTemp(dir, "rec")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	o, release, err := w.runOptions(rd)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	start := time.Now()
	p, err := slicer.Compile(src)
	var rec *slicer.Recording
	if err == nil {
		rec, err = p.Record(o)
	}
	took := time.Since(start)
	if err != nil {
		release()
		return nil, nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	return p, rec, release, took, nil
}

// single times one closed-loop SliceAddr call and checks its answer.
func (r *e2eResult) single(e *slicer.QueryEngine, addr int64, ref *reference) {
	start := time.Now()
	sl, err := e.SliceAddr(addr)
	r.singles = append(r.singles, time.Since(start))
	if err != nil {
		r.checks.fail(1)
		return
	}
	r.checks.check(ref, addr, sl.Raw())
}

// batch times one SliceAddrs call and checks every criterion.
func (r *e2eResult) batch(e *slicer.QueryEngine, addrs []int64, ref *reference) {
	start := time.Now()
	out, err := e.SliceAddrs(addrs)
	r.batchWall += time.Since(start)
	r.batchCrit += len(addrs)
	if err != nil {
		r.checks.fail(len(addrs))
		return
	}
	for i, sl := range out {
		r.checks.check(ref, addrs[i], sl.Raw())
	}
}

// metrics renders the end-to-end metrics.
func (r *e2eResult) metrics() map[string]float64 {
	singles := millis(r.singles)
	return map[string]float64{
		"setup_s":          median(seconds(r.setup)),
		"slice_p50_ms":     quantile(singles, 0.50),
		"slice_p90_ms":     quantile(singles, 0.90),
		"batch_crit_per_s": float64(r.batchCrit) / r.batchWall.Seconds(),
		"live_heap_mb":     float64(r.heapBytes) / (1 << 20),
	}
}

// liveHeap is HeapAlloc after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
