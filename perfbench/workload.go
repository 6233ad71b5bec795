package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	slicer "dynslice"
	"dynslice/internal/bench"
	"dynslice/internal/telemetry/qtrace"
	"dynslice/internal/telemetry/querylog"
)

// batchWidth is the criteria per SliceAddrs call: the batch scheduler's
// 64-bit criterion mask.
const batchWidth = 64

// workload is one user session: a fixed program and recording setup,
// then a closed loop of query rounds on one client goroutine. A round is
// roundSingles single SliceAddr calls on the session's engine followed by
// one pass over the pool in batched SliceAddrs calls of batchWidth
// criteria, on a fresh engine so batches never hit the cache. Whole
// passes make every run batch the same criteria, whatever the seed.
// Interleaving the two kinds of call, and spreading the setup repeats
// over the run, lets every metric sample the same stretch of machine
// time.
type workload struct {
	name    string
	program string  // bench.ByName key
	input   []int64 // program input (the program's size knob)

	track    int  // RunOptions.TrackCriteria: the query pool
	deferred bool // RunOptions.DeferGraphs: no FP/OPT graph at setup
	sinks    bool // attach QueryLog and QueryTrace, as cmd/slicer -querylog -qtrace does
	setups   int  // Compile+Record repeats; setup_s is their median

	roundSingles int // single queries per round
	minSingles   int // the timed loop runs at least this many
}

var workloads = []*workload{
	{
		name: "interactive-li", program: "130.li", input: []int64{16},
		track: 192, sinks: true, setups: 60,
		roundSingles: 25, minSingles: 100,
	},
	{
		name: "cold-gzip", program: "164.gzip", input: []int64{900},
		track: 192, deferred: true, setups: 90,
		roundSingles: 15, minSingles: 100,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w *workload) source() (string, error) {
	b, ok := bench.ByName(w.program)
	if !ok {
		return "", fmt.Errorf("no benchmark program %q", w.program)
	}
	return b.Src, nil
}

// runOptions is the workload's Record configuration, tracing into dir.
// When the workload attaches the query sinks, they write JSON lines to
// files in dir; the returned function closes those files.
func (w *workload) runOptions(dir string) (slicer.RunOptions, func(), error) {
	o := slicer.RunOptions{
		Input:         w.input,
		TraceDir:      dir,
		TrackCriteria: w.track,
		DeferGraphs:   w.deferred,
	}
	if !w.sinks {
		return o, func() {}, nil
	}
	qf, err := os.Create(filepath.Join(dir, "querylog.jsonl"))
	if err != nil {
		return o, nil, err
	}
	tf, err := os.Create(filepath.Join(dir, "qtrace.jsonl"))
	if err != nil {
		qf.Close()
		return o, nil, err
	}
	o.QueryLog = querylog.New(512)
	o.QueryLog.SetSink(qf)
	o.QueryTrace = qtrace.New(0, qtrace.DefaultPolicy())
	o.QueryTrace.SetSink(tf)
	return o, func() { qf.Close(); tf.Close() }, nil
}

// step is one query call: a single criterion, or a batch.
type step struct {
	addr    int64
	repeat  bool    // the criterion repeats a recent one (a cache hit)
	batch   []int64 // set for a SliceAddrs call
	newPass bool    // the batch starts a pass over the pool
}

// queries yields the seed's query sequence round by round. The single
// criteria follow a stream: about one query in five repeats one of the
// last few distinct criteria (a hit in the engine's 64-entry cache), the
// others walk a seed-shuffled permutation of the pool. Each round's
// batches are the pool cut in batchWidth chunks in Criteria order, as a
// whole-program analysis asks them, in a seed-shuffled order.
type queries struct {
	w      *workload
	single *rand.Rand
	batch  *rand.Rand
	pool   []int64
	chunks [][]int64
	perm   []int64
	next   int
	recent []int64
}

const (
	repeatOneIn  = 5
	recentWindow = 8
)

func newQueries(w *workload, seed int64, pool []int64) *queries {
	return &queries{
		w:      w,
		single: rand.New(rand.NewSource(seed)),
		batch:  rand.New(rand.NewSource(seed*2654435761 + 97)),
		pool:   pool,
		chunks: chunks(pool),
	}
}

// round returns the next roundSingles singles and one pass of batches
// over the pool.
func (q *queries) round() []step {
	out := make([]step, 0, q.w.roundSingles+len(q.chunks))
	for i := 0; i < q.w.roundSingles; i++ {
		a, rep := q.draw()
		out = append(out, step{addr: a, repeat: rep})
	}
	for i, j := range q.batch.Perm(len(q.chunks)) {
		out = append(out, step{batch: q.chunks[j], newPass: i == 0})
	}
	return out
}

func (q *queries) draw() (addr int64, repeat bool) {
	if len(q.recent) > 0 && q.single.Intn(repeatOneIn) == 0 {
		return q.recent[q.single.Intn(len(q.recent))], true
	}
	if q.next == len(q.perm) {
		q.perm = shuffled(q.single, q.pool)
		q.next = 0
	}
	addr = q.perm[q.next]
	q.next++
	q.recent = append(q.recent, addr)
	if len(q.recent) > recentWindow {
		q.recent = q.recent[1:]
	}
	return addr, false
}

// chunks splits criteria into batchWidth calls, each sorted as the
// engine sorts its misses.
func chunks(order []int64) [][]int64 {
	var out [][]int64
	for len(order) > 0 {
		n := min(batchWidth, len(order))
		b := slices.Clone(order[:n])
		slices.Sort(b)
		out = append(out, b)
		order = order[n:]
	}
	return out
}

func shuffled(rng *rand.Rand, pool []int64) []int64 {
	out := append([]int64(nil), pool...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
