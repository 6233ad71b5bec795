// Package batch is the shared multi-criterion traversal scheduler used by
// the FP and OPT batched slicers (slicing.MultiSlicer). It replaces the
// per-algorithm map[key]uint64 visited maps with a sharded flat visited
// table whose criterion masks are merged by atomic CAS, and runs the
// frontier on a bounded work-stealing worker pool:
//
//   - Visited table: open-addressing shards (RWMutex-guarded buckets over
//     slab-allocated entries that never move), one entry per traversal
//     point. The 64-bit criterion mask on each entry is CAS-merged, so
//     the hot path of a revisit is array indexing plus one atomic
//     or-merge — no map hashing, no allocation.
//   - Expansion memo: each entry publishes its dependence expansion (the
//     statements contributed and the downstream points reached) exactly
//     once via an atomic pointer; racing workers compute independently
//     but only the publishing winner's traversal stats are counted, so
//     aggregate stats stay per-unique-point regardless of schedule.
//   - Work stealing: each worker owns a deque, pushes and pops at its
//     tail (LIFO keeps the traversal depth-first and cache-warm), and
//     steals half a victim's queue from the head when empty. Termination
//     is a global count of enqueued-but-unfinished tasks.
//   - Results: workers accumulate per-statement criterion masks in dense
//     per-worker arrays, OR-merged after the pool drains — the output is
//     a deterministic function of the reachable set, independent of the
//     schedule or worker count.
package batch

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
)

// Key identifies one traversal point. The packing is the caller's: FP uses
// (statement, timestamp), OPT packs (node, statement copy, timestamp, use
// slot). Equal keys must denote the same expansion.
type Key struct {
	K1, K2 uint64
}

// Expansion is the memoized resolution of one traversal point: the
// statements it contributes to every criterion that reaches it, and the
// downstream points it leads to. Published once per unique key and then
// read-only.
type Expansion struct {
	Stmts   []ir.StmtID
	Targets []Key
}

// Counters reports scheduler-level work for telemetry.
type Counters struct {
	Steals      int64 // steal operations that moved at least one task
	Merges      int64 // tasks coalesced by key before expansion (mask OR-merge)
	Expansions  int64 // unique traversal points expanded
	WorkersUsed int   // workers the run actually started
}

// Config configures one batched traversal.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0). A batch
	// never uses more workers than it has seed tasks.
	Workers int
	// NumStmts sizes the dense per-statement result-mask arrays
	// (statement IDs index them).
	NumStmts int
	// Expand resolves one traversal point. It is called at most once per
	// unique key per winner (racing losers' results are discarded); stats
	// must count only this key's resolution work.
	Expand func(k Key, stats *slicing.Stats) *Expansion
}

// Task is a seed for Run: a traversal point and the criterion bits that
// start there.
type Task struct {
	K    Key
	Mask uint64
	e    *entry
}

// Run executes one batched traversal from seeds and returns the dense
// per-statement criterion masks, the aggregate traversal stats, and the
// scheduler counters. The masks and stats are deterministic for a given
// graph and seed set; Counters are schedule-dependent (except Expansions).
func Run(cfg Config, seeds []Task) ([]uint64, slicing.Stats, Counters) {
	nw := cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > len(seeds) {
		nw = len(seeds)
	}
	if nw < 1 {
		nw = 1
	}
	r := &runner{cfg: cfg, table: newTable(nw)}
	r.workers = make([]*worker, nw)
	for i := range r.workers {
		r.workers[i] = &worker{masks: make([]uint64, cfg.NumStmts)}
	}
	// Seeds are dealt round-robin so the pool starts balanced; stealing
	// rebalances from there.
	for i, s := range seeds {
		r.push(r.workers[i%nw], s.K, s.Mask)
	}
	if nw == 1 {
		r.loop(0)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < nw; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.loop(i)
			}(i)
		}
		wg.Wait()
	}
	masks := r.workers[0].masks
	stats := r.workers[0].stats
	ctr := r.workers[0].ctr
	for _, w := range r.workers[1:] {
		for i, m := range w.masks {
			masks[i] |= m
		}
		stats.Instances += w.stats.Instances
		stats.LabelProbes += w.stats.LabelProbes
		stats.SegScans += w.stats.SegScans
		stats.SegSkips += w.stats.SegSkips
		ctr.Steals += w.ctr.Steals
		ctr.Merges += w.ctr.Merges
		ctr.Expansions += w.ctr.Expansions
	}
	ctr.WorkersUsed = nw
	return masks, stats, ctr
}

type worker struct {
	mu    sync.Mutex
	dq    []Task
	masks []uint64
	stats slicing.Stats
	ctr   Counters
}

type runner struct {
	cfg     Config
	table   *table
	workers []*worker
	// pending is written by every worker on every push and pop; the pad
	// keeps it off the cache line holding the read-mostly fields above.
	_       [64]byte
	pending atomic.Int64
}

// push claims mask's unseen bits for k in the visited table and, when any
// are new, enqueues a task carrying exactly those bits.
func (r *runner) push(w *worker, k Key, mask uint64) {
	nv, e := r.table.visit(k, mask)
	if nv == 0 {
		return
	}
	r.pending.Add(1)
	w.mu.Lock()
	w.dq = append(w.dq, Task{K: k, Mask: nv, e: e})
	w.mu.Unlock()
}

// pop takes from the worker's own tail, coalescing any directly adjacent
// tasks for the same key into one mask (the deque-level half of mask
// merging; the table-level half happens at push). Coalesced tasks retire
// immediately from the pending count.
func (r *runner) pop(w *worker) (Task, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.dq)
	if n == 0 {
		return Task{}, false
	}
	t := w.dq[n-1]
	w.dq = w.dq[:n-1]
	for len(w.dq) > 0 && w.dq[len(w.dq)-1].K == t.K {
		t.Mask |= w.dq[len(w.dq)-1].Mask
		w.dq = w.dq[:len(w.dq)-1]
		w.ctr.Merges++
		r.pending.Add(-1)
	}
	return t, true
}

// steal moves half of a victim's queue (from the head: the oldest, widest
// frontier entries) to the thief.
func (r *runner) steal(self int) (Task, bool) {
	me := r.workers[self]
	n := len(r.workers)
	for off := 1; off < n; off++ {
		v := r.workers[(self+off)%n]
		v.mu.Lock()
		if len(v.dq) == 0 {
			v.mu.Unlock()
			continue
		}
		take := (len(v.dq) + 1) / 2
		grabbed := make([]Task, take)
		copy(grabbed, v.dq[:take])
		v.dq = append(v.dq[:0], v.dq[take:]...)
		v.mu.Unlock()
		me.mu.Lock()
		me.dq = append(me.dq, grabbed[:take-1]...)
		me.mu.Unlock()
		me.ctr.Steals++
		return grabbed[take-1], true
	}
	return Task{}, false
}

func (r *runner) loop(self int) {
	w := r.workers[self]
	single := len(r.workers) == 1
	for {
		t, ok := r.pop(w)
		if !ok && !single {
			t, ok = r.steal(self)
		}
		if !ok {
			if r.pending.Load() == 0 || single {
				return
			}
			runtime.Gosched()
			continue
		}
		r.process(w, t)
	}
}

// process expands one task: resolve (or reuse) the key's expansion, OR the
// task's bits into the contributed statements' result masks, and propagate
// the bits downstream.
func (r *runner) process(w *worker, t Task) {
	exp := t.e.exp.Load()
	if exp == nil {
		var delta slicing.Stats
		computed := r.cfg.Expand(t.K, &delta)
		if t.e.exp.CompareAndSwap(nil, computed) {
			// Publishing winner: its resolution work is the one counted,
			// so stats are per-unique-key no matter how many workers
			// raced here.
			w.stats.Instances += delta.Instances
			w.stats.LabelProbes += delta.LabelProbes
			w.ctr.Expansions++
			exp = computed
		} else {
			exp = t.e.exp.Load()
		}
	}
	for _, id := range exp.Stmts {
		w.masks[id] |= t.Mask
	}
	for _, tk := range exp.Targets {
		r.push(w, tk, t.Mask)
	}
	r.pending.Add(-1)
}

// MaskSlices converts the dense per-statement criterion masks into one
// slicing.Slice per criterion bit.
func MaskSlices(masks []uint64, outs []*slicing.Slice) {
	for id, m := range masks {
		for ; m != 0; m &= m - 1 {
			outs[bits.TrailingZeros64(m)].Add(ir.StmtID(id))
		}
	}
}
