package opt

import (
	"fmt"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/batch"
)

// Batched multi-criterion slicing: N criteria are answered in one shared
// traversal per 64-criterion chunk, run on the work-stealing scheduler in
// internal/slicing/batch. Each traversal point — a statement instance or
// a pending use-slot redirect — carries a bitmask of the criteria whose
// slices it belongs to, merged through the scheduler's sharded flat
// visited table, so a subgraph shared by several slices (the common case:
// the paper's 25 criteria are all end-of-run definitions that converge on
// the program's core) is walked once instead of once per criterion, and
// its dependence resolution (label probes, default-edge inference) is
// memoized once per unique (location, timestamp) rather than recomputed
// for every criterion that reaches it. Expansion goes through the exact
// resolvers the sequential path uses (resolveUseDep/resolveCDDep in
// slice.go).

// SetWorkers bounds the worker pool batched queries (SliceAll) run on;
// n <= 0 means GOMAXPROCS. Atomic, so concurrent engine callers may
// retune it between (but not during) their own queries.
func (g *Graph) SetWorkers(n int) { g.workers.Store(int32(n)) }

// optKey packs a traversal point — a statement instance (slot == -1) or a
// use-slot redirect introduced by a use-use edge — into a scheduler key.
// Timestamps are node ordinals, non-negative for every key that reaches
// the scheduler (expandPoint filters the out-of-range inferences the
// sequential pushInstance guard drops), so the shifted packing is
// collision-free.
func optKey(loc InstLoc, ts int64, slot int32) batch.Key {
	return batch.Key{
		K1: uint64(uint32(loc.Node))<<32 | uint64(uint32(loc.Stmt)),
		K2: uint64(ts)<<16 | uint64(uint16(slot+2)),
	}
}

func unpackKey(k batch.Key) (loc InstLoc, ts int64, slot int32) {
	loc = InstLoc{Node: NodeID(int32(k.K1 >> 32)), Stmt: int32(uint32(k.K1))}
	ts = int64(k.K2 >> 16)
	slot = int32(uint16(k.K2)) - 2
	return loc, ts, slot
}

// SliceAll implements slicing.MultiSlicer: it answers every criterion with
// the slice Slice would produce. The aggregate stats count each unique
// instance and label probe once, not once per criterion that reaches it —
// that sharing is the point.
func (g *Graph) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	outs := make([]*slicing.Slice, len(cs))
	stats := &slicing.Stats{}
	seeds := make([]DefRef, len(cs))
	for i, c := range cs {
		if c.Stmt >= 0 {
			return nil, nil, fmt.Errorf("opt: statement-instance criteria require SliceAt (OPT timestamps are node ordinals)")
		}
		d, ok := g.defOf(c.Addr)
		if !ok {
			return nil, nil, fmt.Errorf("opt: address %d %w", c.Addr, slicing.ErrUndefined)
		}
		seeds[i] = d
		outs[i] = slicing.NewSlice()
	}
	cfg := batch.Config{
		Workers:  int(g.workers.Load()),
		NumStmts: len(g.p.Stmts),
		Expand:   g.expandPoint,
	}
	var ctr batch.Counters
	for base := 0; base < len(cs); base += 64 {
		chunk := min(64, len(cs)-base)
		tasks := make([]batch.Task, chunk)
		for j := 0; j < chunk; j++ {
			s := seeds[base+j]
			tasks[j] = batch.Task{K: optKey(s.Loc, s.Ts, -1), Mask: uint64(1) << j}
		}
		masks, st, c := batch.Run(cfg, tasks)
		batch.MaskSlices(masks, outs[base:base+chunk])
		stats.Instances += st.Instances
		stats.LabelProbes += st.LabelProbes
		ctr.Steals += c.Steals
		ctr.Merges += c.Merges
	}
	if reg := g.tel; reg != nil {
		reg.Counter("slice.batch.steals").Add(ctr.Steals)
		reg.Counter("slice.batch.block_merges").Add(ctr.Merges)
	}
	return outs, stats, nil
}

// expandPoint resolves one traversal point through the shared resolvers.
func (g *Graph) expandPoint(k batch.Key, stats *slicing.Stats) *batch.Expansion {
	loc, ts, slot := unpackKey(k)
	exp := &batch.Expansion{}
	if slot >= 0 {
		g.addDep(exp, g.resolveUseDep(loc, slot, ts, stats, nil))
		return exp
	}
	stats.Instances++
	if g.cfg.Shortcuts {
		g.cShortcut.Inc()
		cl := g.closureFor(loc)
		exp.Stmts = cl.stmts // shared read-only with the closure memo
		for _, u := range cl.uFront {
			g.addDep(exp, g.resolveUseDep(InstLoc{Node: loc.Node, Stmt: u.stmt}, u.slot, ts, stats, nil))
		}
		for _, cf := range cl.cFront {
			g.addDep(exp, g.resolveCDDep(loc.Node, cf.occ, ts, stats, nil))
		}
		return exp
	}
	n := g.nodes[loc.Node]
	sc := &n.Stmts[loc.Stmt]
	exp.Stmts = append(exp.Stmts, sc.S.ID)
	for s := range sc.S.Uses {
		g.addDep(exp, g.resolveUseDep(loc, int32(s), ts, stats, nil))
	}
	g.addDep(exp, g.resolveCDDep(loc.Node, sc.OccIdx, ts, stats, nil))
	return exp
}

// addDep appends a resolved dependence as a downstream traversal point.
func (g *Graph) addDep(e *batch.Expansion, dp dep) {
	switch dp.kind {
	case depInst:
		if dp.ts < 0 || dp.ts >= g.ts {
			// Same guard as the sequential pushInstance: no fabricated
			// instances outside the executed timestamp range.
			return
		}
		e.Targets = append(e.Targets, optKey(dp.loc, dp.ts, -1))
	case depUse:
		e.Targets = append(e.Targets, optKey(dp.loc, dp.ts, dp.slot))
	}
}
