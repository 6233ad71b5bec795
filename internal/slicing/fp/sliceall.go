package fp

import (
	"fmt"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/batch"
)

// SetWorkers bounds the worker pool batched queries (SliceAll) run on;
// n <= 0 means GOMAXPROCS. Atomic, so concurrent engine callers may
// retune it between (but not during) their own queries.
func (g *Graph) SetWorkers(n int) { g.workers.Store(int32(n)) }

// fpKey packs a statement instance into a scheduler key.
func fpKey(stmt ir.StmtID, ts int64) batch.Key {
	return batch.Key{K1: uint64(uint32(stmt)), K2: uint64(ts)}
}

// SliceAll implements slicing.MultiSlicer: N criteria are answered in one
// work-stealing traversal per 64-criterion chunk. Each statement instance
// carries a bitmask of the criteria whose slices reach it, merged through
// the shared flat visited table (internal/slicing/batch), so a subgraph
// shared by several slices is walked — and its per-slot label searches
// performed — once instead of once per criterion. Every returned slice
// is identical to what Slice would produce; the aggregate stats count
// each unique instance and label probe once.
func (g *Graph) SliceAll(cs []slicing.Criterion) ([]*slicing.Slice, *slicing.Stats, error) {
	stats := &slicing.Stats{}
	outs := make([]*slicing.Slice, len(cs))
	seeds := make([]instRef, len(cs))
	for i, c := range cs {
		if c.Stmt >= 0 {
			seeds[i] = instRef{stmt: c.Stmt, ts: c.TS}
		} else {
			d, ok := g.defOf(c.Addr)
			if !ok {
				return nil, nil, fmt.Errorf("fp: address %d %w", c.Addr, slicing.ErrUndefined)
			}
			seeds[i] = d
		}
		outs[i] = slicing.NewSlice()
	}
	cfg := batch.Config{
		Workers:  int(g.workers.Load()),
		NumStmts: len(g.p.Stmts),
		Expand:   g.expandInstance,
	}
	var ctr batch.Counters
	for base := 0; base < len(cs); base += 64 {
		chunk := min(64, len(cs)-base)
		tasks := make([]batch.Task, chunk)
		for j := 0; j < chunk; j++ {
			s := seeds[base+j]
			tasks[j] = batch.Task{K: fpKey(s.stmt, s.ts), Mask: uint64(1) << j}
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

// expandInstance resolves one statement instance's dependences — the same
// per-slot and control-edge Finds the sequential SliceObserved performs.
func (g *Graph) expandInstance(k batch.Key, stats *slicing.Stats) *batch.Expansion {
	stmt := ir.StmtID(int32(uint32(k.K1)))
	ts := int64(k.K2)
	stats.Instances++
	exp := &batch.Expansion{Stmts: []ir.StmtID{stmt}}
	s := g.p.Stmt(stmt)
	slots := g.useEdges[stmt]
	for i := range s.Uses {
		if slots == nil {
			continue
		}
		td, def, probes, found := slots[i].Find(ts)
		stats.LabelProbes += probes
		if found {
			exp.Targets = append(exp.Targets, fpKey(ir.StmtID(def), td))
		}
	}
	ta, anc, probes, found := g.cdEdges[s.Block.ID].Find(ts)
	stats.LabelProbes += probes
	if found {
		exp.Targets = append(exp.Targets, fpKey(ir.StmtID(anc), ta))
	}
	return exp
}
