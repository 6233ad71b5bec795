package opt

import (
	"fmt"
	"sync"

	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
)

// Slicing traversal (paper §3.4 "Dynamic Slicing" and Fig. 13): for each
// dependence of an instance, search the dynamic labels first; if the
// relevant timestamp is absent, the statically introduced edge applies and
// the producing timestamp is inferred (td = tu for data edges and local
// control edges, tc = tb - delta for distance-inferred control edges).
// Use-use edges redirect resolution to the earlier use without adding its
// statement to the slice.
//
// The label-vs-static decision logic lives in resolveUseDep/resolveCDDep,
// shared verbatim by the sequential traversal below and the batched
// multi-criterion traversal in sliceall.go, so the two paths cannot
// diverge.

var _ slicing.Explainer = (*Graph)(nil)

type instKey struct {
	loc InstLoc
	ts  int64
}

type sliceState struct {
	g       *Graph
	out     *slicing.Slice
	stats   *slicing.Stats
	obs     *explain.Recorder // nil for unobserved queries (the common case)
	visited map[instKey]bool
	seenUse map[useKey]bool
	work    []task
}

type useKey struct {
	loc  InstLoc
	slot int32
	ts   int64
}

type task struct {
	loc   InstLoc
	ts    int64
	slot  int32
	isUse bool // resolve a single use slot without adding the statement
}

// statePool recycles traversal state (visited/seen maps and the worklist)
// across queries; the maps dominate per-query allocation on warm graphs.
var statePool = sync.Pool{New: func() any {
	return &sliceState{visited: map[instKey]bool{}, seenUse: map[useKey]bool{}}
}}

// maxPooledEntries bounds the traversal state a pooled sliceState keeps.
// Go maps never shrink and clear costs a map's capacity, not its length,
// so without the bound one heavy query would tax every later light query
// with clearing tables sized for it. Above the bound release drops the
// map instead of clearing it. 1<<17 sits above an interactive query's
// footprint (about 64k instances on 130.li at input 16), so those keep
// reusing their maps.
const maxPooledEntries = 1 << 17

// recycle empties m for reuse, or replaces it when it grew past
// maxPooledEntries.
func recycle[K comparable](m map[K]bool) map[K]bool {
	if len(m) > maxPooledEntries {
		return map[K]bool{}
	}
	clear(m)
	return m
}

func getSliceState(g *Graph) *sliceState {
	st := statePool.Get().(*sliceState)
	st.g = g
	st.out = slicing.NewSlice()
	st.stats = &slicing.Stats{}
	return st
}

// release returns st to the pool. The slice and stats escape to
// the caller; only the traversal bookkeeping is recycled.
func (st *sliceState) release() {
	st.visited = recycle(st.visited)
	st.seenUse = recycle(st.seenUse)
	st.work = st.work[:0]
	if cap(st.work) > maxPooledEntries {
		st.work = nil
	}
	st.g, st.out, st.stats, st.obs = nil, nil, nil, nil
	statePool.Put(st)
}

// dep is the resolved dependence of one use slot or control edge: nothing
// (depNone), a producing statement instance to slice in (depInst), or a
// redirect to an earlier use of the same value (depUse).
type dep struct {
	kind depKind
	loc  InstLoc
	ts   int64
	slot int32        // depUse only
	why  explain.Kind // how the dependence was resolved (observed queries)
}

type depKind uint8

const (
	depNone depKind = iota
	depInst
	depUse
)

// Slice implements slicing.Slicer. Address criteria resolve against the
// graph's final last-definition table; statement-instance criteria are
// supported through SliceAt (OPT timestamps are node ordinals, which are
// not meaningful to callers holding FP ordinals).
func (g *Graph) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return g.SliceObserved(c, nil)
}

// SliceObserved implements slicing.Explainer: the same traversal as
// Slice, recording each resolved dependence hop into rec when non-nil.
func (g *Graph) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	if c.Stmt >= 0 {
		return nil, nil, fmt.Errorf("opt: statement-instance criteria require SliceAt (OPT timestamps are node ordinals)")
	}
	d, ok := g.defOf(c.Addr)
	if !ok {
		return nil, nil, fmt.Errorf("opt: address %d %w", c.Addr, slicing.ErrUndefined)
	}
	return g.SliceAtObserved(d.Loc, d.Ts, rec)
}

// SliceAt computes the dynamic slice of the statement-copy instance at loc
// with node timestamp ts.
func (g *Graph) SliceAt(loc InstLoc, ts int64) (*slicing.Slice, *slicing.Stats, error) {
	return g.SliceAtObserved(loc, ts, nil)
}

// SliceAtObserved is SliceAt with an optional provenance recorder.
func (g *Graph) SliceAtObserved(loc InstLoc, ts int64, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	st := getSliceState(g)
	st.obs = rec
	if rec != nil {
		rec.Criterion(g.StmtAt(loc).ID, ts)
	}
	st.pushInstance(loc, ts)
	for len(st.work) > 0 {
		t := st.work[len(st.work)-1]
		st.work = st.work[:len(st.work)-1]
		if t.isUse {
			st.resolveUse(t.loc, t.slot, t.ts, true)
		} else {
			st.processInstance(t.loc, t.ts)
		}
	}
	out, stats := st.out, st.stats
	st.release()
	return out, stats, nil
}

func (st *sliceState) pushInstance(loc InstLoc, ts int64) {
	if ts < 0 || ts >= st.g.ts {
		// Out of the executed timestamp range: an inference rule fired for
		// a timestamp it has no evidence about (possible only after graph
		// corruption); drop rather than fabricate instances.
		return
	}
	k := instKey{loc, ts}
	if st.visited[k] {
		return
	}
	st.visited[k] = true
	st.work = append(st.work, task{loc: loc, ts: ts})
}

func (st *sliceState) pushUse(loc InstLoc, slot int32, ts int64) {
	k := useKey{loc, slot, ts}
	if st.seenUse[k] {
		return
	}
	st.seenUse[k] = true
	st.work = append(st.work, task{loc: loc, ts: ts, slot: slot, isUse: true})
}

func (st *sliceState) processInstance(loc InstLoc, ts int64) {
	st.stats.Instances++
	g := st.g
	if g.cfg.Shortcuts {
		g.cShortcut.Inc()
		cl := g.closureFor(loc)
		if st.obs != nil {
			st.observeClosure(loc, ts, cl)
		}
		for _, id := range cl.stmts {
			st.out.Add(id)
		}
		for _, u := range cl.uFront {
			st.resolveUse(InstLoc{Node: loc.Node, Stmt: u.stmt}, u.slot, ts, !u.member)
		}
		for _, cf := range cl.cFront {
			st.resolveCD(loc.Node, cf.occ, ts, cf.via)
		}
		return
	}
	n := g.nodes[loc.Node]
	sc := &n.Stmts[loc.Stmt]
	st.out.Add(sc.S.ID)
	if st.obs != nil {
		st.obs.Visit(sc.S.ID, ts)
	}
	for k := range sc.S.Uses {
		st.resolveUse(loc, int32(k), ts, false)
	}
	st.resolveCD(loc.Node, sc.OccIdx, ts, loc.Stmt)
}

// observeClosure records shortcut membership: every closure statement
// beyond the root is witnessed as one shortcut hop from the root
// instance (all closure members share the root's timestamp — the
// closure is the all-static, same-timestamp subgraph).
func (st *sliceState) observeClosure(loc InstLoc, ts int64, cl *closure) {
	n := st.g.nodes[loc.Node]
	root := n.Stmts[loc.Stmt].S.ID
	st.obs.Visit(root, ts)
	for _, id := range cl.stmts {
		if id == root {
			continue
		}
		st.obs.Edge(root, ts, false, -1, id, ts, explain.KindShortcut, false)
	}
	// Frontier uses reached through SUU redirect chains belong to skipped
	// statements: anchor them as use points so the dependence resolved
	// there chains back to the root rather than dead-ending.
	for _, u := range cl.uFront {
		if u.member {
			continue
		}
		st.obs.EdgeUse(root, ts, false, -1, n.Stmts[u.stmt].S.ID, u.slot, ts, explain.KindShortcut)
	}
}

// resolveUse resolves one use slot; fromUse marks resolution on behalf of
// a use-point redirect target (an OPT-2 chain) rather than an instance's
// own use.
func (st *sliceState) resolveUse(loc InstLoc, slot int32, ts int64, fromUse bool) {
	d := st.g.resolveUseDep(loc, slot, ts, st.stats, st.obs)
	if st.obs != nil && d.kind != depNone {
		from := st.g.nodes[loc.Node].Stmts[loc.Stmt].S.ID
		switch d.kind {
		case depInst:
			st.obs.Edge(from, ts, fromUse, slot, st.g.StmtAt(d.loc).ID, d.ts, d.why, false)
		case depUse:
			st.obs.EdgeUse(from, ts, fromUse, slot, st.g.StmtAt(d.loc).ID, d.slot, d.ts, d.why)
		}
	}
	switch d.kind {
	case depInst:
		st.pushInstance(d.loc, d.ts)
	case depUse:
		st.pushUse(d.loc, d.slot, d.ts)
	}
}

// resolveCD resolves the control dependence of one occurrence; fromSi is
// the statement copy the edge is traversed on behalf of (for witnesses).
func (st *sliceState) resolveCD(node NodeID, occIdx int32, ts int64, fromSi int32) {
	d := st.g.resolveCDDep(node, occIdx, ts, st.stats, st.obs)
	if d.kind != depInst {
		return
	}
	if st.obs != nil {
		from := st.g.nodes[node].Stmts[fromSi].S.ID
		st.obs.Edge(from, ts, false, -1, st.g.StmtAt(d.loc).ID, d.ts, d.why, true)
	}
	st.pushInstance(d.loc, d.ts)
}

// resolveUseDep locates the dependence of one use slot at time ts.
// Dynamic labels take precedence; the static edge is the fallback (paper
// Fig. 13, cases (a) and (c)). Read-only on the graph after Finalize.
// The dep's why field classifies the resolution for observed queries.
func (g *Graph) resolveUseDep(loc InstLoc, slot int32, ts int64, stats *slicing.Stats, obs *explain.Recorder) dep {
	us := g.nodes[loc.Node].useSet(loc.Stmt, slot)
	for i := range us.Dyn {
		td, probes, found := g.findLabel(us.Dyn[i].L, us.Dyn[i].L.id, ts, obs)
		stats.LabelProbes += probes
		if found {
			if td < 0 {
				return dep{} // tombstone: this execution had no producer
			}
			why := explain.KindExplicit
			if us.Dyn[i].L.shared {
				why = explain.KindExplicitOPT3
			}
			return dep{kind: depInst, loc: us.Dyn[i].Tgt, ts: td, why: why}
		}
	}
	switch us.Static {
	case SDU, SDUPartial:
		return dep{kind: depInst, loc: InstLoc{Node: loc.Node, Stmt: us.StTgtStmt}, ts: ts, why: explain.KindInferredOPT1}
	case SUU:
		// Redirect to the earlier use at the same timestamp; its statement
		// is not added to the slice.
		return dep{kind: depUse, loc: InstLoc{Node: loc.Node, Stmt: us.StTgtStmt}, slot: us.StTgtSlot, ts: ts, why: explain.KindInferredOPT2}
	case SNone:
		if tgt, td, ok := us.Default.Resolve(ts); ok {
			return dep{kind: depInst, loc: tgt, ts: td, why: explain.KindInferredAdaptive}
		}
	}
	return dep{}
}

// resolveCDDep locates the controlling instance of a block occurrence at
// time ts. CDSame chains (control-equivalent occurrences of superblock
// nodes) are followed iteratively; an observer counts each deferral and
// the eventual resolution is attributed to the final hop.
func (g *Graph) resolveCDDep(node NodeID, occIdx int32, ts int64, stats *slicing.Stats, obs *explain.Recorder) dep {
	for {
		occ := &g.nodes[node].Occs[occIdx]
		for i := range occ.CD.Dyn {
			ta, probes, found := g.findLabel(occ.CD.Dyn[i].L, occ.CD.Dyn[i].L.id, ts, obs)
			stats.LabelProbes += probes
			if found {
				if ta < 0 {
					return dep{} // tombstone: no controlling instance
				}
				why := explain.KindExplicit
				if occ.CD.Dyn[i].L.shared {
					why = explain.KindExplicitOPT6
				}
				return dep{kind: depInst, loc: occ.CD.Dyn[i].Tgt, ts: ta, why: why}
			}
		}
		switch occ.CD.Static {
		case CDLocal:
			tgtOcc := g.nodes[node].Occs[occ.CD.StTgtOcc]
			termIdx := tgtOcc.StmtOff + int32(len(tgtOcc.B.Stmts)) - 1
			return dep{kind: depInst, loc: InstLoc{Node: node, Stmt: termIdx}, ts: ts, why: explain.KindInferredOPT5}
		case CDDelta:
			return dep{kind: depInst, loc: occ.CD.StTgt, ts: ts - occ.CD.Delta, why: explain.KindInferredOPT4}
		case CDSame:
			// Control equivalent to an earlier occurrence of the same node
			// execution: resolve that occurrence's edge at the same time.
			obs.CDSameDeferral()
			occIdx = occ.CD.StTgtOcc
			continue
		case CDNone:
			if tgt, ta, ok := occ.CD.Default.Resolve(ts); ok {
				return dep{kind: depInst, loc: tgt, ts: ta, why: explain.KindInferredAdaptive}
			}
		}
		return dep{}
	}
}
