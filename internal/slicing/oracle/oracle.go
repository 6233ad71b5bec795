// Package oracle is a brute-force reference dynamic slicer used only by
// tests. It shares no code or representation with the FP, LP, or OPT
// implementations: the whole trace is kept as a flat event log, and a
// slice is computed by a direct backward walk over that log, recomputing
// every dependence from first principles. It is deliberately simple and
// memory-hungry — its only job is to be obviously correct, so that a
// conceptual bug shared by the optimized implementations cannot hide
// behind differential agreement.
package oracle

import (
	"fmt"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
)

// event is one statement execution in the log.
type event struct {
	stmt *ir.Stmt
	ord  int64 // block-execution ordinal (FP timestamp)
	uses []int64
	defs []int64
	// control: index into the log of the controlling statement execution
	// (the branch whose most recent same-frame execution governs this
	// one, or the call that created the frame for function entries), or
	// -1.
	control int
}

// Slicer is the reference implementation. It implements trace.Sink; feed
// it the whole trace, then query.
type Slicer struct {
	p   *ir.Program
	log []event
	ord int64

	// Builder state for control resolution.
	frames  []*oframe
	lastDef map[int64]int // addr -> log index of the defining event

	deps *Deps // lazily built statement-level pairs (see Deps)
}

type oframe struct {
	fn       *ir.Func
	lastTerm map[ir.BlockID]int // block -> log index of its terminator execution
	callIdx  int                // log index of the creating call, or -1
}

// New returns an empty oracle for p.
func New(p *ir.Program) *Slicer {
	return &Slicer{p: p, lastDef: map[int64]int{}}
}

// Block implements trace.Sink.
func (o *Slicer) Block(b *ir.Block) {
	if len(o.frames) == 0 {
		o.frames = append(o.frames, &oframe{fn: b.Fn, lastTerm: map[ir.BlockID]int{}, callIdx: -1})
	}
	o.ord++
}

// Stmt implements trace.Sink.
func (o *Slicer) Stmt(s *ir.Stmt, uses, defs []int64) {
	fr := o.frames[len(o.frames)-1]
	ev := event{
		stmt:    s,
		ord:     o.ord - 1,
		uses:    append([]int64(nil), uses...),
		defs:    append([]int64(nil), defs...),
		control: o.resolveControl(s.Block, fr),
	}
	idx := len(o.log)
	o.log = append(o.log, ev)
	for _, a := range defs {
		o.lastDef[a] = idx
	}
	switch s.Op {
	case ir.OpCall:
		o.frames = append(o.frames, &oframe{
			fn:       s.Callee,
			lastTerm: map[ir.BlockID]int{},
			callIdx:  idx,
		})
	case ir.OpCond, ir.OpReturn:
		fr.lastTerm[s.Block.ID] = idx
		if s.Op == ir.OpReturn && len(o.frames) > 0 {
			o.frames = o.frames[:len(o.frames)-1]
		}
	}
}

// RegionDef implements trace.Sink.
func (o *Slicer) RegionDef(s *ir.Stmt, start, length int64) {
	fr := o.frames[len(o.frames)-1]
	ev := event{
		stmt:    s,
		ord:     o.ord - 1,
		defs:    nil,
		control: o.resolveControl(s.Block, fr),
	}
	for a := start; a < start+length; a++ {
		ev.defs = append(ev.defs, a)
	}
	idx := len(o.log)
	o.log = append(o.log, ev)
	for _, a := range ev.defs {
		o.lastDef[a] = idx
	}
}

// End implements trace.Sink.
func (o *Slicer) End() {}

// resolveControl finds the controlling execution for a statement of block
// b in frame fr: the most recent same-frame terminator execution among
// b's static control ancestors, or the frame-creating call for function
// entries (matching the rule shared by FP, LP, and OPT).
func (o *Slicer) resolveControl(b *ir.Block, fr *oframe) int {
	best := -1
	for _, h := range b.CDAncestors {
		if idx, ok := fr.lastTerm[h.ID]; ok && idx > best {
			best = idx
		}
	}
	if best >= 0 {
		return best
	}
	if len(b.CDAncestors) == 0 && b.Fn != o.p.Main && b == b.Fn.Entry() {
		return fr.callIdx
	}
	return -1
}

// Deps is the statement-level dependence relation recomputed from the
// event log: which (dependent, dependency) statement pairs were actually
// exercised during the run. Witness validation checks every hop of an
// optimized slicer's dependence-path witness against these pairs, so an
// inferred or shortcut edge that does not correspond to a real dynamic
// dependence is caught even when the slice sets still agree.
type Deps struct {
	data    map[[2]ir.StmtID]bool
	control map[[2]ir.StmtID]bool
	useUse  map[[2]ir.StmtID]bool

	adj   map[ir.StmtID][]ir.StmtID        // union graph, dependent -> dependency
	reach map[ir.StmtID]map[ir.StmtID]bool // memoized BFS closures
}

// Deps replays the log once and returns the exercised dependence pairs.
// The result is memoized on the slicer; call after the trace is complete.
func (o *Slicer) Deps() *Deps {
	if o.deps != nil {
		return o.deps
	}
	d := &Deps{
		data:    map[[2]ir.StmtID]bool{},
		control: map[[2]ir.StmtID]bool{},
		useUse:  map[[2]ir.StmtID]bool{},
		adj:     map[ir.StmtID][]ir.StmtID{},
		reach:   map[ir.StmtID]map[ir.StmtID]bool{},
	}
	lastDef := map[int64]ir.StmtID{} // addr -> statement of its live definition
	users := map[int64][]ir.StmtID{} // addr -> statements that used the live value
	for i := range o.log {
		ev := &o.log[i]
		id := ev.stmt.ID
		// Uses before defs, so x = x + 1 depends on the previous definition.
		for _, a := range ev.uses {
			if def, ok := lastDef[a]; ok {
				d.add(d.data, id, def)
			}
			for _, u := range users[a] {
				d.add(d.useUse, id, u)
			}
			users[a] = append(users[a], id)
		}
		if ev.control >= 0 {
			d.add(d.control, id, o.log[ev.control].stmt.ID)
		}
		for _, a := range ev.defs {
			lastDef[a] = id
			users[a] = users[a][:0]
		}
	}
	o.deps = d
	return d
}

func (d *Deps) add(m map[[2]ir.StmtID]bool, from, to ir.StmtID) {
	k := [2]ir.StmtID{from, to}
	if m[k] {
		return
	}
	m[k] = true
	d.adj[from] = append(d.adj[from], to)
}

// Data reports whether from took a value last defined by to at some point
// in the run.
func (d *Deps) Data(from, to ir.StmtID) bool { return d.data[[2]ir.StmtID{from, to}] }

// Control reports whether an execution of from was governed by an
// execution of to.
func (d *Deps) Control(from, to ir.StmtID) bool { return d.control[[2]ir.StmtID{from, to}] }

// UseUse reports whether from used a value that to had already used while
// the same definition (or the same never-defined cell) was live — the
// relation OPT-2 use-to-use redirection edges traverse.
func (d *Deps) UseUse(from, to ir.StmtID) bool { return d.useUse[[2]ir.StmtID{from, to}] }

// Reachable reports whether to is transitively reachable from from over
// the union of the three relations — the justification for shortcut
// (chain-collapsing) hops, which compress a multi-edge dependence chain
// into one step.
func (d *Deps) Reachable(from, to ir.StmtID) bool {
	if from == to {
		return true
	}
	set, ok := d.reach[from]
	if !ok {
		set = map[ir.StmtID]bool{from: true}
		work := []ir.StmtID{from}
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			for _, m := range d.adj[n] {
				if !set[m] {
					set[m] = true
					work = append(work, m)
				}
			}
		}
		d.reach[from] = set
	}
	return set[to]
}

// Slice implements slicing.Slicer: brute-force backward walk.
func (o *Slicer) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	if c.Stmt >= 0 {
		return nil, nil, fmt.Errorf("oracle: instance criteria unsupported")
	}
	start, ok := o.lastDef[c.Addr]
	if !ok {
		return nil, nil, fmt.Errorf("oracle: address %d %w", c.Addr, slicing.ErrUndefined)
	}
	out := slicing.NewSlice()
	stats := &slicing.Stats{}
	visited := make([]bool, len(o.log))
	work := []int{start}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		if idx < 0 || visited[idx] {
			continue
		}
		visited[idx] = true
		stats.Instances++
		ev := &o.log[idx]
		out.Add(ev.stmt.ID)
		// Data: for each used address, scan backward for the previous
		// definition (the brute-force part).
		for _, a := range ev.uses {
			for j := idx - 1; j >= 0; j-- {
				hit := false
				for _, d := range o.log[j].defs {
					if d == a {
						hit = true
						break
					}
				}
				if hit {
					work = append(work, j)
					break
				}
			}
		}
		work = append(work, ev.control)
	}
	return out, stats, nil
}
