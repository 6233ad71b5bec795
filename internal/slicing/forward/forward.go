// Package forward implements a forward-computation dynamic slicer, the
// algorithm class the paper contrasts with in §5 (Agrawal-Horgan's
// Algorithm IV, Beszedes et al., Korel-Yalamanchili): instead of building
// a dependence graph and traversing it backwards on demand, the slice of
// *every* value is computed eagerly while the program executes — the
// slice of a definition is the union of the slices of its operands and of
// its controlling instance, plus the statement itself.
//
// Slice queries then cost a table lookup, but, as the paper argues,
// "exhaustive precomputation of all dynamic slices at all program points
// produces large amounts of information": every live address pins a full
// slice set. This implementation interns sets and memoizes unions (the
// standard mitigation, cf. the paper's later ROBDD work), which keeps the
// cost proportional to the number of *distinct* slices, and doubles as an
// independent correctness oracle: a forward-computed slice must equal the
// backward-computed one for every criterion.
package forward

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
)

// setID names an interned statement set.
type setID int32

const noSet setID = -1

// store interns sorted statement-ID sets and memoizes unions.
type store struct {
	sets      [][]ir.StmtID
	intern    map[string]setID
	unionMemo map[[2]setID]setID
	addMemo   map[int64]setID // (set<<32 | stmt) -> set
}

func newStore() *store {
	return &store{
		intern:    map[string]setID{},
		unionMemo: map[[2]setID]setID{},
		addMemo:   map[int64]setID{},
	}
}

func (st *store) key(s []ir.StmtID) string {
	buf := make([]byte, 0, len(s)*3)
	var tmp [binary.MaxVarintLen64]byte
	for _, id := range s {
		n := binary.PutUvarint(tmp[:], uint64(id))
		buf = append(buf, tmp[:n]...)
	}
	return string(buf)
}

func (st *store) put(s []ir.StmtID) setID {
	k := st.key(s)
	if id, ok := st.intern[k]; ok {
		return id
	}
	id := setID(len(st.sets))
	st.sets = append(st.sets, s)
	st.intern[k] = id
	return id
}

// add returns set ∪ {stmt}.
func (st *store) add(a setID, stmt ir.StmtID) setID {
	if a == noSet {
		return st.put([]ir.StmtID{stmt})
	}
	mk := int64(a)<<32 | int64(stmt)
	if id, ok := st.addMemo[mk]; ok {
		return id
	}
	src := st.sets[a]
	i := sort.Search(len(src), func(i int) bool { return src[i] >= stmt })
	var out []ir.StmtID
	if i < len(src) && src[i] == stmt {
		out = src
	} else {
		out = make([]ir.StmtID, 0, len(src)+1)
		out = append(out, src[:i]...)
		out = append(out, stmt)
		out = append(out, src[i:]...)
	}
	id := st.put(out)
	st.addMemo[mk] = id
	return id
}

// union returns a ∪ b.
func (st *store) union(a, b setID) setID {
	if a == b || b == noSet {
		return a
	}
	if a == noSet {
		return b
	}
	if a > b {
		a, b = b, a
	}
	mk := [2]setID{a, b}
	if id, ok := st.unionMemo[mk]; ok {
		return id
	}
	sa, sb := st.sets[a], st.sets[b]
	out := make([]ir.StmtID, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			out = append(out, sa[i])
			i++
		case sa[i] > sb[j]:
			out = append(out, sb[j])
			j++
		default:
			out = append(out, sa[i])
			i++
			j++
		}
	}
	out = append(out, sa[i:]...)
	out = append(out, sb[j:]...)
	id := st.put(out)
	st.unionMemo[mk] = id
	return id
}

type fframe struct {
	fn        *ir.Func
	lastTerm  map[ir.BlockID]setID // block -> slice set of its last terminator execution
	termSeq   map[ir.BlockID]int64 // block -> sequence number of that execution
	callSlice setID                // slice set of the creating call instance
}

// Slicer computes all slices forward during execution. It implements
// trace.Sink.
type Slicer struct {
	p      *ir.Program
	st     *store
	mem    map[int64]setID // address -> slice set of its last definition
	frames []*fframe
	seq    int64
}

// New returns an empty forward slicer.
func New(p *ir.Program) *Slicer {
	return &Slicer{p: p, st: newStore(), mem: map[int64]setID{}}
}

// Block implements trace.Sink.
func (f *Slicer) Block(b *ir.Block) {
	if len(f.frames) == 0 {
		f.frames = append(f.frames, &fframe{
			fn: b.Fn, lastTerm: map[ir.BlockID]setID{},
			termSeq: map[ir.BlockID]int64{}, callSlice: noSet,
		})
	}
}

// control resolves the slice set of the controlling instance for a
// statement of block b (same rule as the backward algorithms: most recent
// same-frame ancestor terminator, or the creating call for entries).
func (f *Slicer) control(b *ir.Block) setID {
	fr := f.frames[len(f.frames)-1]
	best := noSet
	var bestSeq int64 = -1
	for _, h := range b.CDAncestors {
		if sq, ok := fr.termSeq[h.ID]; ok && sq > bestSeq {
			bestSeq = sq
			best = fr.lastTerm[h.ID]
		}
	}
	if bestSeq >= 0 {
		return best
	}
	if len(b.CDAncestors) == 0 && b.Fn != f.p.Main && b == b.Fn.Entry() {
		return fr.callSlice
	}
	return noSet
}

// Stmt implements trace.Sink.
func (f *Slicer) Stmt(s *ir.Stmt, uses, defs []int64) {
	fr := f.frames[len(f.frames)-1]
	cur := f.control(s.Block)
	for _, a := range uses {
		if id, ok := f.mem[a]; ok {
			cur = f.st.union(cur, id)
		}
	}
	cur = f.st.add(cur, s.ID)
	for _, a := range defs {
		f.mem[a] = cur
	}
	switch s.Op {
	case ir.OpCall:
		f.frames = append(f.frames, &fframe{
			fn:        s.Callee,
			lastTerm:  map[ir.BlockID]setID{},
			termSeq:   map[ir.BlockID]int64{},
			callSlice: cur,
		})
	case ir.OpCond, ir.OpReturn:
		fr.lastTerm[s.Block.ID] = cur
		f.seq++
		fr.termSeq[s.Block.ID] = f.seq
		if s.Op == ir.OpReturn && len(f.frames) > 0 {
			f.frames = f.frames[:len(f.frames)-1]
		}
	}
}

// RegionDef implements trace.Sink.
func (f *Slicer) RegionDef(s *ir.Stmt, start, length int64) {
	cur := f.st.add(f.control(s.Block), s.ID)
	for a := start; a < start+length; a++ {
		f.mem[a] = cur
	}
}

// End implements trace.Sink.
func (f *Slicer) End() {}

// DistinctSets reports how many distinct slice sets were materialized —
// the forward approach's space driver.
func (f *Slicer) DistinctSets() int { return len(f.st.sets) }

// Slice implements slicing.Slicer: a table lookup.
func (f *Slicer) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	if c.Stmt >= 0 {
		return nil, nil, fmt.Errorf("forward: instance criteria unsupported")
	}
	id, ok := f.mem[c.Addr]
	if !ok {
		return nil, nil, fmt.Errorf("forward: address %d %w", c.Addr, slicing.ErrUndefined)
	}
	out := slicing.NewSlice()
	for _, s := range f.st.sets[id] {
		out.Add(s)
	}
	return out, &slicing.Stats{Instances: int64(out.Len())}, nil
}
