// Package slicing defines the types shared by the three dynamic slicing
// algorithms: FP (full dependence graph, §2 of the paper), LP (demand-driven
// from a disk trace), and OPT (the paper's contribution: compacted graph).
package slicing

import (
	"errors"
	"sort"

	"dynslice/internal/ir"
	"dynslice/internal/slicing/explain"
)

// Criterion selects what to slice on. Exactly one form is used:
//
//   - Addr != 0: slice from the last definition of that memory address
//     (the paper's "slices correspond to distinct memory references").
//   - Stmt >= 0 with TS >= 0: slice from a specific statement execution
//     instance, using the algorithm's own timestamp domain.
type Criterion struct {
	Addr int64
	Stmt ir.StmtID
	TS   int64
}

// ErrUndefined marks a criterion that names nothing the recorded run
// defined: an address it never wrote, or a global the program does not
// declare. Every backend wraps it (keeping the message "<backend>:
// address N was never defined"), and the query log classifies errors
// carrying it as bad_criterion.
var ErrUndefined = errors.New("was never defined")

// AddrCriterion slices on the last definition of address a.
func AddrCriterion(a int64) Criterion { return Criterion{Addr: a, Stmt: -1, TS: -1} }

// Slice is the result of a slicing query: the set of static statements the
// criterion (transitively) depends on.
type Slice struct {
	stmts map[ir.StmtID]bool
}

// NewSlice returns an empty slice result.
func NewSlice() *Slice { return &Slice{stmts: map[ir.StmtID]bool{}} }

// Add inserts a statement.
func (s *Slice) Add(id ir.StmtID) { s.stmts[id] = true }

// Has reports membership.
func (s *Slice) Has(id ir.StmtID) bool { return s.stmts[id] }

// Len returns the number of statements in the slice.
func (s *Slice) Len() int { return len(s.stmts) }

// Stmts returns the statements in ascending ID order.
func (s *Slice) Stmts() []ir.StmtID {
	out := make([]ir.StmtID, 0, len(s.stmts))
	for id := range s.stmts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two slices contain the same statements.
func (s *Slice) Equal(o *Slice) bool {
	if s.Len() != o.Len() {
		return false
	}
	for id := range s.stmts {
		if !o.stmts[id] {
			return false
		}
	}
	return true
}

// Lines returns the distinct source lines of the slice's statements, sorted.
func (s *Slice) Lines(p *ir.Program) []int {
	set := map[int]bool{}
	for id := range s.stmts {
		set[p.Stmt(id).Pos.Line] = true
	}
	out := make([]int, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Stats reports traversal effort for one slicing query, for the paper's
// time comparisons.
type Stats struct {
	Instances   int64 // dependence-graph instances visited
	LabelProbes int64 // timestamp labels examined while locating edges
	SegScans    int64 // (LP only) trace segments decoded
	SegSkips    int64 // (LP only) trace segments skipped via summaries
	SegBytes    int64 // (LP only) trace bytes decoded by the scanned segments
}

// Slicer is implemented by all three algorithms.
type Slicer interface {
	// Slice computes the dynamic slice for the criterion.
	Slice(c Criterion) (*Slice, *Stats, error)
}

// MultiSlicer is implemented by algorithms that can answer many criteria
// in one shared traversal. SliceAll returns one slice per criterion, in
// order, each identical to what Slice would produce; the stats aggregate
// the whole batch, counting work shared between criteria once.
type MultiSlicer interface {
	Slicer
	SliceAll(cs []Criterion) ([]*Slice, *Stats, error)
}

// Explainer is implemented by slicers that can record per-query
// provenance: SliceObserved computes exactly the slice Slice would,
// additionally threading every resolved dependence hop, traversal
// counter, and predecessor edge through rec (which must not be shared
// between concurrent queries). A nil rec makes it equivalent to Slice.
type Explainer interface {
	Slicer
	SliceObserved(c Criterion, rec *explain.Recorder) (*Slice, *Stats, error)
}
