// Package fp implements the baseline "full preprocessing" dynamic slicing
// algorithm (paper §2): the complete dynamic dependence graph is built in
// memory, with every exercised dependence instance recorded as an explicit
// timestamp pair. Timestamps are basic-block execution ordinals.
//
// Dynamic control dependences are tracked per call frame (the dynamic
// ancestor of a block execution is the most recent same-frame execution of
// one of its static control-dependence ancestors), and function entries
// are treated as control dependent on their call site, so slices follow
// both data and control across calls.
//
// Dependence storage is columnar: each use slot (and each block's control
// edges) owns one labelblock.List whose aux column carries the producing
// statement, instead of a []struct of 24-byte edges. Block ordinals only
// grow, so every list is append-sorted and seals into bit-packed blocks
// as it fills.
package fp

import (
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/telemetry"
)

type instRef struct {
	stmt ir.StmtID
	ts   int64
}

// DataEdge is one exercised data dependence instance of a use slot
// (decoded view; storage is columnar).
type DataEdge struct {
	Td, Tu int64
	Def    ir.StmtID
}

// CDEdge is one exercised control dependence instance of a block
// (decoded view; storage is columnar).
type CDEdge struct {
	Ta, Tb int64
	Anc    ir.StmtID // the controlling branch or call statement
}

// Graph is the full dynamic dependence graph and its builder state. It
// implements trace.Sink; feed it a trace (or run the interpreter with it
// as the sink), then call Slice.
type Graph struct {
	p *ir.Program

	// Builder state.
	ts      int64 // next block ordinal
	curTs   int64 // ordinal of the block being executed
	lastDef map[int64]instRef
	frames  []*frameCtx

	// Snapshot-loaded graphs carry the last-definition table as sorted
	// parallel arrays instead of the builder's map (lastDef == nil):
	// bulk array fills load an order of magnitude faster than map
	// inserts, and criterion resolution only needs one binary search per
	// query. defOf dispatches between the two forms.
	defAddrs []int64
	defRefs  []instRef

	// Graph proper: per use slot / per block, a compressed (Td, Tu) list
	// whose aux column is the producing statement ID.
	useEdges  [][]labelblock.List // [stmtID][slot] -> pairs ordered by Tu
	cdEdges   []labelblock.List   // [blockID] -> pairs ordered by Tb
	dataPairs int64
	cdPairs   int64

	mem *labelblock.Arena
	enc *labelblock.Encoder

	workers atomic.Int32 // batched-query pool bound; 0 = GOMAXPROCS

	tel *telemetry.Registry // optional; flushed once at End
}

type frameCtx struct {
	fn          *ir.Func
	lastExec    map[ir.BlockID]int64
	callSite    instRef
	hasCallSite bool
}

// NewGraph returns an empty graph/builder for p.
func NewGraph(p *ir.Program) *Graph {
	g := &Graph{
		p:        p,
		lastDef:  map[int64]instRef{},
		useEdges: make([][]labelblock.List, len(p.Stmts)),
		cdEdges:  make([]labelblock.List, len(p.Blocks)),
		mem:      labelblock.NewArena(),
	}
	for i := range g.cdEdges {
		g.cdEdges[i] = labelblock.NewList(true)
	}
	return g
}

// SetParallelEncode enables epoch-parallel construction: filled label
// epochs are sealed by n encode workers (n <= 0: GOMAXPROCS) off the
// resolver's critical path. Must be called before feeding the trace.
func (g *Graph) SetParallelEncode(n int) {
	g.enc = labelblock.NewEncoder(n)
}

// Block implements trace.Sink.
func (g *Graph) Block(b *ir.Block) {
	g.curTs = g.ts
	g.ts++
	if len(g.frames) == 0 {
		g.frames = append(g.frames, &frameCtx{fn: b.Fn, lastExec: map[ir.BlockID]int64{}})
	}
	fr := g.frames[len(g.frames)-1]

	// Dynamic control dependence: most recent same-frame execution of a
	// static ancestor; function entries fall back to the call site.
	bestTs := int64(-1)
	var bestAnc *ir.Block
	for _, anc := range b.CDAncestors {
		if t, ok := fr.lastExec[anc.ID]; ok && t > bestTs {
			bestTs = t
			bestAnc = anc
		}
	}
	if bestAnc != nil {
		term := bestAnc.Terminator()
		g.cdEdges[b.ID].AppendEnc(g.mem, g.enc, labelblock.Pair{Td: bestTs, Tu: g.curTs}, int32(term.ID))
		g.cdPairs++
	} else if fr.hasCallSite && b == b.Fn.Entry() {
		// Interprocedural control dependence: the function entry depends on
		// its call site. Only the entry carries this edge; other blocks
		// without intraprocedural ancestors execute unconditionally within
		// the frame, and the call statement still enters slices through
		// parameter data dependences.
		g.cdEdges[b.ID].AppendEnc(g.mem, g.enc, labelblock.Pair{Td: fr.callSite.ts, Tu: g.curTs}, int32(fr.callSite.stmt))
		g.cdPairs++
	}
	fr.lastExec[b.ID] = g.curTs
}

// Stmt implements trace.Sink.
func (g *Graph) Stmt(s *ir.Stmt, uses, defs []int64) {
	if g.useEdges[s.ID] == nil && len(s.Uses) > 0 {
		slots := make([]labelblock.List, len(s.Uses))
		for i := range slots {
			slots[i] = labelblock.NewList(true)
		}
		g.useEdges[s.ID] = slots
	}
	for i, a := range uses {
		if d, ok := g.lastDef[a]; ok {
			g.useEdges[s.ID][i].AppendEnc(g.mem, g.enc, labelblock.Pair{Td: d.ts, Tu: g.curTs}, int32(d.stmt))
			g.dataPairs++
		}
	}
	for _, a := range defs {
		g.lastDef[a] = instRef{stmt: s.ID, ts: g.curTs}
	}
	switch s.Op {
	case ir.OpCall:
		g.frames = append(g.frames, &frameCtx{
			fn:          s.Callee,
			lastExec:    map[ir.BlockID]int64{},
			callSite:    instRef{stmt: s.ID, ts: g.curTs},
			hasCallSite: true,
		})
	case ir.OpReturn:
		if len(g.frames) > 0 {
			g.frames = g.frames[:len(g.frames)-1]
		}
	}
}

// RegionDef implements trace.Sink.
func (g *Graph) RegionDef(s *ir.Stmt, start, length int64) {
	for a := start; a < start+length; a++ {
		g.lastDef[a] = instRef{stmt: s.ID, ts: g.curTs}
	}
}

// SetTelemetry attaches a registry; the builder keeps plain counters and
// flushes them when the trace ends.
func (g *Graph) SetTelemetry(reg *telemetry.Registry) { g.tel = reg }

// End implements trace.Sink. Every list is compacted (short clean tails
// sealed) so the frozen graph sits at maximum compression and lookups
// never mutate it — required for concurrent SliceAll.
func (g *Graph) End() {
	g.enc.Drain()
	for _, slots := range g.useEdges {
		for i := range slots {
			slots[i].Compact(g.mem, false)
		}
	}
	for i := range g.cdEdges {
		g.cdEdges[i].Compact(g.mem, false)
	}
	if reg := g.tel; reg != nil {
		if g.enc != nil {
			reg.Gauge("build.epoch.workers").Set(int64(g.enc.Workers()))
			reg.Counter("build.epoch.blocks").Add(g.enc.Blocks())
		}
		reg.Counter("fp.labels.data").Add(g.dataPairs)
		reg.Counter("fp.labels.cd").Add(g.cdPairs)
		reg.Counter("fp.block_execs").Add(g.ts)
		reg.Gauge("fp.graph.size_bytes").Set(g.SizeBytes())
		reg.Gauge("fp.graph.bytes.labels").Set(g.LabelBytes())
		reg.Gauge("fp.graph.bytes.edges").Set(g.EdgeBytes())
		reg.Gauge("fp.graph.bytes.resident").Set(g.ResidentBytes())
	}
}

// LastDefOf returns the statement instance that last defined addr.
func (g *Graph) LastDefOf(addr int64) (ir.StmtID, int64, bool) {
	d, ok := g.defOf(addr)
	return d.stmt, d.ts, ok
}

// defOf resolves the last definition of addr in either table form: the
// builder's map, or a loaded graph's sorted arrays.
func (g *Graph) defOf(addr int64) (instRef, bool) {
	if g.lastDef != nil {
		d, ok := g.lastDef[addr]
		return d, ok
	}
	if i, ok := slices.BinarySearch(g.defAddrs, addr); ok {
		return g.defRefs[i], true
	}
	return instRef{}, false
}

// DataPairs returns the number of data dependence labels.
func (g *Graph) DataPairs() int64 { return g.dataPairs }

// CDPairs returns the number of control dependence labels.
func (g *Graph) CDPairs() int64 { return g.cdPairs }

// LabelPairs returns the total number of explicit timestamp-pair labels.
func (g *Graph) LabelPairs() int64 { return g.dataPairs + g.cdPairs }

// SizeBytes estimates the in-memory size of the graph the way the paper
// reports graph sizes: 16 bytes per timestamp pair plus edge and node
// overheads. (This is the Table 2 accounting model; ResidentBytes reports
// what the compact representation actually occupies.)
func (g *Graph) SizeBytes() int64 {
	var sz int64
	sz += g.LabelPairs() * 24 // pair + source statement per instance
	sz += int64(len(g.p.Blocks)) * 32
	for _, slots := range g.useEdges {
		sz += int64(len(slots)) * 24
	}
	return sz
}

// LabelBytes reports the actual resident bytes of label storage: encoded
// block payloads, headers, and uncompressed tails across every list.
func (g *Graph) LabelBytes() int64 {
	var sz int64
	for _, slots := range g.useEdges {
		for i := range slots {
			sz += slots[i].MemBytes()
		}
	}
	for i := range g.cdEdges {
		sz += g.cdEdges[i].MemBytes()
	}
	return sz
}

// EdgeBytes reports the columnar slot-table overhead: one List header per
// use slot and per block, plus the per-statement spine.
func (g *Graph) EdgeBytes() int64 {
	listSz := int64(unsafe.Sizeof(labelblock.List{}))
	var sz int64
	sz += int64(len(g.useEdges)) * int64(unsafe.Sizeof([]labelblock.List{}))
	for _, slots := range g.useEdges {
		sz += int64(cap(slots)) * listSz
	}
	sz += int64(cap(g.cdEdges)) * listSz
	return sz
}

// ResidentBytes is the actual footprint of the frozen graph: labels plus
// the slot tables.
func (g *Graph) ResidentBytes() int64 { return g.LabelBytes() + g.EdgeBytes() }

var _ slicing.Explainer = (*Graph)(nil)

type instKey struct {
	stmt ir.StmtID
	ts   int64
}

// Slice implements slicing.Slicer.
func (g *Graph) Slice(c slicing.Criterion) (*slicing.Slice, *slicing.Stats, error) {
	return g.SliceObserved(c, nil)
}

// SliceObserved implements slicing.Explainer: the same traversal as
// Slice, recording each traversed dependence into rec when non-nil.
// Every FP dependence is an explicit stored label, so all hops carry
// explain.KindExplicit — FP is the accounting baseline the OPT
// attribution is compared against.
func (g *Graph) SliceObserved(c slicing.Criterion, rec *explain.Recorder) (*slicing.Slice, *slicing.Stats, error) {
	stats := &slicing.Stats{}
	var start instRef
	if c.Stmt >= 0 {
		start = instRef{stmt: c.Stmt, ts: c.TS}
	} else {
		d, ok := g.defOf(c.Addr)
		if !ok {
			return nil, nil, fmt.Errorf("fp: address %d was never defined", c.Addr)
		}
		start = d
	}
	if rec != nil {
		rec.Criterion(start.stmt, start.ts)
	}
	out := slicing.NewSlice()
	visited := map[instKey]bool{}
	work := []instRef{start}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		k := instKey{in.stmt, in.ts}
		if visited[k] {
			continue
		}
		visited[k] = true
		stats.Instances++
		if rec != nil {
			rec.Visit(in.stmt, in.ts)
		}
		out.Add(in.stmt)
		s := g.p.Stmt(in.stmt)

		// Data dependences, one per use slot.
		for i := range s.Uses {
			slots := g.useEdges[in.stmt]
			if slots == nil {
				continue
			}
			td, def, probes, found := slots[i].Find(in.ts)
			stats.LabelProbes += probes
			if found {
				if rec != nil {
					rec.Edge(in.stmt, in.ts, false, int32(i), ir.StmtID(def), td, explain.KindExplicit, false)
				}
				work = append(work, instRef{stmt: ir.StmtID(def), ts: td})
			}
		}
		// Control dependence of the enclosing block instance.
		ta, anc, probes, found := g.cdEdges[s.Block.ID].Find(in.ts)
		stats.LabelProbes += probes
		if found {
			if rec != nil {
				rec.Edge(in.stmt, in.ts, false, -1, ir.StmtID(anc), ta, explain.KindExplicit, true)
			}
			work = append(work, instRef{stmt: ir.StmtID(anc), ts: ta})
		}
	}
	return out, stats, nil
}

// sortCheck verifies the edge ordering invariant on the decoded lists
// (used by tests).
func (g *Graph) sortCheck() bool {
	sorted := func(l *labelblock.List) bool {
		pairs := l.Pairs(nil)
		for i := 1; i < len(pairs); i++ {
			if pairs[i].Tu < pairs[i-1].Tu {
				return false
			}
		}
		return true
	}
	for _, slots := range g.useEdges {
		for i := range slots {
			if !sorted(&slots[i]) {
				return false
			}
		}
	}
	for i := range g.cdEdges {
		if !sorted(&g.cdEdges[i]) {
			return false
		}
	}
	return true
}

// DeltaStream serializes the graph's labeling information as the paper's
// SEQUITUR comparison requires: for every edge list, the sequence of
// tu - td deltas (highly repetitive for regular dependence patterns),
// with a separator symbol between lists. Grammar compression of this
// stream is the baseline the paper reports a 9.18x average factor for.
func (g *Graph) DeltaStream() []int64 {
	const sep = int64(1) << 40
	var out []int64
	var pairs []labelblock.Pair
	emit := func(l *labelblock.List) {
		if l.Len() == 0 {
			return
		}
		pairs = l.Pairs(pairs[:0])
		for _, e := range pairs {
			out = append(out, e.Tu-e.Td)
		}
		out = append(out, sep)
	}
	for _, slots := range g.useEdges {
		for i := range slots {
			emit(&slots[i])
		}
	}
	for i := range g.cdEdges {
		emit(&g.cdEdges[i])
	}
	return out
}
