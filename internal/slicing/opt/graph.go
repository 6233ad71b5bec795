package opt

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dynslice/internal/ir"
	"dynslice/internal/profile"
	"dynslice/internal/slicing/labelblock"
	"dynslice/internal/telemetry"
)

// NodeID identifies a node of the compacted graph: either a standalone
// basic block or a specialized Ball-Larus path.
type NodeID int32

// Pair is one explicit dependence label: the timestamps of the defining
// (or controlling) node execution and the using node execution.
type Pair struct {
	Td, Tu int64
}

// Labels is an append-ordered list of pairs, possibly shared between edges
// of a simultaneity cluster (OPT-3 / OPT-6). Pairs arrive in Tu order
// except when a recursive call suspends and resumes a superblock-node
// execution, so lookups seal lazily on first use after an out-of-order
// append. A shared list dedupes repeated pairs. Storage is labelblock's
// bit-packed block layout.
type Labels struct {
	id      int32 // index in the graph's label registry (epoch file key)
	list    labelblock.List
	flushed int64 // pairs moved to disk epochs; Len includes them
	last    Pair  // most recent append, for shared-list dedupe (survives flushes)
	hasLast bool
	shared  bool
	isCD    bool // tagged control-side for the dyDDG/dyCDG size split
}

// Append records a pair, deduping an immediate repeat on shared lists.
// It reports whether the pair was stored (false = deduped). Pairs land in
// ar-backed storage; a nil arena falls back to the heap.
func (l *Labels) Append(ar *labelblock.Arena, p Pair) bool {
	return l.AppendEnc(ar, nil, p)
}

// AppendEnc is Append with epoch-parallel block sealing through enc (nil:
// inline sealing, exactly Append).
func (l *Labels) AppendEnc(ar *labelblock.Arena, enc *labelblock.Encoder, p Pair) bool {
	if l.shared && l.hasLast && l.last == p {
		return false
	}
	l.last, l.hasLast = p, true
	l.list.AppendEnc(ar, enc, labelblock.Pair(p), 0)
	return true
}

// ensureSorted seals the list after out-of-order appends (deduping shared
// lists, whose append-time dedupe out-of-order arrivals can defeat). A
// no-op on clean lists, so post-Finalize lookups never mutate.
func (l *Labels) ensureSorted() {
	if l.list.Dirty() {
		l.list.Seal(l.shared)
	}
}

// Find returns the Td paired with tu: a binary search over the sealed
// blocks' ranges, then a search of one block's packed Tu column. The
// second result counts label probes (for traversal-cost accounting);
// found reports success.
func (l *Labels) Find(tu int64) (td int64, probes int64, found bool) {
	l.ensureSorted()
	td, _, probes, found = l.list.Find(tu)
	return td, probes, found
}

// Len returns the number of stored pairs, resident plus flushed — derived
// from the two stores rather than adjusted in place, so epoch flushing and
// sort-time dedupe cannot drift it.
func (l *Labels) Len() int { return int(l.flushed) + l.list.Len() }

// MemBytes reports the resident bytes of the list's label storage plus
// the Labels bookkeeping itself.
func (l *Labels) MemBytes() int64 { return l.list.MemBytes() + int64(unsafe.Sizeof(*l)) }

// InstLoc addresses one statement copy: a node and the copy's index within
// the node.
type InstLoc struct {
	Node NodeID
	Stmt int32
}

// DynEdge is a dynamically introduced, labeled dependence edge from a use
// slot to the statement copy that produced the value.
type DynEdge struct {
	Tgt InstLoc
	L   *Labels
}

// StaticKind classifies the statically introduced edge of a use slot.
type StaticKind uint8

// Static edge kinds for use slots.
const (
	SNone      StaticKind = iota
	SDU                   // full local def-use (OPT-1a / OPT-2c): no labels ever needed
	SDUPartial            // local def-use with may-alias interference (OPT-1b)
	SUU                   // local use-use (OPT-2b); the target statement is not sliced in
)

// DefaultMode classifies an adaptive default edge (an extension
// generalizing the paper's OPT-4 fixed-distance inference to data
// dependences; see Config.AdaptiveDeltas).
type DefaultMode uint8

// Adaptive default edge modes.
const (
	DefNone  DefaultMode = iota
	DefWarm              // collecting candidate rules; every observation labeled
	DefDelta             // producer is always Val node executions earlier
	DefConst             // producer is always the single execution at Val
	DefDead              // no dominant rule (or a producerless execution); labels carry everything
)

// warmObservations is the number of labeled observations collected before
// a rule is adopted.
const warmObservations = 24

// candidate is one (target, rule) hypothesis tracked during warmup with a
// Misra-Gries heavy-hitter counter.
type candidate struct {
	tgt     InstLoc
	isConst bool
	val     int64
	count   int32
}

type warmStats struct {
	obs   int32
	cands [4]candidate
	used  [4]bool
}

// DefaultEdge is an adaptive, build-time-verified inference rule for a use
// slot or control edge: when no explicit label matches a timestamp, the
// producing instance is inferred from the rule. The builder adopts the
// dominant (target, fixed-delta | constant-source) hypothesis after a
// warmup of labeled observations and records an explicit label whenever a
// later observation disagrees, so inference is always sound — a wrongly
// adopted rule only costs labels, never correctness.
type DefaultEdge struct {
	Mode DefaultMode
	Tgt  InstLoc
	Val  int64 // delta (DefDelta) or constant timestamp (DefConst)
	warm *warmStats
}

// Resolve infers the producing timestamp for tu, if the rule applies.
func (d *DefaultEdge) Resolve(tu int64) (InstLoc, int64, bool) {
	switch d.Mode {
	case DefDelta:
		return d.Tgt, tu - d.Val, true
	case DefConst:
		return d.Tgt, d.Val, true
	}
	return InstLoc{}, 0, false
}

// observe feeds one exercised dependence (producer tgt at td, consumer at
// tu) to the rule machinery. It returns true when the adopted rule covers
// the observation (no label needed).
func (d *DefaultEdge) observe(tgt InstLoc, td, tu int64) bool {
	switch d.Mode {
	case DefNone:
		d.Mode = DefWarm
		d.warm = &warmStats{}
		fallthrough
	case DefWarm:
		d.vote(candidate{tgt: tgt, isConst: false, val: tu - td})
		d.vote(candidate{tgt: tgt, isConst: true, val: td})
		d.warm.obs++
		if d.warm.obs >= warmObservations {
			d.adopt()
		}
		return false
	case DefDelta:
		return tgt == d.Tgt && td == tu-d.Val
	case DefConst:
		return tgt == d.Tgt && td == d.Val
	}
	return false
}

func (d *DefaultEdge) vote(c candidate) {
	w := d.warm
	for i := range w.cands {
		if w.used[i] && w.cands[i].tgt == c.tgt && w.cands[i].isConst == c.isConst && w.cands[i].val == c.val {
			w.cands[i].count++
			return
		}
	}
	for i := range w.cands {
		if !w.used[i] {
			w.used[i] = true
			c.count = 1
			w.cands[i] = c
			return
		}
	}
	for i := range w.cands {
		w.cands[i].count--
		if w.cands[i].count <= 0 {
			w.used[i] = false
		}
	}
}

func (d *DefaultEdge) adopt() {
	w := d.warm
	best := -1
	for i := range w.cands {
		if w.used[i] && (best < 0 || w.cands[i].count > w.cands[best].count) {
			best = i
		}
	}
	d.warm = nil
	if best < 0 || w.cands[best].count < 4 {
		d.Mode = DefDead
		return
	}
	d.Tgt = w.cands[best].tgt
	d.Val = w.cands[best].val
	if w.cands[best].isConst {
		d.Mode = DefConst
	} else {
		d.Mode = DefDelta
	}
}

// kill permanently disables the rule (used when an execution has no
// producer, which no rule may paper over).
func (d *DefaultEdge) kill() {
	d.Mode = DefDead
	d.warm = nil
}

// UseEdgeSet is the backward edge set of one use slot of one statement
// copy (the paper's E_us).
type UseEdgeSet struct {
	Static     StaticKind
	StTgtStmt  int32     // target statement copy (same node)
	StTgtSlot  int32     // target use slot (SUU only)
	ClusterID  int32     // OPT-3/OPT-6 cluster for dynamic labels, or -1
	ClusterDef ir.StmtID // the defining statement the cluster applies to
	Default    DefaultEdge
	Dyn        []DynEdge
}

// CDKind classifies the static control edge of a block occurrence.
type CDKind uint8

// Static control edge kinds.
const (
	CDNone  CDKind = iota
	CDLocal        // ancestor is an earlier occurrence in the same node (OPT-5; delta 0)
	CDDelta        // unique external ancestor at fixed node distance (OPT-4)
	CDSame         // control equivalent to an earlier occurrence: defer to its
	// resolution at the same timestamp (OPT-5a, applied to the
	// continuation occurrences of superblock nodes)
)

// CDDynEdge is a dynamically introduced, labeled control dependence edge.
type CDDynEdge struct {
	Tgt InstLoc // the controlling branch/call statement copy
	L   *Labels
}

// CDEdgeSet is the backward control edge set of one block occurrence (the
// paper's E_cs, at block granularity).
type CDEdgeSet struct {
	Static    CDKind
	StTgtOcc  int32   // CDLocal: controlling occurrence within this node
	StTgt     InstLoc // CDDelta: terminator copy in the ancestor's standalone node
	Delta     int64   // CDDelta: timestamp distance
	ClusterID int32   // OPT-6 cluster for dynamic labels, or -1
	Default   DefaultEdge
	Dyn       []CDDynEdge
}

// Occ is one occurrence of a basic block within a node. A standalone node
// has exactly one occurrence; a path node has one per path position.
type Occ struct {
	B       *ir.Block
	StmtOff int32 // index of the block's first statement copy in Node.Stmts
	CD      CDEdgeSet
}

// StmtCopy is one copy of an IR statement within a node. Its backward data
// edge sets live columnar in Node.UseSets at [UseOff, UseOff+len(S.Uses)),
// so a copy is a fixed 16 bytes instead of carrying two slice headers.
type StmtCopy struct {
	S      *ir.Stmt
	OccIdx int32
	UseOff int32 // index of the copy's first use slot in Node.UseSets
}

// Node is a graph node: a standalone block or a specialized path. The use
// edge sets of all statement copies are stored structure-of-arrays in one
// UseSets column; resolution tracking (targets of use-use edges) is a
// bitset over the same index space.
type Node struct {
	ID      NodeID
	IsPath  bool
	Occs    []Occ
	Stmts   []StmtCopy
	UseSets []UseEdgeSet
	track   []uint64 // bitset over UseSets indices; nil = nothing tracked
}

// useSet returns the edge set of one use slot of one statement copy.
func (n *Node) useSet(si, slot int32) *UseEdgeSet {
	return &n.UseSets[n.Stmts[si].UseOff+slot]
}

// nUses returns the number of use slots of a statement copy.
func (n *Node) nUses(si int32) int { return len(n.Stmts[si].S.Uses) }

// tracked reports whether a use slot records its resolutions.
func (n *Node) tracked(si, slot int32) bool {
	if n.track == nil {
		return false
	}
	i := n.Stmts[si].UseOff + slot
	return n.track[i>>6]&(1<<(uint(i)&63)) != 0
}

// setTracked marks a use slot for resolution tracking.
func (n *Node) setTracked(si, slot int32) {
	if n.track == nil {
		n.track = make([]uint64, (len(n.UseSets)+63)/64)
	}
	i := n.Stmts[si].UseOff + slot
	n.track[i>>6] |= 1 << (uint(i) & 63)
}

// DefRef identifies the statement instance that last defined an address.
type DefRef struct {
	Loc  InstLoc
	Ts   int64
	Live bool
}

// Graph is the compacted dynamic dependence graph (static component plus
// accumulated dynamic component) and the slicer over it.
type Graph struct {
	p   *ir.Program
	cfg Config

	nodes     []*Node
	blockLoc  []occLoc          // standalone (node, occ) of each physical block
	pathByKey map[string]NodeID // specialized path lookup by block-sequence key

	// Static-edge statistics.
	staticDU, staticUU, staticCD int64
	adaptiveData, adaptiveCD     int64 // installed adaptive default edges

	// Shared-label registries. Shared lists are keyed per (cluster,
	// producing node): when the defining block executes inside a
	// specialized path node rather than its standalone node, the cluster's
	// edges target that copy, and lookups must resolve to the same copy.
	clusterLabels map[clusterNodeKey]*Labels
	clusterIsCD   map[int32]bool // cluster id -> control-side tag (OPT-6)
	allLabels     []*Labels

	// Copy indices built during node construction.
	copies    map[ir.StmtID][]InstLoc
	occCopies map[ir.BlockID][]occLoc

	// Dynamic state (builder); see build.go.
	ts      int64
	lastDef map[int64]DefRef
	// Snapshot-loaded graphs carry the last-definition table as sorted
	// parallel arrays instead of the builder's map (lastDef == nil):
	// bulk array fills load an order of magnitude faster than map
	// inserts, and criterion resolution only needs one binary search per
	// query. defOf dispatches between the two forms.
	defAddrs    []int64
	defRefs     []DefRef
	cuts        *profile.Cuts
	frames      []*frameCtx
	buf         []bufEntry
	arena       []int64
	pendingCont *contBuf

	// Shortcut closures, computed lazily after building. The memo is the
	// one graph structure concurrent queries write; shortcutMu guards it.
	shortcuts  map[InstLoc]*closure
	shortcutMu sync.Mutex

	// §4.2 hybrid disk-epoch mode (nil when disabled); see hybrid.go.
	hybrid *hybridState

	// Epoch-parallel block sealing (nil: inline); see SetParallelEncode.
	enc *labelblock.Encoder

	// Batched-query pool bound (0 = GOMAXPROCS); see SetWorkers.
	workers atomic.Int32

	// Builder scratch.
	framePool  []*frameCtx
	keyScratch []byte

	// Label storage: block payloads and recycled tails come from mem;
	// Labels structs themselves are slab-allocated in chunks so a build
	// does hundreds of allocations instead of millions.
	mem       *labelblock.Arena
	labelSlab []Labels

	// Telemetry (see telemetry.go). elim is always maintained (plain
	// increments on paths already taken); tel/cShortcut are nil unless a
	// registry is attached.
	elim       Elim
	tel        *telemetry.Registry
	cShortcut  *telemetry.Counter
	telFlushed bool
}

func (g *Graph) node(id NodeID) *Node { return g.nodes[id] }

const labelSlabSize = 256

func (g *Graph) newLabels(shared, isCD bool) *Labels {
	if len(g.labelSlab) == cap(g.labelSlab) {
		// Full (or first use): start a fresh slab. Taken pointers into the
		// old slab stay valid because the slice is never grown in place.
		g.labelSlab = make([]Labels, 0, labelSlabSize)
	}
	g.labelSlab = append(g.labelSlab, Labels{
		id:     int32(len(g.allLabels)),
		list:   labelblock.NewList(false),
		shared: shared,
		isCD:   isCD,
	})
	l := &g.labelSlab[len(g.labelSlab)-1]
	if shared {
		l.list.SetDedupe()
	}
	g.allLabels = append(g.allLabels, l)
	return l
}

// clusterNodeKey keys shared label lists by cluster and producing node.
type clusterNodeKey struct {
	id   int32
	node NodeID
}

// clusterList returns the shared label list for a cluster and producing
// node, creating it on first use (tagged control-side for OPT-6 clusters).
func (g *Graph) clusterList(id int32, node NodeID) *Labels {
	k := clusterNodeKey{id: id, node: node}
	if l, ok := g.clusterLabels[k]; ok {
		return l
	}
	l := g.newLabels(true, g.clusterIsCD[id])
	g.clusterLabels[k] = l
	return l
}

// LabelPairs returns the number of explicitly stored timestamp pairs
// (shared lists counted once) — the quantity the paper reduces to ~6%.
func (g *Graph) LabelPairs() int64 {
	var n int64
	for _, l := range g.allLabels {
		n += int64(l.Len())
	}
	return n
}

// DataPairs returns stored pairs on data edges (shared OPT-6 lists count
// as control, matching the paper's attribution of savings to OPT-6).
func (g *Graph) DataPairs() int64 {
	var n int64
	for _, l := range g.allLabels {
		if !l.isCD {
			n += int64(l.Len())
		}
	}
	return n
}

// CDPairs returns stored pairs on control edges.
func (g *Graph) CDPairs() int64 { return g.LabelPairs() - g.DataPairs() }

// StaticEdges returns the number of statically introduced edges.
func (g *Graph) StaticEdges() int64 { return g.staticDU + g.staticUU + g.staticCD }

// AdaptiveEdges returns the number of live adaptive default edges.
func (g *Graph) AdaptiveEdges() int64 { return g.adaptiveData + g.adaptiveCD }

// Nodes returns the node count (blocks plus specialized paths).
func (g *Graph) Nodes() int { return len(g.nodes) }

// PathNodes returns the number of specialized path nodes.
func (g *Graph) PathNodes() int { return len(g.pathByKey) }

// SizeBytes estimates graph memory the way the paper reports sizes:
// 16 bytes per stored pair, plus per-edge and per-node overheads
// (including the static code growth caused by path specialization).
func (g *Graph) SizeBytes() int64 {
	var sz int64
	sz += g.LabelPairs() * 16
	var dynEdges int64
	var stmtCopies int64
	for _, n := range g.nodes {
		sz += 32
		stmtCopies += int64(len(n.Stmts))
		for k := range n.UseSets {
			dynEdges += int64(len(n.UseSets[k].Dyn))
		}
		for i := range n.Occs {
			dynEdges += int64(len(n.Occs[i].CD.Dyn))
		}
	}
	sz += dynEdges * 24
	sz += (g.StaticEdges() + g.AdaptiveEdges()) * 8
	sz += stmtCopies * 16
	return sz
}

// SetParallelEncode enables epoch-parallel construction: filled label
// epochs are sealed by n encode workers (n <= 0: GOMAXPROCS) off the
// resolver's critical path. Must be called before feeding the trace.
// Mutually exclusive with EnableHybrid — disk-epoch flushing splits lists
// mid-build, which requires every sealed block's payload to be resident;
// with hybrid enabled the call is a no-op.
func (g *Graph) SetParallelEncode(n int) {
	if g.hybrid != nil {
		return
	}
	g.enc = labelblock.NewEncoder(n)
}

// Finalize freezes the graph for concurrent queries: the epoch encoder
// (if any) is drained so every sealed block is materialized, then every
// label list is compacted — out-of-order or straddling lists are repacked
// into globally sorted blocks (deduped when shared), clean tails worth
// sealing are sealed — so Find never mutates shared state afterwards. End
// calls it automatically; calling it again is a cheap no-op.
func (g *Graph) Finalize() {
	g.enc.Drain()
	for _, l := range g.allLabels {
		l.list.Compact(g.mem, l.shared)
	}
}

// LabelBytes reports the actual resident bytes of label storage — encoded
// block payloads and uncompressed tails. Unlike SizeBytes (the paper's
// 16-bytes-per-pair model, kept for the Table 2 ratios), this measures
// the Go heap the pairs really hold. The fixed Labels registry entries
// exist identically under either layout and count as edge-table overhead
// (EdgeBytes), matching FP's split.
func (g *Graph) LabelBytes() int64 {
	var sz int64
	for _, l := range g.allLabels {
		sz += l.list.MemBytes()
	}
	return sz
}

// EdgeBytes reports the resident bytes of the graph's edge and node
// tables: statement-copy rows, columnar use edge sets, occurrence rows,
// and dynamic edge vectors.
func (g *Graph) EdgeBytes() int64 {
	var sz int64
	for _, n := range g.nodes {
		sz += int64(unsafe.Sizeof(*n))
		sz += int64(cap(n.Stmts)) * int64(unsafe.Sizeof(StmtCopy{}))
		sz += int64(cap(n.UseSets)) * int64(unsafe.Sizeof(UseEdgeSet{}))
		sz += int64(cap(n.Occs)) * int64(unsafe.Sizeof(Occ{}))
		sz += int64(cap(n.track)) * 8
		for k := range n.UseSets {
			sz += int64(cap(n.UseSets[k].Dyn)) * int64(unsafe.Sizeof(DynEdge{}))
		}
		for i := range n.Occs {
			sz += int64(cap(n.Occs[i].CD.Dyn)) * int64(unsafe.Sizeof(CDDynEdge{}))
		}
	}
	// The label registry: one bookkeeping struct plus one registry pointer
	// per list, layout-independent.
	sz += int64(len(g.allLabels)) * (int64(unsafe.Sizeof(Labels{})) + 8)
	return sz
}

// ResidentBytes reports the total resident bytes of the dependence
// representation: labels plus edge/node tables.
func (g *Graph) ResidentBytes() int64 { return g.LabelBytes() + g.EdgeBytes() }

// LastDefOf returns the instance that last defined addr.
func (g *Graph) LastDefOf(addr int64) (DefRef, bool) {
	return g.defOf(addr)
}

// defOf resolves the last definition of addr in either table form: the
// builder's map, or a loaded graph's sorted arrays.
func (g *Graph) defOf(addr int64) (DefRef, bool) {
	if g.lastDef != nil {
		d, ok := g.lastDef[addr]
		return d, ok
	}
	if i, ok := slices.BinarySearch(g.defAddrs, addr); ok {
		return g.defRefs[i], true
	}
	return DefRef{}, false
}

// StmtAt returns the IR statement of a copy location.
func (g *Graph) StmtAt(loc InstLoc) *ir.Stmt { return g.nodes[loc.Node].Stmts[loc.Stmt].S }
