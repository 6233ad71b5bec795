// Graph snapshot codec: the frozen FP graph's queryable state — block
// ordinal counter, last-definition table, and the columnar label lists —
// serialized for the single-read on-disk graph image
// (internal/slicing/snapshot). Builder-only state (frames, encoder,
// arena free lists) is not persisted; a loaded graph is frozen and
// answers queries exactly like the graph it was saved from.
package fp

import (
	"encoding/binary"
	"sort"

	"dynslice/internal/ir"
	"dynslice/internal/slicing/labelblock"
)

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// AppendSnapshot serializes the frozen graph (call after End). The
// encoding is deterministic: map-backed state is emitted in sorted order,
// so identical graphs produce identical bytes (the golden-snapshot format
// guard relies on this).
func (g *Graph) AppendSnapshot(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(g.ts))
	dst = binary.AppendUvarint(dst, uint64(g.dataPairs))
	dst = binary.AppendUvarint(dst, uint64(g.cdPairs))
	dst = append(dst, 0) // layout byte: 0 is the bit-packed layout, the only one

	// Last-definition table, sorted by address for deterministic bytes.
	// A loaded graph already holds it as sorted arrays (lastDef == nil).
	addrs, refs := g.defAddrs, g.defRefs
	if g.lastDef != nil {
		addrs = make([]int64, 0, len(g.lastDef))
		for a := range g.lastDef {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		refs = make([]instRef, len(addrs))
		for i, a := range addrs {
			refs[i] = g.lastDef[a]
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	prev := int64(0)
	for i, a := range addrs {
		dst = binary.AppendUvarint(dst, zigzag(a-prev))
		dst = binary.AppendUvarint(dst, uint64(refs[i].stmt))
		dst = binary.AppendUvarint(dst, uint64(refs[i].ts))
		prev = a
	}

	// Columnar label lists: per statement its use-slot lists (0 slots =
	// statement never executed), then per block its control list.
	dst = binary.AppendUvarint(dst, uint64(len(g.useEdges)))
	for _, slots := range g.useEdges {
		dst = binary.AppendUvarint(dst, uint64(len(slots)))
		for i := range slots {
			dst = labelblock.AppendList(dst, &slots[i])
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(g.cdEdges)))
	for i := range g.cdEdges {
		dst = labelblock.AppendList(dst, &g.cdEdges[i])
	}
	return dst
}

// LoadSnapshot reconstructs a frozen graph from AppendSnapshot bytes.
// Sealed block payloads alias data — the caller keeps the snapshot buffer
// reachable for the graph's lifetime — so loading does no per-label
// decode. Errors are classified *labelblock.CorruptError values.
func LoadSnapshot(p *ir.Program, data []byte) (*Graph, error) {
	g := &Graph{
		p:   p,
		mem: labelblock.NewArena(),
	}
	var ts, dp, cp uint64
	var err error
	if ts, data, err = snapUvarint(data, "timestamp counter"); err != nil {
		return nil, err
	}
	if dp, data, err = snapUvarint(data, "data pair count"); err != nil {
		return nil, err
	}
	if cp, data, err = snapUvarint(data, "cd pair count"); err != nil {
		return nil, err
	}
	g.ts = int64(ts)
	g.dataPairs = int64(dp)
	g.cdPairs = int64(cp)
	if len(data) == 0 {
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "fp: data ends before layout byte")
	}
	if data[0] != 0 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: unknown label layout %d", data[0])
	}
	data = data[1:]

	nDefs, data, err := snapUvarint(data, "lastDef count")
	if err != nil {
		return nil, err
	}
	if nDefs > uint64(len(data)) {
		// Every entry costs at least one byte; reject before allocating.
		return nil, labelblock.Corrupt(labelblock.ClassTruncated, "fp: lastDef count %d exceeds remaining data", nDefs)
	}
	// Bulk-fill the sorted-array form (defOf binary-searches it); the
	// builder's map would cost a hashed insert per address here.
	g.defAddrs = make([]int64, nDefs)
	g.defRefs = make([]instRef, nDefs)
	prev := int64(0)
	for i := uint64(0); i < nDefs; i++ {
		var da, st, dts uint64
		if da, data, err = snapUvarint(data, "lastDef addr"); err != nil {
			return nil, err
		}
		if st, data, err = snapUvarint(data, "lastDef stmt"); err != nil {
			return nil, err
		}
		if dts, data, err = snapUvarint(data, "lastDef ts"); err != nil {
			return nil, err
		}
		addr := prev + unzig(da)
		if i > 0 && addr <= prev {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: lastDef addresses not strictly ascending")
		}
		prev = addr
		if st >= uint64(len(p.Stmts)) {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: lastDef stmt %d out of range", st)
		}
		g.defAddrs[i] = addr
		g.defRefs[i] = instRef{stmt: ir.StmtID(st), ts: int64(dts)}
	}

	nStmts, data, err := snapUvarint(data, "useEdges length")
	if err != nil {
		return nil, err
	}
	if nStmts != uint64(len(p.Stmts)) {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
			"fp: snapshot has %d statements, program has %d", nStmts, len(p.Stmts))
	}
	g.useEdges = make([][]labelblock.List, nStmts)
	for si := range g.useEdges {
		var nSlots uint64
		if nSlots, data, err = snapUvarint(data, "use slot count"); err != nil {
			return nil, err
		}
		if nSlots == 0 {
			continue
		}
		if nSlots != uint64(len(p.Stmts[si].Uses)) {
			return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
				"fp: statement %d has %d use slots, snapshot has %d", si, len(p.Stmts[si].Uses), nSlots)
		}
		slots := make([]labelblock.List, nSlots)
		for i := range slots {
			if slots[i], data, err = labelblock.DecodeList(data); err != nil {
				return nil, err
			}
		}
		g.useEdges[si] = slots
	}
	nBlocks, data, err := snapUvarint(data, "cdEdges length")
	if err != nil {
		return nil, err
	}
	if nBlocks != uint64(len(p.Blocks)) {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock,
			"fp: snapshot has %d blocks, program has %d", nBlocks, len(p.Blocks))
	}
	g.cdEdges = make([]labelblock.List, nBlocks)
	for i := range g.cdEdges {
		if g.cdEdges[i], data, err = labelblock.DecodeList(data); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: %d trailing bytes after snapshot", len(data))
	}
	return g, nil
}

// snapUvarint decodes one uvarint with an inline fast path: the error
// context string is only materialized on failure — building "fp: "+what
// eagerly costs a concat + alloc per field and dominated load time.
func snapUvarint(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n > 0 {
		return v, data[n:], nil
	}
	if n == 0 {
		return 0, nil, labelblock.Corrupt(labelblock.ClassTruncated, "fp: data ends inside %s", what)
	}
	return 0, nil, labelblock.Corrupt(labelblock.ClassBadBlock, "fp: varint overflow in %s", what)
}
