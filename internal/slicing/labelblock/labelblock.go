// Package labelblock is the compact storage layer for dependence labels:
// append-ordered lists of (Td, Tu) timestamp pairs, optionally carrying a
// per-pair int32 auxiliary column (FP stores the producing statement there).
//
// The paper's whole argument is label-space cost effectiveness, so the
// in-memory representation matters as much as the label count. A plain Go
// `[]Pair` spends 16 bytes per pair plus slice-growth slack; this package
// stores sealed runs of up to BlockSize pairs as frame-of-reference (FOR)
// bit-packed blocks (Lemire & Boytsov, "Decoding billions of integers per
// second through vectorization"). Each column is stored as fixed-width
// offsets from a per-block base: Tu as Tu-FirstTu, the dependence
// distance Tu-Td as its offset from the block's smallest distance, and the
// aux column as its offset from the block's smallest aux value, each at
// the width its largest offset needs. The regular dependence streams loops
// produce (small Tu gaps, near-constant distances) pack into about 2 bytes
// per pair.
//
// Fixed widths make every entry addressable without decoding its
// predecessors: Find binary-searches the per-block first/last Tu, then
// searches the packed Tu column of one block from an interpolated guess,
// so a lookup costs about as many bit extractions as a binary search
// over the flat layout costs comparisons, and never decodes a block.
// Payloads carry an 8-byte zero pad, so every extraction is one
// bounds-checked 8-byte load (plus one byte for distance or aux widths
// above 57 bits; a Tu column that wide is stored in whole words).
// Appends land in a small uncompressed tail (its backing array is
// recycled through an Arena free list).
//
// The same codec serializes OPT's §4.2 hybrid disk epochs (see
// WriteBlocks/ReadBlocks) and graph-snapshot sections (AppendList), so
// flushed epoch files and snapshots shrink by the same factor as the
// resident graph.
package labelblock

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// Pair is one dependence label: the timestamps of the defining (or
// controlling) execution and the using execution.
type Pair struct {
	Td, Tu int64
}

// BlockSize is the number of pairs a sealed block holds (the last block of
// a run may be shorter). 128 keeps a block's binary search at 7 steps
// while amortizing the per-block header.
const BlockSize = 128

// Block is an immutable run of pairs sorted by Tu, FOR bit-packed column
// by column: N Tu offsets of WTu bits (see tuWidth), then N distance
// offsets of WD bits, then (with aux) N aux offsets of WA bits, least
// significant bit first, followed by padBytes zero bytes. A block whose
// widths are all zero has an empty payload.
type Block struct {
	FirstTu int64
	LastTu  int64
	BaseD   int64 // smallest Tu-Td distance in the block
	BaseA   int32 // smallest aux value (0 without aux)
	N       int32
	slope   uint32 // entries per timestamp, fixed point; derived by setSlope
	WTu     uint8  // bits per Tu offset: bits.Len64(LastTu-FirstTu)
	WD      uint8  // bits per distance offset
	WA      uint8  // bits per aux offset (0 without aux)
	HasAux  bool
	Data    []byte
}

// slopeShift is the fixed-point scale of Block.slope, which turns the
// interpolated starting guess of a search into one integer multiply.
const slopeShift = 31

// setSlope derives the interpolation slope (N-1)/(LastTu-FirstTu) from
// the header fields; every constructor of a searchable block calls it.
// Blocks with distinct timestamps never exceed one entry per timestamp;
// denser ones saturate, which only weakens the guess.
func (b *Block) setSlope() {
	if b.LastTu > b.FirstTu {
		b.slope = uint32(min(float64(b.N-1)/float64(b.LastTu-b.FirstTu)*(1<<slopeShift), math.MaxUint32))
	}
}

// maxPackedTu is the widest Tu column packed bit by bit. Any field of at
// most 57 bits lies within the 8 bytes loaded from its first byte, so a
// search probe is one load, a shift and a mask; wider Tu columns use 64
// bits per entry, which keeps every entry on a byte boundary (the Tu
// column starts the payload).
const maxPackedTu = 57

// tuWidth is the Tu column width of a block whose Tu offsets reach span.
func tuWidth(span uint64) uint8 {
	if w := bits.Len64(span); w <= maxPackedTu {
		return uint8(w)
	}
	return 64
}

// padBytes trails every non-empty payload so that extracting any entry
// is one 8-byte load that cannot run past the payload's end.
const padBytes = 8

// payloadLen is the exact payload size N entries at the given widths
// occupy, pad included.
func payloadLen(n int32, wTu, wD, wA uint8) int {
	nbits := uint64(n) * (uint64(wTu) + uint64(wD) + uint64(wA))
	if nbits == 0 {
		return 0
	}
	return int((nbits+7)/8) + padBytes
}

// getBits extracts the w-bit field starting at bit pos of data.
func getBits(data []byte, pos uint, w uint8) uint64 {
	if w == 0 {
		return 0
	}
	o, s := pos>>3, pos&7
	x := binary.LittleEndian.Uint64(data[o:]) >> s
	if s+uint(w) > 64 {
		x |= uint64(data[o+8]) << (64 - s)
	}
	return x & (1<<w - 1)
}

// bitWriter appends fixed-width fields to a byte slice, least
// significant bit first — the order getBits reads.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint // bits pending in acc
}

func (w *bitWriter) put(v uint64, width uint8) {
	if width == 0 {
		return
	}
	w.acc |= v << w.n
	if w.n+uint(width) >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.acc = v >> (64 - w.n) // 0 when w.n == 0: v was consumed whole
		w.n += uint(width) - 64
	} else {
		w.n += uint(width)
	}
}

// finish flushes the pending bits and appends the pad (nothing when no
// bit was written).
func (w *bitWriter) finish() []byte {
	if w.n == 0 && len(w.buf) == 0 {
		return w.buf
	}
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
	return append(w.buf, make([]byte, padBytes)...)
}

// EncodeBlock packs pairs (sorted by Tu, non-empty, len <= BlockSize —
// callers keep that invariant but longer runs still round-trip) into a
// Block. aux may be nil; otherwise len(aux) == len(pairs). The payload is
// copied into ar (heap when ar is nil), so the input slices may be reused.
func EncodeBlock(ar *Arena, pairs []Pair, aux []int32) Block {
	b := Block{
		FirstTu: pairs[0].Tu,
		LastTu:  pairs[len(pairs)-1].Tu,
		N:       int32(len(pairs)),
		HasAux:  aux != nil,
	}
	minD, maxD := pairs[0].Tu-pairs[0].Td, pairs[0].Tu-pairs[0].Td
	for _, p := range pairs[1:] {
		d := p.Tu - p.Td
		minD, maxD = min(minD, d), max(maxD, d)
	}
	b.BaseD = minD
	b.WTu = tuWidth(uint64(b.LastTu - b.FirstTu))
	b.WD = uint8(bits.Len64(uint64(maxD - minD)))
	if aux != nil {
		minA, maxA := slices.Min(aux), slices.Max(aux)
		b.BaseA = minA
		b.WA = uint8(bits.Len64(uint64(int64(maxA) - int64(minA))))
	}
	w := bitWriter{buf: ar.scratch()}
	for _, p := range pairs {
		w.put(uint64(p.Tu-b.FirstTu), b.WTu)
	}
	for _, p := range pairs {
		w.put(uint64(p.Tu-p.Td-b.BaseD), b.WD)
	}
	for _, a := range aux {
		w.put(uint64(int64(a)-int64(b.BaseA)), b.WA)
	}
	scratch := w.finish()
	b.setSlope()
	b.Data = ar.bytes(scratch)
	ar.putScratch(scratch)
	return b
}

// tuOff returns entry i's Tu offset from FirstTu.
func (b *Block) tuOff(i int) uint64 { return getBits(b.Data, uint(i)*uint(b.WTu), b.WTu) }

// entry decodes the Td and aux of entry i, whose Tu is tu.
func (b *Block) entry(i int, tu int64) (td int64, aux int32) {
	n := uint(b.N)
	d := getBits(b.Data, n*uint(b.WTu)+uint(i)*uint(b.WD), b.WD)
	td = tu - b.BaseD - int64(d)
	if b.HasAux {
		a := getBits(b.Data, n*(uint(b.WTu)+uint(b.WD))+uint(i)*uint(b.WA), b.WA)
		aux = int32(int64(b.BaseA) + int64(a))
	}
	return td, aux
}

// search returns the index of the first entry whose Tu offset is at
// least off (N when none is), that entry's offset, and the number of Tu
// comparisons made. Loops make Tu streams close to linear, so the search
// starts where linear interpolation over [FirstTu, LastTu] puts off,
// gallops away from that guess until it brackets off, and binary-searches
// the bracket: one or two comparisons on a regular stream, at most about
// twice a plain binary search's on an irregular one. End to end it beats
// a plain binary search of the column (docs/PERFORMANCE.md, "Memory
// layout").
func (b *Block) search(off uint64) (i int, v uint64, probes int64) {
	n, data, w := int(b.N), b.Data, b.WTu
	if w == 0 {
		return 0, 0, 1 // every offset is 0, and off is 0 inside the range
	}
	// getBits without its straddle branch: tuWidth keeps every Tu entry
	// within one 8-byte load, and the branch-free probe measurably
	// speeds up the gallop.
	mask := uint64(1)<<w - 1 // all ones for w == 64
	at := func(i int) uint64 {
		pos := uint(i) * uint(w)
		return binary.LittleEndian.Uint64(data[pos>>3:]) >> (pos & 7) & mask
	}
	// off <= LastTu-FirstTu, so off*slope stays below N<<slopeShift.
	g := min(int(off*uint64(b.slope)>>slopeShift), n-1)
	probes++
	// Bracket the answer in [lo, hi]: every entry before lo is below
	// off, the entry at hi (when hi < N) is not, and v holds its offset.
	var lo, hi int
	if v = at(g); v < off {
		lo, hi = g+1, n
		for step := 1; g+step < n; step <<= 1 {
			probes++
			if x := at(g + step); x >= off {
				hi, v = g+step, x
				break
			}
			lo = g + step + 1
		}
	} else {
		lo, hi = 0, g
		for step := 1; g-step >= 0; step <<= 1 {
			probes++
			x := at(g - step)
			if x < off {
				lo = g - step + 1
				break
			}
			hi, v = g-step, x
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if x := at(mid); x < off {
			lo = mid + 1
		} else {
			hi, v = mid, x
		}
	}
	return lo, v, probes
}

// Decode appends the block's pairs (and aux values, when present) to the
// given slices; either destination may start nil.
func (b *Block) Decode(dst []Pair, auxDst []int32) ([]Pair, []int32) {
	for i := 0; i < int(b.N); i++ {
		tu := b.FirstTu + int64(b.tuOff(i))
		td, a := b.entry(i, tu)
		dst = append(dst, Pair{Td: td, Tu: tu})
		if b.HasAux {
			auxDst = append(auxDst, a)
		}
	}
	return dst, auxDst
}

// MemBytes reports the resident size of the block: payload plus the
// struct header.
func (b *Block) MemBytes() int64 { return int64(len(b.Data)) + blockHeaderBytes }

// blockHeaderBytes is the Block struct's size: three int64s, two int32s,
// the slope, four one-byte fields and the payload slice header — 64
// bytes.
const blockHeaderBytes = int64(unsafe.Sizeof(Block{}))

// FindBlocks searches a Tu-sorted, non-overlapping block sequence (the
// layout List maintains and epoch files store) for the first pair with
// the exact consumer timestamp tu: a binary search over the block
// ranges, then a search of the chosen block's packed Tu column, and the
// hit's distance and aux decoded in place. probes counts Tu comparisons —
// the block-range comparisons plus those inside the chosen block, the
// same unit the flat layout's binary search counts. There is no per-block
// Find to call: on lookup-heavy FP traversals that extra call layer cost
// measurable time.
func FindBlocks(blocks []Block, tu int64) (td int64, aux int32, probes int64, found bool) {
	n := len(blocks)
	if n == 0 {
		return 0, 0, 0, false
	}
	// Find the last block starting at or before tu.
	base := 0
	for n > 1 {
		half := n >> 1
		if blocks[base+half].FirstTu <= tu {
			base += half
		}
		n -= half
		probes++
	}
	b := &blocks[base]
	probes++ // the chosen block's range check
	if tu < b.FirstTu || tu > b.LastTu {
		return 0, 0, probes, false
	}
	off := uint64(tu - b.FirstTu)
	i, v, p := b.search(off)
	probes += p
	if i >= int(b.N) || v != off {
		return 0, 0, probes, false
	}
	td, aux = b.entry(i, tu)
	return td, aux, probes, true
}

// List is a compressed append-ordered pair list: sealed blocks followed by
// an uncompressed tail. A List value is 80 bytes regardless of length; the
// zero value is an empty compact list without aux column.
type List struct {
	blocks []Block
	tail   []Pair
	aux    []int32
	n      int32 // resident pairs (blocks + tail)
	flags  uint8
}

// List flags.
const (
	flagPlain    uint8 = 1 << iota // compaction disabled: everything stays in tail
	flagAux                        // carries the int32 aux column
	flagDirty                      // tail is unsorted (out-of-order append)
	flagStraddle                   // sorted tail begins at or before the blocks' range
	flagDedupe                     // drop exact duplicate pairs when sealing (shared lists)
)

// NewList returns a list. plain disables compaction (the -compact=false
// escape hatch: pairs stay in a flat []Pair exactly as the previous
// representation stored them); hasAux enables the int32 column.
func NewList(plain, hasAux bool) List {
	var f uint8
	if plain {
		f |= flagPlain
	}
	if hasAux {
		f |= flagAux
	}
	return List{flags: f}
}

func (l *List) plain() bool  { return l.flags&flagPlain != 0 }
func (l *List) hasAux() bool { return l.flags&flagAux != 0 }

// SetDedupe marks the list as shared: sealing drops exact duplicate pairs
// (cluster partners append the same pair when a straggler defeats the
// caller's append-time dedupe).
func (l *List) SetDedupe() { l.flags |= flagDedupe }

// Dirty reports whether the tail holds out-of-order appends.
func (l *List) Dirty() bool { return l.flags&flagDirty != 0 }

// Len returns the number of resident pairs.
func (l *List) Len() int { return int(l.n) }

// Blocks returns the sealed blocks (read-only; epoch serialization).
func (l *List) Blocks() []Block { return l.blocks }

// Append records a pair (and its aux value, ignored unless the list has an
// aux column). Appends are O(1); when the tail fills, it is sealed into a
// block unless out-of-order arrivals force it to stay resident (see Seal).
// Short lists grow their tail naturally — most lists in a compacted graph
// hold a handful of pairs, and handing each a BlockSize buffer would
// dominate resident bytes — while a list that seals a block has proven hot
// and refills from the arena's recycled fixed-capacity buffers.
func (l *List) Append(ar *Arena, p Pair, aux int32) {
	if len(l.tail) > 0 && p.Tu < l.tail[len(l.tail)-1].Tu {
		l.flags |= flagDirty
	}
	l.tail = append(l.tail, p)
	if l.hasAux() {
		l.aux = append(l.aux, aux)
	}
	l.n++
	if !l.plain() && len(l.tail) >= BlockSize {
		l.compressTail(ar, l.flags&flagDedupe != 0)
		if l.tail == nil {
			l.tail = ar.newTail()
		}
	}
}

// compressTail seals the tail into a block when it is sorted and ordered
// after every existing block. dedupe drops exact duplicate pairs first
// (shared cluster lists).
func (l *List) compressTail(ar *Arena, dedupe bool) {
	if len(l.tail) == 0 || l.plain() {
		return
	}
	l.sortTail(dedupe)
	if len(l.blocks) > 0 && l.tail[0].Tu <= l.blocks[len(l.blocks)-1].LastTu {
		// A straggler (recursive superblock suspension) reaches back into
		// the sealed range: keep the tail resident so Find can consult
		// both. Repack restores full compression.
		l.flags |= flagStraddle
		return
	}
	var aux []int32
	if l.hasAux() {
		aux = l.aux
	}
	for off := 0; off < len(l.tail); off += BlockSize {
		end := min(off+BlockSize, len(l.tail))
		var a []int32
		if aux != nil {
			a = aux[off:end]
		}
		l.blocks = append(l.blocks, EncodeBlock(ar, l.tail[off:end], a))
	}
	ar.freeTail(l.tail)
	l.tail = nil
	l.aux = l.aux[:0]
}

// sortTail sorts the tail by Tu (stable on ties so shared-list duplicates
// stay adjacent) and optionally dedupes exact duplicate pairs.
func (l *List) sortTail(dedupe bool) {
	if l.flags&flagDirty != 0 {
		order := func(a, b Pair) int {
			if c := cmp.Compare(a.Tu, b.Tu); c != 0 {
				return c
			}
			return cmp.Compare(a.Td, b.Td)
		}
		if l.hasAux() {
			// Keep the aux column aligned through the permutation.
			idx := make([]int, len(l.tail))
			for i := range idx {
				idx[i] = i
			}
			slices.SortStableFunc(idx, func(a, b int) int { return order(l.tail[a], l.tail[b]) })
			tail := make([]Pair, len(l.tail))
			aux := make([]int32, len(l.aux))
			for i, j := range idx {
				tail[i] = l.tail[j]
				aux[i] = l.aux[j]
			}
			copy(l.tail, tail)
			copy(l.aux, aux)
		} else {
			slices.SortStableFunc(l.tail, order)
		}
		l.flags &^= flagDirty
	}
	if dedupe {
		w := 0
		for i, p := range l.tail {
			if i > 0 && p == l.tail[w-1] {
				continue
			}
			l.tail[w] = p
			if l.hasAux() {
				l.aux[w] = l.aux[i]
			}
			w++
		}
		l.n -= int32(len(l.tail) - w)
		l.tail = l.tail[:w]
		if l.hasAux() {
			l.aux = l.aux[:w]
		}
	}
}

// Seal prepares the list for lookups: the tail is sorted (and, when dedupe
// is set, stripped of exact duplicate pairs). It does not force
// compression; use Repack for that.
func (l *List) Seal(dedupe bool) {
	if l.flags&flagDirty != 0 || dedupe {
		l.sortTail(dedupe)
	}
}

// Repack rewrites the list into maximally compressed, globally sorted
// form: every resident pair is decoded, merged, optionally deduped, and
// re-encoded into full blocks plus a short tail. Graph finalization calls
// this for lists that a straggler left straddling or uncompressed.
func (l *List) Repack(ar *Arena, dedupe bool) {
	if l.plain() {
		l.Seal(dedupe)
		return
	}
	if len(l.blocks) == 0 && len(l.tail) < BlockSize {
		l.Seal(dedupe)
		return
	}
	pairs := make([]Pair, 0, l.n)
	var aux []int32
	if l.hasAux() {
		aux = make([]int32, 0, l.n)
	}
	for i := range l.blocks {
		pairs, aux = l.blocks[i].Decode(pairs, aux)
	}
	pairs = append(pairs, l.tail...)
	if l.hasAux() {
		aux = append(aux, l.aux...)
	}
	ar.freeTail(l.tail)
	l.blocks, l.tail, l.aux = nil, pairs, aux
	l.n = int32(len(pairs))
	l.flags |= flagDirty // force the sort: block order vs tail is unknown
	l.flags &^= flagStraddle
	l.compressTail(ar, dedupe)
}

// minCompactTail is the smallest tail worth sealing into a short block at
// finalization: below it the block header outweighs the savings.
const minCompactTail = 8

// Compact finalizes the list for read-only querying at maximum
// compression: dirty or straddling lists are repacked into globally
// sorted blocks, and a clean tail of at least minCompactTail pairs is
// sealed. dedupe applies the shared-list duplicate drop.
func (l *List) Compact(ar *Arena, dedupe bool) {
	if l.plain() {
		l.Seal(dedupe && l.Dirty())
		return
	}
	if l.Dirty() || l.flags&flagStraddle != 0 {
		l.Repack(ar, dedupe)
	} else if len(l.tail) >= minCompactTail {
		l.compressTail(ar, dedupe)
	}
	l.shrinkTail(ar)
}

// shrinkTail rights-sizes a finalized tail: a hot list refills from
// recycled BlockSize-capacity buffers, so whatever short tail survives
// finalization would otherwise pin a mostly empty 2 KiB array.
func (l *List) shrinkTail(ar *Arena) {
	if l.tail == nil || cap(l.tail) == len(l.tail) {
		return
	}
	t := make([]Pair, len(l.tail))
	copy(t, l.tail)
	ar.freeTail(l.tail)
	l.tail = t
	if l.hasAux() && cap(l.aux) > len(l.aux) {
		a := make([]int32, len(l.aux))
		copy(a, l.aux)
		l.aux = a
	}
	if len(l.tail) == 0 {
		l.tail = nil
	}
}

// Find locates the pair with consumer timestamp tu. The tail must be
// sorted (callers Seal after out-of-order appends); blocks and tail are
// both consulted so straddling stragglers are found.
func (l *List) Find(tu int64) (td int64, aux int32, probes int64, found bool) {
	td, aux, probes, found = FindBlocks(l.blocks, tu)
	if found {
		return td, aux, probes, true
	}
	td, aux, p, found := l.findTail(tu)
	return td, aux, probes + p, found
}

// findTail binary-searches the (sorted) uncompressed tail only.
func (l *List) findTail(tu int64) (td int64, aux int32, probes int64, found bool) {
	lo, hi := 0, len(l.tail)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if l.tail[mid].Tu < tu {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.tail) && l.tail[lo].Tu == tu {
		if l.hasAux() {
			aux = l.aux[lo]
		}
		return l.tail[lo].Td, aux, probes, true
	}
	return 0, 0, probes, false
}

// Pairs appends every resident pair (blocks then tail, each run sorted) to
// dst.
func (l *List) Pairs(dst []Pair) []Pair {
	for i := range l.blocks {
		dst, _ = l.blocks[i].Decode(dst, nil)
	}
	return append(dst, l.tail...)
}

// PairsAux appends every resident pair and its aux value.
func (l *List) PairsAux(dst []Pair, auxDst []int32) ([]Pair, []int32) {
	for i := range l.blocks {
		dst, auxDst = l.blocks[i].Decode(dst, auxDst)
	}
	dst = append(dst, l.tail...)
	auxDst = append(auxDst, l.aux...)
	return dst, auxDst
}

// MemBytes reports the resident bytes of the list's label storage:
// encoded block payloads plus headers, plus the tail's backing capacity.
func (l *List) MemBytes() int64 {
	var sz int64
	for i := range l.blocks {
		sz += l.blocks[i].MemBytes()
	}
	sz += int64(cap(l.tail)) * 16
	sz += int64(cap(l.aux)) * 4
	return sz
}

// Split removes and returns every resident pair with Tu >= cut, encoded as
// blocks (OPT's hybrid epoch flush: the current epoch's labels go to disk,
// stragglers from suspended executions stay resident). The list keeps only
// pairs with Tu < cut. Returns nil when nothing is in range.
func (l *List) Split(ar *Arena, cut int64) []Block {
	dedupe := l.flags&flagDedupe != 0
	l.Seal(dedupe)
	// flagStraddle is only raised when a full tail fails to seal, so also
	// check the tail's actual overlap with the sealed range: a straggler
	// sitting in a short tail would otherwise be encoded after the moved
	// sealed blocks, leaving the returned sequence unsorted/overlapping —
	// unsearchable by FindBlocks once written to an epoch file.
	if l.flags&flagStraddle != 0 ||
		(len(l.blocks) > 0 && len(l.tail) > 0 && l.tail[0].Tu <= l.blocks[len(l.blocks)-1].LastTu) {
		l.Repack(ar, dedupe)
	}
	var out []Block
	// Whole blocks at or past the cut move out; one block may straddle.
	i := len(l.blocks)
	for i > 0 && l.blocks[i-1].FirstTu >= cut {
		i--
	}
	moved := l.blocks[i:]
	l.blocks = l.blocks[:i]
	if len(l.blocks) > 0 && l.blocks[len(l.blocks)-1].LastTu >= cut {
		// Straddling block: decode and re-split around the cut.
		b := l.blocks[len(l.blocks)-1]
		l.blocks = l.blocks[:len(l.blocks)-1]
		pairs, aux := b.Decode(nil, l.auxScratch())
		k := sort.Search(len(pairs), func(i int) bool { return pairs[i].Tu >= cut })
		if k > 0 {
			var a []int32
			if l.hasAux() {
				a = aux[:k]
			}
			l.blocks = append(l.blocks, EncodeBlock(ar, pairs[:k], a))
		}
		var a []int32
		if l.hasAux() {
			a = aux[k:]
		}
		out = append(out, EncodeBlock(ar, pairs[k:], a))
	}
	out = append(out, moved...)
	// Tail pairs at or past the cut are encoded straight to blocks.
	k := sort.Search(len(l.tail), func(i int) bool { return l.tail[i].Tu >= cut })
	if k < len(l.tail) {
		for off := k; off < len(l.tail); off += BlockSize {
			end := min(off+BlockSize, len(l.tail))
			var a []int32
			if l.hasAux() {
				a = l.aux[off:end]
			}
			out = append(out, EncodeBlock(ar, l.tail[off:end], a))
		}
		l.tail = l.tail[:k]
		if l.hasAux() {
			l.aux = l.aux[:k]
		}
	}
	var kept int32
	for i := range l.blocks {
		kept += l.blocks[i].N
	}
	l.n = kept + int32(len(l.tail))
	return out
}

func (l *List) auxScratch() []int32 {
	if l.hasAux() {
		return make([]int32, 0, BlockSize)
	}
	return nil
}
