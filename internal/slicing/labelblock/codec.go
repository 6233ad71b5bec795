package labelblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Classified decode errors. Every failure to parse serialized label data
// — epoch files and graph-snapshot sections alike — is reported as a
// *CorruptError whose Class is one of a small closed set, mirroring the
// trace reader's `trace.read.err.*` classification, so callers can count
// and react per failure mode instead of pattern-matching message text.

// Corruption classes.
const (
	ClassBadMagic   = "bad_magic"   // frame does not start with the expected magic
	ClassBadVersion = "bad_version" // frame magic matched but the version is unknown
	ClassTruncated  = "truncated"   // data ends mid-frame
	ClassBadBlock   = "bad_block"   // a block header or payload is implausible
)

// CorruptError reports unparseable serialized label data, classified by
// failure mode.
type CorruptError struct {
	Class  string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("labelblock: %s: %s", e.Class, e.Detail)
}

func corrupt(class, format string, args ...any) error {
	return &CorruptError{Class: class, Detail: fmt.Sprintf(format, args...)}
}

// frameMagic and frameVersion head every WriteBlocks frame, so a stale or
// misaligned epoch file (or a snapshot section decoded at the wrong
// offset) fails with a classified error instead of misparsing varints.
// Version 2 is the FOR bit-packed block layout (version 1 was
// delta-varint).
var frameMagic = [4]byte{'D', 'Y', 'L', 'B'}

const frameVersion byte = 2

// Sanity bounds for decoded frames: a block never holds more pairs than a
// few sealed runs (EncodeBlock callers keep runs at BlockSize, but longer
// runs round-trip).
const (
	maxBlockPairs   = 1 << 24
	maxFramedBlocks = 1 << 28
)

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// AppendBlocks appends the block-sequence framing to dst: uvarint count,
// then per block uvarint N, FirstTu, LastTu-FirstTu, zig-zag BaseD, the
// WTu and WD bytes, (with aux) zig-zag BaseA and the WA byte, uvarint
// payload length, payload. The enclosing container (WriteBlocks frame or
// snapshot section) carries the magic/version/checksum; this is the raw
// payload codec.
func AppendBlocks(dst []byte, blocks []Block) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for i := range blocks {
		b := &blocks[i]
		dst = binary.AppendUvarint(dst, uint64(b.N))
		dst = binary.AppendUvarint(dst, uint64(b.FirstTu))
		dst = binary.AppendUvarint(dst, uint64(b.LastTu-b.FirstTu))
		dst = binary.AppendUvarint(dst, zigzag(b.BaseD))
		dst = append(dst, b.WTu, b.WD)
		if b.HasAux {
			dst = binary.AppendUvarint(dst, zigzag(int64(b.BaseA)))
			dst = append(dst, b.WA)
		}
		dst = binary.AppendUvarint(dst, uint64(len(b.Data)))
		dst = append(dst, b.Data...)
	}
	return dst
}

// DecodeBlocks parses an AppendBlocks run from data, returning the blocks
// and the unconsumed remainder. Block payloads alias data (zero-copy):
// the caller must keep data reachable for the blocks' lifetime. Errors
// are classified *CorruptError values.
func DecodeBlocks(data []byte, hasAux bool) (blocks []Block, rest []byte, err error) {
	r := sliceReader{data}
	blocks, err = readBlocks(&r, hasAux, func(sz int) ([]byte, error) {
		if len(r.data) < sz {
			return nil, corrupt(ClassTruncated, "block payload: want %d bytes, have %d", sz, len(r.data))
		}
		p := r.data[:sz:sz]
		r.data = r.data[sz:]
		return p, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return blocks, r.data, nil
}

// WriteBlocks serializes blocks with the epoch-file framing: a 4-byte
// magic plus version byte, then the AppendBlocks run. The header lets
// ReadBlocks reject stale or misaligned frames with a classified error
// instead of misparsing varints.
func WriteBlocks(bw *bufio.Writer, blocks []Block) error {
	frame := append(frameMagic[:len(frameMagic):len(frameMagic)], frameVersion)
	_, err := bw.Write(AppendBlocks(frame, blocks))
	return err
}

// ReadBlocks reads a WriteBlocks frame, validating the magic and version
// first. hasAux must match what was encoded (the framing does not repeat
// it per block). Decode failures are classified *CorruptError values.
func ReadBlocks(br *bufio.Reader, hasAux bool) ([]Block, error) {
	var hdr [len(frameMagic) + 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, corrupt(ClassTruncated, "frame header: %v", err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return nil, corrupt(ClassBadMagic, "frame starts %q, want %q", hdr[:4], frameMagic[:])
	}
	if hdr[4] != frameVersion {
		return nil, corrupt(ClassBadVersion, "frame version %d, want %d", hdr[4], frameVersion)
	}
	return readBlocks(br, hasAux, func(sz int) ([]byte, error) {
		p := make([]byte, sz)
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, corrupt(ClassTruncated, "block payload: %v", err)
		}
		return p, nil
	})
}

// readBlocks parses an AppendBlocks run off r; payload fetches each
// block's validated payload length from the same stream.
func readBlocks(r io.ByteReader, hasAux bool, payload func(sz int) ([]byte, error)) ([]Block, error) {
	count, err := readUvarint(r, "block count")
	if err != nil {
		return nil, err
	}
	if count > maxFramedBlocks {
		return nil, corrupt(ClassBadBlock, "implausible block count %d", count)
	}
	blocks := make([]Block, 0, min(count, 1<<10))
	for i := uint64(0); i < count; i++ {
		b, sz, err := readBlockHeader(r, hasAux)
		if err != nil {
			return nil, err
		}
		if b.Data, err = payload(sz); err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// readBlockHeader parses and validates one block header, returning the
// block (without payload) and its payload length. Every field the
// lookups trust is checked here — pair count, range, column widths and
// the exact payload length they imply — so Find and Decode on an accepted
// block stay in bounds.
func readBlockHeader(r io.ByteReader, hasAux bool) (Block, int, error) {
	b := Block{HasAux: hasAux}
	n, err := readUvarint(r, "block pair count")
	if err != nil {
		return b, 0, err
	}
	if n == 0 || n > maxBlockPairs {
		return b, 0, corrupt(ClassBadBlock, "implausible pair count %d", n)
	}
	b.N = int32(n)
	ft, err := readUvarint(r, "block first Tu")
	if err != nil {
		return b, 0, err
	}
	span, err := readUvarint(r, "block Tu span")
	if err != nil {
		return b, 0, err
	}
	b.FirstTu = int64(ft)
	b.LastTu = b.FirstTu + int64(span)
	if span > math.MaxInt64 || b.LastTu < b.FirstTu {
		return b, 0, corrupt(ClassBadBlock, "block range %d+%d overflows", b.FirstTu, span)
	}
	bd, err := readUvarint(r, "block distance base")
	if err != nil {
		return b, 0, err
	}
	b.BaseD = unzig(bd)
	if b.WTu, err = readWidth(r, "Tu"); err != nil {
		return b, 0, err
	}
	if b.WD, err = readWidth(r, "distance"); err != nil {
		return b, 0, err
	}
	if hasAux {
		ba, err := readUvarint(r, "block aux base")
		if err != nil {
			return b, 0, err
		}
		base := unzig(ba)
		if base < math.MinInt32 || base > math.MaxInt32 {
			return b, 0, corrupt(ClassBadBlock, "aux base %d outside int32", base)
		}
		b.BaseA = int32(base)
		if b.WA, err = readWidth(r, "aux"); err != nil {
			return b, 0, err
		}
	}
	if need := bits.Len64(span); int(b.WTu) < need {
		return b, 0, corrupt(ClassBadBlock, "Tu width %d too narrow for span %d (needs %d)", b.WTu, span, need)
	}
	if b.WTu > maxPackedTu && b.WTu != 64 {
		return b, 0, corrupt(ClassBadBlock, "Tu width %d: packed Tu columns are at most %d bits or whole words", b.WTu, maxPackedTu)
	}
	sz, err := readUvarint(r, "block payload length")
	if err != nil {
		return b, 0, err
	}
	if want := payloadLen(b.N, b.WTu, b.WD, b.WA); sz != uint64(want) {
		return b, 0, corrupt(ClassBadBlock, "payload of %d bytes, widths %d/%d/%d over %d pairs imply %d",
			sz, b.WTu, b.WD, b.WA, n, want)
	}
	b.setSlope()
	return b, int(sz), nil
}

// readWidth reads one column-width byte, rejecting widths above 64 bits.
func readWidth(r io.ByteReader, column string) (uint8, error) {
	w, err := r.ReadByte()
	if err != nil {
		return 0, corrupt(ClassTruncated, "data ends inside %s width", column)
	}
	if w > 64 {
		return 0, corrupt(ClassBadBlock, "%s width %d exceeds 64 bits", column, w)
	}
	return w, nil
}

// readUvarint reads one uvarint off r, classifying failures.
func readUvarint(r io.ByteReader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, corrupt(ClassTruncated, "data ends inside %s", what)
		}
		return 0, corrupt(ClassBadBlock, "%s: %v", what, err)
	}
	return v, nil
}

// sliceReader is an io.ByteReader over a byte slice that exposes the
// unread remainder, so DecodeBlocks can alias payloads in place.
type sliceReader struct{ data []byte }

func (s *sliceReader) ReadByte() (byte, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	c := s.data[0]
	s.data = s.data[1:]
	return c, nil
}

// Corrupt constructs a classified corruption error. Exported for the
// graph snapshot codecs (fp, opt, snapshot), which share the class set
// so every snapshot decode failure classifies uniformly.
func Corrupt(class, format string, args ...any) error {
	return corrupt(class, format, args...)
}

// DecodeUvarint reads one uvarint off data, classifying failures
// (exported for the graph snapshot codecs).
func DecodeUvarint(data []byte, what string) (uint64, []byte, error) {
	return decUvarint(data, what)
}

// decUvarint reads one uvarint off data, classifying failures.
func decUvarint(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		if n == 0 {
			return 0, nil, corrupt(ClassTruncated, "data ends inside %s", what)
		}
		return 0, nil, corrupt(ClassBadBlock, "varint overflow in %s", what)
	}
	return v, data[n:], nil
}

// persistedFlags are the List flags that survive serialization; the
// remaining bits are builder-transient. Bit 0, the retired flat-layout
// flag, is not among them, so DecodeList rejects a list that sets it.
const persistedFlags = flagAux | flagDirty | flagStraddle | flagDedupe

// AppendList serializes a list — flags, sealed blocks, uncompressed tail
// (with its aux column, when present) — for a graph snapshot section.
// The list itself is not mutated, so frozen graphs serialize concurrently
// with queries.
func AppendList(dst []byte, l *List) []byte {
	dst = append(dst, l.flags&persistedFlags)
	dst = AppendBlocks(dst, l.blocks)
	dst = binary.AppendUvarint(dst, uint64(len(l.tail)))
	prevTu := int64(0)
	for _, p := range l.tail {
		dst = binary.AppendUvarint(dst, zigzag(p.Tu-prevTu))
		dst = binary.AppendUvarint(dst, zigzag(p.Tu-p.Td))
		prevTu = p.Tu
	}
	prevAux := int64(0)
	for _, a := range l.aux {
		dst = binary.AppendUvarint(dst, zigzag(int64(a)-prevAux))
		prevAux = int64(a)
	}
	return dst
}

// DecodeList parses an AppendList record, returning the reconstructed
// list and the unconsumed remainder. Sealed block payloads alias data
// (the single-read snapshot load: blocks land directly in queryable form,
// no per-label decode); the tail is small and copied out. Errors are
// classified *CorruptError values.
func DecodeList(data []byte) (List, []byte, error) {
	var l List
	if len(data) == 0 {
		return l, nil, corrupt(ClassTruncated, "data ends before list flags")
	}
	flags := data[0]
	if flags&^persistedFlags != 0 {
		return l, nil, corrupt(ClassBadBlock, "unknown list flags %#x", flags)
	}
	l.flags = flags
	data = data[1:]
	blocks, data, err := DecodeBlocks(data, l.hasAux())
	if err != nil {
		return l, nil, err
	}
	nTail, data, err := decUvarint(data, "tail length")
	if err != nil {
		return l, nil, err
	}
	if nTail > maxFramedBlocks {
		return l, nil, corrupt(ClassBadBlock, "implausible tail length %d", nTail)
	}
	if nTail > uint64(len(data))/2 {
		// Every tail pair takes at least two bytes; refuse before
		// allocating for a count the data cannot hold.
		return l, nil, corrupt(ClassTruncated, "tail of %d pairs in %d bytes", nTail, len(data))
	}
	var n int32
	for i := range blocks {
		n += blocks[i].N
	}
	if nTail > 0 {
		l.tail = make([]Pair, nTail)
		prevTu := int64(0)
		for i := range l.tail {
			var du, dd uint64
			if du, data, err = decUvarint(data, "tail Tu delta"); err != nil {
				return l, nil, err
			}
			if dd, data, err = decUvarint(data, "tail Td delta"); err != nil {
				return l, nil, err
			}
			tu := prevTu + unzig(du)
			l.tail[i] = Pair{Tu: tu, Td: tu - unzig(dd)}
			prevTu = tu
		}
		if l.hasAux() {
			l.aux = make([]int32, nTail)
			prevAux := int64(0)
			for i := range l.aux {
				var da uint64
				if da, data, err = decUvarint(data, "tail aux delta"); err != nil {
					return l, nil, err
				}
				prevAux += unzig(da)
				l.aux[i] = int32(prevAux)
			}
		}
	}
	l.blocks = blocks
	l.n = n + int32(nTail)
	return l, data, nil
}
