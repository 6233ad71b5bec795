package labelblock

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func collect(l *List) []Pair { return l.Pairs(nil) }

func linearFind(pairs []Pair, tu int64) (int64, bool) {
	for _, p := range pairs {
		if p.Tu == tu {
			return p.Td, true
		}
	}
	return 0, false
}

func TestBlockRoundTrip(t *testing.T) {
	pairs := make([]Pair, 0, BlockSize)
	aux := make([]int32, 0, BlockSize)
	tu := int64(100)
	for i := 0; i < BlockSize; i++ {
		tu += int64(1 + i%7)
		pairs = append(pairs, Pair{Td: tu - int64(i*3), Tu: tu})
		aux = append(aux, int32(i*11-40))
	}
	b := EncodeBlock(nil, pairs, aux)
	if b.N != BlockSize || b.FirstTu != pairs[0].Tu || b.LastTu != pairs[len(pairs)-1].Tu {
		t.Fatalf("header mismatch: %+v", b)
	}
	got, gotAux := b.Decode(nil, nil)
	if len(got) != len(pairs) {
		t.Fatalf("decode len %d want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] || gotAux[i] != aux[i] {
			t.Fatalf("entry %d: got %v/%d want %v/%d", i, got[i], gotAux[i], pairs[i], aux[i])
		}
	}
	for i, p := range pairs {
		td, a, _, ok := FindBlocks([]Block{b}, p.Tu)
		if !ok || td != p.Td || a != aux[i] {
			t.Fatalf("Find(%d) = %d,%d,%v want %d,%d", p.Tu, td, a, ok, p.Td, aux[i])
		}
	}
	if _, _, _, ok := FindBlocks([]Block{b}, pairs[0].Tu-1); ok {
		t.Fatal("found missing tu below range")
	}
	if _, _, _, ok := FindBlocks([]Block{b}, pairs[0].Tu+1); ok {
		t.Fatal("found missing tu inside range")
	}
}

func TestBlockNegativeTd(t *testing.T) {
	// Tombstones use Td = -1; zig-zag must round-trip them.
	pairs := []Pair{{Td: -1, Tu: 5}, {Td: 3, Tu: 9}, {Td: -1, Tu: 12}}
	b := EncodeBlock(nil, pairs, nil)
	got, _ := b.Decode(nil, nil)
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("entry %d: got %v want %v", i, got[i], pairs[i])
		}
	}
}

func TestListAppendFindAcrossBlocks(t *testing.T) {
	l := NewList(false, false)
	n := BlockSize*3 + 17
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		p := Pair{Td: int64(i * 2), Tu: int64(i*4 + 1)}
		l.Append(nil, p, 0)
		pairs = append(pairs, p)
	}
	if len(l.Blocks()) != 3 {
		t.Fatalf("blocks = %d want 3", len(l.Blocks()))
	}
	if l.Len() != n {
		t.Fatalf("Len = %d want %d", l.Len(), n)
	}
	for _, p := range pairs {
		td, _, _, ok := l.Find(p.Tu)
		if !ok || td != p.Td {
			t.Fatalf("Find(%d) = %d,%v want %d", p.Tu, td, ok, p.Td)
		}
	}
	if _, _, _, ok := l.Find(2); ok {
		t.Fatal("found absent tu")
	}
	got := collect(&l)
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("Pairs()[%d] = %v want %v", i, got[i], pairs[i])
		}
	}
}

func TestListStraddleAndRepack(t *testing.T) {
	l := NewList(false, false)
	// Fill one block [1000, ...], then append stragglers below FirstTu.
	for i := 0; i < BlockSize; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: 1000 + int64(i)}, 0)
	}
	// Out-of-order stragglers (suspended superblock resuming).
	for i := 0; i < BlockSize; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(i + 1)}, 0)
	}
	l.Seal(false)
	if td, _, _, ok := l.Find(5); !ok || td != 4 {
		t.Fatalf("straddle Find(5) = %d,%v want 4,true", td, ok)
	}
	if td, _, _, ok := l.Find(1005); !ok || td != 5 {
		t.Fatalf("straddle Find(1005) = %d,%v want 5,true", td, ok)
	}
	l.Repack(nil, false)
	if td, _, _, ok := l.Find(5); !ok || td != 4 {
		t.Fatalf("post-repack Find(5) = %d,%v", td, ok)
	}
	if td, _, _, ok := l.Find(1005); !ok || td != 5 {
		t.Fatalf("post-repack Find(1005) = %d,%v", td, ok)
	}
	got := collect(&l)
	if len(got) != 2*BlockSize {
		t.Fatalf("len %d want %d", len(got), 2*BlockSize)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Tu <= got[i-1].Tu {
			t.Fatalf("not sorted after repack at %d: %v, %v", i, got[i-1], got[i])
		}
	}
}

func TestListDedupe(t *testing.T) {
	l := NewList(false, false)
	l.Append(nil, Pair{Td: 1, Tu: 10}, 0)
	l.Append(nil, Pair{Td: 1, Tu: 10}, 0)
	l.Append(nil, Pair{Td: 2, Tu: 5}, 0) // out of order
	l.Append(nil, Pair{Td: 2, Tu: 5}, 0)
	l.Seal(true)
	if l.Len() != 2 {
		t.Fatalf("Len after dedupe = %d want 2", l.Len())
	}
	if td, _, _, ok := l.Find(5); !ok || td != 2 {
		t.Fatalf("Find(5) = %d,%v", td, ok)
	}
	if td, _, _, ok := l.Find(10); !ok || td != 1 {
		t.Fatalf("Find(10) = %d,%v", td, ok)
	}
}

func TestListPlainEscapeHatch(t *testing.T) {
	l := NewList(true, false)
	n := BlockSize * 4
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(i * 2)}, 0)
	}
	if len(l.Blocks()) != 0 {
		t.Fatalf("plain list compressed: %d blocks", len(l.Blocks()))
	}
	if l.Len() != n {
		t.Fatalf("Len = %d want %d", l.Len(), n)
	}
	if td, _, _, ok := l.Find(10); !ok || td != 5 {
		t.Fatalf("Find(10) = %d,%v", td, ok)
	}
}

func TestListSplit(t *testing.T) {
	l := NewList(false, false)
	n := BlockSize*2 + 40
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: int64(i + 1)}, 0)
	}
	cut := int64(BlockSize + 10) // mid first... actually mid second block
	out := l.Split(nil, cut)
	// Everything with Tu >= cut moved out.
	var moved []Pair
	for i := range out {
		moved, _ = out[i].Decode(moved, nil)
	}
	kept := collect(&l)
	if len(kept)+len(moved) != n {
		t.Fatalf("split lost pairs: %d + %d != %d", len(kept), len(moved), n)
	}
	if l.Len() != len(kept) {
		t.Fatalf("Len %d != kept %d", l.Len(), len(kept))
	}
	for _, p := range kept {
		if p.Tu >= cut {
			t.Fatalf("kept pair %v past cut %d", p, cut)
		}
	}
	for _, p := range moved {
		if p.Tu < cut {
			t.Fatalf("moved pair %v before cut %d", p, cut)
		}
	}
	if td, _, _, ok := FindBlocks(out, cut); !ok || td != cut-1 {
		t.Fatalf("FindBlocks(cut) = %d,%v", td, ok)
	}
	if td, _, _, ok := l.Find(5); !ok || td != 4 {
		t.Fatalf("resident Find(5) = %d,%v", td, ok)
	}
}

func TestListSplitShortTailStraddler(t *testing.T) {
	// A straggler landing in a *short* tail after a block has sealed never
	// sets flagStraddle (that only happens when a full tail fails to
	// seal). Split must detect the overlap anyway, or the tail-derived
	// blocks are appended after the moved sealed blocks and the flushed
	// sequence is unsorted and overlapping — FindBlocks then misses the
	// straggler's pair permanently.
	l := NewList(false, false)
	for i := 0; i < BlockSize; i++ {
		l.Append(nil, Pair{Td: int64(i), Tu: 1100 + int64(i)}, 0)
	}
	// Short tail: one straggler below the sealed range, one past it.
	l.Append(nil, Pair{Td: 42, Tu: 1050}, 0)
	l.Append(nil, Pair{Td: 7, Tu: 1300}, 0)

	out := l.Split(nil, 1000) // everything is past the cut and moves out
	if l.Len() != 0 {
		t.Fatalf("resident Len = %d want 0", l.Len())
	}
	for i := 1; i < len(out); i++ {
		if out[i].FirstTu <= out[i-1].LastTu {
			t.Fatalf("blocks overlap at %d: [%d..%d] then [%d..%d]",
				i, out[i-1].FirstTu, out[i-1].LastTu, out[i].FirstTu, out[i].LastTu)
		}
	}
	for _, c := range []struct{ tu, td int64 }{{1050, 42}, {1100, 0}, {1227, 127}, {1300, 7}} {
		td, _, _, ok := FindBlocks(out, c.tu)
		if !ok || td != c.td {
			t.Fatalf("FindBlocks(%d) = %d,%v want %d,true", c.tu, td, ok, c.td)
		}
	}
}

func TestWriteReadBlocks(t *testing.T) {
	l := NewList(false, true)
	n := BlockSize + 30
	for i := 0; i < n; i++ {
		l.Append(nil, Pair{Td: int64(i * 3), Tu: int64(i*3 + 2)}, int32(i%5))
	}
	blocks := l.Split(nil, 0)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteBlocks(bw, blocks); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadBlocks(bufio.NewReader(&buf), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("blocks %d want %d", len(got), len(blocks))
	}
	var wantPairs, gotPairs []Pair
	var wantAux, gotAux []int32
	for i := range blocks {
		wantPairs, wantAux = blocks[i].Decode(wantPairs, wantAux)
		gotPairs, gotAux = got[i].Decode(gotPairs, gotAux)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("pairs %d want %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] || gotAux[i] != wantAux[i] {
			t.Fatalf("entry %d: %v/%d want %v/%d", i, gotPairs[i], gotAux[i], wantPairs[i], wantAux[i])
		}
	}
}

func TestArenaRecycling(t *testing.T) {
	ar := NewArena()
	l := NewList(false, false)
	for i := 0; i < BlockSize*10; i++ {
		l.Append(ar, Pair{Td: int64(i), Tu: int64(i)}, 0)
	}
	if ar.AllocBytes() <= 0 {
		t.Fatal("arena recorded no allocations")
	}
	// Recycled tails mean far fewer than 10 tail arrays were allocated.
	if got := ar.TailAllocs(); got > 2 {
		t.Fatalf("tail allocs = %d, free list not recycling", got)
	}
	for i := 0; i < BlockSize*10; i++ {
		if td, _, _, ok := l.Find(int64(i)); !ok || td != int64(i) {
			t.Fatalf("Find(%d) = %d,%v", i, td, ok)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	// A loop-like dependence stream (small regular deltas) must compress
	// far below 16 bytes/pair.
	l := NewList(false, false)
	n := BlockSize * 8
	for i := 0; i < n; i++ {
		tu := int64(i*7 + 3)
		l.Append(nil, Pair{Td: tu - 5, Tu: tu}, 0)
	}
	plain := int64(n * 16)
	if got := l.MemBytes(); got*2 > plain {
		t.Fatalf("MemBytes = %d, want < half of plain %d", got, plain)
	}
}

func TestListRandomizedFind(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		l := NewList(false, false)
		var ref []Pair
		tu := int64(0)
		n := rng.Intn(BlockSize * 4)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				tu -= int64(rng.Intn(20)) // occasional out-of-order
				if tu < 0 {
					tu = 0
				}
			} else {
				tu += int64(1 + rng.Intn(5))
			}
			p := Pair{Td: tu - int64(rng.Intn(100)), Tu: tu}
			l.Append(nil, p, 0)
			ref = append(ref, p)
		}
		l.Seal(false)
		for q := int64(0); q < 40; q++ {
			probe := int64(rng.Intn(int(tu + 10)))
			wantTd, wantOk := linearFind(ref, probe)
			gotTd, _, _, gotOk := l.Find(probe)
			if gotOk != wantOk || (gotOk && !hasPair(ref, Pair{Td: gotTd, Tu: probe})) {
				t.Fatalf("trial %d Find(%d) = %d,%v want %d,%v", trial, probe, gotTd, gotOk, wantTd, wantOk)
			}
		}
	}
}

func hasPair(ref []Pair, p Pair) bool {
	for _, q := range ref {
		if q == p {
			return true
		}
	}
	return false
}

// TestBlockHeaderSize: the FOR header fields must not grow the Block
// struct past one 64-byte line.
func TestBlockHeaderSize(t *testing.T) {
	if blockHeaderBytes > 64 {
		t.Fatalf("Block is %d bytes, want <= 64", blockHeaderBytes)
	}
}

// TestBlockWideColumns: offsets at every width up to 64 bits — including
// distances that wrap int64 and aux values spanning all of int32 — must
// round-trip through Find and Decode, and the packed payload must be
// exactly the size the widths imply.
func TestBlockWideColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, span := range []int64{0, 1, 1 << 20, 1 << 40, 1<<56 + 7, 1 << 57, 1<<62 + 12345} {
		for _, dist := range []int64{0, 3, 1 << 33, -1 << 62} {
			n := 1 + rng.Intn(BlockSize)
			pairs := make([]Pair, n)
			aux := make([]int32, n)
			for i := range pairs {
				tu := int64(float64(span) * float64(i) / float64(n))
				if i == n-1 {
					tu = span
				}
				pairs[i] = Pair{Tu: tu, Td: tu - dist - rng.Int63n(int64(1)<<rng.Intn(63))}
				aux[i] = int32(rng.Uint32())
			}
			pairs[0].Td = math.MinInt64 + pairs[0].Tu // distance wraps
			aux[0], aux[n-1] = math.MinInt32, math.MaxInt32
			b := EncodeBlock(nil, pairs, aux)
			if want := payloadLen(b.N, b.WTu, b.WD, b.WA); len(b.Data) != want {
				t.Fatalf("span %d: payload %d bytes, widths imply %d", span, len(b.Data), want)
			}
			got, gotAux := b.Decode(nil, nil)
			for i := range pairs {
				if got[i] != pairs[i] || gotAux[i] != aux[i] {
					t.Fatalf("span %d entry %d: %v/%d want %v/%d", span, i, got[i], gotAux[i], pairs[i], aux[i])
				}
				td, a, _, ok := FindBlocks([]Block{b}, pairs[i].Tu)
				// Find returns the first of equal Tu values.
				j := i
				for j > 0 && pairs[j-1].Tu == pairs[i].Tu {
					j--
				}
				if !ok || td != pairs[j].Td || a != aux[j] {
					t.Fatalf("span %d Find(%d) = %d,%d,%v want %d,%d", span, pairs[i].Tu, td, a, ok, pairs[j].Td, aux[j])
				}
			}
		}
	}
}

// TestListProbesAreComparisons: a probe is one Tu comparison in either
// layout, so a hit in a compact list costs about log2 of its length, like
// the flat binary search.
func TestListProbesAreComparisons(t *testing.T) {
	n := BlockSize * 16
	compact, plain := NewList(false, false), NewList(true, false)
	for i := 0; i < n; i++ {
		p := Pair{Td: int64(i), Tu: int64(3*i + 1)}
		compact.Append(nil, p, 0)
		plain.Append(nil, p, 0)
	}
	for _, tu := range []int64{1, int64(3*n/2 + 1), int64(3*n - 2)} {
		_, _, cp, ok := compact.Find(tu)
		_, _, pp, ok2 := plain.Find(tu)
		if !ok || !ok2 {
			t.Fatalf("Find(%d) missed", tu)
		}
		if cp < 4 || cp > 16 || pp < 4 || pp > 16 {
			t.Fatalf("Find(%d) probes compact %d, plain %d; want ~log2(%d) each", tu, cp, pp, n)
		}
	}
}

// corruptBlocks frames blocks with AppendBlocks, lets mutate rewrite the
// first block's header, and returns what DecodeBlocks and ReadBlocks
// report for the result.
func corruptBlocks(t *testing.T, hasAux bool, mutate func(b *Block)) (error, error) {
	t.Helper()
	pairs := []Pair{{Td: 1, Tu: 10}, {Td: 2, Tu: 20}, {Td: 3, Tu: 700}}
	var aux []int32
	if hasAux {
		aux = []int32{5, -5, 9}
	}
	b := EncodeBlock(nil, pairs, aux)
	mutate(&b)
	raw := AppendBlocks(nil, []Block{b})
	_, _, decErr := DecodeBlocks(raw, hasAux)
	var buf bytes.Buffer
	buf.Write(frameMagic[:])
	buf.WriteByte(frameVersion)
	buf.Write(raw)
	_, readErr := ReadBlocks(bufio.NewReader(&buf), hasAux)
	return decErr, readErr
}

// TestCorruptBlockHeaders: widths above 64 bits, a Tu width between 58
// and 63 bits, a payload length other than the one N and the widths
// imply, and a Tu width too narrow for the block's range are each a
// classified ClassBadBlock on both decode paths.
func TestCorruptBlockHeaders(t *testing.T) {
	cases := map[string]func(b *Block){
		"tu-width-65":       func(b *Block) { b.WTu = 65 },
		"tu-width-58":       func(b *Block) { b.WTu = 58; b.Data = make([]byte, payloadLen(b.N, b.WTu, b.WD, b.WA)) },
		"dist-width-200":    func(b *Block) { b.WD = 200 },
		"aux-width-65":      func(b *Block) { b.WA = 65 },
		"payload-short":     func(b *Block) { b.Data = b.Data[:len(b.Data)-1] },
		"payload-long":      func(b *Block) { b.Data = append(b.Data, 0) },
		"payload-no-pad":    func(b *Block) { b.Data = b.Data[:len(b.Data)-padBytes] },
		"widths-overclaim":  func(b *Block) { b.WD += 8 },
		"tu-width-narrow":   func(b *Block) { b.WTu--; b.Data = b.Data[:payloadLen(b.N, b.WTu, b.WD, b.WA)] },
		"tu-width-zero-n1":  func(b *Block) { b.N = 1; b.WTu = 0; b.Data = b.Data[:payloadLen(1, 0, b.WD, b.WA)] },
		"pair-count-zero":   func(b *Block) { b.N = 0 },
		"empty-for-nonzero": func(b *Block) { b.Data = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			decErr, readErr := corruptBlocks(t, true, mutate)
			for path, err := range map[string]error{"DecodeBlocks": decErr, "ReadBlocks": readErr} {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Class != ClassBadBlock {
					t.Fatalf("%s: err = %v, want class %s", path, err, ClassBadBlock)
				}
			}
		})
	}
	// The unmutated block decodes on both paths.
	if decErr, readErr := corruptBlocks(t, true, func(*Block) {}); decErr != nil || readErr != nil {
		t.Fatalf("intact block rejected: %v / %v", decErr, readErr)
	}
}

// FuzzDecodeList feeds arbitrary bytes to DecodeList; whatever it
// accepts must answer Find and Pairs without panicking.
func FuzzDecodeList(f *testing.F) {
	for _, aux := range []bool{false, true} {
		l := NewList(false, aux)
		for i := 0; i < BlockSize+20; i++ {
			l.Append(nil, Pair{Td: int64(i), Tu: int64(2*i + 1)}, int32(i%7))
		}
		f.Add(AppendList(nil, &l))
	}
	f.Add([]byte{flagAux, 1, 3, 5, 4, 0, 2, 2, 1, 0, 1, 3})
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0x7f}) // tail count the data cannot hold
	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := DecodeList(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("unclassified error %v", err)
			}
			return
		}
		probes := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
		for _, b := range l.Blocks() {
			probes = append(probes, b.FirstTu, b.LastTu, b.FirstTu+(b.LastTu-b.FirstTu)/2)
		}
		for _, tu := range probes {
			l.Find(tu)
		}
		l.PairsAux(nil, nil)
	})
}

// TestFindExtremeKeys: keys far outside a block sequence's timestamps,
// a block far denser than one pair per timestamp (as a decoded frame may
// hold, saturating its interpolation slope) and ranges spanning all of
// int64 must all answer without panicking, and correctly.
func TestFindExtremeKeys(t *testing.T) {
	dense := make([]Pair, 4*BlockSize)
	for i := range dense {
		dense[i] = Pair{Tu: int64(i * 2 / len(dense))} // Tu 0 then 1
	}
	blocks := []Block{EncodeBlock(nil, dense, nil)}
	for b := 0; b < 8; b++ {
		run := make([]Pair, BlockSize)
		for i := range run {
			run[i] = Pair{Tu: 1<<40 + int64(b*BlockSize+i)*1000}
		}
		blocks = append(blocks, EncodeBlock(nil, run, nil))
	}
	for _, tu := range []int64{math.MinInt64, -1, 2, 1<<40 - 1, 1<<40 + 500, math.MaxInt64} {
		if _, _, _, ok := FindBlocks(blocks, tu); ok {
			t.Fatalf("FindBlocks(%d) hit an absent key", tu)
		}
	}
	for _, tu := range []int64{0, 1, 1 << 40, 1<<40 + 1000*(8*BlockSize-1)} {
		if _, _, _, ok := FindBlocks(blocks, tu); !ok {
			t.Fatalf("FindBlocks(%d) missed a present key", tu)
		}
	}
	// A range spanning all of int64 (only a corrupt frame carries one).
	var wide []Block
	for _, tu := range []int64{math.MinInt64 + 1, -1 << 62, 0, 1 << 62, math.MaxInt64 - 1} {
		wide = append(wide, EncodeBlock(nil, []Pair{{Tu: tu}}, nil))
	}
	for _, tu := range []int64{-1 << 61, 0, 1 << 61, math.MaxInt64 - 1} {
		FindBlocks(wide, tu)
	}
}
