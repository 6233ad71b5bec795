package labelblock

// Arena batches the small allocations graph build would otherwise scatter
// across the heap: block payloads are bump-allocated from 64 KiB byte
// chunks, and the fixed-capacity tail arrays that lists fill and seal are
// recycled through a free list instead of being re-made per block. All
// entry points are nil-safe — a nil *Arena falls back to plain make/append
// so tests need no allocator plumbing.
//
// An Arena is single-goroutine, matching graph build: each trace replay
// sink owns one. After Finalize the graph is read-only, so queries never
// touch it.
type Arena struct {
	chunk      []byte   // current bump-allocation chunk
	tailFree   [][]Pair // recycled tail backing arrays
	scratchBuf []byte   // reusable encode buffer

	allocBytes int64 // total bytes handed out (accounting)
	tailAllocs int64 // fresh tail arrays created (free-list misses)
}

const arenaChunkBytes = 64 << 10

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// bytes copies src into arena-owned storage and returns the copy.
func (a *Arena) bytes(src []byte) []byte {
	if a == nil {
		out := make([]byte, len(src))
		copy(out, src)
		return out
	}
	a.allocBytes += int64(len(src))
	if len(src) > arenaChunkBytes/4 {
		// Oversized payloads get their own allocation rather than
		// hollowing out a chunk.
		out := make([]byte, len(src))
		copy(out, src)
		return out
	}
	if len(a.chunk)+len(src) > cap(a.chunk) {
		a.chunk = make([]byte, 0, arenaChunkBytes)
	}
	off := len(a.chunk)
	a.chunk = append(a.chunk, src...)
	return a.chunk[off:len(a.chunk):len(a.chunk)]
}

// scratch returns a reusable encode buffer (empty, with capacity).
func (a *Arena) scratch() []byte {
	if a == nil || a.scratchBuf == nil {
		return make([]byte, 0, BlockSize*6)
	}
	b := a.scratchBuf
	a.scratchBuf = nil
	return b[:0]
}

// putScratch returns the encode buffer for reuse.
func (a *Arena) putScratch(b []byte) {
	if a != nil {
		a.scratchBuf = b
	}
}

// newTail hands out a tail backing array with capacity BlockSize,
// recycling sealed tails when possible.
func (a *Arena) newTail() []Pair {
	if a == nil {
		return make([]Pair, 0, 8)
	}
	if n := len(a.tailFree); n > 0 {
		t := a.tailFree[n-1]
		a.tailFree = a.tailFree[:n-1]
		return t[:0]
	}
	a.tailAllocs++
	a.allocBytes += BlockSize * 16
	return make([]Pair, 0, BlockSize)
}

// freeTail recycles a sealed tail's backing array.
func (a *Arena) freeTail(t []Pair) {
	if a == nil || cap(t) < BlockSize || len(a.tailFree) >= 64 {
		return
	}
	a.tailFree = append(a.tailFree, t[:0])
}

// AllocBytes reports total bytes the arena has handed out.
func (a *Arena) AllocBytes() int64 {
	if a == nil {
		return 0
	}
	return a.allocBytes
}

// TailAllocs reports how many fresh tail arrays were created (free-list
// misses); recycling keeps this near the peak number of open tails.
func (a *Arena) TailAllocs() int64 {
	if a == nil {
		return 0
	}
	return a.tailAllocs
}
