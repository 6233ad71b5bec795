package batch

import (
	"sync"
	"testing"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
)

// synthetic DAG: key i contributes statement i%numStmts and leads to keys
// 2i+1 and 2i+2 below limit, plus a convergence edge to i/3 — the shared
// ancestors make mask merging and the expansion memo load-bearing.
const (
	synLimit = 5000
	synStmts = 257
)

func synExpand(k Key, stats *slicing.Stats) *Expansion {
	stats.Instances++
	stats.LabelProbes += 2
	i := k.K1
	e := &Expansion{Stmts: []ir.StmtID{ir.StmtID(i % synStmts)}}
	if c := 2*i + 1; c < synLimit {
		e.Targets = append(e.Targets, Key{K1: c})
	}
	if c := 2*i + 2; c < synLimit {
		e.Targets = append(e.Targets, Key{K1: c})
	}
	if i > 0 {
		e.Targets = append(e.Targets, Key{K1: i / 3})
	}
	return e
}

func synSeeds(n int) []Task {
	seeds := make([]Task, n)
	for i := range seeds {
		// Spread the seeds over the key space; distinct criterion bits.
		seeds[i] = Task{K: Key{K1: uint64(i * 37 % synLimit)}, Mask: 1 << uint(i%64)}
	}
	return seeds
}

// TestRunDeterministicAcrossWorkers: the result masks, traversal stats, and
// expansion count must be a pure function of the graph and seed set — the
// same under any worker count or schedule.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, nseeds := range []int{1, 7, 63, 64, 65, 200} {
		seeds := synSeeds(nseeds)
		want, wantStats, wantCtr := Run(Config{Workers: 1, NumStmts: synStmts, Expand: synExpand}, seeds)
		if wantCtr.WorkersUsed != 1 {
			t.Fatalf("seeds=%d: workers used = %d want 1", nseeds, wantCtr.WorkersUsed)
		}
		for _, workers := range []int{2, 8} {
			got, gotStats, gotCtr := Run(Config{Workers: workers, NumStmts: synStmts, Expand: synExpand}, seeds)
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("seeds=%d workers=%d: stmt %d mask %x want %x",
						nseeds, workers, id, got[id], want[id])
				}
			}
			if gotStats != wantStats {
				t.Errorf("seeds=%d workers=%d: stats %+v want %+v", nseeds, workers, gotStats, wantStats)
			}
			if gotCtr.Expansions != wantCtr.Expansions {
				t.Errorf("seeds=%d workers=%d: expansions %d want %d",
					nseeds, workers, gotCtr.Expansions, wantCtr.Expansions)
			}
			if maxW := min(workers, nseeds); gotCtr.WorkersUsed != maxW {
				t.Errorf("seeds=%d workers=%d: workers used = %d want %d",
					nseeds, workers, gotCtr.WorkersUsed, maxW)
			}
		}
	}
}

// TestRunHammer is the work-stealing stress test: many repetitions at high
// worker counts over the shared-ancestor DAG. Under -race it is the proof
// that deque transfer, table growth, mask CAS, and the expansion memo are
// sound together.
func TestRunHammer(t *testing.T) {
	seeds := synSeeds(64)
	want, _, _ := Run(Config{Workers: 1, NumStmts: synStmts, Expand: synExpand}, seeds)
	reps := 8
	if testing.Short() {
		reps = 3
	}
	for rep := 0; rep < reps; rep++ {
		got, _, ctr := Run(Config{Workers: 8, NumStmts: synStmts, Expand: synExpand}, seeds)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("rep %d: stmt %d mask %x want %x", rep, id, got[id], want[id])
			}
		}
		if ctr.Expansions <= 0 {
			t.Fatalf("rep %d: no expansions counted", rep)
		}
	}
}

// TestVisitMaskSemantics: visit returns exactly the newly claimed bits and
// the entry is stable across calls and growth.
func TestVisitMaskSemantics(t *testing.T) {
	tb := newTable(4)
	k := Key{K1: 42, K2: 7}
	nv, e1 := tb.visit(k, 0b1011)
	if nv != 0b1011 {
		t.Fatalf("first visit claimed %b want 1011", nv)
	}
	nv, e2 := tb.visit(k, 0b1110)
	if nv != 0b0100 {
		t.Fatalf("second visit claimed %b want 0100", nv)
	}
	if e1 != e2 {
		t.Fatal("entry moved between visits")
	}
	if nv, _ := tb.visit(k, 0b1111); nv != 0 {
		t.Fatalf("third visit claimed %b want 0", nv)
	}
	// Force bucket growth in every shard; earlier entries must survive with
	// their masks intact and without duplication.
	entries := map[Key]*entry{k: e1}
	for i := uint64(0); i < 5000; i++ {
		kk := Key{K1: i, K2: i * 3}
		nv, e := tb.visit(kk, 1)
		if prev, dup := entries[kk]; dup && prev != e {
			t.Fatalf("key %v: duplicate entry after growth", kk)
		} else if !dup {
			if nv != 1 {
				t.Fatalf("key %v: fresh visit claimed %b", kk, nv)
			}
			entries[kk] = e
		}
	}
	if nv, e := tb.visit(k, 0b10000); nv != 0b10000 || e != e1 {
		t.Fatalf("post-growth visit: claimed %b entry moved=%v", nv, e != e1)
	}
}

// TestVisitConcurrent: racing workers claiming overlapping masks must
// partition the bits — every bit claimed exactly once per key.
func TestVisitConcurrent(t *testing.T) {
	tb := newTable(8)
	const keys = 2000
	claimed := make([][]uint64, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		claimed[w] = make([]uint64, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				nv, _ := tb.visit(Key{K1: uint64(i)}, 0xFF)
				claimed[w][i] = nv
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		var union, overlap uint64
		for w := 0; w < 8; w++ {
			if union&claimed[w][i] != 0 {
				overlap |= union & claimed[w][i]
			}
			union |= claimed[w][i]
		}
		if union != 0xFF || overlap != 0 {
			t.Fatalf("key %d: union=%x overlap=%x", i, union, overlap)
		}
	}
}

// TestMaskSlices: bit j of a statement's mask lands in slice j, and only
// there.
func TestMaskSlices(t *testing.T) {
	masks := []uint64{0b101, 0, 1 << 63}
	outs := make([]*slicing.Slice, 64)
	for i := range outs {
		outs[i] = slicing.NewSlice()
	}
	MaskSlices(masks, outs)
	check := func(bit int, want ...ir.StmtID) {
		t.Helper()
		got := outs[bit].Stmts()
		if len(got) != len(want) {
			t.Fatalf("slice %d: %v want %v", bit, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slice %d: %v want %v", bit, got, want)
			}
		}
	}
	check(0, 0)
	check(2, 0)
	check(63, 2)
	check(1)
}
