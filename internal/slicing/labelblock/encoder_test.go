package labelblock

import (
	"math/rand"
	"testing"
)

// appendStream feeds the same pair stream through AppendEnc (async block
// sealing) and Append (inline), returning both lists finalized.
func appendStream(t *testing.T, pairs []Pair, aux []int32, withAux bool, workers int) (enc, inline List) {
	t.Helper()
	e := NewEncoder(workers)
	enc = NewList(withAux)
	inline = NewList(withAux)
	for i, p := range pairs {
		var a int32
		if withAux {
			a = aux[i]
		}
		enc.AppendEnc(nil, e, p, a)
		inline.Append(nil, p, a)
	}
	e.Drain()
	enc.Seal(false)
	inline.Seal(false)
	return enc, inline
}

func requireIdentical(t *testing.T, enc, inline *List, withAux bool) {
	t.Helper()
	eb, ib := enc.Blocks(), inline.Blocks()
	if len(eb) != len(ib) {
		t.Fatalf("block count %d want %d", len(eb), len(ib))
	}
	for i := range eb {
		if eb[i].FirstTu != ib[i].FirstTu || eb[i].LastTu != ib[i].LastTu ||
			eb[i].BaseD != ib[i].BaseD || eb[i].BaseA != ib[i].BaseA ||
			eb[i].WTu != ib[i].WTu || eb[i].WD != ib[i].WD || eb[i].WA != ib[i].WA ||
			eb[i].N != ib[i].N || eb[i].HasAux != ib[i].HasAux {
			t.Fatalf("block %d header: %+v want %+v", i, eb[i], ib[i])
		}
		if string(eb[i].Data) != string(ib[i].Data) {
			t.Fatalf("block %d payload differs (async sealing must be byte-identical)", i)
		}
	}
	want := inline.Pairs(nil)
	got := enc.Pairs(nil)
	if len(got) != len(want) {
		t.Fatalf("pairs %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v want %v", i, got[i], want[i])
		}
	}
	_ = withAux
}

// TestEncoderEquivalence: async epoch sealing must produce blocks
// byte-identical to inline sealing, for sorted streams, straddling
// streams, and aux payloads, at several worker counts.
func TestEncoderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mkSorted := func(n int) ([]Pair, []int32) {
		ps := make([]Pair, n)
		ax := make([]int32, n)
		tu := int64(0)
		for i := range ps {
			tu += int64(1 + rng.Intn(4))
			ps[i] = Pair{Td: tu - int64(rng.Intn(50)), Tu: tu}
			ax[i] = int32(rng.Intn(100) - 50)
		}
		return ps, ax
	}
	for _, workers := range []int{1, 3} {
		for _, n := range []int{5, BlockSize, BlockSize*4 + 33} {
			ps, ax := mkSorted(n)
			for _, withAux := range []bool{false, true} {
				enc, inline := appendStream(t, ps, ax, withAux, workers)
				requireIdentical(t, &enc, &inline, withAux)
			}
		}
	}
	// Straddling stream: a sealed high range then stragglers below it —
	// the straddle guard must keep those resident in both modes.
	var ps []Pair
	for i := 0; i < BlockSize; i++ {
		ps = append(ps, Pair{Td: int64(i), Tu: 5000 + int64(i)})
	}
	for i := 0; i < BlockSize+10; i++ {
		ps = append(ps, Pair{Td: int64(i), Tu: int64(i + 1)})
	}
	enc, inline := appendStream(t, ps, nil, false, 2)
	requireIdentical(t, &enc, &inline, false)
	if td, _, _, ok := enc.Find(5); !ok || td != 4 {
		t.Fatalf("straddle Find(5) = %d,%v want 4,true", td, ok)
	}
}

// TestEncoderDrainSafety: Drain must be nil-safe and idempotent, and the
// list must be fully searchable afterwards.
func TestEncoderDrainSafety(t *testing.T) {
	var nilEnc *Encoder
	nilEnc.Drain() // must not panic

	e := NewEncoder(2)
	l := NewList(false)
	n := BlockSize*3 + 9
	for i := 0; i < n; i++ {
		l.AppendEnc(nil, e, Pair{Td: int64(i), Tu: int64(i * 2)}, 0)
	}
	e.Drain()
	e.Drain() // idempotent
	if e.Blocks() != 3 {
		t.Fatalf("encoder sealed %d blocks want 3", e.Blocks())
	}
	if e.Workers() != 2 {
		t.Fatalf("workers = %d want 2", e.Workers())
	}
	for i := 0; i < n; i++ {
		if td, _, _, ok := l.Find(int64(i * 2)); !ok || td != int64(i) {
			t.Fatalf("Find(%d) = %d,%v want %d", i*2, td, ok, i)
		}
	}
}
