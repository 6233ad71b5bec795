package labelblock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// BenchmarkListFind measures a present-key lookup in a compacted list over
// a loop-like stream (small irregular Tu gaps, near-constant distance),
// probing in random order and in the descending order in which a
// backward traversal walks one list. The "flat" runs binary-search the
// same pairs as a []Pair with sort.Search, the cost the in-place block
// search is measured against.
func BenchmarkListFind(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		rng := rand.New(rand.NewSource(1))
		pairs := make([]Pair, n)
		tu := int64(1000)
		for i := range pairs {
			tu += 1 + rng.Int63n(40)
			pairs[i] = Pair{Tu: tu, Td: tu - 3 - rng.Int63n(5)}
		}
		random := make([]int64, 4096)
		walk := make([]int64, 4096)
		for i := range random {
			random[i] = pairs[rng.Intn(n)].Tu
			walk[i] = pairs[n-1-i*n/len(walk)].Tu
		}
		l := NewList(true)
		for i, p := range pairs {
			l.Append(nil, p, int32(i%13))
		}
		l.Compact(nil, false)
		for _, order := range []struct {
			name   string
			probes []int64
		}{{"random", random}, {"walk", walk}} {
			b.Run(fmt.Sprintf("n=%d/flat/%s", n, order.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tu := order.probes[i&4095]
					j := sort.Search(len(pairs), func(k int) bool { return pairs[k].Tu >= tu })
					if j == len(pairs) || pairs[j].Tu != tu {
						b.Fatal("miss")
					}
				}
			})
			b.Run(fmt.Sprintf("n=%d/compact/%s", n, order.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, _, ok := l.Find(order.probes[i&4095]); !ok {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}
