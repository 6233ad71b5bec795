package opt

import "testing"

// TestReleaseDropsOversizedMaps: a state released after a traversal
// larger than maxPooledEntries goes back to the pool with fresh empty
// maps (the oversized ones are dropped, not cleared), while a state
// released after a small traversal keeps and reuses its maps.
func TestReleaseDropsOversizedMaps(t *testing.T) {
	st := getSliceState(nil)
	for i := 0; i <= maxPooledEntries; i++ {
		st.visited[instKey{ts: int64(i)}] = true
	}
	st.seenUse[useKey{ts: 1}] = true
	heavy, small := st.visited, st.seenUse
	st.release()
	if len(st.visited) != 0 || len(heavy) != maxPooledEntries+1 {
		t.Fatalf("oversized visited map was cleared for reuse (pooled len %d, old len %d), want a fresh map",
			len(st.visited), len(heavy))
	}
	if len(st.seenUse) != 0 {
		t.Fatalf("seenUse len %d after release, want 0", len(st.seenUse))
	}
	st.seenUse[useKey{ts: 2}] = true
	if len(small) != 1 {
		t.Fatal("small seenUse map was replaced; it should be cleared and reused")
	}
	clear(st.seenUse)

	// Whatever the pool hands out next starts empty.
	next := getSliceState(nil)
	defer next.release()
	if len(next.visited) != 0 || len(next.seenUse) != 0 {
		t.Fatalf("pooled state has %d visited, %d seenUse entries, want 0", len(next.visited), len(next.seenUse))
	}
}
