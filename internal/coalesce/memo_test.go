package coalesce

import (
	"testing"

	"knowphish/internal/core"
	"knowphish/internal/racecheck"
	"knowphish/internal/webpage"
)

func key(n uint64) webpage.Key128 { return webpage.Key128{Hi: n * 0x9e3779b97f4a7c15, Lo: n} }

func TestMemoTableLRU(t *testing.T) {
	// memoShards entries per shard: total capacity 2 per shard here.
	tb := newMemoTable[int](2 * memoShards)
	// Keys 0,16,32 land in shard 0 (Lo & 15 == 0).
	tb.Put(key(0), 100)
	tb.Put(key(16), 116)
	if v, ok := tb.Get(key(0)); !ok || v != 100 {
		t.Fatalf("Get(0) = %v,%v", v, ok)
	}
	// Shard 0 full; inserting a third evicts the LRU — key 16, since the
	// Get above bumped key 0.
	tb.Put(key(32), 132)
	if _, ok := tb.Get(key(16)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := tb.Get(key(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := tb.Get(key(32)); !ok {
		t.Fatal("new entry missing")
	}
	st := tb.stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestMemoTableUpdateInPlace(t *testing.T) {
	tb := newMemoTable[string](memoShards)
	tb.Put(key(1), "a")
	tb.Put(key(1), "b")
	if v, _ := tb.Get(key(1)); v != "b" {
		t.Fatalf("updated value = %q, want b", v)
	}
	if n := tb.Len(); n != 1 {
		t.Fatalf("Len = %d after in-place update, want 1", n)
	}
}

func TestMemoTableFlush(t *testing.T) {
	tb := newMemoTable[int](64)
	for i := uint64(0); i < 20; i++ {
		tb.Put(key(i), int(i))
	}
	tb.Flush()
	if n := tb.Len(); n != 0 {
		t.Fatalf("Len = %d after Flush, want 0", n)
	}
	if _, ok := tb.Get(key(3)); ok {
		t.Fatal("entry survived Flush")
	}
	// The table stays usable after a flush.
	tb.Put(key(3), 3)
	if v, ok := tb.Get(key(3)); !ok || v != 3 {
		t.Fatal("Put after Flush failed")
	}
}

func TestNilMemoTable(t *testing.T) {
	var tb *memoTable[int]
	tb.Put(key(1), 1)
	if _, ok := tb.Get(key(1)); ok {
		t.Fatal("nil table returned a hit")
	}
	tb.Flush()
	if tb.Len() != 0 || tb.stats() != (TableStats{}) {
		t.Fatal("nil table reported entries")
	}
	if newMemoTable[int](-1) != nil {
		t.Fatal("negative capacity must return a nil (disabled) table")
	}
}

func TestMemoTableGetZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tb := newMemoTable[verdictEntry](1 << 10)
	for i := uint64(0); i < 100; i++ {
		tb.Put(key(i), verdictEntry{out: core.Outcome{Score: float64(i)}, ver: "m1"})
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < 100; i++ {
			if _, ok := tb.Get(key(i)); !ok {
				t.Fatal("warm entry missing")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get allocated %.2f times per run, want 0", allocs)
	}
}

// BenchmarkMemoLookup is gate-pinned (scripts/bench_lib.sh): one warm
// sharded-LRU lookup, the unit cost every memoized stage saves against.
func BenchmarkMemoLookup(b *testing.B) {
	tb := newMemoTable[verdictEntry](DefaultEntries)
	const n = 4096
	for i := uint64(0); i < n; i++ {
		tb.Put(key(i), verdictEntry{out: core.Outcome{Score: float64(i)}, ver: "m1"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Get(key(uint64(i) % n)); !ok {
			b.Fatal("miss on warm table")
		}
	}
}
