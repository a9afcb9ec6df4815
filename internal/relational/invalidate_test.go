package relational

import (
	"math/rand"
	"reflect"
	"testing"

	"autofeat/internal/frame"
)

func TestKeyIndexCacheInvalidateColumns(t *testing.T) {
	a := frame.NewIntColumn("a", []int64{1, 2, 3}, nil)
	b := frame.NewIntColumn("b", []int64{4, 5, 6}, nil)
	cache := NewKeyIndexCache()
	cache.index(a, Options{})
	cache.index(a, Options{Rng: rand.New(rand.NewSource(1)), Seed: 1})
	cache.index(b, Options{})
	if cache.Len() != 3 {
		t.Fatalf("Len = %d, want 3 resident indexes", cache.Len())
	}
	keptB := cache.Peek(b)
	if keptB == nil {
		t.Fatal("Peek must surface b's resident index")
	}

	// Invalidating a must drop exactly a's two entries (first-occurrence
	// and seeded) and leave b's untouched — by pointer identity.
	cache.InvalidateColumns([]*frame.Column{a})
	if cache.Len() != 1 {
		t.Fatalf("Len after invalidate = %d, want 1", cache.Len())
	}
	if cache.Peek(a) != nil {
		t.Fatal("a's entries must be gone")
	}
	if got := cache.Peek(b); !sameMap(got, keptB) {
		t.Fatal("b's entry must survive untouched (pointer identity)")
	}

	// Peek must not count as a hit or miss, and nil/empty calls are
	// no-ops on a nil-safe receiver.
	if hits, _ := cache.Stats(); hits != 0 {
		t.Fatalf("Peek must not record hits, got %d", hits)
	}
	cache.InvalidateColumns(nil)
	var nilCache *KeyIndexCache
	nilCache.InvalidateColumns([]*frame.Column{a})
	if nilCache.Peek(a) != nil {
		t.Fatal("nil cache peeks nil")
	}

	// Same name, different column pointer: the cache keys on identity,
	// so a rebuilt column never aliases a stale index.
	a2 := frame.NewIntColumn("a", []int64{7, 8, 9}, nil)
	idx := cache.index(a2, Options{})
	if reflect.DeepEqual(idx, map[string]int{"1": 0, "2": 1, "3": 2}) {
		t.Fatal("fresh column must not see the old column's index")
	}
}

// sameMap reports pointer identity of two maps (reflect on the header).
func sameMap(x, y map[string]int) bool {
	return reflect.ValueOf(x).Pointer() == reflect.ValueOf(y).Pointer()
}
