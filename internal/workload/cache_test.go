package workload

import "testing"

// disableInstanceCache turns the cache off and drops every entry, so
// each test starts from an empty cache.
func disableInstanceCache() {
	instCache.Lock()
	defer instCache.Unlock()
	instCache.enabled = false
	instCache.entries = nil
}

// TestPrepareSharedCaching verifies the instance cache returns the very
// same Instance for repeated (id, Params) keys when enabled, keeps
// distinct Params distinct, and stops sharing once disabled.
func TestPrepareSharedCaching(t *testing.T) {
	disableInstanceCache()
	EnableInstanceCache(4)
	defer disableInstanceCache()

	p := Params{Seed: 7, Keys: 256}
	a, err := PrepareShared(RSort, p)
	if err != nil {
		t.Fatalf("PrepareShared: %v", err)
	}
	b, err := PrepareShared(RSort, p)
	if err != nil {
		t.Fatalf("PrepareShared (repeat): %v", err)
	}
	if a != b {
		t.Fatalf("repeat PrepareShared returned a distinct instance")
	}
	hits, _ := InstanceCacheStats()
	if hits == 0 {
		t.Fatalf("repeat PrepareShared did not register a cache hit")
	}

	c, err := PrepareShared(RSort, Params{Seed: 8, Keys: 256})
	if err != nil {
		t.Fatalf("PrepareShared (other seed): %v", err)
	}
	if c == a {
		t.Fatalf("different Params shared one instance")
	}

	disableInstanceCache()
	d, err := PrepareShared(RSort, p)
	if err != nil {
		t.Fatalf("PrepareShared (disabled): %v", err)
	}
	if d == a {
		t.Fatalf("disabled cache still shared the old instance")
	}
}

// TestPrepareSharedEviction verifies the LRU bound holds: with capacity
// one, alternating keys always miss.
func TestPrepareSharedEviction(t *testing.T) {
	disableInstanceCache()
	EnableInstanceCache(1)
	defer disableInstanceCache()

	p1 := Params{Seed: 1, Keys: 64}
	p2 := Params{Seed: 2, Keys: 64}
	a1, err := PrepareShared(RSort, p1)
	if err != nil {
		t.Fatalf("PrepareShared: %v", err)
	}
	if _, err := PrepareShared(RSort, p2); err != nil {
		t.Fatalf("PrepareShared: %v", err)
	}
	a3, err := PrepareShared(RSort, p1)
	if err != nil {
		t.Fatalf("PrepareShared: %v", err)
	}
	if a1 == a3 {
		t.Fatalf("capacity-1 cache kept both keys alive")
	}

	// Invalid workload errors surface uncached and cached alike.
	if _, err := PrepareShared(ID(99), p1); err == nil {
		t.Fatalf("invalid workload id prepared successfully")
	}
}
