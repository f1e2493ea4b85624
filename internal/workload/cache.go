package workload

import "sync"

// Instance cache: Instances are read-only after Prepare and already
// shared across every engine shard of one campaign, so sharing them
// across campaigns is equally sound. Preparation — dataset or problem
// generation plus the fault-free reference solve — dominates the cold
// start of small campaigns, so a long-lived server (faultmem serve)
// enables this cache and repeat submissions of the same workload at the
// same Params skip it entirely. The cache is off by default: one-shot
// CLI runs gain nothing from it and tests prefer the uncached path.

// instKey identifies one prepared instance. Params is a flat struct of
// scalars, so the whole key is comparable.
type instKey struct {
	id ID
	p  Params
}

type instEntry struct {
	inst Instance
	err  error
	use  uint64 // lastUse tick, for eviction
}

var instCache struct {
	sync.Mutex
	enabled bool
	cap     int
	tick    uint64
	hits    uint64
	misses  uint64
	entries map[instKey]*instEntry
}

// defaultInstanceCacheCap bounds the cache when EnableInstanceCache is
// called with a non-positive capacity. Instances are at most a few MB
// (the Madelon dataset is the largest), so a couple dozen is cheap.
const defaultInstanceCacheCap = 24

// EnableInstanceCache turns the process-wide instance cache on with at
// most capacity entries (<= 0 selects the default). Existing entries
// survive a capacity change; excess ones are evicted least-recently-used.
func EnableInstanceCache(capacity int) {
	if capacity <= 0 {
		capacity = defaultInstanceCacheCap
	}
	instCache.Lock()
	defer instCache.Unlock()
	instCache.enabled = true
	instCache.cap = capacity
	if instCache.entries == nil {
		instCache.entries = make(map[instKey]*instEntry)
	}
	evictLocked()
}

// InstanceCacheStats returns the cumulative hit/miss counters (misses
// count uncached Prepare calls too, so hits/(hits+misses) is the true
// cross-request reuse rate).
func InstanceCacheStats() (hits, misses uint64) {
	instCache.Lock()
	defer instCache.Unlock()
	return instCache.hits, instCache.misses
}

// evictLocked drops least-recently-used entries until the cache fits
// its capacity. Caller holds the lock.
func evictLocked() {
	for len(instCache.entries) > instCache.cap {
		var oldest instKey
		var oldestUse uint64
		first := true
		for k, e := range instCache.entries {
			if first || e.use < oldestUse {
				oldest, oldestUse, first = k, e.use, false
			}
		}
		delete(instCache.entries, oldest)
	}
}

// PrepareShared resolves id and prepares its instance through the
// process-wide cache when enabled, falling back to a plain Prepare
// otherwise. Failed preparations are cached too (they are deterministic
// in Params), so a bad submission does not re-run generation on every
// retry.
func PrepareShared(id ID, p Params) (Instance, error) {
	key := instKey{id: id, p: p}
	instCache.Lock()
	if instCache.enabled {
		if e, ok := instCache.entries[key]; ok {
			instCache.tick++
			e.use = instCache.tick
			instCache.hits++
			instCache.Unlock()
			return e.inst, e.err
		}
	}
	instCache.misses++
	instCache.Unlock()

	wl, err := id.Workload()
	if err != nil {
		return nil, err
	}
	inst, err := wl.Prepare(p)

	instCache.Lock()
	if instCache.enabled {
		// A racing Prepare of the same key may have landed first; keep
		// the existing entry so concurrent campaigns converge on one
		// shared instance.
		if _, ok := instCache.entries[key]; !ok {
			instCache.tick++
			instCache.entries[key] = &instEntry{inst: inst, err: err, use: instCache.tick}
			evictLocked()
		} else {
			e := instCache.entries[key]
			inst, err = e.inst, e.err
		}
	}
	instCache.Unlock()
	return inst, err
}
