// Package cache is the semantic result cache: materialized SELECT
// results keyed on the planner's normalized plan fingerprint and
// invalidated by per-table sequence numbers.
//
// Two queries that lower to the same plan (aliases resolved, predicates
// canonicalized, pushdowns applied) produce the same answer against
// unchanged tables, so the fingerprint — not the SQL text — is the cache
// key. Every mutation of a table (insert, update, bulk crowd fill, index
// create/drop) bumps that table's sequence number; an entry records the
// sequence of every table it read at *capture* time and is validated
// against the current sequences on every hit. The capture-before-execute
// discipline closes the stale-store race: a mutation that lands while a
// SELECT is executing bumps the sequence past the one the entry recorded,
// so the entry can be stored but never served.
//
// Memory is bounded in bytes with LRU eviction; hit/miss/invalidation
// counters feed GET /workload.
package cache

import (
	"container/list"
	"sync"

	"crowddb/internal/storage"
)

// DefaultLimitBytes bounds the cache when the caller passes no limit.
const DefaultLimitBytes = 64 << 20

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	LimitBytes    int64  `json:"limit_bytes"`
}

type entry struct {
	key     string
	columns []string
	rows    []storage.Row
	// seqs records each read table's sequence number at capture time.
	seqs  map[string]uint64
	bytes int64
	elem  *list.Element
}

// Cache is a concurrency-safe, byte-bounded, LRU result cache.
type Cache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64
	seqs    map[string]uint64 // table (lower) → current sequence
	entries map[string]*entry // fingerprint → entry
	lru     *list.List        // front = most recently used; values are *entry

	hits, misses, invalidations, evictions uint64
}

// New creates a cache bounded to limit bytes (non-positive limit gets
// DefaultLimitBytes).
func New(limit int64) *Cache {
	if limit <= 0 {
		limit = DefaultLimitBytes
	}
	return &Cache{
		limit:   limit,
		seqs:    map[string]uint64{},
		entries: map[string]*entry{},
		lru:     list.New(),
	}
}

// TableSeqs snapshots the current sequence numbers of the given tables
// (lower-cased by the caller). Call it BEFORE executing the query whose
// result will be Put: an entry captured against these sequences is
// invalidated by any mutation that lands during execution.
func (c *Cache) TableSeqs(tables []string) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := make(map[string]uint64, len(tables))
	for _, t := range tables {
		snap[t] = c.seqs[t]
	}
	return snap
}

// Get returns the cached result for the fingerprint if every table it
// read is unchanged since capture. The returned rows are fresh copies —
// callers may retain or mutate them without corrupting the cache.
func (c *Cache) Get(fingerprint string) (columns []string, rows []storage.Row, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[fingerprint]
	if !found {
		c.misses++
		return nil, nil, false
	}
	for table, seq := range e.seqs {
		if c.seqs[table] != seq {
			c.removeLocked(e)
			c.invalidations++
			c.misses++
			return nil, nil, false
		}
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	columns = append([]string(nil), e.columns...)
	rows = make([]storage.Row, len(e.rows))
	for i, r := range e.rows {
		rows[i] = r.Clone()
	}
	return columns, rows, true
}

// Put stores a result captured against the given table-sequence snapshot
// (from TableSeqs, taken before execution). The rows are copied in, so
// the caller's result stays independently mutable. Entries that would
// exceed the byte limit on their own are not cached; otherwise LRU
// entries are evicted until the new one fits. If any captured table has
// already moved past its snapshot sequence, the entry is stored anyway —
// Get's validation guarantees it can never be served.
func (c *Cache) Put(fingerprint string, seqs map[string]uint64, columns []string, rows []storage.Row) {
	size := entrySize(fingerprint, columns, rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.limit {
		return
	}
	if old, dup := c.entries[fingerprint]; dup {
		c.removeLocked(old)
	}
	for c.bytes+size > c.limit {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.evictions++
	}
	e := &entry{
		key:     fingerprint,
		columns: append([]string(nil), columns...),
		rows:    make([]storage.Row, len(rows)),
		seqs:    make(map[string]uint64, len(seqs)),
		bytes:   size,
	}
	for i, r := range rows {
		e.rows[i] = r.Clone()
	}
	for t, s := range seqs {
		e.seqs[t] = s
	}
	e.elem = c.lru.PushFront(e)
	c.entries[fingerprint] = e
	c.bytes += size
}

// InvalidateTable bumps the table's sequence number, killing every entry
// that read it (entries are dropped lazily on their next Get; the byte
// bound keeps dead entries from accumulating).
func (c *Cache) InvalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqs[table]++
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Invalidations: c.invalidations, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.bytes, LimitBytes: c.limit,
	}
}

// removeLocked unlinks an entry. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// entrySize estimates an entry's memory footprint: the rows' slice
// headers and five-word Values plus text payloads plus key/column strings.
// An estimate is enough — the bound exists to keep the cache from growing
// without limit, not to account bytes exactly — but it must not flatter:
// charged 24 bytes for a 40-byte Value, a cache "of 64 MiB" full of
// numeric rows held 100 MiB of heap, which the collector then doubles.
func entrySize(key string, columns []string, rows []storage.Row) int64 {
	size := int64(len(key)) + 64
	for _, c := range columns {
		size += int64(len(c)) + 16
	}
	for _, r := range rows {
		size += 24 + 40*int64(len(r)) // slice header, Values
		for _, v := range r {
			if t, ok := v.AsText(); ok {
				size += int64(len(t))
			}
		}
	}
	return size
}
