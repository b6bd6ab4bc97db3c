// Package cache is the semantic result cache: materialized SELECT
// results keyed on the planner's normalized plan fingerprint and
// invalidated by per-table sequence numbers.
//
// An entry is the result as the executor returned it: the column names
// and the list of owned column batches (storage.AppendOwned) — immutable,
// holding no snapshot pin — which PutBatches stores and GetBatches hands
// to every hit without copying a cell. The miss that stored an entry,
// every later hit and the entry itself share one list; nobody writes it.
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
// counters feed GET /v1/workload.
package cache

import (
	"container/list"
	"maps"
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
	batches []storage.Batch
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

// GetBatches returns the cached result for the fingerprint if every table
// it read is unchanged since capture. The columns and batches are the
// entry's own, shared with every other hit: read-only to the caller.
func (c *Cache) GetBatches(fingerprint string) (columns []string, batches []storage.Batch, ok bool) {
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
	return e.columns, e.batches, true
}

// PutBatches stores a result captured against the given table-sequence
// snapshot (from TableSeqs, taken before execution). The entry is the
// caller's snapshot, columns and batch list, not a copy: all three must be
// immutable from here on, and the batches owned — a vector that views
// pinned storage would dangle once its pin is released, so one is a bug
// worth a panic.
// Entries that would exceed the byte limit on their own are not cached;
// otherwise LRU entries are evicted until the new one fits. If any
// captured table has already moved past its snapshot sequence, the entry
// is stored anyway — GetBatches' validation guarantees it can never be
// served.
func (c *Cache) PutBatches(fingerprint string, seqs map[string]uint64, columns []string, batches []storage.Batch) {
	size := int64(len(fingerprint)) + 64
	for _, col := range columns {
		size += int64(len(col)) + 16
	}
	for i := range batches {
		for k := range batches[i].Cols {
			if batches[i].Cols[k].Pinned {
				panic("cache: PutBatches of a batch that views pinned storage")
			}
		}
		size += batches[i].Bytes()
	}
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
	e := &entry{key: fingerprint, columns: columns, batches: batches, seqs: seqs, bytes: size}
	e.elem = c.lru.PushFront(e)
	c.entries[fingerprint] = e
	c.bytes += size
}

// Get and Put are the row-typed form of GetBatches and PutBatches, kept
// for benchmark/ (which a PR that claims a gain may not edit) and due to
// go in the next benchmark PR that claims none: Put copies the snapshot and
// the column names and converts the rows to owned batches, Get boxes the
// entry into fresh rows, so what the caller holds on either side may be
// kept and written to.
func (c *Cache) Get(fingerprint string) (columns []string, rows []storage.Row, ok bool) {
	columns, batches, ok := c.GetBatches(fingerprint)
	return columns, storage.RowsOf(batches), ok
}

func (c *Cache) Put(fingerprint string, seqs map[string]uint64, columns []string, rows []storage.Row) {
	c.PutBatches(fingerprint, maps.Clone(seqs), append([]string(nil), columns...), storage.BatchesOf(rows))
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
