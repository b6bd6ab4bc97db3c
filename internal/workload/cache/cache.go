// Package cache is the result cache: materialized SELECT results keyed on
// the exact SQL text of the statement and invalidated by per-table
// sequence numbers.
//
// An entry is the result as the executor returned it: the column names
// and the list of owned column batches (storage.AppendOwned) — immutable,
// holding no snapshot pin — which PutBatches stores and GetBatches hands
// to every hit without copying a cell. The miss that stored an entry,
// every later hit and the entry itself share one list; nobody writes it.
// Beside the result an entry keeps the workload observations its statement
// produced, so a hit — which is never parsed or planned — can feed the
// workload tracker exactly what a miss of the same text would.
//
// The key is the text, not a plan: a text is probed before it is parsed,
// so a hit costs one map lookup. Planning is a function of the text and of
// the catalog and table states the plan read, so an entry whose tables are
// all unchanged is the answer the text would compute now. Every mutation
// of a table (insert, update, delete, bulk crowd fill, add-column,
// compaction, CREATE and DROP TABLE, index create/drop) bumps that table's
// sequence number; an entry records the sequence of every table it read at
// *capture* time and is validated against the current sequences on every
// hit. Capturing before the query is planned closes the stale-store race: a
// mutation that lands while a SELECT is planned or executing bumps the
// sequence past the one the entry recorded, so the entry can be stored but
// never served.
//
// Memory is bounded in bytes with LRU eviction, an entry charged for
// everything it keeps alive; hit/miss/invalidation counters feed
// GET /v1/workload.
//
// A large answer is stored only when its text is asked a second time. An
// entry charged over admitBytes is deferred on its text's first miss, and
// the text's fingerprint goes into a doorkeeper: a fixed, direct-mapped
// table of maphash fingerprints, allocated on the first large put. The
// next miss that finds the fingerprint in its slot stores the entry. A
// text whose literals never repeat therefore never fills the cache with
// answers nobody asks for again, while small answers (point rows, short
// ranges, counts, TopN) are stored at once. Two texts that share a slot
// only overwrite each other's record: that delays a store by one more
// miss and decides nothing else — what is served is looked up by the
// whole text and validated by table sequences, as before. A miss read a
// batch at a time reaches PutBatches through a Fill, which copies the
// answer only while the rule could still store it.
package cache

import (
	"container/list"
	"hash/maphash"
	"slices"
	"sync"
	"unsafe"

	"crowddb/internal/obs"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
)

// DefaultLimitBytes bounds the cache when the caller passes no limit.
const DefaultLimitBytes = 64 << 20

const (
	// admitBytes is the largest entry stored on its text's first miss.
	// Point rows, 20-row ranges, counts and TopN of 10 are charged under
	// 2 KiB; a GROUP BY over thousands of groups 30–100 KiB.
	admitBytes = 16 << 10
	// doorkeeperSlots is the doorkeeper's size: as many large entries as
	// the default limit holds. Its table is 32 KiB.
	doorkeeperSlots = DefaultLimitBytes / admitBytes
)

var mDeferred = obs.Default.Counter("crowddb_cache_deferred_total",
	"Result-cache entries over the admission size not stored because their text was seen for the first time.")

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	// Deferred counts large answers computed and not stored because the
	// doorkeeper did not hold their text: first sightings.
	Deferred   uint64 `json:"deferred"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	LimitBytes int64  `json:"limit_bytes"`
}

// TableSeq is one table's sequence number (the table lower-cased).
type TableSeq struct {
	Table string
	Seq   uint64
}

type entry struct {
	key     string
	columns []string
	batches []storage.Batch
	obs     []workload.Observation
	// seqs records each read table's sequence number at capture time.
	seqs  []TableSeq
	bytes int64
	elem  *list.Element
}

// Sizes charged to every entry beside its payload: the entry, its LRU
// element, and its slot in the key map — a key, a pointer and a control
// byte, doubled for the half load a map table has right after it grows.
const (
	entryBytes   = int64(unsafe.Sizeof(entry{}))
	elemBytes    = int64(unsafe.Sizeof(list.Element{}))
	mapSlotBytes = 2 * int64(unsafe.Sizeof("")+unsafe.Sizeof((*entry)(nil))+1)
)

// Cache is a concurrency-safe, byte-bounded, LRU result cache.
type Cache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64
	seqs    map[string]uint64 // table (lower) → current sequence
	entries map[string]*entry // SQL text → entry
	lru     *list.List        // front = most recently used; values are *entry
	// seen is the doorkeeper (nil until the first large put): the slot a
	// text's hash picks holds the fingerprint of the last large text
	// deferred there, or 0.
	seen []uint64
	seed maphash.Seed

	hits, misses, invalidations, evictions, deferred uint64
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
// (lower-cased by the caller). Call it BEFORE planning the query whose
// result will be Put — the plan binds the tables and their schemas: an
// entry captured against these sequences is invalidated by any mutation
// that lands while the query is planned or executed.
func (c *Cache) TableSeqs(tables []string) []TableSeq {
	snap := make([]TableSeq, len(tables))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range tables {
		snap[i] = TableSeq{Table: t, Seq: c.seqs[t]}
	}
	return snap
}

// GetBatches returns the result stored under key and the observations its
// statement produced, if every table it read is unchanged since capture,
// and counts the hit. The columns, batches and observations are the
// entry's own, shared with every other hit: read-only to the caller.
//
// A lookup that serves nothing is not counted as a miss here: a server
// probes the text of every statement before parsing it, and only the
// caller learns whether that text was a SELECT the cache could have
// answered — it counts the miss with CountMiss. A stale entry is dropped
// and counted as an invalidation.
func (c *Cache) GetBatches(key string) (columns []string, batches []storage.Batch, obs []workload.Observation, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[key]
	if !found {
		return nil, nil, nil, false
	}
	for _, s := range e.seqs {
		if c.seqs[s.Table] != s.Seq {
			c.removeLocked(e)
			c.invalidations++
			return nil, nil, nil, false
		}
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return e.columns, e.batches, e.obs, true
}

// CountMiss counts one cacheable statement the cache did not answer.
func (c *Cache) CountMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// PutBatches stores a result captured against the given table-sequence
// snapshot (from TableSeqs, taken before planning), with the workload
// observations its statement produced. The entry is the caller's snapshot,
// observations, columns and batches, not a copy: all four must be
// immutable from here on, and the batches owned — a vector that views
// pinned storage would dangle once its pin is released, so one is a bug
// worth a panic.
// Entries that would exceed the byte limit on their own are not cached,
// and one charged over admitBytes is stored only if its text was deferred
// before (see the package comment); otherwise LRU entries are evicted
// until the new one fits. If any captured table has already moved past its
// snapshot sequence, the entry is stored anyway — GetBatches' validation
// guarantees it can never be served.
func (c *Cache) PutBatches(key string, seqs []TableSeq, obs []workload.Observation, columns []string, batches []storage.Batch) {
	size := entrySize(key, seqs, obs, columns, batches)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.limit {
		return
	}
	if size > admitBytes && !c.seenBeforeLocked(key) {
		c.deferred++
		mDeferred.Inc()
		return
	}
	if old, dup := c.entries[key]; dup {
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
	e := &entry{key: key, columns: columns, batches: batches, obs: obs, seqs: seqs, bytes: size}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
}

// entrySize is what an entry is charged: everything it keeps alive.
func entrySize(key string, seqs []TableSeq, obs []workload.Observation, columns []string, batches []storage.Batch) int64 {
	size := headerSize(key, seqs, obs, columns)
	for i := range batches {
		for k := range batches[i].Cols {
			if batches[i].Cols[k].Pinned {
				panic("cache: PutBatches of a batch that views pinned storage")
			}
		}
		size += batches[i].Bytes()
	}
	return size
}

// headerSize is what an entry is charged beside its batches.
func headerSize(key string, seqs []TableSeq, obs []workload.Observation, columns []string) int64 {
	size := entryBytes + elemBytes + mapSlotBytes + int64(len(key))
	for _, s := range seqs {
		size += int64(unsafe.Sizeof(s)) + int64(len(s.Table))
	}
	for _, o := range obs {
		size += int64(unsafe.Sizeof(o)) + int64(len(o.Table)) + stringsBytes(o.Columns)
	}
	return size + stringsBytes(columns)
}

// seenBeforeLocked reports whether the doorkeeper holds key's fingerprint,
// and records it if not. Caller holds c.mu.
func (c *Cache) seenBeforeLocked(key string) bool {
	if c.seen == nil {
		c.seen = make([]uint64, doorkeeperSlots)
		c.seed = maphash.MakeSeed()
	}
	slot, fp := c.slotLocked(key)
	if *slot == fp {
		return true
	}
	*slot = fp
	return false
}

// slotLocked returns the doorkeeper slot key's hash picks and key's
// fingerprint, which is never 0, the empty slot. Caller holds c.mu and
// has allocated the doorkeeper.
func (c *Cache) slotLocked(key string) (*uint64, uint64) {
	h := maphash.String(c.seed, key)
	return &c.seen[h%doorkeeperSlots], h | 1
}

// Fill is one miss's answer on its way into the cache: the copy PutBatches
// stores, made a batch at a time while the answer is read (Add), and
// given up as soon as the entry could no longer be stored. So a reader
// that never needed the answer owned — the server's encoders, which read
// the executor's batches — pays for a copy only while the cache may keep
// it.
//
// Begin fixes the line the entry's charge must stay under: the cache's
// limit for a text the doorkeeper already holds, admitBytes for any other.
// Before each batch is copied, a lower bound of the entry's charge — its
// header and Batch.CopyFloor of every batch so far — is held to that
// line, and once it passes, the copy is dropped and no batch is copied
// again: PutBatches would have refused an entry charged at least that
// much. Finish, once the whole answer has been read, offers a complete
// copy to PutBatches, which applies the rule to the exact charge as it
// always has; a copy given up at admitBytes records the text in the
// doorkeeper and counts a deferral, as PutBatches would have — unless the
// bound, which Add keeps after the copy is gone, has passed the cache's
// limit, over which PutBatches stores and records nothing. So the same
// texts are stored, at the same charges, as when every answer was copied,
// and the same deferred but for an answer charged just over the limit
// whose bound is not. A text enters the doorkeeper only when its answer
// completes: an answer abandoned half read (a client that hung up, an
// error) is no sighting. Two misses of one text in flight at once may
// both give up and both count a deferral where, copied whole, the second
// would have stored — a delay of one more miss, like a doorkeeper
// collision.
//
// A Fill is a value its reader embeds; the zero Fill does nothing.
type Fill struct {
	c       *Cache
	key     string
	seqs    []TableSeq
	obs     []workload.Observation
	columns []string
	batches []storage.Batch
	floor   int64 // ≤ the charge of an entry of the rows added so far
	line    int64 // a charge over it is not stored
	over    bool  // floor passed line: the copy is given up
}

// Begin starts f for the answer of key's statement (see PutBatches for
// the rest of the arguments, which f hands to it).
func (c *Cache) Begin(f *Fill, key string, seqs []TableSeq, obs []workload.Observation, columns []string) {
	*f = Fill{c: c, key: key, seqs: seqs, obs: obs, columns: columns,
		floor: headerSize(key, seqs, obs, columns), line: min(admitBytes, c.limit)}
	c.mu.Lock()
	if c.seen != nil {
		if slot, fp := c.slotLocked(key); *slot == fp {
			f.line = c.limit
		}
	}
	c.mu.Unlock()
}

// Add copies the rows of b while the entry could still be stored.
func (f *Fill) Add(b *storage.Batch) {
	if f.c == nil {
		return
	}
	if f.floor += b.CopyFloor(); f.floor > f.line {
		f.over, f.batches = true, nil
	}
	if !f.over {
		f.batches = storage.AppendOwned(f.batches, b)
	}
}

// Finish is Add's end: the whole answer has been read. It offers a
// complete copy to the cache, or records the deferral of a copy given up.
func (f *Fill) Finish() {
	switch {
	case f.c == nil:
	case !f.over:
		f.c.PutBatches(f.key, f.seqs, f.obs, f.columns, f.batches)
	case f.line < f.c.limit && f.floor <= f.c.limit:
		f.c.deferText(f.key)
	}
	*f = Fill{}
}

// deferText counts a large answer not stored because its text had not
// been seen, and records the text (see PutBatches).
func (c *Cache) deferText(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seenBeforeLocked(key)
	c.deferred++
	mDeferred.Inc()
}

// stringsBytes is what a string list keeps: a header and the text of each.
func stringsBytes(ss []string) int64 {
	n := int64(len(ss)) * int64(unsafe.Sizeof(""))
	for _, s := range ss {
		n += int64(len(s))
	}
	return n
}

// Get and Put are the row-typed form of GetBatches and PutBatches, kept
// for benchmark/ (which a PR that claims a gain may not edit) and due to
// go in the next benchmark PR that claims none: Put copies the snapshot and
// the column names and converts the rows to owned batches, storing no
// observations; Get boxes the entry into fresh rows and, unlike GetBatches,
// counts a lookup that serves nothing as a miss. What the caller holds on
// either side may be kept and written to.
func (c *Cache) Get(key string) (columns []string, rows []storage.Row, ok bool) {
	columns, batches, _, ok := c.GetBatches(key)
	if !ok {
		c.CountMiss()
	}
	return columns, storage.RowsOf(batches), ok
}

func (c *Cache) Put(key string, seqs []TableSeq, columns []string, rows []storage.Row) {
	c.PutBatches(key, slices.Clone(seqs), nil, slices.Clone(columns), storage.BatchesOf(rows))
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
		Invalidations: c.invalidations, Evictions: c.evictions, Deferred: c.deferred,
		Entries: len(c.entries), Bytes: c.bytes, LimitBytes: c.limit,
	}
}

// removeLocked unlinks an entry. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}
