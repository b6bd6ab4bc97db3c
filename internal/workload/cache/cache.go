// Package cache is the result cache: materialized SELECT results keyed on
// the exact SQL text of the statement and invalidated by the writes that
// can change them.
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
// the catalog and table states the plan read, and an entry is served only
// while no write since its capture could have changed its answer.
//
// Most entries are checked by a footprint (Footprint): a single-table
// SELECT reads some columns of one table, and — when top-level AND
// conjuncts compare one INTEGER column with integer literals — only rows
// whose cell of that column lies in an interval. A write can change such
// an answer only if it writes a column the answer reads and a row image it
// adds or removes lies in the interval (Zhang et al.'s select-project
// determinacy, for one table). So storage reports each write with the
// columns it wrote and the watched columns' cells of every old and new
// row image (storage.Write), and the write kills, at once, exactly the
// entries whose footprint it meets: an INSERT or DELETE those whose
// interval holds an image's cell, an UPDATE those that also read a SET
// column, a FILL COLUMN those that read the column, an ADD COLUMN those
// of SELECT *, and a compaction, DDL or index change every entry over the
// table. Point intervals are indexed by value in a hash map per (table,
// column), so an INSERT costs one lookup per watched column however many
// entries it spares; wider intervals and entries without one are walked.
//
// The race between a write and a miss in flight is closed by registering
// the miss's footprint when it is captured, before the query is planned
// (Capture): a write that lands while the miss is planned or executed and
// meets the footprint marks it dead, and a dead miss is never stored. A
// write asks which columns are watched only after it is published, so a
// miss that registers later reads the written version.
//
// Other entries — joins, and the row adapter Put — are checked by table
// sequence numbers, as every entry once was: every write bumps its
// table's sequence, an entry records the sequence of every table it read
// at capture time, and an entry over a table that moved is dropped on its
// next Get.
//
// Lock order: a write holds its table's lock when it takes the cache's
// mutex, and the cache never calls storage while holding its mutex.
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
// whole text and checked by its footprint or sequences, as before. A miss
// read a batch at a time reaches PutBatches through a Fill, which copies
// the answer only while the rule could still store it.
package cache

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

var (
	mDeferred = obs.Default.Counter("crowddb_cache_deferred_total",
		"Result-cache entries over the admission size not stored because their text was seen for the first time.")
	mInvalidations = obs.Default.Counter("crowddb_cache_invalidations_total",
		"Result-cache entries dropped because a write could have changed their answer.")
	mEvictions = obs.Default.Counter("crowddb_cache_evictions_total",
		"Result-cache entries dropped to keep the cache under its byte limit.")
)

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

// Footprint is what a single-table SELECT's answer depends on: the
// columns it reads and, when Key is set, the rows whose Key cell is an
// integer in [Lo, Hi] — none when Lo > Hi. Table and Key are lower-cased;
// Columns may be in any case, and repeat.
type Footprint struct {
	Table   string
	Columns []string
	// Star marks SELECT *: every column, and any column added later.
	Star   bool
	Key    string
	Lo, Hi int64
}

// Capture is what a miss's entry is checked by, taken before the query
// is planned: the sequence numbers of the tables it reads (CaptureTables),
// or its footprint, registered with the cache (CaptureFootprint). A
// Capture is handed to PutBatches or Begin, or given back with Release.
type Capture struct {
	seqs []TableSeq
	e    *entry // the registered footprint's entry
}

// An entry's state: a footprint registered for a miss in flight, a
// stored entry, or a miss a write killed or that was given up.
const (
	pending uint8 = iota
	stored
	dead
)

// entry is a stored answer, or a footprint registered for a miss in
// flight that becomes one. Its links are intrusive, so neither the LRU
// order nor the watch index allocates per entry.
type entry struct {
	key     string
	columns []string
	batches []storage.Batch
	obs     []workload.Observation
	// seqs records each read table's sequence number at capture time, for
	// an entry without a footprint.
	seqs  []TableSeq
	bytes int64
	// newer and older link the stored entries in LRU order.
	newer, older *entry

	// The footprint: the list it is watched in (nil when there is none,
	// or it is watched no more), the columns it reads and its interval.
	kw          *keyWatch
	cols        []string
	lo, hi      int64
	star, point bool
	state       uint8
	// prev and next link the entries of kw's list: one point's, or the
	// others'.
	prev, next *entry
}

// reads reports whether the answer reads any of cols.
func (e *entry) reads(cols []string) bool {
	if e.star {
		return true
	}
	for _, c := range cols {
		for _, r := range e.cols {
			if strings.EqualFold(c, r) {
				return true
			}
		}
	}
	return false
}

// holds reports whether a row whose interval-column cell is n can satisfy
// the selection.
func (e *entry) holds(n int64) bool { return e.lo <= n && n <= e.hi }

// watch indexes the footprints registered over one table by their
// interval column, those without an interval under the key "".
type watch struct {
	table string
	// keys names the interval columns: what Watched returns. It is
	// replaced, never written, since a write reads it unlocked.
	keys  []string
	byKey map[string]*keyWatch
}

// keyWatch lists the footprints of one table with an interval on one
// column, or without one (key "").
type keyWatch struct {
	w      *watch
	key    string
	points map[int64]*entry // a point's value → the first of its entries
	others *entry           // the first of the rest: wider, empty, none
	n      int
}

// each calls f on every footprint of kw; f may kill it.
func (kw *keyWatch) each(f func(*entry)) {
	for _, first := range kw.points {
		eachFrom(first, f)
	}
	eachFrom(kw.others, f)
}

// eachFrom calls f on e and the entries after it in its list; f may kill
// the one it is called on.
func eachFrom(e *entry, f func(*entry)) {
	for e != nil {
		next := e.next
		f(e)
		e = next
	}
}

// Sizes charged to every entry beside its payload: the entry, and its
// slot in the key map — a key, a pointer and a control byte, doubled for
// the half load a map table has right after it grows — and for a point
// footprint its slot in the point index, likewise.
const (
	entryBytes     = int64(unsafe.Sizeof(entry{}))
	mapSlotBytes   = 2 * int64(unsafe.Sizeof("")+unsafe.Sizeof((*entry)(nil))+1)
	pointSlotBytes = 2 * int64(unsafe.Sizeof(int64(0))+unsafe.Sizeof((*entry)(nil))+1)
)

// Cache is a concurrency-safe, byte-bounded, LRU result cache.
type Cache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64
	seqs    map[string]uint64 // table (lower) → current sequence
	watches map[string]*watch // table (lower) → its footprints
	// keyed counts the interval columns watched over all tables, so that
	// Watched answers a cache with none without taking the mutex.
	keyed   atomic.Int64
	entries map[string]*entry // SQL text → entry
	// newest and oldest are the ends of the stored entries' LRU order.
	newest, oldest *entry
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
		watches: map[string]*watch{},
		entries: map[string]*entry{},
	}
}

// CaptureTables captures a miss by the sequence numbers of the tables it
// reads (lower-cased by the caller): any write to one of them, from now
// on, makes its entry unservable.
func (c *Cache) CaptureTables(tables []string) Capture {
	return Capture{seqs: c.TableSeqs(tables)}
}

// CaptureFootprint registers a miss's footprint: from now on a write
// that meets it kills the miss, and then the entry it becomes.
func (c *Cache) CaptureFootprint(fp Footprint) Capture {
	e := &entry{cols: fp.Columns, lo: fp.Lo, hi: fp.Hi, star: fp.Star, point: fp.Key != "" && fp.Lo == fp.Hi}
	c.mu.Lock()
	c.watchLocked(e, fp.Table, fp.Key)
	c.mu.Unlock()
	return Capture{e: e}
}

// Release gives back a Capture whose entry will not be stored: a miss
// whose plan failed, or whose answer was abandoned.
func (c *Cache) Release(cp Capture) {
	if cp.e == nil {
		return
	}
	c.mu.Lock()
	c.releaseLocked(cp)
	c.mu.Unlock()
}

func (c *Cache) releaseLocked(cp Capture) {
	if e := cp.e; e != nil && e.state == pending {
		c.unwatchLocked(e)
		e.state = dead
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
			c.invalidated()
			return nil, nil, nil, false
		}
	}
	c.unlinkLocked(e)
	c.pushLocked(e)
	c.hits++
	return e.columns, e.batches, e.obs, true
}

// CountMiss counts one cacheable statement the cache did not answer.
func (c *Cache) CountMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// PutBatches stores a result captured by cp (taken before planning), with
// the workload observations its statement produced. The entry is the
// caller's capture, observations, columns and batches, not a copy: all
// four must be immutable from here on, and the batches owned — a vector
// that views pinned storage would dangle once its pin is released, so one
// is a bug worth a panic.
// Entries that would exceed the byte limit on their own are not cached,
// and one charged over admitBytes is stored only if its text was deferred
// before (see the package comment); otherwise LRU entries are evicted
// until the new one fits. A miss whose footprint a write met in flight is
// not stored. If a table captured by sequence has already moved past it,
// the entry is stored anyway — GetBatches' validation guarantees it can
// never be served.
func (c *Cache) PutBatches(key string, cp Capture, obs []workload.Observation, columns []string, batches []storage.Batch) {
	size := entrySize(key, cp, obs, columns, batches)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp.e != nil && cp.e.state != pending {
		return
	}
	if size > c.limit {
		c.releaseLocked(cp)
		return
	}
	if size > admitBytes && !c.seenBeforeLocked(key) {
		c.releaseLocked(cp)
		c.deferred++
		mDeferred.Inc()
		return
	}
	if old, dup := c.entries[key]; dup {
		c.removeLocked(old)
	}
	for c.bytes+size > c.limit && c.oldest != nil {
		c.removeLocked(c.oldest)
		c.evictions++
		mEvictions.Inc()
	}
	e := cp.e
	if e == nil {
		e = &entry{seqs: cp.seqs}
	}
	e.key, e.columns, e.batches, e.obs, e.bytes, e.state = key, columns, batches, obs, size, stored
	c.pushLocked(e)
	c.entries[key] = e
	c.bytes += size
}

// pushLocked makes a stored entry the newest. Caller holds c.mu.
func (c *Cache) pushLocked(e *entry) {
	e.older = c.newest
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
}

// unlinkLocked takes a stored entry out of the LRU order. Caller holds
// c.mu.
func (c *Cache) unlinkLocked(e *entry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	e.newer, e.older = nil, nil
}

// entrySize is what an entry is charged: everything it keeps alive.
func entrySize(key string, cp Capture, obs []workload.Observation, columns []string, batches []storage.Batch) int64 {
	size := headerSize(key, cp, obs, columns)
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

// headerSize is what an entry is charged beside its batches. A
// footprint's columns are its observation's.
func headerSize(key string, cp Capture, obs []workload.Observation, columns []string) int64 {
	size := entryBytes + mapSlotBytes + int64(len(key))
	for _, s := range cp.seqs {
		size += int64(unsafe.Sizeof(s)) + int64(len(s.Table))
	}
	if cp.e != nil && cp.e.point {
		size += pointSlotBytes
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
	cp      Capture
	obs     []workload.Observation
	columns []string
	batches []storage.Batch
	floor   int64 // ≤ the charge of an entry of the rows added so far
	line    int64 // a charge over it is not stored
	over    bool  // floor passed line: the copy is given up
}

// Begin starts f for the answer of key's statement (see PutBatches for
// the rest of the arguments, which f hands to it). From here on f owns
// cp: Finish or Abandon gives it back.
func (c *Cache) Begin(f *Fill, key string, cp Capture, obs []workload.Observation, columns []string) {
	*f = Fill{c: c, key: key, cp: cp, obs: obs, columns: columns,
		floor: headerSize(key, cp, obs, columns), line: min(admitBytes, c.limit)}
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
		f.c.PutBatches(f.key, f.cp, f.obs, f.columns, f.batches)
	default:
		f.c.giveUp(f.key, f.cp, f.line < f.c.limit && f.floor <= f.c.limit)
	}
	*f = Fill{}
}

// Abandon ends f without storing anything: the answer was not read to
// its end, or could not be opened. It is no sighting for the doorkeeper.
func (f *Fill) Abandon() {
	if f.c != nil {
		f.c.Release(f.cp)
	}
	*f = Fill{}
}

// giveUp releases the capture of an answer whose copy was given up and,
// if it was given up at admitBytes, counts its deferral and records its
// text (see PutBatches).
func (c *Cache) giveUp(key string, cp Capture, deferred bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(cp)
	if deferred {
		c.seenBeforeLocked(key)
		c.deferred++
		mDeferred.Inc()
	}
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
	c.PutBatches(key, Capture{seqs: slices.Clone(seqs)}, nil, slices.Clone(columns), storage.BatchesOf(rows))
}

// InvalidateTable kills every entry that read the table (lower-cased by
// the caller): those with a footprint at once, those captured by sequence
// on their next Get.
func (c *Cache) InvalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqs[table]++
	if w := c.watches[table]; w != nil {
		c.killAllLocked(w, nil)
	}
}

// Watched returns the interval columns of the footprints registered over
// table: the cells a write to it reports (storage.Observer). A footprint
// registered after the load of keyed reads the written version: all
// atomic operations, the version's publication among them, are ordered
// as one sequence.
func (c *Cache) Watched(table string) []string {
	if c.keyed.Load() == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.watches[strings.ToLower(table)]; w != nil {
		return w.keys
	}
	return nil
}

// Observe kills the entries, stored or in flight, whose answer w could
// have changed (storage.Observer), and bumps the table's sequence. The
// write holds its table's lock.
func (c *Cache) Observe(w storage.Write) {
	table := strings.ToLower(w.Table)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqs[table]++
	wt := c.watches[table]
	if wt == nil {
		return
	}
	switch w.Kind {
	case storage.OpInsert, storage.OpTombstone, storage.OpSet:
		c.rowWriteLocked(wt, &w)
	case storage.OpAddColumn:
		c.killAllLocked(wt, func(e *entry) bool { return e.star })
	case storage.OpFillColumn:
		c.killAllLocked(wt, func(e *entry) bool { return e.reads(w.Cols) })
	default: // compaction renumbers rows; DDL replaces the table
		c.killAllLocked(wt, nil)
	}
}

// rowWriteLocked kills the footprints a row write meets. An INSERT or a
// DELETE meets every footprint without an interval and every one with
// an image's cell in its interval; an UPDATE only those of them that
// read a SET column. A footprint whose interval column the write did not
// report (it registered after the write asked) counts as having none.
func (c *Cache) rowWriteLocked(wt *watch, w *storage.Write) {
	var cols []string // nil: whole rows come or go
	if w.Kind == storage.OpSet {
		cols = w.Cols
	}
	kill := func(e *entry) {
		if cols == nil || e.reads(cols) {
			c.killLocked(e)
		}
	}
	for key, kw := range wt.byKey {
		j := slices.Index(w.Keys, key)
		if j < 0 {
			kw.each(kill)
			continue
		}
		for _, images := range [2][]storage.Value{w.Old, w.New} {
			for i := j; i < len(images); i += len(w.Keys) {
				killAt(kw, images[i], kill)
			}
		}
	}
}

// killAt calls kill on the footprints of kw whose interval holds an
// image's cell v. A NULL satisfies no comparison; a value of another
// kind, which an INTEGER column never holds, is taken to satisfy every
// one.
func killAt(kw *keyWatch, v storage.Value, kill func(*entry)) {
	switch v.Kind() {
	case storage.KindNull:
	case storage.KindInt:
		n, _ := v.AsInt()
		eachFrom(kw.points[n], kill)
		eachFrom(kw.others, func(e *entry) {
			if e.holds(n) {
				kill(e)
			}
		})
	default:
		kw.each(kill)
	}
}

// killAllLocked kills the footprints over wt that match (all of them when
// match is nil).
func (c *Cache) killAllLocked(wt *watch, match func(*entry) bool) {
	for _, kw := range wt.byKey {
		kw.each(func(e *entry) {
			if match == nil || match(e) {
				c.killLocked(e)
			}
		})
	}
}

// killLocked kills a footprint's entry: a stored one is dropped and
// counted as an invalidation, a miss in flight will not be stored.
func (c *Cache) killLocked(e *entry) {
	switch e.state {
	case stored:
		c.removeLocked(e)
		c.invalidated()
	case pending:
		c.unwatchLocked(e)
	}
	e.state = dead
}

// invalidated counts one entry dropped because its tables changed.
// Caller holds c.mu.
func (c *Cache) invalidated() {
	c.invalidations++
	mInvalidations.Inc()
}

// watchLocked lists a footprint's entry under its table and interval
// column (key, "" for none). Caller holds c.mu.
func (c *Cache) watchLocked(e *entry, table, key string) {
	wt := c.watches[table]
	if wt == nil {
		wt = &watch{table: table, byKey: map[string]*keyWatch{}}
		c.watches[table] = wt
	}
	kw := wt.byKey[key]
	if kw == nil {
		kw = &keyWatch{w: wt, key: key}
		if key != "" {
			kw.points = map[int64]*entry{}
			wt.keys = append(slices.Clip(wt.keys), key)
			c.keyed.Add(1)
		}
		wt.byKey[key] = kw
	}
	kw.n++
	e.kw = kw
	if e.point {
		e.next = kw.points[e.lo]
		kw.points[e.lo] = e
	} else {
		e.next = kw.others
		kw.others = e
	}
	if e.next != nil {
		e.next.prev = e
	}
}

// unwatchLocked takes a footprint's entry out of its list, and drops the
// list, and the table's watch, once empty. Caller holds c.mu.
func (c *Cache) unwatchLocked(e *entry) {
	kw := e.kw
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case !e.point:
		kw.others = e.next
	case e.next != nil:
		kw.points[e.lo] = e.next
	default:
		delete(kw.points, e.lo)
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.kw, e.prev, e.next = nil, nil, nil
	if kw.n--; kw.n > 0 {
		return
	}
	wt := kw.w
	delete(wt.byKey, kw.key)
	if kw.key != "" {
		wt.keys = slices.DeleteFunc(slices.Clone(wt.keys), func(k string) bool { return k == kw.key })
		c.keyed.Add(-1)
	}
	if len(wt.byKey) == 0 {
		delete(c.watches, wt.table)
	}
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

// removeLocked unlinks a stored entry, and its footprint from the index.
// Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.unlinkLocked(e)
	c.bytes -= e.bytes
	if e.kw != nil {
		c.unwatchLocked(e)
	}
	e.state = dead
}
