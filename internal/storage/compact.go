package storage

import (
	"math/bits"
	"sync"
)

// Tombstone compaction (see DESIGN.md §16).
//
// Delete tombstones rows instead of moving data, which keeps physical
// row IDs stable for open snapshots, index entries, and cursors — but
// leaks the dead rows' memory forever. Compact reclaims them: it
// rewrites the table's chunks without the tombstoned rows and publishes
// the result as a new version, remapping the surviving rows' physical
// IDs downward.
//
// Remapping is exactly the operation the rest of the engine is built to
// never observe, so admission is gated hard:
//
//   - No pinned snapshot may be live (Table.pins empty). A pinned reader
//     keeps its old version — immutable, so it could never see a row
//     vanish — but the physical IDs it yields would go stale against the
//     compacted table, and callers do hand such IDs back to mutators.
//   - No write fence may be held (Table.fences == 0). A fence marks a
//     caller that collected physical IDs from a scan and will mutate
//     through them shortly (UPDATE/DELETE, the HYBRID requery); the
//     fence/compaction exclusion makes scan-then-mutate atomic with
//     respect to remapping.
//
// Both checks and the compacting flag are manipulated under pinMu in one
// critical section, so a fence acquired after admission waits (on
// fenceCond) until the new version is published, and a compaction never
// starts while either class of ID holder is live. Pin itself NEVER
// waits: readers are snapshot-isolated and lock-free by design.
//
// Durability: the removed row IDs are logged as an OpCompact record
// before the rewrite, after admission has passed — a logged compaction
// always applied, and ReplayCompact removes exactly the same rows, so
// physical IDs in later WAL records resolve identically on recovery.

// DefaultCompactionFrac is the sealed-region tombstone density at which
// Compact proceeds when the policy does not set its own threshold.
const DefaultCompactionFrac = 0.30

// compactRebuildThreshold bounds point-wise index remapping: moving more
// survivors than this switches to a bulk Rebuild, which is O(n log n)
// instead of O(moved) ordered-index deletes through the delta buffer.
const compactRebuildThreshold = 32768

// CompactionPolicy tunes one Compact call.
type CompactionPolicy struct {
	// MinTombstoneFrac is the minimum tombstone density in the sealed
	// region (dead sealed rows / sealed rows) required to compact;
	// non-positive means DefaultCompactionFrac.
	MinTombstoneFrac float64
	// Force compacts any nonzero number of tombstones regardless of
	// density (the admin/test path).
	Force bool
}

// Compaction skip reasons, surfaced in CompactionResult.Skipped.
const (
	CompactSkipClean     = "no_tombstones"
	CompactSkipThreshold = "below_threshold"
	CompactSkipPinned    = "pinned_snapshots"
	CompactSkipFenced    = "write_fences"
)

// CompactionResult reports what one Compact call did.
type CompactionResult struct {
	Compacted       bool   `json:"compacted"`
	Skipped         string `json:"skipped,omitempty"` // reason when !Compacted
	RowsReclaimed   int    `json:"rows_reclaimed"`
	ChunksRewritten int    `json:"chunks_rewritten"`
	BytesFreed      int64  `json:"bytes_freed"`
	Epoch           uint64 `json:"epoch,omitempty"` // new version epoch
}

// CompactionStats is a table's cumulative compaction accounting,
// surfaced via GET /v1/schema/{table}.
type CompactionStats struct {
	Runs            int64  `json:"runs"`
	RowsReclaimed   int64  `json:"rows_reclaimed"`
	ChunksRewritten int64  `json:"chunks_rewritten"`
	BytesFreed      int64  `json:"bytes_freed"`
	LastEpoch       uint64 `json:"last_epoch,omitempty"`
}

// CompactionStats returns the table's cumulative compaction counters,
// lock-free.
func (t *Table) CompactionStats() CompactionStats {
	return CompactionStats{
		Runs:            t.compactRuns.Load(),
		RowsReclaimed:   t.compactRows.Load(),
		ChunksRewritten: t.compactChunks.Load(),
		BytesFreed:      t.compactBytes.Load(),
		LastEpoch:       t.compactLastEpoch.Load(),
	}
}

// Compact rewrites the table without its tombstoned rows, if the policy
// threshold is met and no pinned snapshot or write fence is live. It
// returns a result describing what happened (or why nothing did); the
// error path is reserved for journal failures.
func (t *Table) Compact(policy CompactionPolicy) (CompactionResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.snap.Load()
	if v.ndead() == 0 {
		return CompactionResult{Skipped: CompactSkipClean}, nil
	}
	// Sealed-region tombstone density drives the threshold: tail rows are
	// cheap to carry (one partial chunk) and churn too fast to chase.
	sealedDead := 0
	dead := v.deadBits()
	for _, d := range dead[:min(v.sealed/64, len(dead))] {
		sealedDead += bits.OnesCount64(d)
	}
	if !policy.Force {
		if v.sealed == 0 || sealedDead == 0 {
			return CompactionResult{Skipped: CompactSkipClean}, nil
		}
		minFrac := policy.MinTombstoneFrac
		if minFrac <= 0 {
			minFrac = DefaultCompactionFrac
		}
		if float64(sealedDead)/float64(v.sealed) < minFrac {
			return CompactionResult{Skipped: CompactSkipThreshold}, nil
		}
	}

	// Admission: atomically verify no ID holder is live and latch the
	// compacting flag, all under pinMu. From here until the deferred
	// clear, new write fences block on fenceCond.
	t.pinMu.Lock()
	switch {
	case len(t.pins) > 0:
		t.pinMu.Unlock()
		return CompactionResult{Skipped: CompactSkipPinned}, nil
	case t.fences > 0:
		t.pinMu.Unlock()
		return CompactionResult{Skipped: CompactSkipFenced}, nil
	}
	t.compacting = true
	t.pinMu.Unlock()
	defer func() {
		t.pinMu.Lock()
		t.compacting = false
		if t.fenceCond != nil {
			t.fenceCond.Broadcast()
		}
		t.pinMu.Unlock()
	}()

	removed := make([]int, 0, v.ndead())
	for i := 0; i < v.nrows; i++ {
		if v.isDead(i) {
			removed = append(removed, i)
		}
	}
	// Log after admission, before the rewrite: a logged OpCompact always
	// applied, so replay removes exactly these rows at exactly this point.
	if err := t.logOp(Op{Kind: OpCompact, Table: t.name, Rows: removed}); err != nil {
		return CompactionResult{}, err
	}

	bytesFreed := removedBytes(v, removed)
	chunksRewritten := 0
	if len(removed) > 0 && removed[0] < v.sealed {
		chunksRewritten = v.sealed/ChunkRows - removed[0]/ChunkRows
	}

	nv, moved := compactApply(v, removed)
	t.publish(nv, func() {
		t.remapIndexes(nv, moved)
	})

	t.compactRuns.Add(1)
	t.compactRows.Add(int64(len(removed)))
	t.compactChunks.Add(int64(chunksRewritten))
	t.compactBytes.Add(bytesFreed)
	t.compactLastEpoch.Store(nv.epoch)
	mCompactionRuns.Inc()
	mCompactionRows.Add(int64(len(removed)))
	t.notify(OpCompact, "")
	return CompactionResult{
		Compacted:       true,
		RowsReclaimed:   len(removed),
		ChunksRewritten: chunksRewritten,
		BytesFreed:      bytesFreed,
		Epoch:           nv.epoch,
	}, nil
}

// ReplayCompact applies a recovered OpCompact record: remove exactly the
// listed physical rows and shift survivors down. Replay-only — it never
// logs, and no gating is needed (recovery is single-threaded with no
// pins or fences). Indexes are bulk-rebuilt; point-wise remapping buys
// nothing when replay re-attaches them afterwards anyway.
func (t *Table) ReplayCompact(rows []int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(rows) == 0 {
		return 0
	}
	v := t.snap.Load()
	nv, _ := compactApply(v, rows)
	reclaimed := v.nrows - nv.nrows
	t.publish(nv, func() {
		for _, idx := range t.indexes {
			t.rebuildIndex(idx, nv)
		}
	})
	t.compactRuns.Add(1)
	t.compactRows.Add(int64(reclaimed))
	t.compactLastEpoch.Store(nv.epoch)
	t.notify(OpCompact, "")
	return reclaimed
}

// compactApply builds the successor version of v without the rows listed
// in kill (physical IDs; out-of-range entries ignored), re-chunking every
// column, and returns it together with the (oldID, newID) pairs of the
// survivors whose IDs shifted. Tombstone bits of surviving rows are
// carried over (live compaction removes all dead rows, so this matters
// only for replayed records).
func compactApply(v *version, kill []int) (*version, [][2]int) {
	killBits := make([]uint64, (v.nrows+63)/64)
	nkill := 0
	for _, i := range kill {
		if i >= 0 && i < v.nrows && killBits[i>>6]&(1<<(uint(i)&63)) == 0 {
			killBits[i>>6] |= 1 << (uint(i) & 63)
			nkill++
		}
	}
	nkeep := v.nrows - nkill
	var moved [][2]int
	var newDead *tombstones
	newID := 0
	for i := 0; i < v.nrows; i++ {
		if killBits[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if v.isDead(i) {
			if newDead == nil {
				newDead = &tombstones{bits: make([]uint64, (nkeep+63)/64)}
			}
			setDead(newDead.bits, newID)
			newDead.n++
		}
		if i != newID {
			moved = append(moved, [2]int{i, newID})
		}
		newID++
	}
	nv := newVersion(v.schema)
	nv.epoch = v.epoch + 1
	nv.nrows = newID
	nv.sealed = newID / ChunkRows * ChunkRows
	for c := 0; c < v.schema.Len(); c++ {
		b := colBuilder{kind: v.schema.Column(c).Kind, rows: nkeep}
		for i := 0; i < v.nrows; i++ {
			if killBits[i>>6]&(1<<(uint(i)&63)) == 0 {
				b.append(v.value(i, c))
			}
		}
		*nv.col(c) = b.cd
	}
	nv.dead = newDead
	return nv, moved
}

// remapIndexes rewrites index entries for the moved survivors. Caller
// holds t.idxMu (write, via publish). Point-wise remapping in ascending
// oldID order is collision-free: a moved row's new ID was previously
// either a tombstoned row (no entry — Delete removed it) or an
// earlier-processed moved survivor (entry already rewritten); an unmoved
// survivor's ID is never reassigned because new IDs are allocated in
// order. Past compactRebuildThreshold moves a bulk Rebuild wins.
func (t *Table) remapIndexes(nv *version, moved [][2]int) {
	for _, idx := range t.indexes {
		if len(moved) > compactRebuildThreshold {
			t.rebuildIndex(idx, nv)
			continue
		}
		for _, m := range moved {
			// The key is identical in both versions; read it at the new ID.
			if key, ok := indexKeyOf(idx, nv, m[1]); ok {
				idx.Remove(m[0], key)
				idx.Add(m[1], key)
			}
		}
	}
}

// removedBytes is the resident size of the cells of the given rows — the
// bytes-freed counter: each column's typed cell width plus text payloads;
// cells of all-NULL (nil) chunks occupy nothing.
func removedBytes(v *version, rows []int) int64 {
	var total int64
	for c := 0; c < v.schema.Len(); c++ {
		width := cellBytes(v.schema.Column(c).Kind)
		for _, row := range rows {
			ch, i := v.read(row, c)
			if ch == nil {
				continue
			}
			total += width
			if ch.kind == KindText {
				total += int64(len(ch.strs[i]))
			}
		}
	}
	return total
}

// --- write fences ---

// AcquireWriteFence marks the caller as holding physical row IDs across
// a scan→mutate window: while any fence is held, Compact refuses
// admission, and while a compaction is publishing, acquisition waits —
// so the IDs a fenced caller collected stay valid until it releases.
// Fences are shared (any number may be held at once); they do not block
// normal mutations or each other. Callers must pair with
// ReleaseWriteFence, or use WithWriteFence.
func (t *Table) AcquireWriteFence() {
	t.pinMu.Lock()
	for t.compacting {
		if t.fenceCond == nil {
			t.fenceCond = sync.NewCond(&t.pinMu)
		}
		t.fenceCond.Wait()
	}
	t.fences++
	t.pinMu.Unlock()
}

// ReleaseWriteFence releases a fence taken by AcquireWriteFence.
func (t *Table) ReleaseWriteFence() {
	t.pinMu.Lock()
	if t.fences > 0 {
		t.fences--
	}
	t.pinMu.Unlock()
}

// WithWriteFence runs fn under a write fence.
func (t *Table) WithWriteFence(fn func() error) error {
	t.AcquireWriteFence()
	defer t.ReleaseWriteFence()
	return fn()
}
