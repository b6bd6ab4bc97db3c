package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/engine"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/vecmath"
	"crowddb/internal/wal"
	"crowddb/internal/workload"
	rescache "crowddb/internal/workload/cache"
)

// Durability: every state change — storage mutations, ledger charges,
// space bindings, expandable registrations, job completions — flows
// through the WAL, and Open reconstructs the database from snapshot +
// replay. Expanded columns are the point: each one cost real crowd
// dollars, and a restart must never charge for them again.
//
// Consistency model. Mutators hold db.gate.RLock around the mutation and
// its log append; Snapshot holds db.gate.Lock while it pins every table's
// current version, copies the small state above the tables and reads the
// covering sequence number — microseconds, whatever the tables hold. An
// RWMutex writer excludes readers, so what was pinned and copied reflects
// exactly the records up to that seq — replay after restore neither
// double-applies nor drops a mutation — and the pinned versions are
// immutable, so they are written out after the gate is released, beside
// whatever statements run next. The gate is never held across crowd waits
// (only around the storage/ledger touch itself), so snapshots don't stall
// behind HIT latency.
//
// Formats. A storage mutation is logged in storage.Op's binary form, a
// space binding as its coordinates in one FLOAT column payload, the small
// control records (charge, job, budget, expandable, index DDL, batched
// workload observations) as a JSON object each; a snapshot is one JSON
// meta section (everything in snapshotMeta), one section per space
// binding, and the tables' sections (storage/snapshot.go). internal/wal's
// package comment specifies the frames around them.

// Options configures a crowd-enabled database.
type Options struct {
	// Service obtains human judgments; may be nil for databases that only
	// use GoldFill.
	Service JudgmentService
	// DataDir enables durability: WAL segments and snapshots live here,
	// and Open recovers from them. Empty means in-memory only.
	DataDir string
	// Fsync makes WAL appends reach the platter (batched group commit);
	// off, appends still reach the OS promptly and survive process
	// crashes, but not power loss.
	Fsync bool
	// SegmentBytes is the WAL segment rotation threshold (default 8 MiB).
	SegmentBytes int64
	// Workers sizes the expansion scheduler's worker pool (default 4).
	Workers int
	// QueueDepth bounds the expansion admission queue (default 64).
	QueueDepth int
	// BatchWindow is how long a table's batch of expansions stays open:
	// expansions of the same table submitted within it merge their
	// sampling phases into shared HIT groups, charged once. Zero seals
	// every batch at submit, so each expansion is its own crowd job and
	// its own charge; the expansion runs the same way either way.
	BatchWindow time.Duration
	// DefaultBudget, when positive, caps the crowd spend of every API
	// key that has no explicit SetBudget cap. Zero leaves unknown keys
	// uncapped.
	DefaultBudget float64
	// SpeculativeBudget, when positive, enables predictive pre-expansion
	// and caps its total crowd spend in dollars (booked under
	// SpeculativeBudgetKey). Requires BatchWindow — speculation exists to
	// merge into the demand expansion's batch. Zero disables speculation.
	SpeculativeBudget float64
	// CacheBytes bounds the semantic result cache. Zero means the default
	// (64 MiB); negative disables the cache entirely.
	CacheBytes int64
	// ExecWorkers is the degree of intra-query parallelism for SELECT
	// execution: 0 picks GOMAXPROCS, 1 forces fully serial plans.
	ExecWorkers int
	// Backend names the storage engine: empty or BackendName, the MVCC
	// catalog and the only engine there is. Any other name fails Open.
	Backend string
	// CompactInterval, when positive, runs the background tombstone
	// compactor: every interval, each table whose sealed-chunk tombstone
	// density exceeds CompactTombstoneFrac is rewritten without its dead
	// rows (gated on live snapshot pins and write fences — see
	// storage.Table.Compact). Zero disables background compaction;
	// CompactNow remains available.
	CompactInterval time.Duration
	// CompactTombstoneFrac is the sealed-region tombstone density
	// threshold for background compaction; non-positive means the
	// storage default (0.30).
	CompactTombstoneFrac float64
	// SlowQuery, when positive, slog-logs every query slower than the
	// threshold with its traced phase and operator breakdown. Setting it
	// runs all SELECTs on the traced executor path (the breakdown must
	// exist before the query is known to be slow), trading a little
	// per-row overhead for attribution.
	SlowQuery time.Duration
}

// BackendName is the storage engine's name: what Options.Backend accepts
// and GET /v1/schema reports.
const BackendName = "mem"

// ErrNoDataDir is returned by Snapshot on a database opened without a
// data directory.
var ErrNoDataDir = errors.New("core: database has no data dir (durability disabled)")

// WAL record types above the storage layer.
const (
	recOp          = "op"           // storage.Op — table/catalog mutation
	recSpace       = "space"        // perceptual-space binding
	recExpandable  = "expandable"   // expandable-column registration
	recCharge      = "charge"       // crowd spend booked to the ledger
	recJob         = "job"          // expansion job reached a terminal state
	recBudgetCap   = "budget_cap"   // per-API-key budget cap installed
	recBudgetSpend = "budget_spend" // crowd spend debited against a key
	recIndex       = "create_index" // secondary index created on a table
	recDropIndex   = "drop_index"   // secondary index dropped from a table
	recWorkload    = "workload_obs" // a batch of workload observations (query footprints)
)

// Snapshot section kinds written here; the tables' are storage's
// (storage.SectionTable and above).
const (
	sectionMeta  byte = 1 // snapshotMeta as JSON
	sectionSpace byte = 2 // one space binding, as in a space record
)

// spaceRecord persists one table↔space binding, coordinates included, so
// SPACE/HYBRID strategies work immediately after recovery. Its binary
// form — a space record's body and a snapshot's space section — is
//
//	table · id column      each a uvarint length and the bytes
//	items · dimensions     uvarints
//	coordinates            one FLOAT column payload (storage/colcodec.go)
//	                       of items × dimensions cells, row-major
type spaceRecord struct {
	Table    string
	IDColumn string
	Coords   *vecmath.Matrix
}

// AppendBinary appends the record's binary form.
func (sr spaceRecord) AppendBinary(b []byte) ([]byte, error) {
	for _, s := range []string{sr.Table, sr.IDColumn} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = binary.AppendUvarint(b, uint64(sr.Coords.Rows))
	b = binary.AppendUvarint(b, uint64(sr.Coords.Cols))
	return storage.AppendColumn(b, &storage.Vector{Kind: storage.KindFloat, Floats: sr.Coords.Data}, len(sr.Coords.Data)), nil
}

func decodeSpaceRecord(b []byte) (spaceRecord, error) {
	var sr spaceRecord
	off := 0
	bad := func(what string) (spaceRecord, error) {
		return spaceRecord{}, fmt.Errorf("space record: offset %d: %s", off, what)
	}
	uvarint := func() (int, bool) {
		x, n := binary.Uvarint(b[off:])
		if n <= 0 || x > uint64(len(b)) {
			return 0, false
		}
		off += n
		return int(x), true
	}
	for _, dst := range []*string{&sr.Table, &sr.IDColumn} {
		n, ok := uvarint()
		if !ok || n > len(b)-off {
			return bad("name cut short")
		}
		*dst = string(b[off : off+n])
		off += n
	}
	items, ok1 := uvarint()
	dims, ok2 := uvarint()
	if !ok1 || !ok2 {
		return bad("no item count and dimensions")
	}
	vec, err := storage.DecodeColumn(b[off:])
	if err != nil {
		return spaceRecord{}, fmt.Errorf("space record for %q: coordinates at offset %d: %w", sr.Table, off, err)
	}
	if vec.Kind != storage.KindFloat || len(vec.Floats) != items*dims || vec.Nulls != nil {
		return bad(fmt.Sprintf("%d %s coordinates for %d items of %d dimensions", vec.Len(), vec.Kind, items, dims))
	}
	sr.Coords = &vecmath.Matrix{Rows: items, Cols: dims, Data: vec.Floats}
	return sr, nil
}

// expandableRecord persists one RegisterExpandable declaration.
// ExpandOptions' callbacks are unexported and skipped by encoding/json;
// every tunable field survives.
type expandableRecord struct {
	Table  string        `json:"table"`
	Column string        `json:"column"`
	Kind   storage.Kind  `json:"kind"`
	Opts   ExpandOptions `json:"opts"`
}

// chargeRecord persists one crowd run's cost, mirroring Ledger.add.
type chargeRecord struct {
	Judgments int     `json:"judgments"`
	Cost      float64 `json:"cost"`
	Minutes   float64 `json:"minutes"`
}

// jobRecord persists one terminal expansion job: its identity, outcome,
// and per-job ledger — the completion record that proves an expansion was
// paid for and must not be re-elicited.
type jobRecord struct {
	ID       string           `json:"id"`
	Key      string           `json:"key"`
	State    jobs.State       `json:"state"`
	Created  time.Time        `json:"created"`
	Started  time.Time        `json:"started,omitzero"`
	Finished time.Time        `json:"finished,omitzero"`
	Error    string           `json:"error,omitempty"`
	Ledger   jobs.Ledger      `json:"ledger"`
	Origin   string           `json:"origin,omitempty"`
	Report   *ExpansionReport `json:"report,omitempty"`
}

// indexRecord persists one CREATE INDEX (and, by name and table alone, one
// DROP INDEX). Only the definition is durable: index contents are derived
// data, rebuilt from the recovered rows by re-running the attach during
// restore/replay — no entry payload to keep consistent with the row log.
type indexRecord struct {
	Name    string   `json:"name"`
	Table   string   `json:"table"`
	Columns []string `json:"columns,omitempty"`
	Dirs    []bool   `json:"dirs,omitempty"` // per key column: descending
	Kind    string   `json:"kind,omitempty"` // "hash" or "ordered"
}

// snapshotMeta is the durable state above the tables at one sequence
// number — a snapshot's meta section. The tables and the space bindings
// have sections of their own.
type snapshotMeta struct {
	Expandables []expandableRecord `json:"expandables,omitempty"`
	Ledger      LedgerTotals       `json:"ledger"`
	Jobs        []jobRecord        `json:"jobs,omitempty"`
	// Budgets carries every API key's cap and cumulative spend: money
	// state, as durable as the ledger itself.
	Budgets []BudgetStatus `json:"budgets,omitempty"`
	// Indexes carries every secondary-index definition; contents are
	// rebuilt from the restored tables.
	Indexes []indexRecord `json:"indexes,omitempty"`
	// Workload carries the tracker's aggregate counters (the durable half
	// of the workload trace; the recent-observation ring restarts empty).
	Workload *workload.CounterState `json:"workload,omitempty"`
}

// walJournal adapts the WAL to storage.Journal: every storage mutation
// becomes an "op" record. Append errors latch in the WAL and surface at
// the next Snapshot/Close even when the mutator signature drops them.
type walJournal struct{ db *DB }

func (j walJournal) LogOp(op storage.Op) error {
	_, err := j.db.wal.Append(recOp, op)
	return err
}

// logJSON appends a control record whose body is v as JSON (flushed
// before returning when sync is set). The record structs live here, so
// here is where they are marshalled; the log sees bytes. Without a data
// dir it does nothing.
func (db *DB) logJSON(typ string, v any, sync bool) error {
	if db.wal == nil {
		return nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("core: marshal %s record: %w", typ, err)
	}
	if sync {
		_, err = db.wal.AppendSync(typ, body)
	} else {
		_, err = db.wal.Append(typ, body)
	}
	return err
}

// Open creates a crowd-enabled database. With a DataDir it first recovers
// all prior state — tables, expanded columns with provenance, space
// bindings, the expandable registry, ledger totals, and terminal job
// history — from the latest snapshot plus WAL replay, then attaches the
// journal so new mutations are logged.
func Open(opts Options) (*DB, error) {
	workers, depth := opts.Workers, opts.QueueDepth
	if workers <= 0 {
		workers = defaultExpansionWorkers
	}
	if depth <= 0 {
		depth = defaultExpansionQueue
	}
	if opts.Backend != "" && opts.Backend != BackendName {
		return nil, fmt.Errorf("core: unknown backend %q (the only one is %q)", opts.Backend, BackendName)
	}
	db := &DB{
		engine:      engine.New(storage.NewCatalog()),
		service:     opts.Service,
		ledger:      &Ledger{},
		workspaces:  make([]*workspace, 0, workers),
		bindings:    map[string]*tableBinding{},
		expandables: map[string]map[string]expandableSpec{},
		tracker:     workload.NewTracker(0),
		slowQuery:   opts.SlowQuery,
	}
	db.engine.SetExecWorkers(opts.ExecWorkers)
	if opts.CacheBytes >= 0 {
		db.rcache = rescache.New(opts.CacheBytes)
	}
	db.sched = jobs.NewScheduler(workers, depth, opts.BatchWindow, db.runExpansionBatch)
	db.sched.OnTerminal = db.onJobTerminal
	db.budgets.defaultCap = opts.DefaultBudget
	if opts.BatchWindow > 0 {
		db.specBudget = opts.SpeculativeBudget
	}
	if opts.DataDir == "" {
		db.finishOpen(opts)
		return db, nil
	}

	w, walErr := wal.Open(opts.DataDir, wal.Options{SegmentBytes: opts.SegmentBytes, Fsync: opts.Fsync})
	if walErr != nil {
		return nil, walErr
	}
	restored := map[string]jobs.RestoredJob{}
	if _, err := w.LoadSnapshot(func(sr *wal.SnapshotReader) error { return db.restoreSnapshot(sr, restored) }); err != nil {
		w.Close()
		return nil, fmt.Errorf("core: restoring snapshot: %w", err)
	}
	if err := w.Replay(func(rec wal.Record) error {
		if err := db.applyRecord(rec, restored); err != nil {
			return fmt.Errorf("core: replaying record %d (%s): %w", rec.Seq, rec.Type, err)
		}
		return nil
	}); err != nil {
		w.Close()
		return nil, err
	}
	db.sched.Restore(sortRestored(restored))

	// Recovery complete: from here on, mutations are journaled.
	db.wal = w
	db.Catalog().SetJournal(walJournal{db})
	db.finishOpen(opts)
	return db, nil
}

// finishOpen wires the workload subsystem after any recovery: the result
// cache attaches as the catalog's observer only now, so replayed
// mutations are not re-observed (the cache is empty anyway — correctly
// cold after a restart), and the speculative cap from Options is applied
// last so the flag always wins over a stale recovered cap. The cap is set directly
// (no WAL record): Options re-asserts it on every Open.
func (db *DB) finishOpen(opts Options) {
	if db.rcache != nil {
		db.Catalog().SetObserver(db.rcache)
	}
	if opts.SpeculativeBudget > 0 {
		db.budgets.setCap(SpeculativeBudgetKey, opts.SpeculativeBudget)
	}
	if opts.CompactInterval > 0 {
		db.compactStop = make(chan struct{})
		db.compactDone = make(chan struct{})
		go db.compactLoop(opts.CompactInterval, opts.CompactTombstoneFrac)
	}
}

// Snapshot persists the full current state and truncates the WAL segments
// it covers, returning the covered sequence number. Statements are
// excluded only while the tables are pinned and the small state above them
// is copied (see the consistency-model comment; the time is observed in
// crowddb_snapshot_gate_seconds); encoding and writing the file happen
// outside the gate, from the pinned versions.
func (db *DB) Snapshot() (uint64, error) {
	if db.wal == nil {
		return 0, ErrNoDataDir
	}
	if err := db.wal.Err(); err != nil {
		return 0, fmt.Errorf("core: WAL is wedged, refusing to snapshot: %w", err)
	}
	start := time.Now()
	db.gate.Lock()
	cp := db.Catalog().Checkpoint()
	meta, spaces := db.collectMeta()
	// The pending workload observations are inside the tracker counters
	// just captured; journaling them after this snapshot would count them
	// twice on recovery.
	db.takeObservations(0)
	seq := db.wal.Seq()
	db.gate.Unlock()
	mSnapshotGate.Observe(time.Since(start).Seconds())
	defer cp.Release()

	// Map order made deterministic, outside the gate.
	sort.Slice(spaces, func(i, j int) bool { return spaces[i].Table < spaces[j].Table })
	sort.Slice(meta.Expandables, func(i, j int) bool {
		a, b := meta.Expandables[i], meta.Expandables[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Column < b.Column
	})

	err := db.wal.WriteSnapshot(seq, func(sw *wal.SnapshotWriter) error {
		body, err := json.Marshal(meta)
		if err != nil {
			return fmt.Errorf("core: marshal snapshot meta: %w", err)
		}
		if err := sw.Emit(append(sw.Section(sectionMeta), body...)); err != nil {
			return err
		}
		for _, sr := range spaces {
			b, _ := sr.AppendBinary(sw.Section(sectionSpace)) // cannot fail
			if err := sw.Emit(b); err != nil {
				return err
			}
		}
		return cp.Write(sw)
	})
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// collectMeta copies the DB's durable state above the tables. Caller holds
// db.gate.Lock, so no journaled mutation is mid-flight; what is returned
// references only immutable objects (a bound space's coordinates, a
// terminal job's report) and is marshalled after the gate is released.
func (db *DB) collectMeta() (*snapshotMeta, []spaceRecord) {
	st := &snapshotMeta{Ledger: db.ledger.Snapshot()}
	c := db.Catalog()
	for _, name := range c.Names() {
		tbl, ok := c.Get(name)
		if !ok {
			continue
		}
		for _, im := range tbl.IndexMetas() {
			st.Indexes = append(st.Indexes, indexRecord{
				Name: im.Name, Table: tbl.Name(), Columns: im.Columns, Dirs: im.Dirs, Kind: im.Kind(),
			})
		}
	}

	var spaces []spaceRecord
	db.mu.RLock()
	for table, b := range db.bindings {
		spaces = append(spaces, bindingToRecord(table, b))
	}
	for table, cols := range db.expandables {
		for col, spec := range cols {
			st.Expandables = append(st.Expandables, expandableRecord{
				Table: table, Column: col, Kind: spec.kind, Opts: spec.opts,
			})
		}
	}
	db.mu.RUnlock()

	// Only terminal jobs are durable: a job still running has written no
	// completion record, and after a crash it simply re-runs.
	for _, js := range db.sched.Jobs() {
		if !js.State.Terminal() {
			continue
		}
		st.Jobs = append(st.Jobs, statusToJobRecord(js))
	}
	st.Budgets = db.Budgets()
	if db.tracker != nil {
		cs := db.tracker.Export()
		st.Workload = &cs
	}
	return st, spaces
}

// restoreSnapshot rebuilds the DB from a snapshot's sections: each table
// straight from its chunks, then — once the tables are there — the indexes
// (bulk-built by the attach), the bindings and the rest of the meta
// section. The catalog has no journal attached yet, so nothing here is
// re-logged.
func (db *DB) restoreSnapshot(sr *wal.SnapshotReader, restored map[string]jobs.RestoredJob) error {
	var st snapshotMeta
	for {
		kind, body, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch kind {
		case sectionMeta:
			err = json.Unmarshal(body, &st)
		case sectionSpace:
			var rec spaceRecord
			if rec, err = decodeSpaceRecord(body); err == nil {
				db.applySpaceRecord(rec)
			}
		case storage.SectionTable:
			err = storage.RestoreTable(db.Catalog(), body, sr)
		default:
			err = fmt.Errorf("unknown section kind %d", kind)
		}
		if err != nil {
			return err
		}
	}
	for _, ir := range st.Indexes {
		if err := db.applyIndexRecord(ir); err != nil {
			return fmt.Errorf("index %s on %s: %w", ir.Name, ir.Table, err)
		}
	}
	for _, e := range st.Expandables {
		db.RegisterExpandable(e.Table, e.Column, e.Kind, e.Opts)
	}
	db.ledger.restore(st.Ledger)
	for _, b := range st.Budgets {
		db.budgets.setCap(b.Key, b.Cap)
		db.budgets.addSpend(b.Key, b.Spent)
	}
	for _, jr := range st.Jobs {
		restored[jr.ID] = jobRecordToRestored(jr)
	}
	if st.Workload != nil {
		db.tracker.Import(*st.Workload)
	}
	return nil
}

// applyRecord applies one replayed WAL record.
func (db *DB) applyRecord(rec wal.Record, restored map[string]jobs.RestoredJob) error {
	switch rec.Type {
	case recOp:
		op, err := storage.DecodeOp(rec.Data)
		if err != nil {
			return err
		}
		return db.Catalog().Apply(op)
	case recSpace:
		sr, err := decodeSpaceRecord(rec.Data)
		if err != nil {
			return err
		}
		db.applySpaceRecord(sr)
		return nil
	case recExpandable:
		var er expandableRecord
		if err := json.Unmarshal(rec.Data, &er); err != nil {
			return err
		}
		db.RegisterExpandable(er.Table, er.Column, er.Kind, er.Opts)
		return nil
	case recCharge:
		var cr chargeRecord
		if err := json.Unmarshal(rec.Data, &cr); err != nil {
			return err
		}
		db.ledger.addRaw(cr.Judgments, cr.Cost, cr.Minutes)
		return nil
	case recJob:
		var jr jobRecord
		if err := json.Unmarshal(rec.Data, &jr); err != nil {
			return err
		}
		restored[jr.ID] = jobRecordToRestored(jr)
		return nil
	case recBudgetCap:
		var br budgetCapRecord
		if err := json.Unmarshal(rec.Data, &br); err != nil {
			return err
		}
		db.budgets.setCap(br.Key, br.Cap)
		return nil
	case recBudgetSpend:
		var br budgetSpendRecord
		if err := json.Unmarshal(rec.Data, &br); err != nil {
			return err
		}
		db.budgets.addSpend(br.Key, br.Amount)
		return nil
	case recIndex:
		var ir indexRecord
		if err := json.Unmarshal(rec.Data, &ir); err != nil {
			return err
		}
		return db.applyIndexRecord(ir)
	case recDropIndex:
		var ir indexRecord
		if err := json.Unmarshal(rec.Data, &ir); err != nil {
			return err
		}
		_, err := db.engine.Exec(&sqlparse.DropIndexStmt{Name: ir.Name, Table: ir.Table})
		return err
	case recWorkload:
		var batch []workload.Observation
		if err := json.Unmarshal(rec.Data, &batch); err != nil {
			return err
		}
		// Straight into the tracker — replay must not re-append.
		for _, obs := range batch {
			db.tracker.Observe(obs)
		}
		return nil
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
}

// applySpaceRecord binds the space of a decoded record — whose coordinates
// are the record's own memory — without logging (restore and replay).
func (db *DB) applySpaceRecord(sr spaceRecord) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.bindings[strings.ToLower(sr.Table)] = &tableBinding{
		space: space.NewSpace(sr.Coords), idColumn: sr.IDColumn,
	}
}

func bindingToRecord(table string, b *tableBinding) spaceRecord {
	return spaceRecord{Table: table, IDColumn: b.idColumn, Coords: b.space.Coords()}
}

func statusToJobRecord(st jobs.Status) jobRecord {
	jr := jobRecord{
		ID: st.ID, Key: st.Key, State: st.State,
		Created: st.Created, Started: st.Started, Finished: st.Finished,
		Error: st.Error, Ledger: st.Ledger, Origin: st.Origin,
	}
	if rep, ok := st.Result.(*ExpansionReport); ok {
		jr.Report = rep
	}
	return jr
}

func jobRecordToRestored(jr jobRecord) jobs.RestoredJob {
	r := jobs.RestoredJob{
		ID: jr.ID, Key: jr.Key, State: jr.State,
		Created: jr.Created, Started: jr.Started, Finished: jr.Finished,
		Ledger: jr.Ledger, Origin: jr.Origin,
	}
	if jr.Error != "" {
		r.Err = fmt.Errorf("%w: %s", ErrExpansionFailed, jr.Error)
	}
	if jr.Report != nil {
		r.Result = jr.Report
	}
	return r
}

// sortRestored orders recovered jobs by their numeric ID so /jobs keeps
// submission order across restarts.
func sortRestored(m map[string]jobs.RestoredJob) []jobs.RestoredJob {
	out := make([]jobs.RestoredJob, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	num := func(id string) int {
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
			return 1<<31 - 1
		}
		return n
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := num(out[i].ID), num(out[j].ID)
		if a != b {
			return a < b
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// onJobTerminal is the scheduler's completion hook: it durably records
// that an expansion finished (and what it cost) before anyone can observe
// the job as done and query the filled column.
func (db *DB) onJobTerminal(st jobs.Status) {
	if db.wal == nil {
		return
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	// Synchronous append: losing a completion record means re-paying the
	// crowd for a finished job after a crash.
	_ = db.logJSON(recJob, statusToJobRecord(st), true)
}

// logCharge books crowd spend into the WAL; called by db.charge under the
// gate.
func (db *DB) logCharge(res *crowd.RunResult) {
	_ = db.logJSON(recCharge, chargeRecord{
		Judgments: len(res.Records), Cost: res.TotalCost, Minutes: res.DurationMinutes,
	}, false)
}

// restore overwrites the ledger with recovered totals.
func (l *Ledger) restore(t LedgerTotals) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.totals = t
}

// addRaw mirrors add for replayed charge records.
func (l *Ledger) addRaw(judgments int, cost, minutes float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.totals.Judgments += judgments
	l.totals.Cost += cost
	l.totals.Minutes += minutes
	l.totals.Jobs++
}
