package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/vecmath"
)

// detCrowd answers every (question, item) the same way every time: each
// of an item's judgments is detAnswer(question, id). It writes into the
// caller's result in place, as the simulator does, then yields, so that
// another expansion's call runs while this one is in the crowd even on one
// CPU. Told to fail, it answers nothing.
type detCrowd struct {
	fail     atomic.Bool
	answered atomic.Int32
	// inside is the number of calls in Collect; overlaps counts the calls
	// that found another one there, merged the calls of several requests.
	inside, overlaps, merged atomic.Int32
}

// detAnswer is the crowd's verdict on item id under question: true for
// about five items in eight, a different set for every question.
func detAnswer(question string, id int) bool {
	h := fnv.New64a()
	h.Write([]byte(question))
	x := h.Sum64() ^ uint64(id)*0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x%8 < 5
}

func (c *detCrowd) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	if c.fail.Load() {
		return errors.New("detCrowd: the crowd is gone")
	}
	if c.inside.Add(1) > 1 {
		c.overlaps.Add(1)
	}
	defer c.inside.Add(-1)
	if len(reqs) > 1 {
		c.merged.Add(1)
	}
	batch := &crowd.BatchResult{Combined: &crowd.RunResult{DurationMinutes: 1}}
	for _, req := range reqs {
		res := &crowd.RunResult{DurationMinutes: 1}
		for _, id := range req.ItemIDs {
			ans := crowd.Negative
			if detAnswer(req.Question, id) {
				ans = crowd.Positive
			}
			for a := 0; a < cfg.AssignmentsPerItem; a++ {
				res.Records = append(res.Records, crowd.Record{ItemID: id, WorkerID: a, Answer: ans})
			}
		}
		res.TotalCost = float64(len(res.Records)) * cfg.PayPerHIT / float64(cfg.ItemsPerHIT)
		batch.PerQuestion = append(batch.PerQuestion, res)
		batch.Combined.Records = append(batch.Combined.Records, res.Records...)
		batch.Combined.TotalCost += res.TotalCost
	}
	if len(reqs) == 1 {
		batch.Combined = batch.PerQuestion[0]
	}
	into.CopyFrom(batch)
	c.answered.Add(1)
	runtime.Gosched()
	return nil
}

// A seeded schedule of everything that can happen to the expandable
// tables of one database — demand expansions, batches of two to four
// members on both tables at once, EXPAND … USING CROWD|SPACE|HYBRID,
// budget caps raised, budgets of exactly k items, INSERT, DELETE, a
// forced compaction and a crowd that fails — on two scheduler workers
// with a batch window. After every step: the money adds up (the ledger
// books one job per answered crowd call, the jobs' ledgers add up to
// it, every key is debited its members' shares and never past its cap,
// no reservation is left, a failed member is charged nothing), every
// CROWD or HYBRID cell is the crowd's answer for its item (NULL past a
// budget's k items and on rows inserted since), and every SPACE cell is
// what a solo expansion of the same column over the same items gives.
// A failing seed prints its schedule.
//
// Crash and reopen, and a caller that stops waiting, are not in the
// schedule.
func TestSeededExpansionSchedules(t *testing.T) {
	seeds, steps := 10, 50
	if testing.Short() {
		seeds = 3
	}
	var overlaps, merged, budgeted, refused int
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			s := newSchedule(t, int64(seed))
			defer s.db.Close()
			for i := 0; i < steps; i++ {
				s.step()
				s.check()
			}
			overlaps += int(s.crowd.overlaps.Load())
			merged += int(s.crowd.merged.Load())
			budgeted += s.budgeted
			refused += s.refused
		})
	}
	t.Logf("%d crowd calls overlapped another, %d merged several requests, %d expansions had a budget of k items, %d members were refused by a cap",
		overlaps, merged, budgeted, refused)
	// How often two calls meet in the crowd depends on the scheduler; the
	// full run has dozens of them at one CPU and at several.
	if !t.Failed() && ((overlaps == 0 && !testing.Short()) || merged == 0 || budgeted == 0 || refused == 0) {
		t.Fatal("the schedules left a path untried")
	}
}

// schedTables are the schedule's tables, both bound to one space.
var schedTables = []string{"ta", "tb"}

// demandColumns are registered expandable, each with its method; a query
// on one expands it. explicitColumns are expanded by name only.
var (
	demandColumns = []struct {
		name   string
		method sqlparse.ExpandMethod
		pay    float64
	}{
		{"d0", sqlparse.ExpandCrowd, 0.02},
		{"d1", sqlparse.ExpandSpace, 0.02},
		{"d2", sqlparse.ExpandCrowd, 0.03},
		{"d3", sqlparse.ExpandSpace, 0.03},
	}
	explicitColumns = []string{"x0", "x1", "x2", "x3", "x4"}
	schedKeys       = []string{"", "k0", "k1"}
)

type schedule struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	db    *DB
	crowd *detCrowd
	sp    *space.Space
	// log is the schedule so far, printed when a check fails.
	log    []string
	nextID int
	// want is every expanded column's cells by item id; an item it does
	// not hold is NULL.
	want map[string]map[string]map[int]bool
	// keyOf is the API key of every job that has one.
	keyOf map[string]string
	// failed is every job that ended in an error and must have been
	// charged nothing.
	failed map[string]bool
	// budgeted and refused count the expansions with a budget of k items
	// and the members a key's cap refused.
	budgeted, refused int
}

func newSchedule(t *testing.T, seed int64) *schedule {
	t.Helper()
	const items, rows = 300, 60
	coords := vecmath.NewMatrix(items, 4)
	crng := rand.New(rand.NewSource(99))
	for i := range coords.Data {
		coords.Data[i] = crng.NormFloat64()
	}
	s := &schedule{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
		crowd: new(detCrowd), sp: space.NewSpace(coords),
		want: map[string]map[string]map[int]bool{}, keyOf: map[string]string{}, failed: map[string]bool{},
	}
	db, err := Open(Options{Service: s.crowd, Workers: 2, BatchWindow: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.db = db
	for ti, name := range schedTables {
		if _, _, err := db.ExecSQL(`CREATE TABLE ` + name + ` (movie_id INTEGER)`); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Catalog().Get(name)
		for id := ti * rows / 2; id < ti*rows/2+rows; id++ {
			if err := tbl.Insert(storage.Int(int64(id))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.AttachSpace(name, "movie_id", s.sp); err != nil {
			t.Fatal(err)
		}
		for _, c := range demandColumns {
			db.RegisterExpandable(name, c.name, storage.KindBool, ExpandOptions{Method: c.method, Job: crowd.JobConfig{PayPerHIT: c.pay}})
		}
		s.want[name] = map[string]map[int]bool{}
	}
	s.nextID = rows + rows/2
	return s
}

func (s *schedule) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *schedule) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d, step %d: %s\nschedule:\n  %s", s.seed, len(s.log), fmt.Sprintf(format, args...), strings.Join(s.log, "\n  "))
}

// ids returns the item ids of table's live rows in scan order: the order
// an expansion's plan takes them in.
func (s *schedule) ids(table string) []int {
	tbl, _ := s.db.Catalog().Get(table)
	snap := tbl.Pin()
	defer snap.Release()
	ids, err := itemIDs(snap, s.db.binding(table))
	if err != nil {
		s.fatalf("%v", err)
	}
	return ids
}

// member is one expansion of a step, planned over the items its table
// held when the step began.
type member struct {
	table, column string
	opts          ExpandOptions
	ids           []int
	job           *jobs.Job
	err           error
}

// step runs one seeded step to its end.
func (s *schedule) step() {
	r := s.rng
	switch k := r.Intn(20); {
	case k < 4:
		s.runMembers(s.demandMember(s.pick(schedTables)))
	case k < 9:
		var ms []member
		for _, table := range schedTables {
			n := 2 + r.Intn(3)
			if table != schedTables[0] {
				n = r.Intn(3)
			}
			cols := slices.Clone(explicitColumns)
			r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			for _, col := range cols[:n] {
				ms = append(ms, s.explicitMember(table, col))
			}
			if r.Intn(3) == 0 {
				ms = append(ms, s.demandMember(table))
			}
		}
		s.runMembers(ms...)
	case k < 12:
		s.runStatement()
	case k < 14:
		key := schedKeys[1+r.Intn(len(schedKeys)-1)]
		s.db.budgets.mu.Lock()
		limit := s.db.budgets.spent[key] + float64(r.Intn(6))*1.2
		s.db.budgets.mu.Unlock()
		if err := s.db.SetBudget(key, limit); err != nil {
			s.fatalf("SetBudget: %v", err)
		}
		s.logf("budget %s = $%.2f", key, limit)
	case k < 16:
		table := s.pick(schedTables)
		for n := 1 + r.Intn(3); n > 0; n-- {
			s.exec(fmt.Sprintf(`INSERT INTO %s (movie_id) VALUES (%d)`, table, s.nextID))
			s.nextID++
		}
	case k < 18:
		table := s.pick(schedTables)
		ids := s.ids(table)
		for n := 1 + r.Intn(3); n > 0 && len(ids) > 20; n-- {
			s.exec(fmt.Sprintf(`DELETE FROM %s WHERE movie_id = %d`, table, ids[r.Intn(len(ids))]))
		}
	case k < 19:
		s.db.CompactNow()
		s.logf("compact")
	default:
		s.crowd.fail.Store(true)
		s.logf("the crowd fails")
		s.runMembers(s.demandMember(s.pick(schedTables)), s.explicitMember(s.pick(schedTables), s.pick(explicitColumns)))
		s.crowd.fail.Store(false)
	}
}

func (s *schedule) pick(from []string) string { return from[s.rng.Intn(len(from))] }

func (s *schedule) exec(sql string) {
	s.logf("%s", sql)
	if _, _, err := s.db.ExecSQL(sql); err != nil {
		s.fatalf("%s: %v", sql, err)
	}
}

// demandMember is a query on one of table's registered columns, asked
// asynchronously: it expands the column unless the table has it already.
func (s *schedule) demandMember(table string) member {
	c := demandColumns[s.rng.Intn(len(demandColumns))]
	return member{table: table, column: c.name, opts: ExpandOptions{Method: c.method, Job: crowd.JobConfig{PayPerHIT: c.pay}}}
}

// hitPrices are the prices per HIT the schedule's admin expansions pay.
var hitPrices = []float64{0.02, 0.03, 0.05, 0.07, 0.09, 0.11}

// explicitMember is an admin expansion of column by a seeded method, key
// and price; two CROWD expansions in three have a budget of exactly k
// items.
func (s *schedule) explicitMember(table, column string) member {
	r := s.rng
	methods := []sqlparse.ExpandMethod{sqlparse.ExpandCrowd, sqlparse.ExpandSpace, sqlparse.ExpandHybrid}
	opts := ExpandOptions{
		Method: methods[r.Intn(len(methods))], APIKey: s.pick(schedKeys), Origin: OriginAdmin,
		Job: crowd.JobConfig{PayPerHIT: hitPrices[r.Intn(len(hitPrices))]},
	}
	if opts.Method == sqlparse.ExpandCrowd && r.Intn(3) != 0 {
		opts.Budget = s.priceOf(1+r.Intn(len(s.ids(table))), opts)
	}
	return member{table: table, column: column, opts: opts}
}

// priceOf is the budget that pays for exactly k items under opts.
func (s *schedule) priceOf(k int, opts ExpandOptions) float64 {
	opts.fillDefaults(opts.Method)
	return projectedCost(k, &opts)
}

// runMembers submits ms at once, waits for all of them and books what
// each did into the model.
func (s *schedule) runMembers(ms ...member) {
	for i := range ms {
		m := &ms[i]
		m.ids = s.ids(m.table)
		var err error
		if m.opts.Origin == OriginAdmin {
			m.job, err = s.db.SubmitExpand(m.table, m.column, storage.KindBool, m.opts)
			s.logf("expand %s.%s %s key %q $%.2f/HIT budget %v: submitted %v", m.table, m.column, m.opts.Method, m.opts.APIKey, m.opts.Job.PayPerHIT, m.opts.Budget, err)
		} else {
			sql := fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE %s = true`, m.table, m.column)
			tbl, _ := s.db.Catalog().Get(m.table)
			_, exists := tbl.Schema().Lookup(m.column)
			var st *RowStream
			st, m.job, err = do(s.db, Request{SQL: sql, Mode: ModeAsync})
			st.Close()
			s.logf("%s (column exists: %v, job: %v): %v", sql, exists, m.job != nil, err)
			if exists != (m.job == nil) && err == nil {
				s.fatalf("a query on %s.%s, which exists: %v, started a job: %v", m.table, m.column, exists, m.job != nil)
			}
		}
		if errors.Is(err, ErrBudgetExceeded) {
			s.refused++
		}
		if m.err = err; err != nil && !errors.Is(err, ErrBudgetExceeded) {
			s.fatalf("%s.%s: %v", m.table, m.column, err)
		}
		if m.job != nil && m.opts.APIKey != "" {
			s.keyOf[m.job.ID()] = m.opts.APIKey
		}
	}
	for i := range ms {
		m := &ms[i]
		if m.job == nil {
			continue
		}
		_, m.err = m.job.Wait(context.Background())
		s.logf("  %s.%s: %v", m.table, m.column, m.err)
		if errors.Is(m.err, ErrBudgetExceeded) {
			s.refused++
		}
		if m.err != nil {
			s.failed[m.job.ID()] = !s.hybridFilled(m)
			if !s.crowd.fail.Load() && !errors.Is(m.err, ErrBudgetExceeded) && !errors.Is(m.err, ErrSingleClass) {
				s.fatalf("%s.%s: %v", m.table, m.column, m.err)
			}
		}
		s.book(m)
	}
}

// runStatement runs one EXPAND … USING CROWD|SPACE|HYBRID statement; one
// CROWD statement in two has a budget of exactly k items.
func (s *schedule) runStatement() {
	r := s.rng
	m := member{table: s.pick(schedTables), column: s.pick(explicitColumns)}
	m.ids = s.ids(m.table)
	m.opts.Method = []sqlparse.ExpandMethod{sqlparse.ExpandCrowd, sqlparse.ExpandSpace, sqlparse.ExpandHybrid}[r.Intn(3)]
	sql := fmt.Sprintf(`EXPAND TABLE %s ADD COLUMN %s BOOLEAN USING %s`, m.table, m.column, m.opts.Method)
	if m.opts.Method == sqlparse.ExpandCrowd && r.Intn(2) == 0 {
		m.opts.Budget = s.priceOf(1+r.Intn(len(m.ids)), m.opts)
		sql += " WITH BUDGET " + strconv.FormatFloat(m.opts.Budget, 'f', -1, 64)
	}
	_, _, m.err = s.db.ExecSQL(sql)
	s.logf("%s: %v", sql, m.err)
	if m.err != nil && !errors.Is(m.err, ErrSingleClass) {
		s.fatalf("%s: %v", sql, m.err)
	}
	s.book(&m)
}

// book sets the model of a finished member's column.
func (s *schedule) book(m *member) {
	soloFailed := false
	var cells map[int]bool
	switch m.opts.Method {
	case sqlparse.ExpandSpace:
		var err error
		cells, err = s.soloSpace(m)
		soloFailed = err != nil
		if errors.Is(m.err, ErrSingleClass) && !soloFailed {
			s.fatalf("%s.%s: %v, yet a solo run of it trained", m.table, m.column, m.err)
		}
	default:
		judged := m.ids
		if m.opts.Budget > 0 {
			s.budgeted++
			k := 0
			for k < len(judged) && s.priceOf(k+1, m.opts) <= m.opts.Budget {
				k++
			}
			judged = judged[:k]
		}
		cells = map[int]bool{}
		for _, id := range judged {
			cells[id] = detAnswer(m.column, id)
		}
	}
	if m.err != nil && !s.hybridFilled(m) {
		return
	}
	if soloFailed {
		s.fatalf("%s.%s expanded by SPACE, yet a solo run of it failed", m.table, m.column)
	}
	s.want[m.table][m.column] = cells
}

// hybridFilled reports whether m is a HYBRID job whose second round the
// key's cap refused after its first was charged once and filled the
// column with the crowd's answers, which the second round would have
// written again: the one failed job that may carry a charge.
func (s *schedule) hybridFilled(m *member) bool {
	if m.opts.Method != sqlparse.ExpandHybrid || m.job == nil || !errors.Is(m.err, ErrBudgetExceeded) || m.job.Status().Ledger.Charges != 1 {
		return false
	}
	got := cellsOf(s, s.db, m.table, m.column)
	for _, id := range m.ids {
		if v, ok := got[id]; !ok || v != detAnswer(m.column, id) {
			return false
		}
	}
	return true
}

// soloSpace expands m's column by SPACE on a database of its own, over a
// table holding m's items in m's order, with the same crowd and space,
// one expansion at a time, and returns its cells.
func (s *schedule) soloSpace(m *member) (map[int]bool, error) {
	db, err := Open(Options{Service: &detCrowd{}, Workers: 1})
	if err != nil {
		s.fatalf("%v", err)
	}
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE solo (movie_id INTEGER)`); err != nil {
		s.fatalf("%v", err)
	}
	tbl, _ := db.Catalog().Get("solo")
	for _, id := range m.ids {
		if err := tbl.Insert(storage.Int(int64(id))); err != nil {
			s.fatalf("%v", err)
		}
	}
	if err := db.AttachSpace("solo", "movie_id", s.sp); err != nil {
		s.fatalf("%v", err)
	}
	opts := m.opts
	opts.APIKey, opts.Origin = "", ""
	if _, err := db.Expand("solo", m.column, storage.KindBool, opts); err != nil {
		return nil, err
	}
	return cellsOf(s, db, "solo", m.column), nil
}

// cellsOf reads table.column by item id; a NULL cell is absent.
func cellsOf(s *schedule, db *DB, table, column string) map[int]bool {
	res, _, err := db.ExecSQL(fmt.Sprintf(`SELECT movie_id, %s FROM %s`, column, table))
	if err != nil {
		s.fatalf("%v", err)
	}
	cells := make(map[int]bool, len(res.Rows))
	for _, row := range res.Rows {
		id, _ := row[0].AsInt()
		if v, ok := row[1].AsBool(); ok {
			cells[int(id)] = v
		}
	}
	return cells
}

// check asserts the money invariants and every expanded column's cells.
func (s *schedule) check() {
	s.t.Helper()
	db := s.db
	total := db.Ledger()
	if calls := int(s.crowd.answered.Load()); total.Jobs != calls {
		s.fatalf("the ledger booked %d jobs for %d answered crowd calls", total.Jobs, calls)
	}
	shares, spent := 0.0, map[string]float64{}
	for _, st := range db.Jobs() {
		shares += st.Ledger.Cost
		spent[s.keyOf[st.ID]] += st.Ledger.Cost
		if s.failed[st.ID] && (st.Ledger.Charges != 0 || st.Ledger.Cost != 0) {
			s.fatalf("job %s failed (%s) yet was charged %+v", st.ID, st.Error, st.Ledger)
		}
	}
	if math.Abs(shares-total.Cost) > 1e-9 {
		s.fatalf("the job ledgers add up to $%.9f, the ledger to $%.9f", shares, total.Cost)
	}
	db.budgets.mu.Lock()
	for _, key := range schedKeys[1:] {
		got := db.budgets.spent[key]
		if math.Abs(got-spent[key]) > 1e-9 {
			db.budgets.mu.Unlock()
			s.fatalf("key %s spent $%.9f, its members' shares $%.9f", key, got, spent[key])
		}
		if limit, capped := db.budgets.caps[key]; capped && got > limit+1e-9 {
			db.budgets.mu.Unlock()
			s.fatalf("key %s spent $%.9f past its cap $%.9f", key, got, limit)
		}
	}
	reserved := len(db.budgets.reserved)
	db.budgets.mu.Unlock()
	if reserved != 0 {
		s.fatalf("%d keys still hold reservations", reserved)
	}

	for _, table := range schedTables {
		tbl, _ := db.Catalog().Get(table)
		columns := slices.Clone(explicitColumns)
		for _, c := range demandColumns {
			columns = append(columns, c.name)
		}
		for _, column := range columns {
			if _, ok := tbl.Schema().Lookup(column); !ok {
				continue
			}
			got, want := cellsOf(s, db, table, column), s.want[table][column]
			for _, id := range s.ids(table) {
				g, gok := got[id]
				w, wok := want[id]
				if g != w || gok != wok {
					s.fatalf("%s.%s of item %d is %s, want %s", table, column, id, cellText(g, gok), cellText(w, wok))
				}
			}
		}
	}
}

func cellText(v, ok bool) string {
	if !ok {
		return "NULL"
	}
	return strconv.FormatBool(v)
}
