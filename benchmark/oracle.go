package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	"crowddb/internal/core"
	"crowddb/internal/eval"
)

// reply is the part of a POST /v1/query response the oracle reads.
type reply struct {
	Rows      [][]any `json:"rows"`
	Affected  int     `json:"affected"`
	Expansion *struct {
		Method           string
		Filled, Unfilled int
	} `json:"expansion"`
}

// oracle recomputes answers in plain Go from the harness's own copy of
// the generated data.
type oracle struct {
	d *data
	// years is movies.year by movie_id, kept current with every
	// acknowledged UPDATE (absorb).
	years []int64
	// cols holds crowd-filled boolean columns of movies, read back once
	// after they were filled: 1 true, 0 false, -1 NULL.
	mu   sync.Mutex
	cols map[string][]int8
	// inserted and deleted are the acknowledged INSERTs (by rid) and the
	// number of acknowledged DELETEs.
	inserted map[int64]rating
	deleted  int
}

func newOracle(d *data) *oracle {
	return &oracle{d: d, years: append([]int64(nil), d.years...), cols: map[string][]int8{}, inserted: map[int64]rating{}}
}

// readColumn copies a filled boolean column of movies out of the store.
func readColumn(db *core.DB, column string) ([]int8, error) {
	tbl, ok := db.Catalog().Get("movies")
	if !ok {
		return nil, fmt.Errorf("oracle: no movies table")
	}
	ci, ok := tbl.Schema().Lookup(column)
	if !ok {
		return nil, fmt.Errorf("oracle: movies has no column %s", column)
	}
	out := make([]int8, tbl.NumRows())
	for r := range out {
		v, err := tbl.Value(r, ci)
		if err != nil {
			return nil, fmt.Errorf("oracle: movies[%d].%s: %w", r, column, err)
		}
		switch b, ok := v.AsBool(); {
		case !ok:
			out[r] = -1
		case b:
			out[r] = 1
		}
	}
	return out, nil
}

func (o *oracle) column(db *core.DB, name string) ([]int8, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if c, ok := o.cols[name]; ok {
		return c, nil
	}
	c, err := readColumn(db, name)
	if err == nil {
		o.cols[name] = c
	}
	return c, err
}

func num(v any) (float64, bool) { f, ok := v.(float64); return f, ok }

// rowsEqual compares a JSON-decoded result with the expected rows;
// numbers must match exactly, which float64 does for every integer and
// star rating the dataset holds.
func rowsEqual(got [][]any, want [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("row %d column %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func (o *oracle) ratingRows(lo, hi int64, limit int) [][]any {
	n := int64(len(o.d.ratings))
	if hi > n {
		hi = n
	}
	var rows [][]any
	for k := lo; k < hi && len(rows) < limit; k++ {
		r := o.d.ratings[k]
		rows = append(rows, []any{float64(r.rid), float64(r.movie), r.score})
	}
	return rows
}

func singleCount(got [][]any, want int) error {
	return rowsEqual(got, [][]any{{float64(want)}})
}

// check verifies one 2xx reply against the recomputed answer.
func (o *oracle) check(db *core.DB, res result) error {
	op := res.op
	if op.class.analytic() && len(o.inserted)+o.deleted > 0 {
		// The oracle's ratings are the loaded table. Once a run has written
		// to it (a traced run's probe after an ingest window), an analytic
		// reply is only required to succeed.
		return nil
	}
	if op.class == clsStream {
		return o.checkStream(op, res.body)
	}
	var rep reply
	if err := json.Unmarshal(res.body, &rep); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	switch op.class {
	case clsPoint:
		return rowsEqual(rep.Rows, o.ratingRows(op.a, op.a+1, 1))
	case clsRange:
		return rowsEqual(rep.Rows, o.ratingRows(op.a, op.a+rangeSpan, rangeLimit))
	case clsPerceptual, clsExpand:
		if op.class == clsExpand {
			if rep.Expansion == nil || rep.Expansion.Filled+rep.Expansion.Unfilled != len(o.years) {
				return fmt.Errorf("expansion report %+v does not cover %d rows", rep.Expansion, len(o.years))
			}
		}
		col, err := o.column(db, op.col)
		if err != nil {
			return err
		}
		var want [][]any
		for i := 0; i < len(col) && len(want) < percLimit; i++ {
			if col[i] == 1 && o.years[i] > op.a {
				want = append(want, []any{o.d.names[i]})
			}
		}
		return rowsEqual(rep.Rows, want)
	case clsFollowup:
		col, err := o.column(db, op.col)
		if err != nil {
			return err
		}
		n := 0
		for i := range col {
			if col[i] == 1 && o.years[i] > op.a {
				n++
			}
		}
		return singleCount(rep.Rows, n)
	case clsDirectCrowd:
		if rep.Expansion == nil || rep.Expansion.Method != "CROWD" || rep.Expansion.Filled+rep.Expansion.Unfilled != smallMovies {
			return fmt.Errorf("expansion report %+v is not a CROWD fill of %d rows", rep.Expansion, smallMovies)
		}
		return nil
	case clsScanAgg:
		n := 0
		for _, r := range o.d.ratings {
			if r.score > op.f && r.usr > op.b {
				n++
			}
		}
		return singleCount(rep.Rows, n)
	case clsJoin:
		n := 0
		for _, r := range o.d.ratings {
			if r.usr > op.b && o.years[r.movie] > op.a {
				n++
			}
		}
		return singleCount(rep.Rows, n)
	case clsTopN:
		var hit []rating
		for _, r := range o.d.ratings[op.a:] {
			if r.usr > op.b {
				hit = append(hit, r)
			}
		}
		// The engine documents ORDER BY as stable: ties keep table order.
		sort.SliceStable(hit, func(i, j int) bool { return hit[i].score > hit[j].score })
		var want [][]any
		for i := 0; i < len(hit) && i < topNLimit; i++ {
			want = append(want, []any{float64(hit[i].rid), float64(hit[i].usr), hit[i].score})
		}
		return rowsEqual(rep.Rows, want)
	case clsGroupBy:
		return o.checkGroupBy(op, rep.Rows)
	case clsInsert, clsUpdate:
		if rep.Affected != 1 {
			return fmt.Errorf("affected = %d, want 1", rep.Affected)
		}
	case clsDelete:
		if rep.Affected != deleteSpan {
			return fmt.Errorf("affected = %d, want %d", rep.Affected, deleteSpan)
		}
	}
	return nil
}

func (o *oracle) checkGroupBy(op op, got [][]any) error {
	type agg struct{ n, sum float64 }
	want := map[float64]*agg{}
	for _, r := range o.d.ratings[op.a:] {
		if r.usr > op.b {
			g := want[float64(r.movie)]
			if g == nil {
				g = &agg{}
				want[float64(r.movie)] = g
			}
			g.n++
			g.sum += r.score
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for _, row := range got {
		if len(row) != 3 {
			return fmt.Errorf("group row has %d columns, want 3", len(row))
		}
		key, _ := num(row[0])
		n, _ := num(row[1])
		avg, _ := num(row[2])
		g := want[key]
		if g == nil || n != g.n || math.Abs(avg-g.sum/g.n) > 1e-9 {
			return fmt.Errorf("group %v = (%v, %v), want %+v", row[0], row[1], row[2], g)
		}
		delete(want, key) // a repeated group must not pass twice
	}
	return nil
}

// checkStream verifies an NDJSON reply: header, every row, and a trailer
// that says done with the right row count.
func (o *oracle) checkStream(op op, body []byte) error {
	want := o.ratingRows(op.a, op.a+streamSpan, streamSpan)
	sc := bufio.NewScanner(bytes.NewReader(body))
	var rows [][]any
	done := false
	for i := 0; sc.Scan(); i++ {
		var line struct {
			Columns []string `json:"columns"`
			Row     []any    `json:"row"`
			Done    bool     `json:"done"`
			Rows    int      `json:"rows"`
			Error   string   `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("stream line %d: %w", i, err)
		}
		switch {
		case line.Error != "":
			return fmt.Errorf("stream error: %s", line.Error)
		case i == 0:
			if len(line.Columns) != 3 {
				return fmt.Errorf("stream header %v, want 3 columns", line.Columns)
			}
		case line.Done:
			if line.Rows != len(want) {
				return fmt.Errorf("trailer rows = %d, want %d", line.Rows, len(want))
			}
			done = true
		default:
			rows = append(rows, line.Row)
		}
	}
	if !done {
		return fmt.Errorf("stream ended without a done trailer")
	}
	return rowsEqual(rows, want)
}

// verdict accumulates what went wrong, for fail_frac and the log.
type verdict struct {
	attempted, failed int
	messages          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.messages) < 20 {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
}

// verifyResults counts every op as attempted and fails the ones that
// were refused, broke in transport, or answered wrongly; the kept
// analytic replies are recomputed here.
func (o *oracle) verifyResults(db *core.DB, v *verdict, results [][]result) {
	for _, rs := range results {
		for _, res := range rs {
			v.attempted++
			switch {
			case res.err != nil:
				v.fail("%s: %v", res.op.sql, res.err)
			case res.status/100 != 2:
				v.fail("%s: HTTP %d: %s", res.op.sql, res.status, bytes.TrimSpace(res.body))
			case res.body != nil:
				if err := o.check(db, res); err != nil {
					v.fail("%s: %v", res.op.sql, err)
				}
			}
		}
	}
}

// absorb folds one client's acknowledged writes, in send order, into
// what the oracle expects the database to hold. It must not run while
// clients are sending.
func (o *oracle) absorb(rs []result) {
	for _, res := range rs {
		if res.status != http.StatusOK {
			continue
		}
		switch op := res.op; op.class {
		case clsInsert:
			o.inserted[op.a] = rating{rid: op.a, movie: op.b, usr: op.c, score: op.f}
		case clsDelete:
			o.deleted++
		case clsUpdate:
			o.years[op.a] = op.b
		}
	}
}

func queryRows(db *core.DB, sql string) ([][]any, error) {
	res, _, err := db.ExecSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	rows := make([][]any, len(res.Rows))
	for i, r := range res.Rows {
		for _, v := range r {
			switch {
			case v.IsNull():
				rows[i] = append(rows[i], nil)
			default:
				if f, ok := v.AsFloat(); ok {
					rows[i] = append(rows[i], f)
				} else if n, ok := v.AsInt(); ok {
					rows[i] = append(rows[i], float64(n))
				} else if t, ok := v.AsText(); ok {
					rows[i] = append(rows[i], t)
				} else {
					b, _ := v.AsBool()
					rows[i] = append(rows[i], b)
				}
			}
		}
	}
	return rows, nil
}

// checkState verifies the stored tables against the acknowledged writes:
// the row count, every movie's year, and every inserted row readable.
func (o *oracle) checkState(db *core.DB, v *verdict, when string) {
	const countSQL = "SELECT COUNT(*) FROM ratings"
	rows, err := queryRows(db, countSQL)
	if err == nil {
		err = singleCount(rows, len(o.d.ratings)+len(o.inserted)-o.deleted*deleteSpan)
	}
	if err != nil {
		v.fail("%s (%s): %v", countSQL, when, err)
	}

	const yearsSQL = "SELECT movie_id, year FROM movies"
	rows, err = queryRows(db, yearsSQL)
	if err != nil || len(rows) != len(o.years) {
		v.fail("%s (%s): %d rows, %v", yearsSQL, when, len(rows), err)
	}
	for _, r := range rows {
		if id := int(r[0].(float64)); r[1] != float64(o.years[id]) {
			v.fail("%s (%s): movie %d has year %v, want %d", yearsSQL, when, id, r[1], o.years[id])
		}
	}

	insertedSQL := fmt.Sprintf("SELECT rid, movie_id, usr, score FROM ratings WHERE rid >= %d", len(o.d.ratings))
	rows, err = queryRows(db, insertedSQL)
	if err != nil || len(rows) != len(o.inserted) {
		v.fail("%s (%s): %d rows, want the %d acknowledged inserts, %v", insertedSQL, when, len(rows), len(o.inserted), err)
	}
	for _, r := range rows {
		w, ok := o.inserted[int64(r[0].(float64))]
		if !ok || r[1] != float64(w.movie) || r[2] != float64(w.usr) || r[3] != w.score {
			v.fail("%s (%s): row %v is not an acknowledged insert (%+v)", insertedSQL, when, r, w)
		}
	}
}

// ledgerView is GET /v1/ledger.
type ledgerView struct {
	Judgments int
	Cost      float64
	Jobs      int
	PerJob    []struct {
		ID        string  `json:"id"`
		State     string  `json:"state"`
		Judgments int     `json:"judgments"`
		Cost      float64 `json:"cost"`
		Charges   int     `json:"charges"`
	} `json:"per_job"`
}

const dollarsPerJudgment = 0.02 / 10 // $0.02 per HIT of 10 items

// checkLedger verifies the money: one finished job per expanded column,
// the total equal to the sum over jobs, and both equal to judgments ×
// price.
func checkLedger(v *verdict, led ledgerView, columns int) {
	if len(led.PerJob) != columns {
		v.fail("ledger: %d jobs for %d expanded columns", len(led.PerJob), columns)
	}
	var judgments int
	var cost float64
	for _, j := range led.PerJob {
		if j.State != "done" {
			v.fail("ledger: job %s is %s", j.ID, j.State)
		}
		judgments += j.Judgments
		cost += j.Cost
	}
	if judgments != led.Judgments || math.Abs(cost-led.Cost) > 1e-6 {
		v.fail("ledger: total (%d judgments, $%.4f) ≠ Σ jobs (%d, $%.4f)", led.Judgments, led.Cost, judgments, cost)
	}
	if want := float64(led.Judgments) * dollarsPerJudgment; math.Abs(led.Cost-want) > 1e-6 {
		v.fail("ledger: cost $%.4f ≠ %d judgments × $%.4f = $%.4f", led.Cost, led.Judgments, dollarsPerJudgment, want)
	}
}

// fillGMean scores every filled cell of the given movies columns against
// the universe's reference labels.
func (o *oracle) fillGMean(db *core.DB, columns []string) (float64, error) {
	var c eval.Confusion
	for _, name := range columns {
		col, err := o.column(db, name)
		if err != nil {
			return 0, err
		}
		ref := o.d.u.Categories[baseGenre(name)].Reference
		for i, v := range col {
			if v >= 0 {
				c.Observe(v == 1, ref[i])
			}
		}
	}
	return c.GMean(), nil
}
