package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/engine"
	"crowddb/internal/index"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/svm"
	"crowddb/internal/wal"
	rescache "crowddb/internal/workload/cache"
)

// layerProbes time single layers through their exported functions, on
// fixtures the harness owns, so that no probe disturbs the served
// database's state or its crowd's random stream.
type layerProbes struct {
	d    *data
	dir  string // scratch for the WAL probes
	pop  *crowd.Population
	rng  *rand.Rand
	vecs [][]float64 // every movie's coordinates in the space
}

const (
	probeReps    = 5    // repetitions of a probe that takes milliseconds
	probeRows    = 5000 // rows or calls of a probe that takes microseconds
	sampleItems  = 4 * samplesPerCls
	sampleAssign = 5  // judgments per item of a SPACE training sample
	directAssign = 10 // judgments per item of a direct-crowd fill
)

func newLayerProbes(d *data, dir string) *layerProbes {
	rng := rand.New(rand.NewSource(dataSeed))
	p := &layerProbes{d: d, dir: dir, rng: rng,
		pop: crowd.NewPopulation(crowd.PopulationConfig{Workers: crowdWorkers}, rng)}
	for i := 0; i < d.sp.NumItems(); i++ {
		p.vecs = append(p.vecs, d.sp.Vector(i))
	}
	return p
}

func jobConfig(assignments int) crowd.JobConfig {
	return crowd.JobConfig{ItemsPerHIT: 10, AssignmentsPerItem: assignments, PayPerHIT: 0.02, JudgmentsPerMinute: 95}
}

// runJob times crowd.RunJob over an evenly spread sample of n movies.
func (p *layerProbes) runJob(n, assignments int) (time.Duration, *crowd.RunResult, error) {
	models, err := p.d.u.CrowdItems(p.d.genres[0])
	if err != nil {
		return 0, nil, err
	}
	items := make([]crowd.Item, n)
	for i := range items {
		items[i] = models[i*len(models)/n]
	}
	start := time.Now()
	res, err := crowd.RunJob(p.pop, items, jobConfig(assignments), p.rng)
	return time.Since(start), res, err
}

// movieTable builds a scratch copy of the movies table.
func (p *layerProbes) movieTable() (*storage.Table, error) {
	schema, err := storage.NewSchema(
		storage.Column{Name: "movie_id", Kind: storage.KindInt},
		storage.Column{Name: "name", Kind: storage.KindText},
		storage.Column{Name: "year", Kind: storage.KindInt})
	if err != nil {
		return nil, err
	}
	tbl, err := storage.NewCatalog().Create("movies", schema)
	if err != nil {
		return nil, err
	}
	for i := range p.d.names {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(p.d.names[i]), storage.Int(p.d.years[i])); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// expansionTimes are the steps of one SPACE expansion, replayed.
type expansionTimes struct {
	runJob, train, predict, fill time.Duration
	supportVectors               int
	err                          error
}

// expansion replays what one SPACE expansion computes — the crowd job
// for the training sample, the SVM fit, the prediction of every movie,
// the column fill — and records each step as a child span of parent.
func (p *layerProbes) expansion(tr *tracer, parent, op int) (x expansionTimes) {
	var res *crowd.RunResult
	_, x.runJob = tr.span("crowd.RunJob", parent, op, func() { _, res, x.err = p.runJob(sampleItems, sampleAssign) })
	if x.err != nil {
		return x
	}
	var X [][]float64
	var y []bool
	for id, label := range crowd.MajorityVote(res.Records).Label {
		X, y = append(X, p.vecs[id]), append(y, label)
	}
	var model *svm.SVC
	_, x.train = tr.span("svm.TrainSVC", parent, op, func() { model, x.err = svm.TrainSVC(X, y, svm.SVCConfig{C: 2}) })
	if x.err != nil {
		return x
	}
	x.supportVectors = model.NumSupport()
	var labels []bool
	_, x.predict = tr.span("svm.PredictAll", parent, op, func() { labels = model.PredictAll(p.vecs) })
	tbl, err := p.movieTable()
	if err != nil {
		x.err = err
		return x
	}
	vals := make([]storage.Value, len(labels))
	for i, l := range labels {
		vals[i] = storage.Bool(l)
	}
	_, x.fill = tr.span("storage.FillColumn", parent, op, func() {
		if _, x.err = tbl.AddColumn(storage.Column{Name: "filled", Kind: storage.KindBool, Perceptual: true}); x.err == nil {
			x.err = tbl.FillColumn("filled", vals)
		}
	})
	return x
}

func drain(cur *storage.Cursor) (int, error) {
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			return n, cur.Err()
		}
		n++
	}
}

// scratchInsert loads probeRows ratings into a journal-less catalog,
// with or without an index on rid, and returns the time per row.
func (p *layerProbes) scratchInsert(indexed bool) (time.Duration, error) {
	schema, err := storage.NewSchema(
		storage.Column{Name: "rid", Kind: storage.KindInt}, storage.Column{Name: "movie_id", Kind: storage.KindInt},
		storage.Column{Name: "usr", Kind: storage.KindInt}, storage.Column{Name: "score", Kind: storage.KindFloat})
	if err != nil {
		return 0, err
	}
	tbl, err := storage.NewCatalog().Create("ratings", schema)
	if err != nil {
		return 0, err
	}
	if indexed {
		idx, err := index.New(index.KindOrdered, "r_rid", "rid")
		if err == nil {
			err = tbl.AttachIndex(idx)
		}
		if err != nil {
			return 0, err
		}
	}
	rows := p.d.ratings[:min(probeRows, len(p.d.ratings))]
	start := time.Now()
	for _, r := range rows {
		if err := tbl.Insert(storage.Int(r.rid), storage.Int(r.movie), storage.Int(r.usr), storage.Float(r.score)); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(rows)), nil
}

// medianDuration runs fn reps times and returns the median of what it
// reports.
func medianDuration(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs)), nil
}

// execPlanMS is the median engine.ExecPlan time of probeReps draws of
// one analytic class.
func execPlanMS(db *core.DB, draw func() op) (float64, error) {
	d, err := medianDuration(probeReps, func() (time.Duration, error) {
		stmt, err := sqlparse.Parse(draw().sql)
		if err != nil {
			return 0, err
		}
		pl, err := db.Engine().PlanSelect(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = engine.ExecPlan(pl)
		return time.Since(start), err
	})
	return ms(d), err
}

// run times every layer probe and returns the results by metric name.
func (p *layerProbes) run(db *core.DB, dataDir string, g *gen) (map[string]float64, error) {
	m := map[string]float64{}
	ratings, ok := db.Catalog().Get("ratings")
	if !ok {
		return nil, fmt.Errorf("probes: no ratings table")
	}

	// engine.exec: the executor alone, on plans the harness built.
	var err error
	for name, draw := range map[string]func() op{
		"engine.exec.scan_agg_ms": g.scanAgg, "engine.exec.topn_ms": g.topN,
		"engine.exec.groupby_ms": g.groupBy, "engine.exec.join_ms": g.join,
	} {
		if m[name], err = execPlanMS(db, draw); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	m["engine.exec.rows_per_s"] = float64(ratings.NumRows()) / (m["engine.exec.scan_agg_ms"] / 1000)
	// A DELETE that matches nothing still plans a full scan of ratings.
	noop, err := sqlparse.Parse("DELETE FROM ratings WHERE rid < 0")
	if err != nil {
		return nil, err
	}
	d, err := medianDuration(probeReps, func() (time.Duration, error) {
		start := time.Now()
		_, err := db.Engine().Exec(noop)
		return time.Since(start), err
	})
	if err != nil {
		return nil, fmt.Errorf("engine.exec.dml_scan_ms: %w", err)
	}
	m["engine.exec.dml_scan_ms"] = ms(d)

	// storage: cursors over the served ratings table, inserts and a column
	// fill on scratch tables.
	for name, preds := range map[string][]storage.Pred{
		"storage.cursor_ns_per_row":      nil,
		"storage.pred_cursor_ns_per_row": {{Col: 3, Op: storage.PredGt, Val: storage.Float(3.5)}},
	} {
		d, err := medianDuration(probeReps, func() (time.Duration, error) {
			cur := ratings.NewCursor(4096)
			cur.SetPreds(preds)
			start := time.Now()
			_, err := drain(cur)
			return time.Since(start), err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		m[name] = float64(d) / float64(ratings.NumRows())
	}
	plain, err := medianDuration(probeReps, func() (time.Duration, error) { return p.scratchInsert(false) })
	if err != nil {
		return nil, fmt.Errorf("storage.insert_us_per_row: %w", err)
	}
	indexed, err := medianDuration(probeReps, func() (time.Duration, error) { return p.scratchInsert(true) })
	if err != nil {
		return nil, fmt.Errorf("index.maintain_ns_per_insert: %w", err)
	}
	m["storage.insert_us_per_row"] = us(plain)
	m["index.maintain_ns_per_insert"] = float64(indexed - plain)

	// index: point probes of r_rid, the index the point lookups use, over
	// the lower half of the loaded rids (no phase deletes from it).
	start := time.Now()
	for i := 0; i < probeRows; i++ {
		key := storage.Int(p.d.ratings[i*(len(p.d.ratings)/2)/probeRows].rid)
		snap, ids, err := ratings.PinIndexProbe("r_rid", storage.IndexProbe{Point: &key})
		if err != nil || len(ids) != 1 {
			return nil, fmt.Errorf("index.probe_ns: rid %v matched %d rows, %v", key, len(ids), err)
		}
		snap.Release()
	}
	m["index.probe_ns"] = float64(time.Since(start)) / probeRows

	// expansion steps: crowd, svm, column fill.
	var runJob, train, predict, fill []float64
	for i := 0; i < probeReps; i++ {
		x := p.expansion(nil, 0, 0)
		if x.err != nil {
			return nil, fmt.Errorf("expansion probe: %w", x.err)
		}
		runJob, train = append(runJob, ms(x.runJob)), append(train, ms(x.train))
		predict, fill = append(predict, ms(x.predict)), append(fill, ms(x.fill))
		m["svm.support_vectors"] = float64(x.supportVectors)
	}
	m["crowd.run_job_ms"], m["svm.train_ms"] = median(runJob), median(train)
	m["svm.predict_all_ms"], m["storage.fill_column_ms"] = median(predict), median(fill)
	d, err = medianDuration(probeReps, func() (time.Duration, error) {
		d, _, err := p.runJob(smallMovies, directAssign)
		return d, err
	})
	if err != nil {
		return nil, fmt.Errorf("crowd.direct_run_job_ms: %w", err)
	}
	m["crowd.direct_run_job_ms"] = ms(d)

	// workload.cache: a cache of the harness's own, one small row per entry.
	c := rescache.New(0)
	seqs := c.TableSeqs([]string{"ratings"})
	keys := make([]string, probeRows)
	for i := range keys {
		keys[i] = fmt.Sprintf("select|ratings|rid=%d", i)
	}
	row := []storage.Row{{storage.Int(1), storage.Int(2), storage.Float(3)}}
	cols := []string{"rid", "movie_id", "score"}
	start = time.Now()
	for _, k := range keys {
		c.Put(k, seqs, cols, row)
	}
	m["workload.cache.put_ns"] = float64(time.Since(start)) / probeRows
	start = time.Now()
	for _, k := range keys {
		if _, _, ok := c.Get(k); !ok {
			return nil, fmt.Errorf("workload.cache.get_ns: %s missing", k)
		}
	}
	m["workload.cache.get_ns"] = float64(time.Since(start)) / probeRows

	if err := p.walProbes(m, dataDir); err != nil {
		return nil, err
	}
	return m, nil
}

// walProbes times appends of a representative insert record to a scratch
// log (fsync off, as served), and a replay of a copy of the served log.
func (p *layerProbes) walProbes(m map[string]float64, dataDir string) error {
	scratch, err := os.MkdirTemp(p.dir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	w, err := wal.Open(scratch, wal.Options{})
	if err != nil {
		return err
	}
	rec := storage.Op{Kind: storage.OpInsert, Table: "ratings",
		Values: []storage.Value{storage.Int(1), storage.Int(2), storage.Int(3), storage.Float(4)}}
	start := time.Now()
	for i := 0; i < probeRows; i++ {
		if _, err := w.Append("op", rec); err != nil {
			return fmt.Errorf("wal.append_us: %w", errors.Join(err, w.Close()))
		}
	}
	m["wal.append_us"] = us(time.Since(start)) / probeRows
	if err := w.Close(); err != nil {
		return err
	}

	// The served log is idle now; give its flusher a beat, then copy it.
	time.Sleep(50 * time.Millisecond)
	copyDir, err := os.MkdirTemp(p.dir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(copyDir)
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(dataDir, e.Name()), filepath.Join(copyDir, e.Name())); err != nil {
				return err
			}
		}
	}
	start = time.Now()
	w, err = wal.Open(copyDir, wal.Options{})
	if err != nil {
		return err
	}
	records := 0
	err = w.Replay(func(wal.Record) error { records++; return nil })
	elapsed := time.Since(start)
	if err := errors.Join(err, w.Close()); err != nil {
		return fmt.Errorf("wal.replay_records_per_s: %w", err)
	}
	m["wal.replay_records_per_s"] = float64(records) / elapsed.Seconds()
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	return errors.Join(err, out.Close())
}
