package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crowddb/internal/engine"
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	rescache "crowddb/internal/workload/cache"
)

// The traced pass records spans from the harness, around its own calls
// into each layer's exported functions; nothing inside the program is
// instrumented. The root span of an op is the real request, served by
// Handler().ServeHTTP. Its child spans are replays: the same call on the
// same input, made right after the request returned (parse, plan,
// fingerprint and execute are pure for a SELECT; the expansion steps run
// on harness-owned copies of equal size). A replay's start and end are
// therefore its own, later than its parent's, and the span file marks it
// as a replay: spans nest by parent id, not by time. Self time is computed
// from durations, parent minus children. Because the replays run after
// the root span has ended, tracing adds nothing to the request it times.

const (
	tracedOps = 2000 // ops of the traced pass, at most
	// traceAliases are the alias columns per genre the traced pass of the
	// expansion workload may expand, beyond the window's maxAliases; one
	// more is kept for the class probe.
	traceAliases = 10
	phaseTrace   = "trace"
	phaseProbe   = "probe"
)

// span is one timed call. Parent 0 marks an op's root span, the request
// itself; every other span is a replay made after its root returned.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Replay  bool   `json:"replay"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer only
// times.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) span(name string, parent, op int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t == nil {
		return 0, d
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Replay: parent != 0,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: start.Sub(t.t0).Nanoseconds() + d.Nanoseconds()})
	return id, d
}

func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"workload": workload, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layers a traced op's time is attributed to, in print order.
var traceLayers = []string{"server", "core", "sqlparse", "engine.plan", "workload.cache", "engine.exec", "crowd", "svm", "storage"}

// passStats is what the traced pass measured: per-call durations in µs
// by span name, and the time attributed to each layer.
type passStats struct {
	calls     map[string][]float64 // span name → µs of each call
	layer     map[string]float64   // layer → µs of self time, summed
	total     float64              // µs of all traced root spans
	ops       int                  // traced ops
	roots     []float64            // ms of every traced root span
	results   []result
	cacheHits int
}

// traceOps is the traced pass's op list: the workload's own mix on a
// stream of its own, or, for the expansion workload, cycles on alias
// columns the window did not touch.
func (s *session) traceOps() func() (op, bool) {
	r := streamRand(s.cfg.seed, s.w.name, 0, phaseTrace)
	if s.w.draw != nil {
		g := s.gens[0].rephase(r)
		s.gens[0] = g // later phases continue its insert and delete cursors
		n := 0
		return func() (op, bool) { n++; return s.w.draw(g), n <= tracedOps }
	}
	genres := len(s.in.d.genres)
	return fromList(expandOps(r, s.in.d.genres, maxAliases*genres, traceAliases*genres))
}

// tracedPass runs ops one at a time through the in-process handler for
// at most budget, recording a root span per op and replaying its layer
// calls as child spans.
func (s *session) tracedPass(ctx context.Context, tr *tracer, budget time.Duration) *passStats {
	p := &passStats{calls: map[string][]float64{}, layer: map[string]float64{}}
	h, db, eng := s.in.srv.Handler(), s.in.db, s.in.db.Engine()
	mirror := rescache.New(0) // stands in for the DB's private result cache
	next := s.traceOps()
	deadline := time.Now().Add(budget)
	for i := 1; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		o, ok := next()
		if !ok {
			break
		}
		path, payload := queryRequest(o)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		hits := db.CacheStats().Hits
		root, dRoot := tr.span("server.ServeHTTP", 0, i, func() { h.ServeHTTP(rec, req) })
		hit := db.CacheStats().Hits > hits
		res := result{op: o, lat: dRoot, status: rec.Code, bytes: rec.Body.Len(), body: rec.Body.Bytes()}
		if res.status/100 == 2 && !(o.class.analytic() && i%verifyEvery != 0) {
			res.err = s.orc.check(db, res)
		}
		res.body = nil
		p.results = append(p.results, res)
		switch o.class {
		case clsInsert, clsDelete:
			mirror.InvalidateTable("ratings")
		case clsUpdate, clsExpand:
			mirror.InvalidateTable("movies")
		}
		if res.status != http.StatusOK || res.err != nil {
			continue // a failed op has nothing to replay; the verdict records it
		}
		if hit {
			p.cacheHits++
		}
		p.roots = append(p.roots, ms(dRoot))
		p.ops++
		p.total += us(dRoot)
		var attributed time.Duration
		add := func(layer string, d time.Duration) { p.layer[layer] += us(d); attributed += d }
		// call times one replayed call as a child span and books it to layer.
		call := func(layer, name string, parent int, fn func()) time.Duration {
			_, d := tr.span(name, parent, i, fn)
			p.calls[name] = append(p.calls[name], us(d))
			add(layer, d)
			return d
		}
		var stmt sqlparse.Statement
		parse := func(parent int) time.Duration {
			return call("sqlparse", "sqlparse.Parse", parent, func() { stmt, _ = sqlparse.Parse(o.sql) })
		}
		switch {
		case o.class == clsExpand:
			parse(root)
			x := s.probes.expansion(tr, root, i)
			if x.err != nil {
				s.rep.verdict.fail("traced pass: replaying the expansion of %s: %v", o.col, x.err)
			}
			add("crowd", x.runJob)
			add("svm", x.train+x.predict)
			add("storage", x.fill)
		case o.class == clsInsert || o.class == clsUpdate || o.class == clsDelete || o.class == clsDirectCrowd:
			parse(root)
		default: // a SELECT on existing columns: every layer call can be replayed
			exec, dExec := tr.span("core.ExecSQL", root, i, func() {
				if hit {
					_, _, _ = db.ExecSQL(o.sql) // a hit again; the request already checked the answer
				} else {
					_, _, _ = db.ExecSQLNoCache(o.sql) // the miss path, without a second Put
				}
			})
			children := parse(exec)
			sel, _ := stmt.(*sqlparse.SelectStmt)
			var pl *plan.SelectPlan
			var err error
			children += call("engine.plan", "engine.PlanSelect", exec, func() { pl, err = eng.PlanSelect(sel) })
			if err != nil {
				s.rep.verdict.fail("traced pass: replaying the plan of %s: %v", o.sql, err)
				continue
			}
			var fp string
			children += call("engine.plan", "plan.Fingerprint", exec, func() { fp = pl.Fingerprint() })
			children += call("workload.cache", "cache.Get", exec, func() { mirror.Get(fp) })
			if !hit {
				var out *engine.Result
				children += call("engine.exec", "engine.ExecPlan", exec, func() { out, _ = engine.ExecPlan(pl) })
				if out != nil {
					mirror.Put(fp, mirror.TableSeqs(pl.Tables()), out.Columns, out.Rows)
				}
			}
			p.calls["core.self"] = append(p.calls["core.self"], us(dExec-children))
			add("core", dExec-children)
			p.calls["server.self"] = append(p.calls["server.self"], us(dRoot-dExec))
			add("server", dRoot-dExec)
		}
		p.layer["unattributed"] += us(dRoot - attributed)
	}
	return p
}

// traced is everything a traced run adds after the window: the traced
// pass, the class probe, the layer probes, and the per-layer metrics
// that come out of them and of the window's counters.
func (s *session) traced(ctx context.Context, win *window) error {
	s.probes = newLayerProbes(s.in.d, s.cfg.work)
	tr := &tracer{t0: time.Now()}
	pass := s.tracedPass(ctx, tr, time.Duration(s.cfg.seconds/2*float64(time.Second)))
	s.account([][]result{pass.results})
	if err := tr.write(filepath.Join(s.cfg.out, "trace-"+s.w.name+".json"), s.w.name); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	probe, err := s.classProbe(ctx)
	if err != nil {
		return err
	}
	micro, err := s.probes.run(s.in.db, s.in.opts.DataDir, s.gens[0])
	if err != nil {
		return err
	}
	s.perLayer(ctx, win, pass, probe, micro)
	return nil
}

func medianOf(m map[string][]float64, name string) float64 { return median(m[name]) }

// perLayer emits every per-layer metric, in BENCHMARK.json's order.
func (s *session) perLayer(ctx context.Context, win *window, pass *passStats, probe *classProbe, micro map[string]float64) {
	rep := s.rep
	d := func(name string, labels ...string) float64 {
		return sumSeries(win.prom[1], name, labels...) - sumSeries(win.prom[0], name, labels...)
	}
	all, byClass := latencies(win.results)
	ops := float64(max(len(all), 1))

	// server
	rep.layer("server.self_us_per_op", medianOf(pass.calls, "server.self"), "us")
	rep.layer("server.stream_rows_per_s", streamSpan/(classP50(byClass, probe, clsStream)/1000), "1/s")
	var respBytes float64
	for _, rs := range win.results {
		for _, r := range rs {
			respBytes += float64(r.bytes)
		}
	}
	rep.layer("server.resp_bytes_per_op", respBytes/ops, "B")
	rep.layer("server.http_4xx", d("crowdserve_http_requests_total", `status_class="4xx"`), "count")
	rep.layer("server.http_5xx", d("crowdserve_http_requests_total", `status_class="5xx"`), "count")
	rep.layer("server.lat_p99_ms", percentile(all, 99), "ms")
	for c := class(0); c < numClasses; c++ {
		rep.layer("server."+c.String()+".p50_ms", classP50(byClass, probe, c), "ms")
	}

	// core
	rep.layer("core.self_us_per_op", medianOf(pass.calls, "core.self"), "us")
	for _, ph := range []struct{ metric, label, span string }{
		{"core.phase_parse_s", "parse", "sqlparse.Parse"},
		{"core.phase_plan_s", "plan", "engine.PlanSelect"},
		{"core.phase_cache_s", "cache_lookup", "cache.Get"},
		{"core.phase_execute_s", "execute", "engine.ExecPlan"},
	} {
		label := fmt.Sprintf(`phase=%q`, ph.label)
		sum, n := d("crowddb_query_phase_seconds_sum", label), d("crowddb_query_phase_seconds_count", label)
		rep.layer(ph.metric, sum, "s")
		// The program's own phase timer and the harness's span time the same
		// call; their means should agree.
		if t := mean(pass.calls[ph.span]); n > 0 && t > 0 {
			if m := sum / n * 1e6; m > 1.2*t || t > 1.2*m {
				rep.warnings = append(rep.warnings, fmt.Sprintf(
					"%s: the program's histogram says %.2f us per call in the window, the traced pass %.2f us (%s)", ph.metric, m, t, ph.span))
			}
		}
	}
	for _, ph := range []string{"sampling", "training", "filling"} {
		rep.layer("core.expansion_"+ph+"_s", d("crowddb_expansion_phase_seconds_sum", fmt.Sprintf(`phase=%q`, ph)), "s")
	}

	rep.layer("sqlparse.parse_us_per_op", medianOf(pass.calls, "sqlparse.Parse"), "us")
	rep.layer("engine.plan.plan_us_per_op", medianOf(pass.calls, "engine.PlanSelect"), "us")
	rep.layer("engine.plan.fingerprint_us_per_op", medianOf(pass.calls, "plan.Fingerprint"), "us")

	for _, name := range []string{"scan_agg_ms", "topn_ms", "groupby_ms", "join_ms", "dml_scan_ms"} {
		rep.layer("engine.exec."+name, micro["engine.exec."+name], "ms")
	}
	rep.layer("engine.exec.rows_per_s", micro["engine.exec.rows_per_s"], "1/s")
	rep.layer("storage.cursor_ns_per_row", micro["storage.cursor_ns_per_row"], "ns")
	rep.layer("storage.pred_cursor_ns_per_row", micro["storage.pred_cursor_ns_per_row"], "ns")
	rep.layer("storage.insert_us_per_row", micro["storage.insert_us_per_row"], "us")
	rep.layer("storage.fill_column_ms", micro["storage.fill_column_ms"], "ms")
	rep.layer("storage.chunk_seals", d("crowddb_storage_chunk_seals_total"), "count")
	rep.layer("storage.tombstones", d("crowddb_storage_tombstones_total"), "count")
	rep.layer("storage.compaction_runs", d("crowddb_storage_compaction_runs_total"), "count")
	rep.layer("storage.compaction_rows_reclaimed", d("crowddb_storage_compaction_rows_reclaimed_total"), "count")
	rep.layer("storage.compact_ms", ms(probe.compact), "ms")
	rep.layer("storage.load_s", s.in.loadS, "s")

	rep.layer("index.probe_ns", micro["index.probe_ns"], "ns")
	rep.layer("index.maintain_ns_per_insert", micro["index.maintain_ns_per_insert"], "ns")

	rep.layer("wal.append_us", micro["wal.append_us"], "us")
	rep.layer("wal.appends", d("crowddb_wal_appends_total"), "count")
	rep.layer("wal.fsyncs", d("crowddb_wal_fsync_seconds_count"), "count")
	rep.layer("wal.rotations", d("crowddb_wal_segment_rotations_total"), "count")
	rep.layer("wal.bytes_per_user_byte", probe.walBytesPerUserByte, "ratio")
	rep.layer("wal.replay_records_per_s", micro["wal.replay_records_per_s"], "1/s")
	rep.layer("wal.snapshot_write_s", s.in.snapshotS, "s")
	rep.layer("wal.snapshot_bytes", float64(s.in.snapshotBytes), "B")

	rep.layer("workload.cache.hit_ratio", hitRatio(win.cache), "ratio")
	rep.layer("workload.cache.invalidations", float64(win.cache[1].Invalidations-win.cache[0].Invalidations), "count")
	rep.layer("workload.cache.evictions", float64(win.cache[1].Evictions-win.cache[0].Evictions), "count")
	rep.layer("workload.cache.bytes", float64(win.cache[1].Bytes), "B")
	rep.layer("workload.cache.get_ns", micro["workload.cache.get_ns"], "ns")
	rep.layer("workload.cache.put_ns", micro["workload.cache.put_ns"], "ns")

	wait, run := s.jobTimes(ctx)
	rep.layer("jobs.queue_wait_ms", wait, "ms")
	rep.layer("jobs.run_ms", run, "ms")
	rep.layer("jobs.done", d("crowddb_jobs_total", `state="done"`), "count")
	rep.layer("jobs.failed", d("crowddb_jobs_total", `state="failed"`), "count")

	rep.layer("crowd.run_job_ms", micro["crowd.run_job_ms"], "ms")
	rep.layer("crowd.direct_run_job_ms", micro["crowd.direct_run_job_ms"], "ms")
	rep.layer("crowd.judgments", d("crowddb_crowd_judgments_total"), "count")
	rep.layer("crowd.charges", d("crowddb_crowd_charges_total"), "count")
	rep.layer("crowd.dollars", d("crowddb_crowd_cost_dollars_total"), "usd")

	rep.layer("svm.train_ms", micro["svm.train_ms"], "ms")
	rep.layer("svm.predict_all_ms", micro["svm.predict_all_ms"], "ms")
	rep.layer("svm.support_vectors", micro["svm.support_vectors"], "count")

	rep.layer("space.train_s", s.in.d.trainS, "s")
	rep.layer("dataset.generate_s", s.in.d.generateS, "s")

	rep.layer("runtime.gc_cycles", float64(win.mem[1].NumGC-win.mem[0].NumGC), "count")
	rep.layer("runtime.gc_pause_ms", float64(win.mem[1].PauseTotalNs-win.mem[0].PauseTotalNs)/1e6, "ms")
	cpu := func(i int) float64 {
		return float64(win.ru[i].Utime.Nano()+win.ru[i].Stime.Nano()) / 1e9
	}
	rep.layer("runtime.cpu_s_per_kop", (cpu(1)-cpu(0))/ops*1000, "s")

	// Where a traced op's time went, and what the spans do not explain.
	rep.note("trace.ops", float64(pass.ops), "count")
	rep.note("trace.cache_hits", float64(pass.cacheHits), "count")
	rep.note("trace.op_us_total", pass.total, "us")
	for _, l := range append(traceLayers, "unattributed") {
		rep.note("trace.share."+l, pass.layer[l]/max(pass.total, 1), "ratio")
	}
	// Tracing overhead, as traced minus untraced median latency. The
	// replays run after the root span ended, so spans cost the request
	// nothing; what the difference shows is the transport the traced pass
	// skips (in-process recorder, one client) against the window's (TCP,
	// the workload's clients).
	traced, untraced := median(pass.roots), percentile(all, 50)
	rep.note("trace.traced_p50_ms", traced, "ms")
	rep.note("trace.untraced_p50_ms", untraced, "ms")
	rep.note("trace.overhead_ms", traced-untraced, "ms")
}

// classP50 is a class's median client-observed latency: the window's if
// the workload sent the class at least ten times, else the probe's.
func classP50(window [numClasses][]float64, probe *classProbe, c class) float64 {
	if len(window[c]) >= 10 {
		return percentile(window[c], 50)
	}
	return percentile(probe.byClass[c], 50)
}

// jobTimes is the median queue wait (created → started, batch window
// included) and run time (started → finished) over every finished job.
func (s *session) jobTimes(ctx context.Context) (waitMS, runMS float64) {
	var jobs []struct {
		Created, Started, Finished time.Time
	}
	body, err := getBody(ctx, s.hc, s.in.url+"/v1/jobs")
	if err == nil {
		err = json.Unmarshal(body, &jobs)
	}
	if err != nil {
		s.rep.verdict.fail("GET /v1/jobs: %v", err)
		return 0, 0
	}
	var waits, runs []float64
	for _, j := range jobs {
		if !j.Finished.IsZero() {
			waits = append(waits, ms(j.Started.Sub(j.Created)))
			runs = append(runs, ms(j.Finished.Sub(j.Started)))
		}
	}
	sort.Float64s(waits)
	return median(waits), median(runs)
}
