package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// class is the kind of statement an op sends; latencies are grouped by it.
type class int

const (
	clsPoint class = iota
	clsRange
	clsPerceptual
	clsScanAgg
	clsTopN
	clsGroupBy
	clsJoin
	clsStream
	clsInsert
	clsUpdate
	clsDelete
	clsExpand
	clsFollowup
	clsDirectCrowd
	numClasses
)

var classNames = [numClasses]string{
	"point", "range", "perceptual", "scan_agg", "topn", "groupby", "join",
	"stream", "insert", "update", "delete", "expand", "followup", "direct_crowd",
}

func (c class) String() string { return classNames[c] }

// op is one statement plus the literals the oracle recomputes it from.
type op struct {
	class   class
	sql     string
	a, b, c int64   // class-specific integer literals
	f       float64 // score literal of scan_agg; score of insert
	col     string  // boolean column of perceptual / expand / followup / direct_crowd
}

const (
	zipfS       = 1.1
	rangeSpan   = 50
	rangeLimit  = 20
	percLimit   = 20
	topNLimit   = 10
	streamSpan  = 5000
	deleteSpan  = 200
	followups   = 3
	directEvery = 20 // expansion cycles per direct-crowd EXPAND
	yearLo      = 1950
	yearHi      = 2010
)

// streamRand derives the RNG of one (seed, workload, client, phase)
// stream. Warm-up and window use different phases, so a window never
// replays its warm-up's literals out of the result cache.
func streamRand(seed int64, workload string, client int, phase string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d/%s", seed, workload, client, phase)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// gen draws one client's ops for a serving workload.
type gen struct {
	r        *rand.Rand
	zipf     *rand.Zipf
	genres   []string
	nRatings int64 // rows loaded at set-up
	nMovies  int64
	nUsers   int64
	zipfOver int64 // point and range keys are drawn from [0, zipfOver)
	client   int
	clients  int

	inserts int64 // this client's inserts so far
	deletes int64 // this client's deletes so far
}

// rephase continues g's key allocation (insert and delete cursors) on a
// fresh RNG stream: the window after the warm-up.
func (g *gen) rephase(r *rand.Rand) *gen {
	c := *g
	c.r, c.zipf = r, rand.NewZipf(r, zipfS, 1, uint64(g.zipfOver-1))
	return &c
}

func (g *gen) point() op {
	k := int64(g.zipf.Uint64())
	return op{class: clsPoint, a: k,
		sql: fmt.Sprintf("SELECT rid, movie_id, score FROM ratings WHERE rid = %d", k)}
}

func (g *gen) rng() op {
	k := int64(g.zipf.Uint64())
	return op{class: clsRange, a: k, sql: fmt.Sprintf(
		"SELECT rid, movie_id, score FROM ratings WHERE rid >= %d AND rid < %d LIMIT %d", k, k+rangeSpan, rangeLimit)}
}

func (g *gen) year() int64 { return yearLo + g.r.Int63n(yearHi-yearLo) }

func perceptualOp(cls class, col string, y int64) op {
	return op{class: cls, col: col, a: y, sql: fmt.Sprintf(
		"SELECT name FROM movies WHERE %s = true AND year > %d LIMIT %d", col, y, percLimit)}
}

func (g *gen) perceptual() op {
	return perceptualOp(clsPerceptual, g.genres[g.r.Intn(len(g.genres))], g.year())
}

// servePoint: 60 % point, 20 % short range, 20 % the paper's query on a
// filled column.
func (g *gen) servePoint() op {
	switch p := g.r.Intn(100); {
	case p < 60:
		return g.point()
	case p < 80:
		return g.rng()
	default:
		return g.perceptual()
	}
}

func (g *gen) scanAgg() op {
	f, usr := float64(g.r.Intn(4000))/1000+0.5, g.r.Int63n(g.nUsers)
	return op{class: clsScanAgg, f: f, b: usr, sql: fmt.Sprintf(
		"SELECT COUNT(*) FROM ratings WHERE score > %.3f AND usr > %d", f, usr)}
}

func (g *gen) topN() op {
	usr, rid := g.r.Int63n(g.nUsers), g.r.Int63n(g.nRatings/2)
	return op{class: clsTopN, a: rid, b: usr, sql: fmt.Sprintf(
		"SELECT rid, usr, score FROM ratings WHERE usr > %d AND rid >= %d ORDER BY score DESC LIMIT %d", usr, rid, topNLimit)}
}

func (g *gen) groupBy() op {
	usr, rid := g.r.Int63n(g.nUsers), g.r.Int63n(g.nRatings/2)
	return op{class: clsGroupBy, a: rid, b: usr, sql: fmt.Sprintf(
		"SELECT movie_id, COUNT(*), AVG(score) FROM ratings WHERE usr > %d AND rid >= %d GROUP BY movie_id", usr, rid)}
}

func (g *gen) join() op {
	usr, y := g.r.Int63n(g.nUsers), g.year()
	return op{class: clsJoin, a: y, b: usr, sql: fmt.Sprintf(
		"SELECT COUNT(*) FROM ratings r JOIN movies m ON r.movie_id = m.movie_id WHERE m.year > %d AND r.usr > %d", y, usr)}
}

func (g *gen) stream() op {
	k := g.r.Int63n(g.nRatings - streamSpan)
	return op{class: clsStream, a: k, sql: fmt.Sprintf(
		"SELECT rid, movie_id, score FROM ratings WHERE rid >= %d AND rid < %d", k, k+streamSpan)}
}

// analyticScan: 30 % filtered count, 15 % TopN, 30 % GROUP BY, 15 % join,
// 10 % NDJSON stream. Literals come from domains of ≥ 60 000 values, so
// the result cache cannot answer (hit ratio stays below 2 %). The shares
// put both reported percentiles where latencies are dense: p50 in the
// middle of the TopN/join/stream block (ranks 30–70 %), p95 inside the
// GROUP BYs (70–100 %). A percentile in the gap between two classes jumps
// from run to run.
func (g *gen) analyticScan() op {
	switch p := g.r.Intn(100); {
	case p < 30:
		return g.scanAgg()
	case p < 45:
		return g.topN()
	case p < 75:
		return g.groupBy()
	case p < 90:
		return g.join()
	default:
		return g.stream()
	}
}

// The write ops keep every answer decidable under concurrency by giving
// each client its own keys: client c inserts rids ≡ c (mod clients) above
// the loaded rows, updates movie_ids ≡ c, and deletes successive 200-row
// spans of its own slice of the upper half of the loaded rids.

func (g *gen) insert() op {
	rid := g.nRatings + g.inserts*int64(g.clients) + int64(g.client)
	g.inserts++
	movie, usr, score := g.r.Int63n(g.nMovies), g.r.Int63n(g.nUsers), float64(1+g.r.Intn(5))
	return op{class: clsInsert, a: rid, b: movie, c: usr, f: score, sql: fmt.Sprintf(
		"INSERT INTO ratings VALUES (%d, %d, %d, %.1f)", rid, movie, usr, score)}
}

func (g *gen) update() op {
	m := g.r.Int63n(g.nMovies/int64(g.clients))*int64(g.clients) + int64(g.client)
	y := g.year()
	return op{class: clsUpdate, a: m, b: y,
		sql: fmt.Sprintf("UPDATE movies SET year = %d WHERE movie_id = %d", y, m)}
}

// delete reports false once the client's slice is used up: nothing is
// left that is safe to delete.
func (g *gen) delete() (op, bool) {
	slice := g.nRatings / 2 / int64(g.clients)
	if (g.deletes+1)*deleteSpan > slice {
		return op{}, false
	}
	k := g.nRatings/2 + int64(g.client)*slice + g.deletes*deleteSpan
	g.deletes++
	return op{class: clsDelete, a: k,
		sql: fmt.Sprintf("DELETE FROM ratings WHERE rid >= %d AND rid < %d", k, k+deleteSpan)}, true
}

// ingestMixed: 55 % insert, 8 % update, 0.5 % delete, 36.5 % point
// lookup. Lookups draw from the lower half of the loaded rids only
// (zipfHalf), which nothing deletes. With 8 % updates p95 lies inside the
// updates' latencies, not on their border with the lookups'.
func (g *gen) ingestMixed() op {
	switch p := g.r.Intn(1000); {
	case p < 550:
		return g.insert()
	case p < 630:
		return g.update()
	case p < 635:
		if o, ok := g.delete(); ok {
			return o
		}
	}
	return g.point()
}

func directColumn(genre string, n int) string { return fmt.Sprintf("%s_d%03d", genre, n) }

func directOp(col string) op {
	return op{class: clsDirectCrowd, col: col,
		sql: fmt.Sprintf("EXPAND TABLE movies_small ADD COLUMN %s BOOLEAN USING CROWD", col)}
}

func followupOp(col string, y int64) op {
	return op{class: clsFollowup, col: col, a: y,
		sql: fmt.Sprintf("SELECT COUNT(*) FROM movies WHERE %s = true AND year > %d", col, y)}
}

// expandOps is the expansion workload's fixed list: for each alias, for
// each genre, one query on a never-seen column (implicit expansion) and
// three reads of it; every directEvery-th cycle one direct-crowd EXPAND
// of a 300-row side table. Cycles are numbered from first, so that later
// phases name columns no earlier phase has expanded.
func expandOps(r *rand.Rand, genres []string, first, cycles int) []op {
	var ops []op
	year := func() int64 { return yearLo + r.Int63n(yearHi-yearLo) }
	for c := first; c < first+cycles; c++ {
		col := aliasColumn(genres[c%len(genres)], c/len(genres))
		ops = append(ops, perceptualOp(clsExpand, col, year()))
		for f := 0; f < followups; f++ {
			ops = append(ops, followupOp(col, year()))
		}
		if c%directEvery == directEvery-1 {
			n := c / directEvery
			ops = append(ops, directOp(directColumn(genres[n%len(genres)], n)))
		}
	}
	return ops
}

// fromList is an op source that hands out a fixed list in order.
func fromList(ops []op) func() (op, bool) {
	return func() (op, bool) {
		if len(ops) == 0 {
			return op{}, false
		}
		o := ops[0]
		ops = ops[1:]
		return o, true
	}
}

// workload names one traffic mix and how many closed-loop clients send it.
type workload struct {
	name    string
	clients int
	draw    func(*gen) op // nil for the count-bounded expansion workload
	// zipfHalf draws point and range keys from the lower half of the
	// loaded rids only (ingest deletes from the upper half).
	zipfHalf bool
}

var workloads = []workload{
	{name: "serve_point", clients: 2, draw: (*gen).servePoint},
	{name: "analytic_scan", clients: 2, draw: (*gen).analyticScan},
	{name: "ingest_mixed", clients: 2, draw: (*gen).ingestMixed, zipfHalf: true},
	{name: "expand_query_driven", clients: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gen builds one client's generator, positioned at the warm-up phase.
func (w workload) gen(seed int64, d *data, client int) *gen {
	g := &gen{
		genres: d.genres, nRatings: int64(len(d.ratings)), nMovies: int64(len(d.names)), nUsers: int64(d.u.Config.Users),
		client: client, clients: w.clients,
	}
	g.zipfOver = g.nRatings
	if w.zipfHalf {
		g.zipfOver /= 2
	}
	return g.rephase(streamRand(seed, w.name, client, phaseWarmup))
}

const (
	phaseWarmup = "warmup"
	phaseWindow = "window"
)
