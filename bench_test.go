// Benchmarks regenerating every table and figure of the paper at CI scale,
// plus ablation benches for the design choices called out in DESIGN.md §6.
//
// Each benchmark reports the experiment's headline quality metric via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report. Larger-scale runs are the job of cmd/experiments.
package crowddb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowddb"
	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/engine"
	"crowddb/internal/engine/exec"
	"crowddb/internal/engine/plan"
	"crowddb/internal/eval"
	"crowddb/internal/experiments"
	"crowddb/internal/server"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/svm"
	"crowddb/internal/vecmath"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.TinyOptions())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable1DirectCrowd reproduces Table 1 (Experiments 1–3).
func BenchmarkTable1DirectCrowd(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var acc1, acc2, acc3 float64
	for i := 0; i < b.N; i++ {
		res, err := env.RunCrowdExperiments()
		if err != nil {
			b.Fatal(err)
		}
		acc1 = res.Experiments[0].PctCorrect()
		acc2 = res.Experiments[1].PctCorrect()
		acc3 = res.Experiments[2].PctCorrect()
	}
	b.ReportMetric(acc1, "exp1-acc")
	b.ReportMetric(acc2, "exp2-acc")
	b.ReportMetric(acc3, "exp3-acc")
}

// BenchmarkTable2NearestNeighbors reproduces Table 2.
func BenchmarkTable2NearestNeighbors(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		res, err := env.RunTable2(5)
		if err != nil {
			b.Fatal(err)
		}
		hits = 0
		for _, l := range res.Lists {
			hits += l.GroupHits
		}
	}
	b.ReportMetric(float64(hits), "group-hits-of-15")
}

// BenchmarkFigure3BoostOverTime reproduces Experiments 4–6 over time.
func BenchmarkFigure3BoostOverTime(b *testing.B) {
	env := benchEnvironment(b)
	t1, err := env.RunCrowdExperiments()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var finalBoost float64
	for i := 0; i < b.N; i++ {
		figs, err := env.RunBoostExperiments(t1)
		if err != nil {
			b.Fatal(err)
		}
		finalBoost = float64(figs.Series[1].FinalBoostCorrect)
	}
	b.ReportMetric(finalBoost, "exp5-final-boost-correct")
}

// BenchmarkFigure4BoostOverMoney reproduces the money axis of Figure 4:
// the boosted correct count after spending roughly an eighth of the full
// crowd budget (the paper's "538 correct after $2.82" moment).
func BenchmarkFigure4BoostOverMoney(b *testing.B) {
	env := benchEnvironment(b)
	t1, err := env.RunCrowdExperiments()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var earlyBoost, earlyCost float64
	for i := 0; i < b.N; i++ {
		figs, err := env.RunBoostExperiments(t1)
		if err != nil {
			b.Fatal(err)
		}
		series := figs.Series[0] // Exp 4 boosts the open population
		budget := series.Points[len(series.Points)-1].Cost / 8
		for _, p := range series.Points {
			if p.Cost >= budget {
				earlyBoost, earlyCost = float64(p.BoostCorrect), p.Cost
				break
			}
		}
	}
	b.ReportMetric(earlyBoost, "exp4-early-boost-correct")
	b.ReportMetric(earlyCost, "at-cost-dollars")
}

// BenchmarkTable3SmallSamples reproduces Table 3.
func BenchmarkTable3SmallSamples(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var percep, meta float64
	for i := 0; i < b.N; i++ {
		res, err := env.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		percep = res.MeanPerceptual[len(res.MeanPerceptual)-1]
		meta = res.MeanMetadata[len(res.MeanMetadata)-1]
	}
	b.ReportMetric(percep, "perceptual-gmean-n40")
	b.ReportMetric(meta, "metadata-gmean-n40")
}

// BenchmarkTable4QuestionableHITs reproduces Table 4.
func BenchmarkTable4QuestionableHITs(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var prec, rec float64
	for i := 0; i < b.N; i++ {
		res, err := env.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.MeanPerceptual) - 1
		prec = res.MeanPerceptual[last].Precision
		rec = res.MeanPerceptual[last].Recall
	}
	b.ReportMetric(prec, "precision-x20")
	b.ReportMetric(rec, "recall-x20")
}

// BenchmarkTable5Restaurants reproduces Table 5.
func BenchmarkTable5Restaurants(b *testing.B) {
	opt := experiments.TinyOptions()
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(opt)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Mean[len(res.Mean)-1]
	}
	b.ReportMetric(mean, "gmean-n40")
}

// BenchmarkTable6BoardGames reproduces Table 6.
func BenchmarkTable6BoardGames(b *testing.B) {
	opt := experiments.TinyOptions()
	b.ResetTimer()
	var percep, factual float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable6(opt)
		if err != nil {
			b.Fatal(err)
		}
		percep, factual = res.PerceptualVsFactualMeans()
	}
	b.ReportMetric(percep, "perceptual-gmean")
	b.ReportMetric(factual, "factual-gmean")
}

// BenchmarkTSVMVsSVM reproduces the §5 runtime comparison.
func BenchmarkTSVMVsSVM(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		res, err := env.RunTSVMComparison("Comedy", 20)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.SlowdownFactor()
	}
	b.ReportMetric(slowdown, "tsvm-slowdown-x")
}

// BenchmarkSpaceTraining measures the cost of building the perceptual
// space itself (the paper reports ~2 h for 103M ratings on a notebook; the
// metric here is ratings processed per second). ScaleTiny's ratings fit in
// cache, so this bench hardly sees how an epoch reads them;
// BenchmarkSpaceTrainingHarness does.
func BenchmarkSpaceTraining(b *testing.B) {
	u, err := dataset.Generate(dataset.Movies(dataset.ScaleTiny, 3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := space.DefaultConfig()
	cfg.Dims = 16
	cfg.Epochs = 5
	benchTrainEuclidean(b, u.Ratings, cfg)
}

// BenchmarkSpaceTrainingHarness trains the space the end-to-end harness
// trains at set-up (benchmark/setup.go: Movies 4000 × 1000 × 150, seed 42,
// d = 16, 25 epochs): 146 k ratings, 1.7 MB of them, walked 25 times. Each
// epoch walks a shuffled copy of the ratings in order while the next
// epoch's order is drawn on another goroutine (space.sgdEpochs); before
// that, each step read its rating through a shuffled index and the draw
// ran between epochs, about 2× slower on a 2-vCPU Xeon.
func BenchmarkSpaceTrainingHarness(b *testing.B) {
	u, err := dataset.Generate(dataset.Movies(dataset.Scale{Items: 4000, Users: 1000, RatingsPerUser: 150}, 42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := space.DefaultConfig()
	cfg.Dims = 16
	cfg.Epochs = 25
	benchTrainEuclidean(b, u.Ratings, cfg)
}

func benchTrainEuclidean(b *testing.B, data *space.Dataset, cfg space.Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := space.TrainEuclidean(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
	perIter := float64(len(data.Ratings) * cfg.Epochs)
	b.ReportMetric(perIter*float64(b.N)/b.Elapsed().Seconds(), "rating-updates/s")
}

// --- ablations (DESIGN.md §6) ---

// gmeanOn evaluates a 20/20 small-sample SVM on a given space.
func gmeanOn(b *testing.B, sp *space.Space, labels []bool, seed int64) float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, v := range labels {
		if i >= sp.NumItems() {
			break
		}
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	n := 20
	var X [][]float64
	var y []bool
	train := map[int]bool{}
	for i := 0; i < n; i++ {
		X = append(X, sp.Vector(pos[i]))
		y = append(y, true)
		train[pos[i]] = true
		X = append(X, sp.Vector(neg[i]))
		y = append(y, false)
		train[neg[i]] = true
	}
	model, err := svm.TrainSVC(X, y, svm.SVCConfig{C: 2, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	var conf eval.Confusion
	for i, v := range labels {
		if i >= sp.NumItems() || train[i] {
			continue
		}
		conf.Observe(model.Predict(sp.Vector(i)), v)
	}
	return conf.GMean()
}

// BenchmarkAblationDimensionality sweeps the space dimensionality d
// (the paper: quality is stable once d is "large enough").
func BenchmarkAblationDimensionality(b *testing.B) {
	u, err := dataset.Generate(dataset.Movies(dataset.ScaleTiny, 5))
	if err != nil {
		b.Fatal(err)
	}
	labels := u.Categories["Comedy"].Reference
	dims := []int{4, 16, 48}
	results := make([]float64, len(dims))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for di, d := range dims {
			cfg := space.DefaultConfig()
			cfg.Dims = d
			cfg.Epochs = 20
			m, _, err := space.TrainEuclidean(u.Ratings, cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[di] = gmeanOn(b, space.FromModel(m), labels, 7)
		}
	}
	b.ReportMetric(results[0], "gmean-d4")
	b.ReportMetric(results[1], "gmean-d16")
	b.ReportMetric(results[2], "gmean-d48")
}

// BenchmarkAblationRegularization sweeps λ (the paper: λ = 0.02 works
// across data sets and the exact value hardly matters).
func BenchmarkAblationRegularization(b *testing.B) {
	u, err := dataset.Generate(dataset.Movies(dataset.ScaleTiny, 5))
	if err != nil {
		b.Fatal(err)
	}
	labels := u.Categories["Comedy"].Reference
	lambdas := []float64{0, 0.02, 0.2}
	results := make([]float64, len(lambdas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for li, lam := range lambdas {
			cfg := space.DefaultConfig()
			cfg.Dims = 16
			cfg.Epochs = 20
			cfg.Lambda = lam
			m, _, err := space.TrainEuclidean(u.Ratings, cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[li] = gmeanOn(b, space.FromModel(m), labels, 7)
		}
	}
	b.ReportMetric(results[0], "gmean-lambda0")
	b.ReportMetric(results[1], "gmean-lambda0.02")
	b.ReportMetric(results[2], "gmean-lambda0.2")
}

// BenchmarkAblationKernel contrasts the RBF kernel (the paper's choice)
// with a linear kernel for the genre extractor.
func BenchmarkAblationKernel(b *testing.B) {
	env := benchEnvironment(b)
	labels := env.U.Categories["Comedy"].Reference
	sp := env.Space
	var pos, neg []int
	for i, v := range labels {
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	b.ResetTimer()
	var gRBF, gLin float64
	for i := 0; i < b.N; i++ {
		for _, kernel := range []string{"rbf", "linear"} {
			rng := rand.New(rand.NewSource(13))
			rng.Shuffle(len(pos), func(a, c int) { pos[a], pos[c] = pos[c], pos[a] })
			rng.Shuffle(len(neg), func(a, c int) { neg[a], neg[c] = neg[c], neg[a] })
			var X [][]float64
			var y []bool
			train := map[int]bool{}
			for k := 0; k < 20; k++ {
				X = append(X, sp.Vector(pos[k]))
				y = append(y, true)
				train[pos[k]] = true
				X = append(X, sp.Vector(neg[k]))
				y = append(y, false)
				train[neg[k]] = true
			}
			cfg := svm.SVCConfig{C: 2, Seed: 13}
			if kernel == "linear" {
				cfg.Kernel = svm.LinearKernel{}
			}
			model, err := svm.TrainSVC(X, y, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var conf eval.Confusion
			for idx, v := range labels {
				if train[idx] {
					continue
				}
				conf.Observe(model.Predict(sp.Vector(idx)), v)
			}
			if kernel == "rbf" {
				gRBF = conf.GMean()
			} else {
				gLin = conf.GMean()
			}
		}
	}
	b.ReportMetric(gRBF, "rbf-gmean")
	b.ReportMetric(gLin, "linear-gmean")
}

// --- concurrent serving (ISSUE 1: async scheduler + query server) ---

// benchServeDB builds a 1000-row movie table with no crowd service —
// the serving benches exercise the pure read path.
func benchServeDB(b *testing.B) *crowddb.DB {
	b.Helper()
	db := crowddb.New(nil)
	b.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%04d", i)), storage.Int(int64(1950+i%70))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

const benchSelectSQL = `SELECT COUNT(*) FROM movies WHERE year > 1990`

// runConcurrentSelect fires b.N queries from gor goroutines. When
// serialize is true every query additionally takes one global mutex,
// emulating a single-mutex DB. On multi-core hardware the RWMutex path
// scales with cores; on one core the two converge (reads are CPU-bound).
func runConcurrentSelect(b *testing.B, gor int, serialize bool) {
	db := benchServeDB(b)
	var global sync.Mutex
	var next atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if serialize {
					global.Lock()
				}
				_, _, err := db.ExecSQL(benchSelectSQL)
				if serialize {
					global.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
}

// sleepingService is a JudgmentService whose Collect takes real
// wall-clock time, standing in for human crowd latency. It is asked one
// question at a time: the benchmark's database has no batch window.
type sleepingService struct{ latency time.Duration }

func (s *sleepingService) Collect(reqs []crowddb.BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	time.Sleep(s.latency)
	res := &crowd.RunResult{DurationMinutes: 1}
	for _, id := range reqs[0].ItemIDs {
		for a := 0; a < cfg.AssignmentsPerItem; a++ {
			res.Records = append(res.Records, crowd.Record{ItemID: id, WorkerID: a, Answer: crowd.Positive})
		}
	}
	res.TotalCost = float64(len(res.Records)) * cfg.PayPerHIT / float64(cfg.ItemsPerHIT)
	into.CopyFrom(&crowd.BatchResult{Combined: res, PerQuestion: []*crowd.RunResult{res}})
	return nil
}

// runSelectDuringExpansion measures how many reads gor goroutines
// complete while one crowd expansion is in flight. This is the paper's
// pain point: crowd latency must not block the read path. With
// serialize=true the expanding query holds the same global mutex every
// read takes (the seed's single-mutex discipline), so readers complete
// ~0 queries until the crowd finishes; the async scheduler keeps them
// flowing. The headline metric is reads completed per expansion window.
func runSelectDuringExpansion(b *testing.B, gor int, serialize bool) {
	db := crowddb.New(&sleepingService{latency: 20 * time.Millisecond})
	b.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%04d", i)), storage.Int(int64(1950+i%70))); err != nil {
			b.Fatal(err)
		}
	}

	var global sync.Mutex
	exec := func(sql string) error {
		if serialize {
			global.Lock()
			defer global.Unlock()
		}
		_, _, err := db.ExecSQL(sql)
		return err
	}

	var reads atomic.Int64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		col := fmt.Sprintf("genre_%d", i)
		db.RegisterExpandable("movies", col, crowddb.KindBool,
			crowddb.ExpandOptions{Method: "CROWD"})

		// One client triggers the expansion; gor readers hammer live
		// columns until it completes. Readers only start counting once
		// the expanding query is actually underway (in the serialized
		// baseline: once it holds the global mutex), so the metric is
		// strictly "reads completed during the expansion".
		expStarted := make(chan struct{})
		expDone := make(chan struct{})
		go func() {
			defer close(expDone)
			if serialize {
				global.Lock()
				defer global.Unlock()
			}
			close(expStarted)
			if _, _, err := db.ExecSQL(fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, col)); err != nil {
				b.Error(err)
			}
		}()
		<-expStarted
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-expDone:
						return
					default:
					}
					if err := exec(benchSelectSQL); err != nil {
						b.Error(err)
						return
					}
					reads.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(reads.Load())/float64(b.N), "reads-per-expansion")
	b.ReportMetric(float64(reads.Load())/time.Since(start).Seconds(), "reads/s")
}

// BenchmarkConcurrentSelect measures aggregate read throughput at 8 and
// 64 goroutines under the catalog-level RWMutex design: pure reads
// ("idle") and reads racing an in-flight crowd expansion
// ("during-expansion" — the acceptance metric, >2× the single-mutex
// baseline's reads-per-expansion at 8 goroutines).
func BenchmarkConcurrentSelect(b *testing.B) {
	for _, gor := range []int{8, 64} {
		b.Run(fmt.Sprintf("goroutines=%d/idle", gor), func(b *testing.B) {
			runConcurrentSelect(b, gor, false)
		})
		b.Run(fmt.Sprintf("goroutines=%d/during-expansion", gor), func(b *testing.B) {
			runSelectDuringExpansion(b, gor, false)
		})
	}
}

// BenchmarkSerializedSelectBaseline is the same workload behind one
// global mutex — the seed's locking discipline. Compare metrics against
// BenchmarkConcurrentSelect at the same goroutine count.
func BenchmarkSerializedSelectBaseline(b *testing.B) {
	for _, gor := range []int{8, 64} {
		b.Run(fmt.Sprintf("goroutines=%d/idle", gor), func(b *testing.B) {
			runConcurrentSelect(b, gor, true)
		})
		b.Run(fmt.Sprintf("goroutines=%d/during-expansion", gor), func(b *testing.B) {
			runSelectDuringExpansion(b, gor, true)
		})
	}
}

// BenchmarkServerQueryRoundTrip measures one full HTTP round-trip of
// POST /v1/query against an in-process server, at 8 concurrent clients.
func BenchmarkServerQueryRoundTrip(b *testing.B) {
	db := benchServeDB(b)
	ts := httptest.NewServer(server.New(db, server.Config{MaxInflight: 128}).Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{"sql": benchSelectSQL})

	const clients = 8
	var next atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "requests/s")
}

// BenchmarkWALReplay measures cold-start recovery: rebuilding a database
// from a 10k-mutation WAL (no snapshot — the worst case). The record mix
// is a point log — 9 000 single-row insert records and 1 000 one-row set
// records in storage.Op's binary form — the shape wal.replay_records_per_s
// sees on the three serving workloads. A set record patches the chunk it
// writes, as a live SetBatch does, instead of copying its 4 096 cells, and
// the patched tail keeps taking Inserts in place: a replay allocates
// ≈ 7.6 MB, down from 80.8 MB when each set copied its chunk and the next
// Insert regrew the tail that copy left (2 vCPU Xeon). Decoding the
// records takes 1.7 MB of it. The expansion log, where a record is one
// fill_column of 4 000 cells, has its in-process twin in
// BenchmarkSpaceExpansion, which writes one such record per iteration.
// The acceptance bar is well under 1s per replay; a snapshot makes it
// cheaper still.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	db, err := crowddb.Open(crowddb.Options{DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	const mutations = 10000
	for i := 0; i < mutations; i++ {
		switch {
		case i%10 == 9: // every 10th mutation is a point update
			if err := tbl.Set(i/2%1000, 1, storage.Text(fmt.Sprintf("renamed-%d", i))); err != nil {
				b.Fatal(err)
			}
		default:
			if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%d", i)), storage.Int(int64(1900+i%120))); err != nil {
				b.Fatal(err)
			}
		}
	}
	wantRows := tbl.NumRows()
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rdb, err := crowddb.Open(crowddb.Options{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		rt, ok := rdb.Catalog().Get("movies")
		if !ok || rt.NumRows() != wantRows {
			b.Fatalf("replay lost rows: %d", rt.NumRows())
		}
		if err := rdb.Close(); err != nil {
			b.Fatal(err)
		}
	}
	perReplay := time.Since(start).Seconds() / float64(b.N)
	b.ReportMetric(perReplay*1000, "ms/replay-10k")
	if perReplay >= 1.0 {
		b.Fatalf("replaying a 10k-mutation log took %.2fs, acceptance bar is <1s", perReplay)
	}
}

// snapshotBench is the benchmark database's durable shape, in process and
// without the data generator: 146 000 four-column ratings rows behind an
// index, 4 000 movies with six filled BOOLEAN columns.
func snapshotBench(b *testing.B, dir string) *crowddb.DB {
	b.Helper()
	db, err := crowddb.Open(crowddb.Options{DataDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`,
		`CREATE TABLE ratings (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`,
	} {
		if _, _, err := db.ExecSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
	const movieRows, ratingRows = 4000, 146000
	movies, _ := db.Catalog().Get("movies")
	for i := 0; i < movieRows; i++ {
		if err := movies.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%d", i)), storage.Int(int64(1900+i%120))); err != nil {
			b.Fatal(err)
		}
	}
	labels := make([]storage.Value, movieRows)
	for g := 0; g < 6; g++ {
		name := fmt.Sprintf("genre_%d", g)
		if _, err := movies.AddColumn(storage.Column{Name: name, Kind: storage.KindBool, Perceptual: true, Origin: storage.ColumnExpanded}); err != nil {
			b.Fatal(err)
		}
		for i := range labels {
			labels[i] = storage.Bool(i%(g+2) == 0)
		}
		if err := movies.FillColumn(name, labels); err != nil {
			b.Fatal(err)
		}
	}
	ratings, _ := db.Catalog().Get("ratings")
	for i := 0; i < ratingRows; i++ {
		if err := ratings.Insert(storage.Int(int64(i)), storage.Int(int64(i%movieRows)), storage.Int(int64(i%1000)), storage.Float(float64(i%10)/2)); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := db.ExecSQL(`CREATE INDEX r_rid ON ratings (rid)`); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkSnapshotWrite measures one checkpoint of the benchmark
// database: every table pinned, its chunks encoded through one reused
// buffer into CRC-framed sections, the file fsynced and renamed. B/op is
// the buffers, whatever the tables hold.
func BenchmarkSnapshotWrite(b *testing.B) {
	dir := b.TempDir()
	db := snapshotBench(b, dir)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if fi, err := os.Stat(snaps[len(snaps)-1]); err == nil {
		b.ReportMetric(float64(fi.Size())/1e6, "MB/snapshot")
	}
}

// BenchmarkSnapshotRestore measures a restart from that checkpoint alone
// (the log behind it is empty): the file verified, each payload decoded
// straight into a chunk, one version published per table, the index
// bulk-built.
func BenchmarkSnapshotRestore(b *testing.B) {
	dir := b.TempDir()
	db := snapshotBench(b, dir)
	if _, err := db.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rdb, err := crowddb.Open(crowddb.Options{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if rt, ok := rdb.Catalog().Get("ratings"); !ok || rt.NumRows() != 146000 || len(rt.IndexMetas()) != 1 {
			b.Fatalf("restore lost the ratings table or its index")
		}
		if err := rdb.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The paper's path (ISSUE 17) ---
//
// expansionBench is the benchmark database's shape at the end of an
// expand_query_driven window, in process and without the data generator:
// 4 000 movies in a 16-d space (even items around −1, odd ones around +1),
// ≈150 columns of which every other expansion is still unfilled, a
// 40-worker simulated crowd that answers with the item's parity, a WAL.

const (
	expansionBenchRows = 4000
	expansionBenchCols = 150
	expansionBenchDims = 16
)

func expansionBenchSpace() *space.Space {
	m := vecmath.NewMatrix(expansionBenchRows, expansionBenchDims)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < m.Rows; i++ {
		base := -1.0
		if i%2 == 1 {
			base = 1.0
		}
		for d := range m.Row(i) {
			m.Row(i)[d] = 0.15*base + rng.NormFloat64() // classes overlap: most of the sample ends up a support vector, as on the movie data
		}
	}
	return space.NewSpace(m)
}

// expansionBenchDB is expansionBench's database at the given width, its
// space attached: a 40-worker simulated crowd answering with the item's
// parity, a WAL, every other expanded column still unfilled.
func expansionBenchDB(b *testing.B, cols int) *crowddb.DB {
	rng := rand.New(rand.NewSource(42))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 40}, rng)
	models := make([]crowd.Item, expansionBenchRows)
	for i := range models {
		models[i] = crowd.Item{ID: i, Truth: i%2 == 0, Popularity: 1}
	}
	svc := crowddb.NewSimulatedCrowd(pop, func(string) ([]crowd.Item, error) { return models, nil }, rng)
	db, err := crowddb.Open(crowddb.Options{Service: svc, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for i := 0; i < expansionBenchRows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%04d", i)), storage.Int(int64(1950+i%70))); err != nil {
			b.Fatal(err)
		}
	}
	filled := make([]storage.Value, expansionBenchRows)
	for i := range filled {
		filled[i] = storage.Bool(i%3 == 0)
	}
	for c := 3; c < cols; c++ {
		name := fmt.Sprintf("genre_%03d", c)
		if _, err := tbl.AddColumn(storage.Column{Name: name, Kind: storage.KindBool, Perceptual: true, Origin: storage.ColumnExpanded}); err != nil {
			b.Fatal(err)
		}
		if c%2 == 0 {
			if err := tbl.FillColumn(name, filled); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.AttachSpace("movies", "movie_id", expansionBenchSpace()); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkSpaceExpansion is one `EXPAND … USING SPACE` per iteration:
// read the item ids, sample 160 of them, one simulated crowd job, vote,
// train, predict all 4 000 items on the exec workers, resolve and fill the
// column, append its fill_column record. B/op is guarded: a boxed Value, a
// per-cell JSON object or a full-width row anywhere in it costs at least
// 160 KB an iteration, a list of the table's item ids 32 KB.
func BenchmarkSpaceExpansion(b *testing.B) {
	db := expansionBenchDB(b, expansionBenchCols)
	const expand = `EXPAND TABLE movies ADD COLUMN even BOOLEAN USING SPACE`
	if _, _, err := db.ExecSQL(expand); err != nil { // adds the column; iterations re-elicit it
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := db.ExecSQL(expand)
		if err != nil || rep.Filled != expansionBenchRows {
			b.Fatalf("report %+v, err %v", rep, err)
		}
	}
}

// BenchmarkSpaceExpansionWide is the query-driven form of the same step on
// a 200-column table: every iteration expands a column the table does not
// have yet, so AddColumn — its add_column record, the schema's new entry,
// the new version's last header page — is inside the loop. B/op is guarded
// and stays within 1 KiB of BenchmarkSpaceExpansion's: nothing of an
// expansion grows with the width of the table.
func BenchmarkSpaceExpansionWide(b *testing.B) {
	db := expansionBenchDB(b, 200)
	if _, _, err := db.ExecSQL(`EXPAND TABLE movies ADD COLUMN even BOOLEAN USING SPACE`); err != nil { // the first Trainer
		b.Fatal(err)
	}
	stmts := make([]string, b.N)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("EXPAND TABLE movies ADD COLUMN even_%d BOOLEAN USING SPACE", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := db.ExecSQL(stmts[i])
		if err != nil || rep.Filled != expansionBenchRows {
			b.Fatalf("report %+v, err %v", rep, err)
		}
	}
}

// benchmarkRunJob is one simulated crowd job per iteration over the
// benchmark's population of 40 workers. B/op and allocs/op are guarded:
// the job's state is sized once from items × assignments × workers, so
// allocs/op does not move with the redundancy and B/op is the judgment
// log plus a tenth.
func benchmarkRunJob(b *testing.B, nItems, assignments int) {
	rng := rand.New(rand.NewSource(42))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 40}, rng)
	items := make([]crowd.Item, nItems)
	for i := range items {
		items[i] = crowd.Item{ID: i, Truth: i%3 == 0, Popularity: 0.1 + 0.9*rng.Float64(), Ambiguity: 0.1 * rng.Float64()}
	}
	cfg := crowd.JobConfig{ItemsPerHIT: 10, AssignmentsPerItem: assignments, PayPerHIT: 0.02, JudgmentsPerMinute: 95, AllowDontKnow: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := crowd.RunJob(pop, items, cfg, rng)
		if err != nil || len(res.Records) != nItems*assignments {
			b.Fatalf("%d records, err %v", len(res.Records), err)
		}
	}
}

// BenchmarkRunJob160x5 is the crowd job of a SPACE expansion: a training
// sample of 160 items, five judgments each.
func BenchmarkRunJob160x5(b *testing.B) { benchmarkRunJob(b, 160, 5) }

// BenchmarkRunJob300x10 is a direct-crowd fill of a 300-row table, ten
// judgments an item. (Two flat names, not sub-benchmarks: benchguard and
// the Makefile's -bench pattern match whole names.)
func BenchmarkRunJob300x10(b *testing.B) { benchmarkRunJob(b, 300, 10) }

// BenchmarkSVCPredictAll scores the 4 000 × 16 space with a model trained
// on 160 of its items — the step that was 26 of an expansion's 32 ms while
// it ran item by item through Kernel.Eval on one goroutine. PredictAll
// fans out over GOMAXPROCS, so -cpu 1,4 is its dop axis.
func BenchmarkSVCPredictAll(b *testing.B) {
	sp := expansionBenchSpace()
	X := make([][]float64, sp.NumItems())
	for i := range X {
		X[i] = sp.Vector(i)
	}
	var trainX [][]float64
	var trainY []bool
	for i := 0; i < len(X); i += len(X) / 160 {
		trainX, trainY = append(trainX, X[i]), append(trainY, i%2 == 0)
	}
	model, err := svm.TrainSVC(trainX, trainY, svm.SVCConfig{C: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	positives := 0
	for i := 0; i < b.N; i++ {
		for _, l := range model.PredictAll(X) {
			if l {
				positives++
			}
		}
	}
	b.ReportMetric(float64(model.NumSupport()), "support-vectors")
	if positives == 0 {
		b.Fatal("no item labelled positive")
	}
}

// --- Planner / streaming-executor benchmarks (ISSUE 3) ---
//
// BenchmarkTopNSelect is the headline: ORDER BY + LIMIT over 1M rows
// through the TopN heap, vs BenchmarkSortEverythingBaseline which runs
// the pre-planner execution order (full stable sort of every matching
// row, truncate, project) over the same data. The acceptance bar is a
// ≥5× gap with ≈0 allocations per row on the scan side.

const topNRows = 1_000_000

var (
	bigEngineOnce sync.Once
	bigEngine     *engine.Engine
	bigEngineErr  error
)

func topNEngine(b *testing.B) *engine.Engine {
	b.Helper()
	bigEngineOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		if _, err := eng.ExecSQL(`CREATE TABLE big (id INTEGER, score FLOAT)`); err != nil {
			bigEngineErr = err
			return
		}
		tbl, _ := eng.Catalog().Get("big")
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < topNRows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Float(rng.Float64()*1000)); err != nil {
				bigEngineErr = err
				return
			}
		}
		bigEngine = eng
	})
	if bigEngineErr != nil {
		b.Fatal(bigEngineErr)
	}
	return bigEngine
}

func BenchmarkTopNSelect(b *testing.B) {
	eng := topNEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The id tiebreak forces the TopN heap: a bare `score DESC` would
		// ride the big_score index once indexedBigEngine has run, turning
		// later -count iterations into a different (index) benchmark.
		res, err := eng.ExecSQL(`SELECT id, score FROM big ORDER BY score DESC, id LIMIT 10`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.ReportMetric(float64(topNRows), "rows-scanned/op")
}

// BenchmarkSortEverythingBaseline hand-assembles the old execution
// order — full sort of all rows, then truncate, then project — on the
// new iterator infrastructure, as the comparison point for the TopN
// speedup.
func BenchmarkSortEverythingBaseline(b *testing.B) {
	eng := topNEngine(b)
	stmt, err := sqlparse.Parse(`SELECT id, score FROM big ORDER BY score DESC`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := plan.Build(stmt.(*sqlparse.SelectStmt), eng.Catalog())
		if err != nil {
			b.Fatal(err)
		}
		// Sort → Limit → Project is exactly the pre-planner pipeline
		// (sort everything, truncate, project the survivors).
		proj := p.Root.(*plan.Project)
		proj.Input = &plan.Limit{Input: proj.Input, N: 10}
		it, err := exec.Build(p.Root)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := exec.Drain(it)
		if err != nil {
			b.Fatal(err)
		}
		if n := storage.RowCount(rows); n != 10 {
			b.Fatalf("rows = %d", n)
		}
	}
}

var (
	joinEngineOnce sync.Once
	joinEngine     *engine.Engine
	joinEngineErr  error
)

// BenchmarkHashJoin joins 100k orders against 10k customers with a
// pushed-down selection on the probe side.
func BenchmarkHashJoin(b *testing.B) {
	joinEngineOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		seed := func(sql string) {
			if joinEngineErr == nil {
				_, joinEngineErr = eng.ExecSQL(sql)
			}
		}
		seed(`CREATE TABLE customers (cid INTEGER, name TEXT)`)
		seed(`CREATE TABLE orders (oid INTEGER, cust INTEGER, amount FLOAT)`)
		if joinEngineErr != nil {
			return
		}
		customers, _ := eng.Catalog().Get("customers")
		orders, _ := eng.Catalog().Get("orders")
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 10_000 && joinEngineErr == nil; i++ {
			joinEngineErr = customers.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("c%05d", i)))
		}
		for i := 0; i < 100_000 && joinEngineErr == nil; i++ {
			joinEngineErr = orders.Insert(storage.Int(int64(i)),
				storage.Int(int64(rng.Intn(10_000))), storage.Float(rng.Float64()*1000))
		}
		joinEngine = eng
	})
	if joinEngineErr != nil {
		b.Fatal(joinEngineErr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := joinEngine.ExecSQL(`SELECT c.name, o.amount FROM orders o
			JOIN customers c ON o.cust = c.cid WHERE o.amount > 900`)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(rows), "join-rows/op")
	// Alloc wall for the reusable-scratch key encoding: the dominant
	// remaining allocations are the build-side clones and the emitted
	// rows themselves — per-probe-row key encoding must contribute none.
	// 100k probes + 10k build rows + ~10k output rows stays far under
	// this bound; a per-probe allocation (~100k extra) blows through it.
	if perOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N); perOp > 150_000 {
		b.Fatalf("hash join allocates %.0f objects/op, budget 150000 — probe-side key encoding is allocating again", perOp)
	}
}

// BenchmarkStreamingSelect drains 200k rows through the end-to-end
// streaming path (core.RowStream over the batched storage cursor), the
// per-row cost a POST /v1/query?stream=1 client pays.
func BenchmarkStreamingSelect(b *testing.B) {
	db := crowddb.New(nil)
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE events (id INTEGER, kind TEXT)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("events")
	const n = 200_000
	for i := 0; i < n; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Text("k")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	ctx := context.Background()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		var s crowddb.RowStream
		if _, err := db.Do(ctx, &s, crowddb.Request{SQL: `SELECT id FROM events WHERE id >= 0`, Mode: crowddb.ModeStream}); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			rows++
		}
		s.Close()
		if rows != n {
			b.Fatalf("rows = %d", rows)
		}
	}
	b.ReportMetric(float64(b.N)*n/time.Since(start).Seconds(), "rows/s")
}

// ---------- secondary-index benchmarks (ISSUE 5) ----------
//
// BenchmarkPointLookup / BenchmarkRangeScan drive indexed predicates over
// the shared 1M-row table; the *ScanBaseline twins run the identical
// query with the access path forcibly downgraded to a full scan. The
// acceptance bar is a ≥20× gap on both.

var (
	idxBigOnce sync.Once
	idxBigErr  error
)

// indexedBigEngine adds the secondary indexes to the shared 1M-row
// engine. TopN benchmarks on the same table are unaffected: their ORDER
// BY carries a two-key sort (score DESC, id) that the single-column
// index cannot serve — DESC alone now rides the index through a
// reversed probe, so the tiebreak is what keeps those benchmarks
// measuring the heap regardless of whether the indexes exist yet.
func indexedBigEngine(b *testing.B) *engine.Engine {
	b.Helper()
	eng := topNEngine(b)
	idxBigOnce.Do(func() {
		if _, err := eng.ExecSQL(`CREATE INDEX big_id ON big (id) USING HASH`); err != nil {
			idxBigErr = err
			return
		}
		_, idxBigErr = eng.ExecSQL(`CREATE INDEX big_score ON big (score)`)
	})
	if idxBigErr != nil {
		b.Fatal(idxBigErr)
	}
	return eng
}

func BenchmarkPointLookup(b *testing.B) {
	eng := indexedBigEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT id, score FROM big WHERE id = 777777`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// downgradeToScan rebuilds the query plan with every index access path
// replaced by a full scan evaluating the same predicate — the pre-index
// execution order, on the same iterator infrastructure.
func downgradeToScan(b *testing.B, eng *engine.Engine, sql string) *plan.SelectPlan {
	b.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(stmt.(*sqlparse.SelectStmt), eng.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	proj, ok := p.Root.(*plan.Project)
	if !ok {
		b.Fatalf("expected Project root, got %T", p.Root)
	}
	// The scan carries what the probe it replaces carried, and the columns
	// of the predicate it now evaluates itself.
	where := stmt.(*sqlparse.SelectStmt).Where
	switch n := proj.Input.(type) {
	case *plan.IndexScan:
		proj.Input = &plan.Scan{Table: n.Table, Name: n.Name, Binding: n.Binding, Filter: where, Layout: n.Layout,
			Out: plan.WithExprCols(n.Out, n.Layout, where)}
	case *plan.IndexRange:
		proj.Input = &plan.Scan{Table: n.Table, Name: n.Name, Binding: n.Binding, Filter: where, Layout: n.Layout,
			Out: plan.WithExprCols(n.Out, n.Layout, where)}
	default:
		b.Fatalf("expected an index access path, got %T", proj.Input)
	}
	return p
}

func BenchmarkPointLookupScanBaseline(b *testing.B) {
	eng := indexedBigEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := downgradeToScan(b, eng, `SELECT id, score FROM big WHERE id = 777777`)
		it, err := exec.Build(p.Root)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := exec.Drain(it)
		if err != nil {
			b.Fatal(err)
		}
		if n := storage.RowCount(rows); n != 1 {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(topNRows), "rows-scanned/op")
}

func BenchmarkRangeScan(b *testing.B) {
	eng := indexedBigEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT id, score FROM big WHERE score > 995.0`)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
		if rows == 0 || rows > topNRows/50 {
			b.Fatalf("suspicious selectivity: %d rows", rows)
		}
	}
	b.ReportMetric(float64(rows), "match-rows/op")
}

func BenchmarkRangeScanBaseline(b *testing.B) {
	eng := indexedBigEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := downgradeToScan(b, eng, `SELECT id, score FROM big WHERE score > 995.0`)
		it, err := exec.Build(p.Root)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := exec.Drain(it)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
	b.ReportMetric(float64(topNRows), "rows-scanned/op")
}

// ---------- morsel-parallel executor benchmarks (ISSUE 7) ----------
//
// Both benchmarks run the engine's default degree of parallelism
// (GOMAXPROCS), so under CI's `-cpu 1,4` the same benchmark name yields
// a serial line and a parallel line; benchguard takes the minimum, and
// the speedup is the ratio between the two lines in the bench log. The
// tables are dedicated and index-free so plan shapes don't depend on
// which other benchmarks ran first.

const parBenchRows = 1_000_000

var (
	parEngineOnce sync.Once
	parEngine     *engine.Engine
	parEngineErr  error
)

func parallelBenchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	parEngineOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		seed := func(sql string) {
			if parEngineErr == nil {
				_, parEngineErr = eng.ExecSQL(sql)
			}
		}
		seed(`CREATE TABLE pscan (id INTEGER, score FLOAT)`)
		seed(`CREATE TABLE pbuild (id INTEGER, score FLOAT)`)
		if parEngineErr != nil {
			return
		}
		rng := rand.New(rand.NewSource(11))
		for _, name := range []string{"pscan", "pbuild"} {
			tbl, _ := eng.Catalog().Get(name)
			for i := 0; i < parBenchRows && parEngineErr == nil; i++ {
				parEngineErr = tbl.Insert(storage.Int(int64(i)), storage.Float(rng.Float64()*1000))
			}
		}
		parEngine = eng
	})
	if parEngineErr != nil {
		b.Fatal(parEngineErr)
	}
	return parEngine
}

// BenchmarkParallelScanFilter drives a ~1%-selective filter over 1M
// rows through the morsel scan + ordered gather exchange.
func BenchmarkParallelScanFilter(b *testing.B) {
	eng := parallelBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT id, score FROM pscan WHERE score > 990.0`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) < 5000 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.ReportMetric(float64(parBenchRows), "rows-scanned/op")
}

// BenchmarkParallelHashJoin joins two 1M-row tables — parallel build
// over the filtered side, parallel probe over the other, partial
// aggregation on top.
func BenchmarkParallelHashJoin(b *testing.B) {
	eng := parallelBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT COUNT(*) FROM pscan a JOIN pbuild b ON a.id = b.id
			WHERE b.score > 500.0`)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := res.Rows[0][0].AsInt()
		if n < 400_000 {
			b.Fatalf("join count = %d", n)
		}
	}
	b.ReportMetric(float64(2*parBenchRows), "rows-scanned/op")
}

// ---- MVCC snapshot scans and vectorized filters ----------------------
//
// BenchmarkScanDuringFill measures SELECT latency while a writer
// continuously bulk-fills an expansion column — the paper's crowd
// fill-in landing under live query traffic. Pre-MVCC this serialized on
// the table RWMutex (each fill blocked every reader for the whole column
// write); with versioned chunks the scans pin a snapshot and never wait,
// so the per-op time should track BenchmarkVectorizedFilter-style scan
// cost rather than the fill cadence. BenchmarkVectorizedFilter and
// BenchmarkPerRowFilterBaseline isolate the cursor's two filter paths on
// identical data: the SetPreds chunk-at-a-time selection bitmap versus
// the per-row closure it replaced.

const fillScanRows = 262_144 // 64 sealed chunks

var (
	fillScanOnce sync.Once
	fillScanEng  *engine.Engine
	fillScanTbl  *storage.Table
	fillScanErr  error
)

func fillScanEngine(b *testing.B) (*engine.Engine, *storage.Table) {
	b.Helper()
	fillScanOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		if _, err := eng.ExecSQL(`CREATE TABLE fillscan (id INTEGER, score FLOAT)`); err != nil {
			fillScanErr = err
			return
		}
		tbl, _ := eng.Catalog().Get("fillscan")
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < fillScanRows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Float(rng.Float64()*1000)); err != nil {
				fillScanErr = err
				return
			}
		}
		if _, err := tbl.AddColumn(storage.Column{Name: "genre", Kind: storage.KindBool}); err != nil {
			fillScanErr = err
			return
		}
		fillScanEng, fillScanTbl = eng, tbl
	})
	if fillScanErr != nil {
		b.Fatal(fillScanErr)
	}
	return fillScanEng, fillScanTbl
}

func BenchmarkScanDuringFill(b *testing.B) {
	eng, tbl := fillScanEngine(b)
	// Two alternating full-column fills, prepared outside the timer.
	var fills [2][]storage.Value
	for f := range fills {
		fills[f] = make([]storage.Value, fillScanRows)
		for i := range fills[f] {
			fills[f][i] = storage.Bool(i%2 == f)
		}
	}
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			if err := tbl.FillColumn("genre", fills[n%2]); err != nil {
				b.Error(err)
				done <- n
				return
			}
			n++
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT COUNT(*) FROM fillscan WHERE score > 500.0`)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := res.Rows[0][0].AsInt()
		if n < fillScanRows/3 {
			b.Fatalf("count = %d", n)
		}
	}
	b.StopTimer()
	close(stop)
	fillsLanded := <-done
	b.ReportMetric(float64(fillScanRows), "rows-scanned/op")
	b.ReportMetric(float64(fillsLanded)/float64(b.N), "fills/op")
}

func BenchmarkVectorizedFilter(b *testing.B) {
	eng := parallelBenchEngine(b)
	tbl, _ := eng.Catalog().Get("pscan")
	preds := []storage.Pred{{Col: 1, Op: storage.PredGt, Val: storage.Float(990)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := tbl.NewCursor(0)
		cur.SetPreds(preds)
		n := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		if n < 5000 {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(parBenchRows), "rows-scanned/op")
}

// BenchmarkPerRowFilterBaseline is the comparison point: the same scan
// and selectivity with the predicate applied per boxed row, the way the
// executor evaluates a residual it could not vectorize.
func BenchmarkPerRowFilterBaseline(b *testing.B) {
	eng := parallelBenchEngine(b)
	tbl, _ := eng.Catalog().Get("pscan")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := tbl.NewCursor(0)
		n := 0
		for {
			r, ok := cur.Next()
			if !ok {
				break
			}
			if v, ok := r[1].AsFloat(); ok && v > 990 {
				n++
			}
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		if n < 5000 {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(parBenchRows), "rows-scanned/op")
}

// ---- tombstone compaction -------------------------------------------
//
// BenchmarkCompactedScan guards the compactor's payoff: a table that had
// half its rows tombstoned and then compacted scans only the surviving,
// densely repacked chunks — no dead-row bitmap tests, half the data
// volume. A regression here means compaction stopped producing packed
// chunks (or the scan path re-grew per-row tombstone checks).

const compactScanRows = 262_144 // 64 sealed chunks before compaction

var (
	compactScanOnce sync.Once
	compactScanEng  *engine.Engine
	compactScanErr  error
)

func compactScanEngine(b *testing.B) *engine.Engine {
	b.Helper()
	compactScanOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		if _, err := eng.ExecSQL(`CREATE TABLE cscan (id INTEGER, score FLOAT)`); err != nil {
			compactScanErr = err
			return
		}
		tbl, _ := eng.Catalog().Get("cscan")
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < compactScanRows; i++ {
			if err := tbl.Insert(storage.Int(int64(i)), storage.Float(rng.Float64()*1000)); err != nil {
				compactScanErr = err
				return
			}
		}
		doomed := make([]int, 0, compactScanRows/2)
		for i := 0; i < compactScanRows; i += 2 {
			doomed = append(doomed, i)
		}
		tbl.Delete(doomed)
		res, err := tbl.Compact(storage.CompactionPolicy{Force: true})
		if err != nil {
			compactScanErr = err
			return
		}
		if !res.Compacted || tbl.Tombstones() != 0 {
			compactScanErr = fmt.Errorf("setup compaction did not reclaim: %+v", res)
			return
		}
		compactScanEng = eng
	})
	if compactScanErr != nil {
		b.Fatal(compactScanErr)
	}
	return compactScanEng
}

func BenchmarkCompactedScan(b *testing.B) {
	eng := compactScanEngine(b)
	tbl, _ := eng.Catalog().Get("cscan")
	preds := []storage.Pred{{Col: 1, Op: storage.PredGt, Val: storage.Float(500)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := tbl.NewCursor(0)
		cur.SetPreds(preds)
		n := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		if n < compactScanRows/8 {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(compactScanRows/2), "rows-scanned/op")
}

// ---------- observability benchmarks (ISSUE 10) ----------
//
// BenchmarkInstrumentedSelect is the observability overhead wall: the
// default ExecSQL spine with the metrics registry live and tracing OFF
// (cache bypassed so the executor actually runs every iteration). This
// is the production hot path after the obs layer landed — the per-query
// cost of instrumentation is a handful of atomic adds and histogram
// observes, and the executor seam is literally `build(node, nil)`.
// Guarded in BENCH_baseline.json (with BenchmarkStreamingSelect) so the
// ≤2% tracing-off contract is enforced as a benchguard wall rather than
// a one-off measurement. BenchmarkInstrumentedSelectTraced runs the
// identical statement through a traced Do (Request.Trace), pricing what ?trace=1,
// -trace, and -slow-query actually pay for the per-operator breakdown.

const instrSelectRows = 100_000

func instrumentedSelectDB(b *testing.B) *crowddb.DB {
	b.Helper()
	db := crowddb.New(nil)
	b.Cleanup(func() { _ = db.Close() })
	if _, _, err := db.ExecSQL(`CREATE TABLE tele (id INTEGER, v FLOAT)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("tele")
	for i := 0; i < instrSelectRows; i++ {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Float(float64(i%1000))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

const instrSelectSQL = `SELECT id, v FROM tele WHERE v > 989.0 ORDER BY id LIMIT 100`

func BenchmarkInstrumentedSelect(b *testing.B) {
	db := instrumentedSelectDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := db.ExecSQLNoCache(instrSelectSQL)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 100 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.ReportMetric(float64(instrSelectRows), "rows-scanned/op")
}

func BenchmarkInstrumentedSelectTraced(b *testing.B) {
	db := instrumentedSelectDB(b)
	b.ReportAllocs()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s crowddb.RowStream
		if _, err := db.Do(ctx, &s, crowddb.Request{SQL: instrSelectSQL, NoCache: true, Trace: true}); err != nil {
			b.Fatal(err)
		}
		var rows []storage.Row
		for {
			batch, err := s.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
			rows = batch.AppendRows(rows)
		}
		s.Close()
		if qt := s.Trace(); len(rows) != 100 || qt == nil || len(qt.Plan) == 0 {
			b.Fatalf("rows = %d trace = %+v", len(rows), qt)
		}
	}
	b.ReportMetric(float64(instrSelectRows), "rows-scanned/op")
}

// ---------- analytic range benchmarks: the access path and the key tables ----------
//
// The fixture is the shape of the benchmark harness's ratings table
// (146 306 rows in 36 chunks, an ordered index on rid, 4 000 movies, 1 000
// users), and BenchmarkWideRangeTopN and BenchmarkGroupByManyGroups are
// the two analytic_scan statements that carry a wide `rid >= k` next to
// their filter: the planner counts that range, declines the index and
// scans, and the GROUP BY hashes its INTEGER key without encoding it.

const (
	ratingRows   = 146_306
	ratingMovies = 4000
	ratingUsers  = 1000
)

var (
	ratingsOnce sync.Once
	ratingsEng  *engine.Engine
	ratingsErr  error
)

// ratingsEngine builds ratings, with r_rid, and ratings_plain, the same
// rows with no index, whose plans are always scans.
func ratingsEngine(b *testing.B) *engine.Engine {
	b.Helper()
	ratingsOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		for _, name := range []string{"ratings", "ratings_plain"} {
			if _, ratingsErr = eng.ExecSQL(`CREATE TABLE ` + name + ` (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`); ratingsErr != nil {
				return
			}
			tbl, _ := eng.Catalog().Get(name)
			rng := rand.New(rand.NewSource(19))
			for i := 0; i < ratingRows && ratingsErr == nil; i++ {
				ratingsErr = tbl.Insert(storage.Int(int64(i)), storage.Int(rng.Int63n(ratingMovies)),
					storage.Int(rng.Int63n(ratingUsers)), storage.Float(float64(1+rng.Intn(10))/2))
			}
		}
		if ratingsErr == nil {
			_, ratingsErr = eng.ExecSQL(`CREATE INDEX r_rid ON ratings (rid)`)
		}
		ratingsEng = eng
	})
	if ratingsErr != nil {
		b.Fatal(ratingsErr)
	}
	return ratingsEng
}

func BenchmarkWideRangeTopN(b *testing.B) {
	eng := ratingsEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT rid, usr, score FROM ratings WHERE usr > 500 AND rid >= 30000 ORDER BY score DESC LIMIT 10`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.ReportMetric(ratingRows, "rows-scanned/op")
}

func BenchmarkGroupByManyGroups(b *testing.B) {
	eng := ratingsEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`SELECT movie_id, COUNT(*), AVG(score) FROM ratings WHERE usr > 500 AND rid >= 30000 GROUP BY movie_id`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != ratingMovies {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
	b.ReportMetric(ratingRows, "rows-scanned/op")
}

// ---------- columnar results: root → cache → wire ----------
//
// The same fixture behind the HTTP handler, the way the harness's
// analytic_scan and serve_point reach it: BenchmarkServeGroupBy is the
// 4 000-group GROUP BY as a miss (a literal nobody repeats: a first
// sighting, whose answer the result cache defers, so it is read from the
// executor into the encoder and copied no further than the cache's
// admission line), BenchmarkServeCachedPoint a point SELECT answered from
// the cache. Neither boxes a row: the handler encodes from the executor's
// batches, or from the batch list the cache shares.

var (
	servedRatingsOnce sync.Once
	servedRatingsH    http.Handler
	servedRatingsErr  error
	// servedLiteral makes every BenchmarkServeGroupBy statement of a
	// process a fingerprint of its own.
	servedLiteral int
)

// servedRatings serves ratingsEngine's indexed ratings table from a
// database with the result cache on.
func servedRatings(b *testing.B) http.Handler {
	b.Helper()
	servedRatingsOnce.Do(func() {
		db := crowddb.New(nil)
		for _, sql := range []string{
			`CREATE TABLE ratings (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`,
			`CREATE INDEX r_rid ON ratings (rid)`,
		} {
			if _, _, servedRatingsErr = db.ExecSQL(sql); servedRatingsErr != nil {
				return
			}
		}
		tbl, _ := db.Catalog().Get("ratings")
		rng := rand.New(rand.NewSource(19))
		for i := 0; i < ratingRows && servedRatingsErr == nil; i++ {
			servedRatingsErr = tbl.Insert(storage.Int(int64(i)), storage.Int(rng.Int63n(ratingMovies)),
				storage.Int(rng.Int63n(ratingUsers)), storage.Float(float64(1+rng.Intn(10))/2))
		}
		servedRatingsH = server.New(db, server.Config{}).Handler()
	})
	if servedRatingsErr != nil {
		b.Fatal(servedRatingsErr)
	}
	return servedRatingsH
}

// countingResponse is a ResponseWriter that keeps the status and counts
// the body, so that what a benchmark allocates is the handler's.
type countingResponse struct {
	header http.Header
	status int
	bytes  int
}

func (c *countingResponse) Header() http.Header         { return c.header }
func (c *countingResponse) WriteHeader(status int)      { c.status = status }
func (c *countingResponse) Write(p []byte) (int, error) { c.bytes += len(p); return len(p), nil }

// quietRequestLog turns the server's request log line off for b: go test
// merges it into the benchmark's own output, mid-line.
func quietRequestLog(b *testing.B) {
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})))
	b.Cleanup(func() { slog.SetDefault(old) })
}

// serveSQL posts sql to /v1/query of h and returns the size of the 200's body.
func serveSQL(b *testing.B, h http.Handler, sql string) int {
	body, _ := json.Marshal(map[string]string{"sql": sql})
	w := &countingResponse{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if w.status != http.StatusOK {
		b.Fatalf("%s: status %d", sql, w.status)
	}
	return w.bytes
}

func BenchmarkServeGroupBy(b *testing.B) {
	h := servedRatings(b)
	quietRequestLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servedLiteral++
		n := serveSQL(b, h, fmt.Sprintf(
			`SELECT movie_id, COUNT(*), AVG(score) FROM ratings WHERE usr > 500 AND rid >= %d GROUP BY movie_id`, 30000+servedLiteral))
		if n < ratingMovies*10 {
			b.Fatalf("a %d-byte answer does not hold %d groups", n, ratingMovies)
		}
	}
	b.ReportMetric(ratingRows, "rows-scanned/op")
}

func BenchmarkServeCachedPoint(b *testing.B) {
	h := servedRatings(b)
	quietRequestLog(b)
	const sql = `SELECT rid, movie_id, score FROM ratings WHERE rid = 777`
	want := serveSQL(b, h, sql)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := serveSQL(b, h, sql); n != want {
			b.Fatalf("the hit answers %d bytes, the miss %d", n, want)
		}
	}
}

// ---------- DML through the planner (ISSUE 21) ----------
//
// The statements of the harness's ingest_mixed workload, in process: a
// 200-rid range delete and a delete that matches nothing on the indexed
// 146 k-row ratings table, and a point UPDATE on a table as wide as the
// paper's movies after its expansion window. They write, so each has a
// table of its own (built once) and puts back what it deleted outside
// the timer.

var (
	dmlEngineOnce sync.Once
	dmlEngine     *engine.Engine
	dmlEngineErr  error
)

const wideMovieCols = 190

// dmlDeleteSpans counts the spans BenchmarkDeleteRangeIndexed has deleted.
var dmlDeleteSpans int

// dmlBenchEngine builds dratings — ratingsEngine's indexed table again,
// for the deletes — and widemovies(movie_id, name, year, x3 … x189): 4 000
// rows, the extra columns BOOLEAN, every second one filled.
func dmlBenchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	dmlEngineOnce.Do(func() {
		eng := engine.New(storage.NewCatalog())
		run := func(sql string) {
			if dmlEngineErr == nil {
				_, dmlEngineErr = eng.ExecSQL(sql)
			}
		}
		run(`CREATE TABLE dratings (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`)
		run(`CREATE TABLE widemovies (movie_id INTEGER, name TEXT, year INTEGER)`)
		if dmlEngineErr != nil {
			return
		}
		ratings, _ := eng.Catalog().Get("dratings")
		for i := 0; i < ratingRows && dmlEngineErr == nil; i++ {
			dmlEngineErr = ratings.Insert(storage.Int(int64(i)), storage.Int(int64((i*31)%ratingMovies)),
				storage.Int(int64((i*7)%1000)), storage.Float(float64(i%9)/2+0.5))
		}
		run(`CREATE INDEX dr_rid ON dratings (rid)`)
		movies, _ := eng.Catalog().Get("widemovies")
		for i := 0; i < ratingMovies && dmlEngineErr == nil; i++ {
			dmlEngineErr = movies.Insert(storage.Int(int64(i)), storage.Text(fmt.Sprintf("movie-%d", i)), storage.Int(int64(1950+i%70)))
		}
		filled := make([]storage.Value, ratingMovies)
		for i := range filled {
			filled[i] = storage.Bool(i%3 == 0)
		}
		for x := 3; x < wideMovieCols && dmlEngineErr == nil; x++ {
			col := storage.Column{Name: fmt.Sprintf("x%d", x), Kind: storage.KindBool, Perceptual: true, Origin: storage.ColumnExpanded}
			if _, dmlEngineErr = movies.AddColumn(col); dmlEngineErr == nil && x%2 == 0 {
				dmlEngineErr = movies.FillColumn(col.Name, filled)
			}
		}
		dmlEngine = eng
	})
	if dmlEngineErr != nil {
		b.Fatal(dmlEngineErr)
	}
	return dmlEngine
}

// BenchmarkDeleteRangeIndexed deletes 200 of ratingRows rows by a rid
// range: an index probe finds them and every index drops them in one
// pass. The rows go back in, at new row IDs, outside the timer.
func BenchmarkDeleteRangeIndexed(b *testing.B) {
	eng := dmlBenchEngine(b)
	ratings, _ := eng.Catalog().Get("dratings")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A span no earlier iteration of any run has deleted: the rows are
		// the loaded ones, not their re-inserted copies at the table's end.
		lo := 40000 + (dmlDeleteSpans%500)*200
		dmlDeleteSpans++
		res, err := eng.ExecSQL(fmt.Sprintf(`DELETE FROM dratings WHERE rid >= %d AND rid < %d`, lo, lo+200))
		if err != nil {
			b.Fatal(err)
		}
		if res.Affected != 200 {
			b.Fatalf("deleted %d rows", res.Affected)
		}
		b.StopTimer()
		for rid := lo; rid < lo+200; rid++ {
			if err := ratings.Insert(storage.Int(int64(rid)), storage.Int(int64((rid*31)%ratingMovies)),
				storage.Int(int64((rid*7)%1000)), storage.Float(float64(rid%9)/2+0.5)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkDeleteNoMatch is the statement behind the harness's
// engine.exec.dml_scan_ms: the count of the range says it is empty and the
// probe returns nothing; no row is read.
func BenchmarkDeleteNoMatch(b *testing.B) {
	eng := dmlBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(`DELETE FROM dratings WHERE rid < 0`)
		if err != nil {
			b.Fatal(err)
		}
		if res.Affected != 0 {
			b.Fatalf("deleted %d rows", res.Affected)
		}
	}
}

// BenchmarkUpdatePointWide updates one row of a 190-column table through
// an unindexed equality: one predicate kernel over one column, one cell
// written, whatever the width.
func BenchmarkUpdatePointWide(b *testing.B) {
	eng := dmlBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.ExecSQL(fmt.Sprintf(`UPDATE widemovies SET year = %d WHERE movie_id = %d`, 1950+i%70, (i*37)%ratingMovies))
		if err != nil {
			b.Fatal(err)
		}
		if res.Affected != 1 {
			b.Fatalf("updated %d rows", res.Affected)
		}
	}
}

// BenchmarkRangeCrossover is the measurement behind the planner's
// indexRangeShare (internal/engine/plan/access.go): one filtered count
// over a rid range of each width, read through r_rid (the probe's IDs
// fetched row by row, the residual evaluated per row) and by scanning
// (both bounds and the residual as predicate kernels over the chunks).
// The index side is planned against ratings and, where the planner
// declined the probe, put back; the scan side is planned against the
// unindexed copy. Run it with
//
//	go test -run xxx -bench RangeCrossover -benchtime 200x -cpu 1,2 .
//
// and read off the width at which path=scan starts to win.
func BenchmarkRangeCrossover(b *testing.B) {
	eng := ratingsEngine(b)
	for _, permille := range []int{1, 3, 10, 20, 30, 50, 100, 500} {
		width := ratingRows * permille / 1000
		for _, path := range []string{"index", "scan"} {
			table := map[string]string{"index": "ratings", "scan": "ratings_plain"}[path]
			sql := fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE usr > 500 AND rid >= 40000 AND rid < %d`, table, 40000+width)
			b.Run(fmt.Sprintf("width=%.1f%%/path=%s", float64(permille)/10, path), func(b *testing.B) {
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					b.Fatal(err)
				}
				p, err := eng.PlanSelect(stmt.(*sqlparse.SelectStmt))
				if err != nil {
					b.Fatal(err)
				}
				agg := p.Root.(*plan.Aggregate)
				if scan, ok := agg.Input.(*plan.Scan); ok && scan.Declined != nil {
					probe := scan.Declined
					probe.Out, probe.Dop = scan.Out, scan.Dop
					agg.Input = probe
				}
				if _, isProbe := agg.Input.(*plan.IndexRange); isProbe != (path == "index") {
					b.Fatalf("path=%s runs %s", path, agg.Input.Describe())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := engine.ExecPlan(p)
					if err != nil {
						b.Fatal(err)
					}
					if n, _ := res.Rows[0][0].AsInt(); n < int64(width)/3 {
						b.Fatalf("count = %d of a %d-row range", n, width)
					}
				}
			})
		}
	}
}
