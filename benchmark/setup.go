package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/server"
	"crowddb/internal/space"
	"crowddb/internal/storage"
)

// The dataset is the same for every workload and every -seed: the seed
// varies the requests, not the database they are sent to, so dollars and
// fill quality repeat exactly between runs.
const (
	dataSeed      = 42
	smallMovies   = 300
	spaceDims     = 16
	spaceEpochs   = 25
	crowdWorkers  = 40
	samplesPerCls = 40
	maxAliases    = 40
	batchWindow   = 25 * time.Millisecond
)

// rating is the oracle's copy of one ratings row.
type rating struct {
	rid, movie, usr int64
	score           float64
}

// data is the generated universe, its perceptual space and the harness's
// own copy of the generated columns.
type data struct {
	u       *dataset.Universe
	sp      *space.Space
	genres  []string
	years   []int64 // by movie_id
	names   []string
	ratings []rating // by rid

	generateS, trainS float64
}

// benchScale is the benchmark's dataset: 4 000 movies and ≈146 000
// ratings (36 sealed 4096-row chunks).
var benchScale = dataset.Scale{Items: 4000, Users: 1000, RatingsPerUser: 150}

func buildData(scale dataset.Scale) (*data, error) {
	start := time.Now()
	u, err := dataset.Generate(dataset.Movies(scale, dataSeed))
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	d := &data{u: u, genres: u.CategoryNames(), generateS: time.Since(start).Seconds()}
	for _, it := range u.Items {
		d.years = append(d.years, int64(it.Year))
		d.names = append(d.names, it.Name)
	}
	for i, r := range u.Ratings.Ratings {
		d.ratings = append(d.ratings, rating{rid: int64(i), movie: int64(r.Item), usr: int64(r.User), score: float64(r.Score)})
	}

	start = time.Now()
	cfg := space.DefaultConfig()
	cfg.Dims, cfg.Epochs = spaceDims, spaceEpochs
	model, _, err := space.TrainEuclidean(u.Ratings, cfg)
	if err != nil {
		return nil, fmt.Errorf("train space: %w", err)
	}
	d.sp = space.FromModel(model)
	d.trainS = time.Since(start).Seconds()
	return d, nil
}

// baseGenre maps an alias column (Comedy_017, Comedy_d003) to the genre
// whose ground truth the simulated crowd answers with.
func baseGenre(column string) string {
	if i := strings.IndexByte(column, '_'); i >= 0 {
		return column[:i]
	}
	return column
}

func aliasColumn(genre string, alias int) string { return fmt.Sprintf("%s_%03d", genre, alias) }

// dbOptions are crowdserve's flag defaults, spelled out.
func dbOptions(d *data, dir string) core.Options {
	rng := rand.New(rand.NewSource(dataSeed))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: crowdWorkers}, rng)
	items := func(question string) ([]crowd.Item, error) { return d.u.CrowdItems(baseGenre(question)) }
	return core.Options{
		Service:         core.NewSimulatedCrowd(pop, items, rng),
		DataDir:         dir,
		Fsync:           false,
		Backend:         "mem",
		Workers:         4,
		QueueDepth:      64,
		BatchWindow:     batchWindow,
		CacheBytes:      0,
		ExecWorkers:     0,
		CompactInterval: 0,
	}
}

// instance is one served database: what a workload runs against.
type instance struct {
	d    *data
	opts core.Options
	db   *core.DB
	srv  *server.Server
	url  string
	addr string
	errc chan error

	setupS, loadS    float64
	heapBytesPerCell float64
	snapshotS        float64
	snapshotBytes    int64
}

// newInstance performs the whole set-up that setup_s times: generate,
// train, load, index, base expansions, snapshot, listener up.
func newInstance(scale dataset.Scale, dir string) (_ *instance, err error) {
	start := time.Now()
	d, err := buildData(scale)
	if err != nil {
		return nil, err
	}
	in := &instance{d: d, opts: dbOptions(d, dir)}
	in.db, err = core.Open(in.opts)
	if err != nil {
		return nil, fmt.Errorf("open db: %w", err)
	}
	defer func() {
		if err != nil {
			_ = in.db.Close() // already failing; the first error is the one reported
		}
	}()
	if err := in.load(); err != nil {
		return nil, err
	}
	if err := in.expandBase(); err != nil {
		return nil, err
	}
	snapStart := time.Now()
	if _, err := in.db.Snapshot(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	in.snapshotS = time.Since(snapStart).Seconds()
	in.snapshotBytes = dirBytes(dir, "snap-")
	if err := in.serve(); err != nil {
		return nil, err
	}
	in.setupS = time.Since(start).Seconds()
	return in, nil
}

func (in *instance) exec(sql string) error {
	if _, _, err := in.db.ExecSQL(sql); err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	return nil
}

// heapAfterGC collects twice: objects with finalizers (files, listeners
// of an earlier instance) are only freed by the second cycle.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (in *instance) load() error {
	start := time.Now()
	for _, sql := range []string{
		`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`,
		`CREATE TABLE movies_small (movie_id INTEGER, name TEXT, year INTEGER)`,
		`CREATE TABLE ratings (rid INTEGER, movie_id INTEGER, usr INTEGER, score FLOAT)`,
	} {
		if err := in.exec(sql); err != nil {
			return err
		}
	}
	movies, _ := in.db.Catalog().Get("movies")
	small, _ := in.db.Catalog().Get("movies_small")
	for i, it := range in.d.u.Items {
		row := []storage.Value{storage.Int(int64(it.ID)), storage.Text(it.Name), storage.Int(int64(it.Year))}
		if err := movies.Insert(row...); err != nil {
			return fmt.Errorf("load movies: %w", err)
		}
		if i < smallMovies {
			if err := small.Insert(row...); err != nil {
				return fmt.Errorf("load movies_small: %w", err)
			}
		}
	}
	before := heapAfterGC()
	ratings, _ := in.db.Catalog().Get("ratings")
	for _, r := range in.d.ratings {
		if err := ratings.Insert(storage.Int(r.rid), storage.Int(r.movie), storage.Int(r.usr), storage.Float(r.score)); err != nil {
			return fmt.Errorf("load ratings: %w", err)
		}
	}
	in.heapBytesPerCell = (float64(heapAfterGC()) - float64(before)) / float64(4*len(in.d.ratings))
	if err := in.exec(`CREATE INDEX r_rid ON ratings (rid)`); err != nil {
		return err
	}
	for _, t := range []string{"movies", "movies_small"} {
		if err := in.db.AttachSpace(t, "movie_id", in.d.sp); err != nil {
			return fmt.Errorf("attach space to %s: %w", t, err)
		}
	}
	in.loadS = time.Since(start).Seconds()
	return nil
}

// expandBase registers every genre and alias column and expands the six
// base genres, so the serving workloads query an already-filled column.
func (in *instance) expandBase() error {
	opts := core.ExpandOptions{SamplesPerClass: samplesPerCls}
	for _, g := range in.d.genres {
		in.db.RegisterExpandable("movies", g, storage.KindBool, opts)
		for a := 0; a < maxAliases+traceAliases+1; a++ {
			in.db.RegisterExpandable("movies", aliasColumn(g, a), storage.KindBool, opts)
		}
	}
	for _, g := range in.d.genres {
		if err := in.exec(fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, g)); err != nil {
			return fmt.Errorf("base expansion: %w", err)
		}
	}
	return nil
}

func (in *instance) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	in.addr = ln.Addr().String()
	in.url = "http://" + in.addr
	in.srv = server.New(in.db, server.Config{})
	in.errc = make(chan error, 1)
	go func() { in.errc <- in.srv.Serve(ln) }()
	return nil
}

// close stops the listener and the database and reports the first error.
func (in *instance) close(client *http.Client) error {
	var errs []error
	if client != nil {
		client.CloseIdleConnections()
	}
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, in.srv.Shutdown(ctx), <-in.errc)
		cancel()
		in.srv = nil
	}
	if in.db != nil {
		errs = append(errs, in.db.Close())
		in.db = nil
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of dir's files whose name starts with prefix
// (all files for an empty prefix).
func dirBytes(dir, prefix string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			return nil
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// logToFile routes the program's slog output (request logs included) to
// a file, as a deployed crowdserve's stderr would be.
func logToFile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(f, &slog.HandlerOptions{Level: slog.LevelInfo})))
	return f.Close, nil
}
