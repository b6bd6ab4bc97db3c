// Command crowdserve serves a crowd-enabled database over HTTP — the
// first network-servable configuration of this reproduction.
//
// It boots the paper's running example (a movie table with a perceptual
// space built from simulated Social-Web ratings and a simulated crowd
// marketplace), registers every genre as an expandable column, and then
// serves queries:
//
//	crowdserve -addr :8080 -data-dir /var/lib/crowdserve
//
//	curl -s localhost:8080/v1/query -d '{"sql":"SELECT COUNT(*) FROM movies"}'
//	curl -s localhost:8080/v1/query \
//	    -d '{"sql":"SELECT name FROM movies WHERE Comedy = true LIMIT 5","mode":"async"}'
//	curl -sN 'localhost:8080/v1/query?stream=1' \
//	    -d '{"sql":"SELECT name FROM movies ORDER BY year LIMIT 100"}'
//	curl -s localhost:8080/v1/query -d '{"sql":"EXPLAIN SELECT name FROM movies ORDER BY year LIMIT 5"}'
//	curl -s localhost:8080/v1/jobs/job-1?wait=1
//	curl -s localhost:8080/v1/ledger
//	curl -s -X POST localhost:8080/v1/admin/snapshot
//
// stream=1 serves SELECTs as NDJSON rows flushed while the scan runs;
// EXPLAIN renders the planner's operator tree (scans with pushed-down
// filters, hash joins, TopN) without executing the query.
//
// The async query returns 202 with a job handle while the crowd fills
// the column as one of the expansion scheduler's batches; concurrent reads
// keep flowing meanwhile. SIGINT/SIGTERM trigger a graceful shutdown:
// the listener drains, then in-flight expansion jobs finish.
//
// With -data-dir set, every mutation — including crowd-expanded columns
// and their cost ledger — is written to a WAL and recovered on the next
// start, so a restart never re-elicits (or re-charges for) a column the
// crowd already filled. POST /v1/admin/snapshot compacts the log. -fsync
// extends durability from process crashes to power loss.
//
// Storage hygiene: DELETE tombstones rows without moving data; the
// compactor rewrites chunks to reclaim them once sealed-region density
// crosses -compact-tombstone-frac, checking every -compact-interval
// (0 = background compaction off). POST /v1/admin/compact forces a
// sweep; GET /v1/schema/{table} reports tombstones and cumulative
// compaction counters. Every HTTP route is under /v1/; only the
// liveness probe also answers unversioned, at /healthz.
//
// Cost controls: -batch-window merges expansions of the same table that
// arrive within the window into shared HIT groups (one crowd charge for
// N columns); -default-budget caps each API key's crowd spend, enforced
// before HITs are issued. Caps can also be set per key via
//
//	curl -s localhost:8080/v1/admin/expand \
//	    -d '{"table":"movies","column":"Comedy","key":"team-a","budget":2.50}'
//	curl -s localhost:8080/v1/budgets
//
// which pre-warms a column explicitly; a request the key's budget cannot
// cover is rejected with 402, and both the cap and the spend survive
// restarts.
//
// Workload-aware serving: every query feeds a durable co-access model
// (inspect it via GET /v1/workload). -speculative-budget lets the server
// pre-expand the column the model predicts will be demanded next, inside
// the same batch window as the demand expansion — so the speculative
// HITs merge into the demand job's crowd charge; the dollar cap bounds
// total speculative spend and speculation never displaces demand work.
// SELECT results are served from a result cache keyed on the SQL text,
// probed before parsing and invalidated by a write that meets what the
// answer read; -cache-bytes sizes it (-1 disables), and ?nocache=1 on
// POST /v1/query bypasses it per request.
//
// Query execution is morsel-parallel: large scans, joins, and
// aggregations fan out across -exec-workers goroutines (0 = one per
// CPU, 1 = fully serial) while producing exactly the serial row order;
// EXPLAIN shows the chosen degree per operator as [dop=N].
//
// Observability: GET /v1/metrics serves the process-wide metric
// registry in Prometheus text format (HTTP, query, cache, storage, WAL,
// job, and crowd-cost families; catalog in DESIGN.md §17). EXPLAIN
// ANALYZE executes a SELECT and annotates each operator with actual
// rows and wall time; POST /v1/query?trace=1 returns the same per-phase
// and per-operator breakdown as JSON alongside the rows. Every response
// carries an X-Request-Id (inbound IDs propagate) and every request is
// logged structurally via log/slog. -slow-query DURATION logs any
// statement slower than the threshold with its full traced breakdown
// (this prices every SELECT at traced cost); it defaults off, keeping
// the hot path free of tracing overhead.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/server"
	"crowddb/internal/space"
	"crowddb/internal/storage"
)

// demoConfig collects everything buildDemoDB needs; the integration test
// reuses it to boot twice against one data dir.
type demoConfig struct {
	seed              int64
	items             int
	dims              int
	epochs            int
	crowdWorkers      int
	spammers          float64
	dataDir           string
	fsync             bool
	compactInterval   time.Duration
	compactFrac       float64
	expansionWorkers  int
	expansionQueue    int
	batchWindow       time.Duration
	defaultBudget     float64
	speculativeBudget float64
	cacheBytes        int64
	execWorkers       int
	slowQuery         time.Duration
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Int64("seed", 42, "universe and marketplace RNG seed")
		items       = flag.Int("items", dataset.ScaleTiny.Items, "movies in the demo universe")
		dims        = flag.Int("dims", 16, "perceptual-space dimensionality")
		epochs      = flag.Int("epochs", 25, "space training epochs")
		workers     = flag.Int("crowd-workers", 40, "simulated crowd population size")
		spammers    = flag.Float64("spammers", 0, "spammer fraction of the crowd population")
		maxInflight = flag.Int("max-inflight", 64, "admitted concurrent /query requests")

		dataDir         = flag.String("data-dir", "", "durability directory for WAL+snapshots (empty = in-memory)")
		fsync           = flag.Bool("fsync", false, "fsync WAL batches (survive power loss, not just crashes)")
		compactInterval = flag.Duration("compact-interval", 0,
			"background tombstone-compaction sweep interval (0 = off; POST /v1/admin/compact forces a sweep either way)")
		compactFrac = flag.Float64("compact-tombstone-frac", 0,
			"sealed-region tombstone density that admits a background compaction (0 = default 0.30)")
		expWork = flag.Int("expansion-workers", 4, "expansion scheduler worker-pool size")
		expQ    = flag.Int("expansion-queue", 64, "expansion scheduler admission-queue depth")

		batchWindow = flag.Duration("batch-window", 25*time.Millisecond,
			"batching window for merging same-table expansions into shared HIT groups (0 = every expansion is its own crowd job)")
		defaultBudget = flag.Float64("default-budget", 0,
			"default per-API-key crowd budget cap in dollars for keys without an explicit cap (0 = uncapped)")
		speculativeBudget = flag.Float64("speculative-budget", 0,
			"dollar cap for workload-predicted pre-expansions (0 = speculation off); requires -batch-window > 0 to merge with demand HIT groups")
		cacheBytes = flag.Int64("cache-bytes", 0,
			"semantic result cache size in bytes (0 = default 64 MiB, negative = cache disabled)")
		execWorkers = flag.Int("exec-workers", 0,
			"degree of intra-query parallelism for SELECT execution (0 = GOMAXPROCS, 1 = serial)")
		pprofOn = flag.Bool("pprof", false,
			"mount net/http/pprof under /debug/pprof/ on the API port (profiles expose internals; enable only on trusted networks)")
		slowQuery = flag.Duration("slow-query", 0,
			"log statements slower than this threshold with a traced phase/operator breakdown (0 = off; setting it runs every SELECT traced)")
	)
	flag.Parse()

	db, err := buildDemoDB(demoConfig{
		seed: *seed, items: *items, dims: *dims, epochs: *epochs,
		crowdWorkers: *workers, spammers: *spammers,
		dataDir: *dataDir, fsync: *fsync,
		compactInterval: *compactInterval, compactFrac: *compactFrac,
		expansionWorkers: *expWork, expansionQueue: *expQ,
		batchWindow: *batchWindow, defaultBudget: *defaultBudget,
		speculativeBudget: *speculativeBudget, cacheBytes: *cacheBytes,
		execWorkers: *execWorkers,
		slowQuery:   *slowQuery,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			log.Printf("crowdserve: close: %v", err)
		}
	}()

	srv := server.New(db, server.Config{MaxInflight: *maxInflight, EnablePprof: *pprofOn})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	durability := "in-memory"
	if *dataDir != "" {
		durability = "durable at " + *dataDir
	}
	log.Printf("crowdserve: listening on %s (%d movies, %d-d space, %s)", *addr, *items, *dims, durability)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("crowdserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("crowdserve: shutdown: %v", err)
	}
	led := db.Ledger()
	log.Printf("crowdserve: session spend $%.2f for %d judgments in %d crowd jobs",
		led.Cost, led.Judgments, led.Jobs)
}

// buildDemoDB assembles the paper's running example: a movie table, a
// perceptual space trained on the universe's ratings, a simulated crowd,
// and one registered expandable column per genre. With a data dir, prior
// state — rows, expanded columns, ledger, job history — is recovered
// first and the demo data is only seeded into an empty catalog.
func buildDemoDB(cfg demoConfig) (*core.DB, error) {
	scale := dataset.ScaleTiny
	if cfg.items > 0 {
		scale.Items = cfg.items
	}
	u, err := dataset.Generate(dataset.Movies(scale, cfg.seed))
	if err != nil {
		return nil, err
	}

	spaceCfg := space.DefaultConfig()
	spaceCfg.Dims = cfg.dims
	spaceCfg.Epochs = cfg.epochs
	model, _, err := space.TrainEuclidean(u.Ratings, spaceCfg)
	if err != nil {
		return nil, err
	}
	sp := space.FromModel(model)

	rng := rand.New(rand.NewSource(cfg.seed))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: cfg.crowdWorkers, SpammerFraction: cfg.spammers}, rng)
	db, err := core.Open(core.Options{
		Service:              core.NewSimulatedCrowd(pop, u.CrowdItems, rng),
		DataDir:              cfg.dataDir,
		Fsync:                cfg.fsync,
		CompactInterval:      cfg.compactInterval,
		CompactTombstoneFrac: cfg.compactFrac,
		Workers:              cfg.expansionWorkers, QueueDepth: cfg.expansionQueue,
		BatchWindow:       cfg.batchWindow,
		DefaultBudget:     cfg.defaultBudget,
		SpeculativeBudget: cfg.speculativeBudget,
		CacheBytes:        cfg.cacheBytes,
		ExecWorkers:       cfg.execWorkers,
		SlowQuery:         cfg.slowQuery,
	})
	if err != nil {
		return nil, err
	}

	// Recovery may have brought the table (and its paid-for expanded
	// columns) back from the WAL; seed only a fresh database.
	if _, recovered := db.Catalog().Get("movies"); !recovered {
		if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
			db.Close()
			return nil, err
		}
		tbl, _ := db.Catalog().Get("movies")
		for _, it := range u.Items {
			if err := tbl.Insert(storage.Int(int64(it.ID)), storage.Text(it.Name), storage.Int(int64(it.Year))); err != nil {
				db.Close()
				return nil, err
			}
		}
	}
	// Binding and registry writes are idempotent; re-issuing them each
	// boot keeps them current with the freshly trained space.
	if err := db.AttachSpace("movies", "movie_id", sp); err != nil {
		db.Close()
		return nil, err
	}
	for name := range u.Categories {
		db.RegisterExpandable("movies", name, storage.KindBool,
			core.ExpandOptions{SamplesPerClass: 40})
	}
	if len(u.Categories) == 0 {
		db.Close()
		return nil, fmt.Errorf("crowdserve: universe has no categories to register")
	}
	return db, nil
}
