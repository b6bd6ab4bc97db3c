package crowddb_test

import (
	"context"
	"math/rand"
	"testing"

	"crowddb"
	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/storage"
)

// TestPublicAPIEndToEnd exercises the façade exactly as the package
// documentation advertises: build a space from ratings, wire a simulated
// crowd, register an expandable column, and let a query expand the schema.
func TestPublicAPIEndToEnd(t *testing.T) {
	universe, err := dataset.Generate(dataset.Movies(dataset.Scale{
		Items: 150, Users: 400, RatingsPerUser: 50,
	}, 77))
	if err != nil {
		t.Fatal(err)
	}

	cfg := crowddb.DefaultSpaceConfig()
	if cfg.Dims != 100 || cfg.Lambda != 0.02 {
		t.Fatalf("default config must mirror the paper: %+v", cfg)
	}
	cfg.Dims = 12
	cfg.Epochs = 15
	space, err := crowddb.BuildSpace(universe.Ratings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if space.NumItems() != 150 || space.Dims() != 12 {
		t.Fatalf("space shape = %d×%d", space.NumItems(), space.Dims())
	}

	rng := rand.New(rand.NewSource(77))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 30}, rng)
	db := crowddb.New(crowddb.NewSimulatedCrowd(pop, universe.CrowdItems, rng))

	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for _, it := range universe.Items {
		if err := tbl.Insert(storage.Int(int64(it.ID)), storage.Text(it.Name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AttachSpace("movies", "movie_id", space); err != nil {
		t.Fatal(err)
	}
	db.RegisterExpandable("movies", "Comedy", crowddb.KindBool,
		crowddb.ExpandOptions{SamplesPerClass: 25})

	res, report, err := db.ExecSQL(`SELECT name FROM movies WHERE Comedy = true`)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("query must have expanded the schema")
	}
	if report.Filled != 150 {
		t.Fatalf("filled = %d", report.Filled)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no comedies found")
	}
	led := db.Ledger()
	if led.Cost <= 0 || led.Cost != report.Cost {
		t.Fatalf("ledger = %+v vs report cost %v", led, report.Cost)
	}

	// The package example, as written: an async query on a second
	// registered column hands back its job; once the job is done the
	// re-issued query is answered, and an async one is answered at once.
	ctx := context.Background()
	db.RegisterExpandable("movies", "Drama", crowddb.KindBool,
		crowddb.ExpandOptions{SamplesPerClass: 25})
	const dramas = `SELECT name FROM movies WHERE Drama = true`
	var rows crowddb.RowStream
	job, err := db.Do(ctx, &rows, crowddb.Request{SQL: dramas, Mode: crowddb.ModeAsync})
	if err != nil || job == nil {
		t.Fatalf("async query on an unexpanded column: job %v, error %v", job, err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	res, report, err = db.ExecSQL(dramas)
	if err != nil || report != nil || len(res.Rows) == 0 {
		t.Fatalf("re-issued query: %d rows, report %+v, error %v", len(res.Rows), report, err)
	}
	if job, err = db.Do(ctx, &rows, crowddb.Request{SQL: dramas, Mode: crowddb.ModeAsync}); err != nil || job != nil {
		t.Fatalf("async query on a filled column: job %v, error %v", job, err)
	}
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if err := rows.Close(); err != nil || n != len(res.Rows) {
		t.Fatalf("the async answer streamed %d rows, ExecSQL %d (close: %v)", n, len(res.Rows), err)
	}

	// GoldFill is part of the façade too.
	gold := make([]crowddb.GoldValue, 0, 10)
	for i := 0; i < 10; i++ {
		gold = append(gold, crowddb.GoldValue{ItemID: i * 15, Value: float64(i)})
	}
	if _, err := db.GoldFill("movies", "score", gold); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ExecSQL(`SELECT AVG(score) FROM movies`); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSpacePropagatesErrors(t *testing.T) {
	_, err := crowddb.BuildSpace(&crowddb.RatingDataset{Items: 2, Users: 2}, crowddb.DefaultSpaceConfig())
	if err == nil {
		t.Fatal("empty ratings must fail")
	}
}
