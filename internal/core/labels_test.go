package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/space"
	"crowddb/internal/storage"
)

// baseGenreDigest is the SHA-256 of the six base-genre columns of the
// benchmark's database (data seed 42: 4 000 movies, 16-d space, 25
// epochs, 40 workers), one byte per cell in row order, taken on the
// commit before the expansion path became typed. The labels the paper's
// path writes — and with them fill_gmean and dollars_per_column — may not
// move when the path gets faster.
const baseGenreDigest = "e165ca5a8a0f55307494c4dc5651b85a5ea7471ecb18b0ab44020e29da943fb5"

func TestBaseGenreLabelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the benchmark's 4 000-item space")
	}
	u, err := dataset.Generate(dataset.Movies(dataset.Scale{Items: 4000, Users: 1000, RatingsPerUser: 150}, 42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.DefaultConfig()
	cfg.Dims, cfg.Epochs = 16, 25
	model, _, err := space.TrainEuclidean(u.Ratings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 40}, rng)
	db, err := Open(Options{Service: NewSimulatedCrowd(pop, u.CrowdItems, rng), BatchWindow: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for _, it := range u.Items {
		if err := tbl.Insert(storage.Int(int64(it.ID)), storage.Text(it.Name), storage.Int(int64(it.Year))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AttachSpace("movies", "movie_id", space.FromModel(model)); err != nil {
		t.Fatal(err)
	}
	genres := u.CategoryNames()
	for _, g := range genres {
		db.RegisterExpandable("movies", g, storage.KindBool, ExpandOptions{SamplesPerClass: 40})
	}
	for _, g := range genres {
		if _, _, err := db.ExecSQL(fmt.Sprintf(`SELECT COUNT(*) FROM movies WHERE %s = true`, g)); err != nil {
			t.Fatal(err)
		}
	}

	h := sha256.New()
	schema := tbl.Schema()
	for _, g := range genres {
		col, ok := schema.Lookup(g)
		if !ok {
			t.Fatalf("column %s missing", g)
		}
		cells := make([]byte, 0, tbl.NumRows())
		cur := tbl.NewCursor(0)
		cur.SetCols([]int{col})
		for {
			row, ok := cur.Next()
			if !ok {
				break
			}
			switch b, isBool := row[0].AsBool(); {
			case !isBool:
				cells = append(cells, 2)
			case b:
				cells = append(cells, 1)
			default:
				cells = append(cells, 0)
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(u.Items) {
			t.Fatalf("%s: %d cells for %d movies", g, len(cells), len(u.Items))
		}
		h.Write([]byte(g))
		h.Write(cells)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != baseGenreDigest {
		t.Fatalf("base genre labels moved: digest %s, pinned %s (ledger %+v)", got, baseGenreDigest, db.Ledger())
	}
}
