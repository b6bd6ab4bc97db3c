// Cleaning: identifying questionable HIT responses (§4.4, Table 4).
//
// A movie table is filled with crowd labels containing a known fraction of
// corrupted values. The database's IdentifyQuestionable primitive trains
// an SVM on the perceptual space and flags rows whose label contradicts
// their position in the space. Flagged rows are then re-elicited — the
// paper's recipe for raising data quality at minimal cost.
//
// Run with:
//
//	go run ./examples/cleaning
package main

import (
	"fmt"
	"log"
	"math/rand"

	"crowddb"
	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/storage"
)

const genre = "Horror"

func main() {
	universe, err := dataset.Generate(dataset.Movies(dataset.ScaleTiny, 11))
	if err != nil {
		log.Fatal(err)
	}
	cfg := crowddb.DefaultSpaceConfig()
	cfg.Dims = 16
	cfg.Epochs = 25
	space, err := crowddb.BuildSpace(universe.Ratings, cfg)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 30}, rng)
	db := crowddb.New(crowddb.NewSimulatedCrowd(pop, universe.CrowdItems, rng))

	mustExec(db, `CREATE TABLE movies (movie_id INTEGER, name TEXT)`)
	tbl, _ := db.Catalog().Get("movies")
	for _, it := range universe.Items {
		if err := tbl.Insert(storage.Int(int64(it.ID)), storage.Text(it.Name)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.AttachSpace("movies", "movie_id", space); err != nil {
		log.Fatal(err)
	}

	// Fill the column with reference labels, then corrupt 15% of them —
	// the controlled setting of Table 4.
	ref := universe.Categories[genre].Reference
	if _, err := tbl.AddColumn(storage.Column{Name: genre, Kind: storage.KindBool, Perceptual: true}); err != nil {
		log.Fatal(err)
	}
	vals := make([]storage.Value, len(ref))
	for i, v := range ref {
		vals[i] = storage.Bool(v)
	}
	swapped := map[int]bool{}
	for len(swapped) < len(ref)*15/100 {
		i := rng.Intn(len(ref))
		if swapped[i] {
			continue
		}
		swapped[i] = true
		b, _ := vals[i].AsBool()
		vals[i] = storage.Bool(!b)
	}
	if err := tbl.FillColumn(genre, vals); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d corrupted labels into %d rows (15%%)\n", len(swapped), len(ref))

	// Flag questionable rows.
	flagged, err := db.IdentifyQuestionable("movies", genre)
	if err != nil {
		log.Fatal(err)
	}
	tp := 0
	for _, r := range flagged {
		if swapped[r] {
			tp++
		}
	}
	fmt.Printf("flagged %d rows: precision %.2f, recall %.2f\n",
		len(flagged), float64(tp)/float64(len(flagged)), float64(tp)/float64(len(swapped)))

	// Re-elicit only the flagged rows (vs. re-crowdsourcing everything).
	schema := tbl.Schema()
	colIdx, _ := schema.Lookup(genre)
	before := countCorrect(tbl, colIdx, ref)
	ids := make([]int, 0, len(flagged))
	for _, r := range flagged {
		ids = append(ids, r) // row index == movie_id in this table
	}
	svc := crowddb.NewSimulatedCrowd(pop, universe.CrowdItems, rng)
	res := new(crowd.BatchResult)
	if err := svc.Collect([]crowddb.BatchRequest{{Question: genre, ItemIDs: ids}}, crowd.JobConfig{
		ItemsPerHIT: 10, AssignmentsPerItem: 15, PayPerHIT: 0.02,
		JudgmentsPerMinute: 95, AllowDontKnow: true,
	}, res); err != nil {
		log.Fatal(err)
	}
	votes := crowd.MajorityVote(res.Combined.Records)
	for _, r := range flagged {
		if label, ok := votes.Label[r]; ok {
			if err := tbl.Set(r, colIdx, storage.Bool(label)); err != nil {
				log.Fatal(err)
			}
		}
	}
	after := countCorrect(tbl, colIdx, ref)
	fullCost := float64(len(ref)) * 15 / 10 * 0.02
	fmt.Printf("re-elicited flagged rows for $%.2f (vs $%.2f to redo everything)\n",
		res.Combined.TotalCost, fullCost)
	fmt.Printf("correct labels: %d → %d of %d\n", before, after, len(ref))
}

func countCorrect(tbl *storage.Table, colIdx int, ref []bool) int {
	correct := 0
	tbl.Scan(func(i int, row storage.Row) bool {
		if b, ok := row[colIdx].AsBool(); ok && b == ref[i] {
			correct++
		}
		return true
	})
	return correct
}

func mustExec(db *crowddb.DB, sql string) {
	if _, _, err := db.ExecSQL(sql); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
