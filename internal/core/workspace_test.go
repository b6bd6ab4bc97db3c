package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/vecmath"
)

// questionCrowd answers every question from a simulated job of its own:
// the items' truth and the job's random source are functions of the
// question alone, so a question gets the same judgments whenever it is
// asked and whatever runs beside it. It is safe for concurrent use.
type questionCrowd struct{ pop *crowd.Population }

func (s questionCrowd) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	return perQuestion(s.run).Collect(reqs, cfg, into)
}

func (s questionCrowd) run(question string, ids []int, cfg crowd.JobConfig) (*crowd.RunResult, error) {
	h := fnv.New64a()
	h.Write([]byte(question))
	seed := int64(h.Sum64() >> 1)
	items := make([]crowd.Item, len(ids))
	for i, id := range ids {
		items[i] = crowd.Item{ID: id, Truth: (id*int(seed%7+3))%5 < 2, Popularity: 1}
	}
	return crowd.RunJob(s.pop, items, cfg, rand.New(rand.NewSource(seed)))
}

// Expansions running at once each hold a workspace of their own — votes,
// model and predicted labels — from the vote to the end of the fill: two
// tables expanded at once on the scheduler's four workers get the labels
// the same expansions get one at a time. A workspace handed on too early
// (given back after training, say) lets one expansion predict with
// another's model or fill from another's votes; under -race it is also a
// data race.
func TestConcurrentSpaceExpansionsShareNoWorkspace(t *testing.T) {
	const rows, columns = 600, 8
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 20}, rand.New(rand.NewSource(4)))
	coords := vecmath.NewMatrix(rows, 4)
	rng := rand.New(rand.NewSource(9))
	for i := range coords.Data {
		coords.Data[i] = rng.NormFloat64()
	}
	sp := space.NewSpace(coords)
	tables := []string{"left_t", "right_t"}
	type expansion struct {
		table, column string
		method        sqlparse.ExpandMethod
	}
	var all []expansion
	for _, tbl := range tables {
		for c := 0; c < columns; c++ {
			all = append(all, expansion{tbl, fmt.Sprintf("s%d", c), sqlparse.ExpandSpace})
		}
		all = append(all, expansion{tbl, "crowd0", sqlparse.ExpandCrowd}, expansion{tbl, "crowd1", sqlparse.ExpandCrowd})
	}
	open := func() *DB {
		db, err := Open(Options{Service: questionCrowd{pop}, Workers: 4, BatchWindow: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tables {
			if _, _, err := db.ExecSQL(`CREATE TABLE ` + name + ` (movie_id INTEGER)`); err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.Catalog().Get(name)
			for i := 0; i < rows; i++ {
				if err := tbl.Insert(storage.Int(int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.AttachSpace(name, "movie_id", sp); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	submit := func(db *DB, x expansion) *jobs.Job {
		job, err := db.SubmitExpand(x.table, x.column, storage.KindBool, ExpandOptions{Method: x.method})
		if err != nil {
			t.Fatalf("%s.%s: %v", x.table, x.column, err)
		}
		return job
	}
	wait := func(job *jobs.Job, x expansion) {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Errorf("%s.%s: %v", x.table, x.column, err)
		}
	}
	column := func(db *DB, x expansion) []storage.Value {
		res, _, err := db.ExecSQL(`SELECT ` + x.column + ` FROM ` + x.table)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]storage.Value, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = row[0]
		}
		return out
	}

	serial := open()
	defer serial.Close()
	for _, x := range all {
		wait(submit(serial, x), x)
	}
	// Three rounds on one database: a re-expansion re-elicits the column,
	// and the crowd answers a question the same way every time.
	concurrent := open()
	defer concurrent.Close()
	for round := 0; round < 3 && !t.Failed(); round++ {
		running := make([]*jobs.Job, len(all))
		for i, x := range all {
			running[i] = submit(concurrent, x)
		}
		for i, x := range all {
			wait(running[i], x)
		}
		for _, x := range all {
			want, got := column(serial, x), column(concurrent, x)
			if !slices.Equal(want, got) {
				diff := 0
				for i := range want {
					if want[i] != got[i] {
						diff++
					}
				}
				t.Errorf("round %d: %s.%s: %d of %d cells differ from the serial run", round, x.table, x.column, diff, len(want))
			}
		}
	}
}
