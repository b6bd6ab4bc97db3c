package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// spreadSample and applyBudget plan over a list of the table's item ids
// collected in full: the reference model the streamed plan is held to.

// spreadSample picks k elements evenly spread over ids (deterministic).
func spreadSample(ids []int, k int) []int {
	if k >= len(ids) {
		return append([]int(nil), ids...)
	}
	out := make([]int, 0, k)
	step := float64(len(ids)) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, ids[int(math.Floor(float64(i)*step))])
	}
	return out
}

// applyBudget keeps the largest prefix of ids whose projectedCost the
// budget covers (0 = unlimited).
func applyBudget(ids []int, opts *ExpandOptions) []int {
	if opts.Budget <= 0 {
		return ids
	}
	return ids[:sort.Search(len(ids), func(n int) bool { return projectedCost(n+1, opts) > opts.Budget })]
}

// listPlan is the model's judgeIDs for tbl: every live row's item id
// collected in scan order, those keep admits, sampled and cut.
func listPlan(t *testing.T, db *DB, tbl *storage.Table, opts *ExpandOptions, keep func(id int) bool, want func(n int) int) []int {
	t.Helper()
	snap := tbl.Pin()
	defer snap.Release()
	ids, err := itemIDs(snap, db.binding(tbl.Name()))
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	for _, id := range ids {
		if keep(id) {
			kept = append(kept, id)
		}
	}
	return applyBudget(spreadSample(kept, want(len(kept))), opts)
}

// The streamed plan — count the items, then take the sample's positions
// as they stream by, cut to what the budget affords — judges exactly the
// items the collected list did, in the same order: on tables with NULL
// ids, ids outside the space, duplicates and tombstones; without a
// budget, with a budget that is the projected cost of k items to the bit,
// and one judgment short of it; with samples smaller than the table and
// asking for more than it has. A price-only plan counts the same items
// and collects none; a plan the model finds empty fails.
func TestStreamedPlanIsTheListPlan(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open(Options{Service: &cannedService{}})
		if err != nil {
			t.Fatal(err)
		}
		rows := 1 + rng.Intn(900)
		items := 1 + rng.Intn(rows+rows/2)
		for _, ddl := range []string{`CREATE TABLE movies (movie_id INTEGER, name TEXT)`, `CREATE TABLE plain (a INTEGER)`} {
			if _, _, err := db.ExecSQL(ddl); err != nil {
				t.Fatal(err)
			}
		}
		movies, _ := db.Catalog().Get("movies")
		plain, _ := db.Catalog().Get("plain")
		for r := 0; r < rows; r++ {
			id := storage.Int(int64(rng.Intn(items)))
			switch rng.Intn(10) {
			case 0:
				id = storage.Null()
			case 1:
				id = storage.Int(int64(items + rng.Intn(5)))
			case 2:
				id = storage.Int(int64(-1 - rng.Intn(5)))
			}
			if err := movies.Insert(id, storage.Text("m")); err != nil {
				t.Fatal(err)
			}
			if err := plain.Insert(storage.Int(int64(r))); err != nil {
				t.Fatal(err)
			}
		}
		var dead []int
		for r := 0; r < rows; r++ {
			if rng.Intn(8) == 0 {
				dead = append(dead, r)
			}
		}
		movies.Delete(dead)
		plain.Delete(dead)
		if err := db.AttachSpace("movies", "movie_id", paritySpace(items, 2)); err != nil {
			t.Fatal(err)
		}

		inSpace := func(id int) bool { return id >= 0 && id < items }
		isItem := func(id int) bool { return id != noItem }
		every := func(n int) int { return n }
		cases := []struct {
			tbl    *storage.Table
			method sqlparse.ExpandMethod
			keep   func(int) bool
		}{
			{movies, sqlparse.ExpandSpace, inSpace},
			{movies, sqlparse.ExpandCrowd, isItem},
			{plain, sqlparse.ExpandCrowd, isItem},
		}
		for _, tc := range cases {
			for _, spc := range []int{1, 5, 40, 1000} {
				opts := ExpandOptions{Method: tc.method, SamplesPerClass: spc}
				opts.fillDefaults(tc.method)
				want := every
				if tc.method == sqlparse.ExpandSpace {
					want = func(n int) int { return min(n, 4*spc) }
				}
				model := listPlan(t, db, tc.tbl, &opts, tc.keep, want)
				k := 1 + rng.Intn(max(1, len(model)))
				perJudgment := opts.Job.PayPerHIT / float64(opts.Job.ItemsPerHIT)
				for _, budget := range []float64{0, projectedCost(k, &opts), float64(k*opts.Assignments-1) * perJudgment} {
					opts.Budget = budget
					what := fmt.Sprintf("seed %d, %s of %s (%d rows, %d items), %d per class, budget $%v", seed, tc.method, tc.tbl.Name(), rows, items, spc, budget)
					model := listPlan(t, db, tc.tbl, &opts, tc.keep, want)
					e, err := db.planElicitation(tc.tbl, "c", opts, false)
					if len(model) == 0 {
						if err == nil {
							t.Fatalf("%s: the list plan is empty, the streamed one judges %v", what, e.judgeIDs)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v; the list plan judges %d items", what, err, len(model))
					}
					if !slices.Equal(e.judgeIDs, model) || e.judged != len(model) {
						t.Fatalf("%s: streamed plan judges %d items %v, the list plan %v", what, e.judged, e.judgeIDs, model)
					}
					priced, err := db.planElicitation(tc.tbl, "c", opts, true)
					if err != nil || priced.judged != len(model) || priced.judgeIDs != nil || priced.projected() != projectedCost(len(model), &opts) {
						t.Fatalf("%s: price-only plan counts %d and collects %v (%v); want %d and none", what, priced.judged, priced.judgeIDs, err, len(model))
					}
				}
			}
		}
		db.Close()
	}
}

// selectItems finds every item's model whatever the order of the model
// list: over a shuffled list it returns what it returns over the
// positional one (ItemModelFunc's contract), in the order asked, repeats
// included, and an id with no model is an error either way.
func TestSelectItemsFindsModelsInAnyOrder(t *testing.T) {
	const n = 500
	positional := make([]crowd.Item, n)
	for i := range positional {
		positional[i] = crowd.Item{ID: i, Truth: i%3 == 0, Popularity: float64(i) / n, Ambiguity: float64(i%7) / 7}
	}
	shuffled := slices.Clone(positional)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	crowdOver := func(models []crowd.Item) *SimulatedCrowd {
		return NewSimulatedCrowd(nil, func(string) ([]crowd.Item, error) { return models, nil }, nil)
	}
	byIndex, bySearch := crowdOver(positional), crowdOver(shuffled)
	ids := []int{499, 0, 17, 17, 250, 3, 498, 1}
	want, err := byIndex.selectItems(nil, "q", ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bySearch.selectItems(nil, "q", ids)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("shuffled models select %v (%v), positional ones %v", got, err, want)
	}
	for k, id := range ids {
		if want[k].ID != id {
			t.Fatalf("item %d of the selection is model %d, want %d", k, want[k].ID, id)
		}
	}
	for _, sc := range []*SimulatedCrowd{byIndex, bySearch} {
		if _, err := sc.selectItems(nil, "q", []int{3, n}); err == nil {
			t.Fatal("an id without a model was selected")
		}
	}
}
