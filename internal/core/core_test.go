package core

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/dataset"
	"crowddb/internal/eval"
	"crowddb/internal/jobs"
	"crowddb/internal/space"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
	"crowddb/internal/vecmath"
)

// The test fixture builds one tiny movie universe and one trained
// perceptual space shared by all tests (training is the expensive part).
var (
	fixtureOnce sync.Once
	fixtureU    *dataset.Universe
	fixtureSp   *space.Space
)

func fixture(t *testing.T) (*dataset.Universe, *space.Space) {
	t.Helper()
	fixtureOnce.Do(func() {
		u, err := dataset.Generate(dataset.Movies(dataset.ScaleTiny, 7))
		if err != nil {
			t.Fatal(err)
		}
		cfg := space.DefaultConfig()
		cfg.Dims = 12
		cfg.Epochs = 30
		model, _, err := space.TrainEuclidean(u.Ratings, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fixtureU = u
		fixtureSp = space.FromModel(model)
	})
	return fixtureU, fixtureSp
}

// newMovieDB builds a DB loaded with the fixture's movies and an attached
// space + simulated crowd (honest population by default).
func newMovieDB(t *testing.T, spammers float64, seed int64) (*DB, *dataset.Universe) {
	t.Helper()
	u, sp := fixture(t)
	rng := rand.New(rand.NewSource(seed))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 60, SpammerFraction: spammers}, rng)
	service := NewSimulatedCrowd(pop, u.CrowdItems, rng)
	db := NewDB(service)

	if _, _, err := db.ExecSQL(`CREATE TABLE movies (movie_id INTEGER, name TEXT, year INTEGER)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("movies")
	for _, it := range u.Items {
		if err := tbl.Insert(storage.Int(int64(it.ID)), storage.Text(it.Name), storage.Int(int64(it.Year))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AttachSpace("movies", "movie_id", sp); err != nil {
		t.Fatal(err)
	}
	return db, u
}

func columnConfusion(t *testing.T, db *DB, column string, truth []bool) (filled int, conf eval.Confusion) {
	t.Helper()
	tbl, _ := db.Catalog().Get("movies")
	schema := tbl.Schema()
	colIdx, ok := schema.Lookup(column)
	if !ok {
		t.Fatalf("column %s missing", column)
	}
	idIdx, _ := schema.Lookup("movie_id")
	tbl.Scan(func(i int, row storage.Row) bool {
		v := row[colIdx]
		if v.IsNull() {
			return true
		}
		filled++
		b, _ := v.AsBool()
		id, _ := row[idIdx].AsInt()
		conf.Observe(b, truth[id])
		return true
	})
	return filled, conf
}

func columnAccuracy(t *testing.T, db *DB, column string, truth []bool) (int, float64) {
	t.Helper()
	filled, conf := columnConfusion(t, db, column, truth)
	return filled, conf.Accuracy()
}

func TestPassthroughSQL(t *testing.T) {
	db, _ := newMovieDB(t, 0, 1)
	res, rep, err := db.ExecSQL("SELECT COUNT(*) FROM movies")
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatal("plain query must not expand")
	}
	n, _ := res.Rows[0][0].AsInt()
	if int(n) != dataset.ScaleTiny.Items {
		t.Fatalf("count = %d", n)
	}
}

func TestUnregisteredMissingColumnStaysError(t *testing.T) {
	db, _ := newMovieDB(t, 0, 2)
	if _, _, err := db.ExecSQL("SELECT * FROM movies WHERE no_such_column = true"); err == nil {
		t.Fatal("typo column must stay an error")
	}
}

func TestExplicitExpandUsingCrowd(t *testing.T) {
	db, u := newMovieDB(t, 0, 3)
	res, rep, err := db.ExecSQL(
		"EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING CROWD")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || res == nil {
		t.Fatal("expansion must report")
	}
	if rep.Method != sqlparse.ExpandCrowd {
		t.Fatalf("method = %v", rep.Method)
	}
	filled, acc := columnAccuracy(t, db, "Comedy", u.Categories["Comedy"].Reference)
	if filled < 200 {
		t.Fatalf("filled = %d, want most of %d", filled, dataset.ScaleTiny.Items)
	}
	// Honest population: accuracy well above the base rate.
	if acc < 0.70 {
		t.Fatalf("crowd accuracy = %.3f", acc)
	}
	led := db.Ledger()
	if led.Cost <= 0 || led.Judgments == 0 || led.Jobs != 1 {
		t.Fatalf("ledger = %+v", led)
	}
	if vecmath.Clamp(rep.Cost, 0, 1e9) != rep.Cost || rep.Cost != led.Cost {
		t.Fatalf("report cost %v != ledger %v", rep.Cost, led.Cost)
	}
}

func TestExplicitExpandUsingSpace(t *testing.T) {
	db, u := newMovieDB(t, 0, 4)
	_, rep, err := db.ExecSQL(
		"EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING SPACE WITH SAMPLES 40")
	if err != nil {
		t.Fatal(err)
	}
	// The strategy judges ~4×SamplesPerClass items and trains on every
	// one that reaches a majority.
	if rep.TrainingSize == 0 || rep.TrainingSize > 4*40 {
		t.Fatalf("training size = %d", rep.TrainingSize)
	}
	filled, conf := columnConfusion(t, db, "Comedy", u.Categories["Comedy"].Reference)
	// SPACE fills every mappable row — 100% coverage is the headline.
	if filled != dataset.ScaleTiny.Items {
		t.Fatalf("filled = %d, want all %d", filled, dataset.ScaleTiny.Items)
	}
	// The training sample is class-balanced (Table 3 protocol), so g-mean
	// is the meaningful quality measure; tiny scale caps it well below the
	// paper's full-scale 0.80.
	if g := conf.GMean(); g < 0.5 {
		t.Fatalf("space g-mean = %.3f", g)
	}
	// Drastically cheaper than judging everything 10 times.
	if rep.Judgments >= dataset.ScaleTiny.Items*10/2 {
		t.Fatalf("space expansion used %d judgments, not cheap", rep.Judgments)
	}
}

func TestImplicitQueryDrivenExpansion(t *testing.T) {
	db, _ := newMovieDB(t, 0, 5)
	db.RegisterExpandable("movies", "Comedy", storage.KindBool, ExpandOptions{
		Method: sqlparse.ExpandSpace, SamplesPerClass: 30,
	})
	res, rep, err := db.ExecSQL("SELECT name FROM movies WHERE Comedy = true")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("query must have triggered expansion")
	}
	if len(res.Rows) == 0 {
		t.Fatal("no comedies found after expansion")
	}
	// Second query must NOT re-expand.
	_, rep2, err := db.ExecSQL("SELECT name FROM movies WHERE Comedy = true")
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != nil {
		t.Fatal("column already exists; no expansion expected")
	}
}

func TestExpandStatementDefaultsToSpaceWhenBound(t *testing.T) {
	db, _ := newMovieDB(t, 0, 6)
	_, rep, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Horror BOOLEAN")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != sqlparse.ExpandSpace {
		t.Fatalf("method = %v, want SPACE (space attached)", rep.Method)
	}
}

func TestSpammersHurtCrowdButSpaceSurvives(t *testing.T) {
	dbCrowd, u := newMovieDB(t, 0.6, 7)
	_, repCrowd, err := dbCrowd.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING CROWD")
	if err != nil {
		t.Fatal(err)
	}
	_, accCrowd := columnAccuracy(t, dbCrowd, "Comedy", u.Categories["Comedy"].Reference)

	dbSpace, _ := newMovieDB(t, 0.6, 7)
	_, repSpace, err := dbSpace.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING SPACE WITH SAMPLES 40")
	if err != nil {
		t.Fatal(err)
	}
	filledSpace, _ := columnAccuracy(t, dbSpace, "Comedy", u.Categories["Comedy"].Reference)

	// The headline coverage claim: space classifies everything, the crowd
	// leaves unknowable items unclassified or wrong.
	if filledSpace != dataset.ScaleTiny.Items {
		t.Fatalf("space filled %d", filledSpace)
	}
	if repSpace.Cost >= repCrowd.Cost {
		t.Fatalf("space cost $%.2f should undercut crowd cost $%.2f", repSpace.Cost, repCrowd.Cost)
	}
	_ = accCrowd // accuracy comparison is exercised at scale in the experiments
}

func TestBudgetShrinksWork(t *testing.T) {
	db, _ := newMovieDB(t, 0, 8)
	_, rep, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING CROWD WITH BUDGET 0.50")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost > 0.50+1e-9 {
		t.Fatalf("cost $%.4f exceeds budget", rep.Cost)
	}
	if rep.Filled+rep.Unfilled != dataset.ScaleTiny.Items {
		t.Fatalf("rows accounted = %d", rep.Filled+rep.Unfilled)
	}
	if rep.Filled >= dataset.ScaleTiny.Items/2 {
		t.Fatalf("budget $0.50 should fill only a fraction, filled %d", rep.Filled)
	}
	// Impossible budget fails loudly.
	if _, _, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Horror BOOLEAN USING CROWD WITH BUDGET 0.001"); err == nil {
		t.Fatal("hopeless budget must fail")
	}
}

func TestIdentifyQuestionable(t *testing.T) {
	db, u := newMovieDB(t, 0, 9)
	// Fill the column with the reference labels, then corrupt 15%.
	tbl, _ := db.Catalog().Get("movies")
	cat := u.Categories["Comedy"]
	vals := make([]storage.Value, len(u.Items))
	for i := range u.Items {
		vals[i] = storage.Bool(cat.Reference[i])
	}
	if _, err := tbl.AddColumn(storage.Column{Name: "Comedy", Kind: storage.KindBool, Perceptual: true}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	swapped := map[int]bool{}
	for len(swapped) < len(u.Items)*15/100 {
		i := rng.Intn(len(u.Items))
		if swapped[i] {
			continue
		}
		swapped[i] = true
		b, _ := vals[i].AsBool()
		vals[i] = storage.Bool(!b)
	}
	if err := tbl.FillColumn("Comedy", vals); err != nil {
		t.Fatal(err)
	}

	flagged, err := db.IdentifyQuestionable("movies", "Comedy")
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) == 0 {
		t.Fatal("nothing flagged")
	}
	hit := 0
	for _, r := range flagged {
		if swapped[r] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(swapped))
	precision := float64(hit) / float64(len(flagged))
	// Paper's Table 4 shape at full scale is P≈0.7/R≈0.9; at tiny scale we
	// assert the qualitative property.
	if recall < 0.5 {
		t.Fatalf("recall = %.3f, want >= 0.5", recall)
	}
	if precision < 0.3 {
		t.Fatalf("precision = %.3f, want >= 0.3", precision)
	}
}

func TestIdentifyQuestionableErrors(t *testing.T) {
	db, _ := newMovieDB(t, 0, 11)
	if _, err := db.IdentifyQuestionable("nope", "x"); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, err := db.IdentifyQuestionable("movies", "name"); err == nil {
		t.Fatal("non-bool column must fail")
	}
	if _, err := db.IdentifyQuestionable("movies", "missing"); err == nil {
		t.Fatal("missing column must fail")
	}
}

// phaseProbe records, at every crowd call, the state of the jobs in
// flight.
type phaseProbe struct {
	JudgmentService
	db     *DB
	states []jobs.State
}

func (p *phaseProbe) Collect(reqs []BatchRequest, cfg crowd.JobConfig, into *crowd.BatchResult) error {
	for _, st := range p.db.Jobs() {
		if !st.State.Terminal() {
			p.states = append(p.states, st.State)
		}
	}
	return p.JudgmentService.Collect(reqs, cfg, into)
}

func TestHybridExpansion(t *testing.T) {
	// Same seed and population for both runs: the only difference is the
	// §4.4 cleaning pass.
	dbCrowd, u := newMovieDB(t, 0.2, 12)
	if _, _, err := dbCrowd.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING CROWD"); err != nil {
		t.Fatal(err)
	}
	_, confCrowd := columnConfusion(t, dbCrowd, "Comedy", u.Categories["Comedy"].Reference)

	dbHybrid, _ := newMovieDB(t, 0.2, 12)
	probe := &phaseProbe{JudgmentService: dbHybrid.service, db: dbHybrid}
	dbHybrid.service = probe
	_, rep, err := dbHybrid.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING HYBRID")
	if err != nil {
		t.Fatal(err)
	}
	// The re-elicitation is part of the filling phase: the job never
	// moves back to sampling.
	if want := []jobs.State{jobs.StateSampling, jobs.StateFilling}; !slices.Equal(probe.states, want) {
		t.Fatalf("job states at the crowd calls: %v, want %v", probe.states, want)
	}
	if rep.Method != sqlparse.ExpandHybrid {
		t.Fatalf("method = %v", rep.Method)
	}
	if rep.Requeried == 0 {
		t.Fatal("hybrid should flag and requery tuples")
	}
	filled, confHybrid := columnConfusion(t, dbHybrid, "Comedy", u.Categories["Comedy"].Reference)
	if filled < 200 {
		t.Fatalf("filled = %d", filled)
	}
	// Cleaning must not hurt, and usually helps.
	if confHybrid.GMean() < confCrowd.GMean()-0.03 {
		t.Fatalf("hybrid g-mean %.3f fell below crowd-only %.3f",
			confHybrid.GMean(), confCrowd.GMean())
	}
}

func TestGoldFillNumericAttribute(t *testing.T) {
	db, u := newMovieDB(t, 0, 13)
	// Build a "humor" score from the comedy margin: comedies score high.
	cat := u.Categories["Comedy"]
	humor := make([]float64, len(u.Items))
	for i := range humor {
		if cat.Truth[i] {
			humor[i] = 6.5 + 2.5*vecmath.Clamp(cat.Margin[i], 0, 1)
		} else {
			humor[i] = 4.5 - 3*vecmath.Clamp(cat.Margin[i], 0, 1)
		}
	}
	var gold []GoldValue
	for i := 0; i < 60; i++ {
		gold = append(gold, GoldValue{ItemID: i * 5, Value: humor[i*5]})
	}
	rep, err := db.GoldFill("movies", "humor", gold)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filled != dataset.ScaleTiny.Items {
		t.Fatalf("filled = %d", rep.Filled)
	}
	// The paper's motivating query now runs.
	res, _, err := db.ExecSQL("SELECT name, humor FROM movies WHERE humor >= 8 ORDER BY humor DESC LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no humorous movies found")
	}
	// Most of the results should truly be comedies.
	idOf := map[string]int{}
	for _, it := range u.Items {
		idOf[it.Name] = it.ID
	}
	comedies := 0
	for _, row := range res.Rows {
		name, _ := row[0].AsText()
		if cat.Truth[idOf[name]] {
			comedies++
		}
	}
	if float64(comedies) < 0.6*float64(len(res.Rows)) {
		t.Fatalf("only %d of %d high-humor results are comedies", comedies, len(res.Rows))
	}
}

func TestGoldFillValidation(t *testing.T) {
	db, _ := newMovieDB(t, 0, 14)
	if _, err := db.GoldFill("movies", "humor", nil); err == nil {
		t.Fatal("empty gold must fail")
	}
	if _, err := db.GoldFill("nope", "humor", make([]GoldValue, 5)); err == nil {
		t.Fatal("unknown table must fail")
	}
	bad := []GoldValue{{ItemID: -1, Value: 1}, {ItemID: 1, Value: 2}, {ItemID: 2, Value: 3}, {ItemID: 3, Value: 4}}
	if _, err := db.GoldFill("movies", "humor", bad); err == nil {
		t.Fatal("out-of-space gold must fail")
	}
	// GoldFill on an existing non-float column must fail.
	if _, _, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING SPACE"); err != nil {
		t.Fatal(err)
	}
	ok := []GoldValue{{ItemID: 0, Value: 1}, {ItemID: 1, Value: 2}, {ItemID: 2, Value: 3}, {ItemID: 3, Value: 4}}
	if _, err := db.GoldFill("movies", "Comedy", ok); err == nil {
		t.Fatal("bool column must reject GoldFill")
	}
}

func TestExpandRequiresBoolKind(t *testing.T) {
	db, _ := newMovieDB(t, 0, 15)
	if _, err := db.Expand("movies", "humor", storage.KindFloat, ExpandOptions{}); err == nil {
		t.Fatal("float crowd expansion must point at GoldFill")
	}
}

func TestExpandErrors(t *testing.T) {
	db, _ := newMovieDB(t, 0, 16)
	if _, err := db.Expand("nope", "c", storage.KindBool, ExpandOptions{}); err == nil {
		t.Fatal("unknown table must fail")
	}
	// No service: crowd expansion impossible.
	db2 := NewDB(nil)
	if _, _, err := db2.ExecSQL("CREATE TABLE t (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Expand("t", "c", storage.KindBool, ExpandOptions{Method: sqlparse.ExpandCrowd}); err == nil {
		t.Fatal("missing service must fail")
	}
	// SPACE without binding.
	if _, err := db2.Expand("t", "c", storage.KindBool, ExpandOptions{Method: sqlparse.ExpandSpace}); err == nil {
		t.Fatal("missing binding must fail")
	}
}

func TestAttachSpaceValidation(t *testing.T) {
	db, _ := newMovieDB(t, 0, 17)
	_, sp := fixture(t)
	if err := db.AttachSpace("nope", "movie_id", sp); err == nil {
		t.Fatal("unknown table must fail")
	}
	if err := db.AttachSpace("movies", "nope", sp); err == nil {
		t.Fatal("unknown id column must fail")
	}
	if err := db.AttachSpace("movies", "name", sp); err == nil {
		t.Fatal("non-integer id column must fail")
	}
}

func TestLedgerAccumulatesAcrossExpansions(t *testing.T) {
	db, _ := newMovieDB(t, 0, 18)
	if _, _, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING SPACE WITH SAMPLES 20"); err != nil {
		t.Fatal(err)
	}
	l1 := db.Ledger()
	if _, _, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Horror BOOLEAN USING SPACE WITH SAMPLES 20"); err != nil {
		t.Fatal(err)
	}
	l2 := db.Ledger()
	if l2.Jobs != 2 || l2.Cost <= l1.Cost || l2.Judgments <= l1.Judgments {
		t.Fatalf("ledger did not accumulate: %+v then %+v", l1, l2)
	}
}

func TestSimulatedCrowdUnknownItem(t *testing.T) {
	u, _ := fixture(t)
	rng := rand.New(rand.NewSource(19))
	pop := crowd.NewPopulation(crowd.PopulationConfig{Workers: 5}, rng)
	svc := NewSimulatedCrowd(pop, u.CrowdItems, rng)
	err := svc.Collect([]BatchRequest{{Question: "Comedy", ItemIDs: []int{999999}}}, crowd.JobConfig{
		ItemsPerHIT: 10, AssignmentsPerItem: 1, PayPerHIT: 0.02, JudgmentsPerMinute: 95,
	}, new(crowd.BatchResult))
	if err == nil || !strings.Contains(err.Error(), "no crowd item model") {
		t.Fatalf("err = %v", err)
	}
	if err := svc.Collect([]BatchRequest{{Question: "NoSuchCategory", ItemIDs: []int{0}}}, crowd.JobConfig{}, new(crowd.BatchResult)); err == nil {
		t.Fatal("unknown question must fail")
	}
}

func TestResultMessageMentionsExpansion(t *testing.T) {
	db, _ := newMovieDB(t, 0, 20)
	res, _, err := db.ExecSQL("EXPAND TABLE movies ADD COLUMN Comedy BOOLEAN USING SPACE WITH SAMPLES 20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "expanded movies.Comedy") {
		t.Fatalf("message = %q", res.Message)
	}
}

func TestWeightedVoteOptionImprovesSpammedExpansion(t *testing.T) {
	// Moderate spam: EM reliability weighting should match or beat the
	// plain majority at identical cost.
	run := func(weighted bool) (int, float64) {
		db, u := newMovieDB(t, 0.3, 21)
		_, err := db.Expand("movies", "Comedy", storage.KindBool, ExpandOptions{
			Method: sqlparse.ExpandCrowd, WeightedVote: weighted,
		})
		if err != nil {
			t.Fatal(err)
		}
		filled, conf := columnConfusion(t, db, "Comedy", u.Categories["Comedy"].Reference)
		return filled, conf.Accuracy()
	}
	filledPlain, accPlain := run(false)
	filledWeighted, accWeighted := run(true)
	// The EM posterior almost never lands on exactly 0.5, so weighted
	// voting classifies every judged tuple (plain majority leaves ties
	// NULL). The meaningful comparison is the correct-count — coverage ×
	// accuracy — the same metric as the paper's Figures 3–4.
	if filledWeighted < filledPlain {
		t.Fatalf("weighted vote classified fewer tuples: %d vs %d", filledWeighted, filledPlain)
	}
	correctPlain := float64(filledPlain) * accPlain
	correctWeighted := float64(filledWeighted) * accWeighted
	if correctWeighted < correctPlain {
		t.Fatalf("weighted correct count %.0f fell below plain %.0f", correctWeighted, correctPlain)
	}
}

func TestDBAccessors(t *testing.T) {
	db, _ := newMovieDB(t, 0, 30)
	if db.Engine() == nil || db.Catalog() == nil {
		t.Fatal("accessors returned nil")
	}
	if _, ok := db.Catalog().Get("movies"); !ok {
		t.Fatal("catalog lost the table")
	}
}
