// Package experiments reproduces every table and figure of the paper's
// evaluation section (§4–§5) on the synthetic substrates of this
// repository. Each experiment returns a plain result struct plus a
// Render method that prints the same rows/series the paper reports;
// cmd/experiments drives them and EXPERIMENTS.md records paper-vs-measured
// values. See DESIGN.md for the per-experiment index.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/dataset"
	"crowddb/internal/lsi"
	"crowddb/internal/space"
	"crowddb/internal/storage"
)

// Options configures an experiment environment.
type Options struct {
	// Scale selects the universe size (dataset.ScaleTiny … ScalePaper).
	Scale dataset.Scale
	// Seed drives all randomness.
	Seed int64
	// SpaceDims is the perceptual space dimensionality (paper: 100).
	SpaceDims int
	// SpaceEpochs is the SGD epoch count for space training.
	SpaceEpochs int
	// MetaDims is the LSI metadata-space dimensionality (paper: 100).
	MetaDims int
	// SampleSize is the crowd-experiment movie sample (paper: 1,000).
	SampleSize int
	// Repetitions is the random-repeat count for Tables 3–6 (paper: 20).
	Repetitions int
	// Table4Repetitions overrides Repetitions for the costly Table 4 runs
	// (training on all items); 0 means max(3, Repetitions/4).
	Table4Repetitions int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultOptions returns the configuration used by cmd/experiments:
// small scale, paper hyperparameters scaled to it.
func DefaultOptions() Options {
	return Options{
		Scale:       dataset.ScaleSmall,
		Seed:        1,
		SpaceDims:   50,
		SpaceEpochs: 30,
		MetaDims:    50,
		SampleSize:  1000,
		Repetitions: 20,
	}
}

// TinyOptions returns a CI-scale configuration (seconds, for tests and
// benchmarks).
func TinyOptions() Options {
	return Options{
		Scale:       dataset.ScaleTiny,
		Seed:        1,
		SpaceDims:   16,
		SpaceEpochs: 20,
		MetaDims:    16,
		SampleSize:  250,
		Repetitions: 3,
	}
}

// fillDefaults gives every unset field DefaultOptions' value, clamps the
// sample to the universe and derives Table4Repetitions from Repetitions.
func (o *Options) fillDefaults() {
	d := DefaultOptions()
	if o.Scale.Items == 0 {
		o.Scale = d.Scale
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	orDefault(&o.SpaceDims, d.SpaceDims)
	orDefault(&o.SpaceEpochs, d.SpaceEpochs)
	orDefault(&o.MetaDims, d.MetaDims)
	orDefault(&o.SampleSize, d.SampleSize)
	o.SampleSize = min(o.SampleSize, o.Scale.Items)
	orDefault(&o.Repetitions, d.Repetitions)
	orDefault(&o.Table4Repetitions, max(3, o.Repetitions/4))
}

// orDefault sets *v to d unless it is positive.
func orDefault(v *int, d int) {
	if *v <= 0 {
		*v = d
	}
}

// Env is a prepared experiment environment: the movie universe, its
// trained perceptual space, the LSI metadata space, and the 1,000-movie
// crowd sample shared by Experiments 1–6.
type Env struct {
	Opt   Options
	U     *dataset.Universe
	Space *space.Space
	// MetaSpace is the LSI embedding of the factual metadata.
	MetaSpace *space.Space
	// Sample is the random item subset used by the crowd experiments.
	Sample []int
	// SpaceRMSE is the factor model's final training RMSE (diagnostics).
	SpaceRMSE float64
}

func (e *Env) logf(format string, args ...interface{}) {
	if e.Opt.Log != nil {
		fmt.Fprintf(e.Opt.Log, format+"\n", args...)
	}
}

// NewEnv generates the movie universe, trains the perceptual space, and
// builds the metadata space. This is the expensive shared setup.
func NewEnv(opt Options) (*Env, error) {
	opt.fillDefaults()
	env := &Env{Opt: opt}

	start := time.Now()
	u, err := dataset.Generate(dataset.Movies(opt.Scale, opt.Seed))
	if err != nil {
		return nil, err
	}
	env.U = u
	env.logf("universe: %d movies, %d users, %d ratings (%.1fs)",
		opt.Scale.Items, opt.Scale.Users, len(u.Ratings.Ratings), time.Since(start).Seconds())

	start = time.Now()
	if env.Space, env.SpaceRMSE, err = trainSpace(u, opt); err != nil {
		return nil, err
	}
	env.logf("perceptual space: d=%d, RMSE=%.4f (%.1fs)",
		opt.SpaceDims, env.SpaceRMSE, time.Since(start).Seconds())

	start = time.Now()
	corpus, err := lsi.NewCorpus(u.Documents(opt.Seed), 2)
	if err != nil {
		return nil, err
	}
	emb, err := corpus.TruncatedSVD(opt.MetaDims, 25, opt.Seed)
	if err != nil {
		return nil, err
	}
	env.MetaSpace = space.NewSpace(emb.Coords)
	env.logf("metadata space: d=%d over %d terms (%.1fs)",
		emb.Coords.Cols, corpus.VocabSize(), time.Since(start).Seconds())

	// The fixed random 1,000-movie sample of §4.1.
	env.Sample = rand.New(rand.NewSource(opt.Seed + 1000)).Perm(opt.Scale.Items)[:opt.SampleSize]
	return env, nil
}

// trainSpace trains the perceptual space of u's ratings at opt's
// dimensions, epochs and seed, and returns it with its final training
// RMSE.
func trainSpace(u *dataset.Universe, opt Options) (*space.Space, float64, error) {
	cfg := space.DefaultConfig()
	cfg.Dims, cfg.Epochs, cfg.Seed = opt.SpaceDims, opt.SpaceEpochs, opt.Seed
	model, stats, err := space.TrainEuclidean(u.Ratings, cfg)
	if err != nil {
		return nil, 0, err
	}
	return space.FromModel(model), stats.FinalRMSE(), nil
}

// openItemDB opens an in-memory database with one table, movies, bound to
// sp by its INTEGER id column: row k holds the item ids[k] and, when
// labels is not nil, labels[k] in the BOOLEAN column label. svc answers
// the crowd's questions (nil when nothing is asked).
func openItemDB(svc core.JudgmentService, sp *space.Space, ids []int, labels []bool) (_ *core.DB, err error) {
	db := core.NewDB(svc)
	defer func() {
		if err != nil {
			db.Close()
		}
	}()
	ddl := "CREATE TABLE movies (id INTEGER)"
	if labels != nil {
		ddl = "CREATE TABLE movies (id INTEGER, label BOOLEAN)"
	}
	if _, _, err := db.ExecSQL(ddl); err != nil {
		return nil, err
	}
	tbl, _ := db.Catalog().Get("movies")
	for k, id := range ids {
		row := []storage.Value{storage.Int(int64(id))}
		if labels != nil {
			row = append(row, storage.Bool(labels[k]))
		}
		if err := tbl.Insert(row...); err != nil {
			return nil, err
		}
	}
	if err := db.AttachSpace("movies", "id", sp); err != nil {
		return nil, err
	}
	return db, nil
}

// scoreColumn reads column back from db's movies table and counts its
// non-NULL cells and those equal to the item's truth.
func scoreColumn(db *core.DB, column string, truth []bool) (filled, correct int, err error) {
	res, _, err := db.ExecSQLNoCache(fmt.Sprintf("SELECT id, %s FROM movies WHERE %s IS NOT NULL", column, column))
	if err != nil {
		return 0, 0, err
	}
	for _, row := range res.Rows {
		id, _ := row[0].AsInt()
		label, _ := row[1].AsBool()
		if label == truth[id] {
			correct++
		}
	}
	return len(res.Rows), correct, nil
}
