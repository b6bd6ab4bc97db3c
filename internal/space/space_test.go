package space

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"crowddb/internal/vecmath"
)

// syntheticWorld generates ratings from the exact generative family the
// Euclidean model assumes: items and users placed in a latent space with
// biases, ratings = μ + δm + δu − α·d² + noise, clamped to a star scale.
// Training must then recover a space whose geometry mirrors the latent one.
type syntheticWorld struct {
	data      *Dataset
	itemPos   *vecmath.Matrix // latent positions
	trueDims  int
	clusterOf []int // items come in clusters: recoverable structure
}

func makeWorld(nItems, nUsers, ratingsPerUser, trueDims int, seed int64) *syntheticWorld {
	rng := rand.New(rand.NewSource(seed))
	nClusters := 4
	centers := vecmath.NewMatrix(nClusters, trueDims)
	centers.FillRandom(rng, 2.0)

	itemPos := vecmath.NewMatrix(nItems, trueDims)
	clusterOf := make([]int, nItems)
	itemBias := make([]float64, nItems)
	for i := 0; i < nItems; i++ {
		c := rng.Intn(nClusters)
		clusterOf[i] = c
		row := itemPos.Row(i)
		copy(row, centers.Row(c))
		for k := range row {
			row[k] += rng.NormFloat64() * 0.35
		}
		itemBias[i] = rng.NormFloat64() * 0.4
	}
	userPos := vecmath.NewMatrix(nUsers, trueDims)
	userPos.FillRandom(rng, 2.0)
	userBias := make([]float64, nUsers)
	for u := range userBias {
		userBias[u] = rng.NormFloat64() * 0.3
	}

	const mu = 3.6
	const alpha = 0.25
	var ratings []Rating
	for u := 0; u < nUsers; u++ {
		seen := map[int]bool{}
		for r := 0; r < ratingsPerUser; r++ {
			m := rng.Intn(nItems)
			if seen[m] {
				continue
			}
			seen[m] = true
			d2 := vecmath.SqDist(itemPos.Row(m), userPos.Row(u))
			score := mu + itemBias[m] + userBias[u] - alpha*d2 + rng.NormFloat64()*0.3
			score = vecmath.Clamp(score, 1, 5)
			ratings = append(ratings, Rating{Item: int32(m), User: int32(u), Score: float32(score)})
		}
	}
	return &syntheticWorld{
		data:      &Dataset{Items: nItems, Users: nUsers, Ratings: ratings},
		itemPos:   itemPos,
		trueDims:  trueDims,
		clusterOf: clusterOf,
	}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Dims = 8
	cfg.Epochs = 30
	return cfg
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{Items: 2, Users: 2, Ratings: []Rating{{Item: 1, User: 1, Score: 3}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{Items: 2, Users: 2, Ratings: []Rating{{Item: 2, User: 0, Score: 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range item must fail")
	}
	bad = &Dataset{Items: 2, Users: 2, Ratings: []Rating{{Item: 0, User: -1, Score: 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative user must fail")
	}
	if err := (&Dataset{}).Validate(); err == nil {
		t.Fatal("empty shape must fail")
	}
	for _, score := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		bad = &Dataset{Items: 2, Users: 2, Ratings: []Rating{{Item: 0, User: 0, Score: 3}, {Item: 1, User: 1, Score: score}}}
		err := bad.Validate()
		if err == nil {
			t.Fatalf("score %v must fail", score)
		}
		if !strings.Contains(err.Error(), "rating 1 ") {
			t.Fatalf("score %v: error %q does not name rating 1", score, err)
		}
	}
}

func TestDatasetMeanDensity(t *testing.T) {
	d := &Dataset{Items: 10, Users: 10, Ratings: []Rating{
		{Item: 0, User: 0, Score: 2}, {Item: 1, User: 1, Score: 4},
	}}
	if got := d.Mean(); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
	if got := d.Density(); got != 0.02 {
		t.Fatalf("Density = %v", got)
	}
	if (&Dataset{Items: 1, Users: 1}).Mean() != 0 {
		t.Fatal("empty Mean must be 0")
	}
}

func TestTrainEuclideanReducesRMSE(t *testing.T) {
	w := makeWorld(120, 200, 30, 3, 3)
	model, stats, err := TrainEuclidean(w.data, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats.EpochRMSE[0], stats.FinalRMSE()
	if last >= first {
		t.Fatalf("training did not reduce RMSE: %v -> %v", first, last)
	}
	if last > 0.6 {
		t.Fatalf("final RMSE = %v, want < 0.6 on model-family data", last)
	}
	// Predictions look like ratings.
	p := model.Predict(0, 0)
	if math.IsNaN(p) || p < -5 || p > 12 {
		t.Fatalf("prediction = %v looks degenerate", p)
	}
}

func TestTrainEuclideanBetterThanBiasOnly(t *testing.T) {
	w := makeWorld(120, 200, 30, 3, 4)
	model, _, err := TrainEuclidean(w.data, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Bias-only predictor: μ + δm + δu with δ from per-entity means.
	mu := w.data.Mean()
	itemSum := make([]float64, w.data.Items)
	itemN := make([]int, w.data.Items)
	userSum := make([]float64, w.data.Users)
	userN := make([]int, w.data.Users)
	for _, r := range w.data.Ratings {
		itemSum[r.Item] += float64(r.Score) - mu
		itemN[r.Item]++
	}
	for _, r := range w.data.Ratings {
		userSum[r.User] += float64(r.Score) - mu - itemSum[r.Item]/math.Max(1, float64(itemN[r.Item]))
		userN[r.User]++
	}
	var sumSq float64
	for _, r := range w.data.Ratings {
		pred := mu + itemSum[r.Item]/math.Max(1, float64(itemN[r.Item])) +
			userSum[r.User]/math.Max(1, float64(userN[r.User]))
		e := float64(r.Score) - pred
		sumSq += e * e
	}
	biasRMSE := math.Sqrt(sumSq / float64(len(w.data.Ratings)))
	if model.RMSE(w.data.Ratings) >= biasRMSE {
		t.Fatalf("factor model (%.4f) must beat bias-only (%.4f)",
			model.RMSE(w.data.Ratings), biasRMSE)
	}
}

// The core scientific claim: the learned space groups items by their latent
// cluster, so same-cluster items are closer than cross-cluster items.
func TestEuclideanSpaceRecoversClusters(t *testing.T) {
	w := makeWorld(120, 300, 40, 3, 5)
	model, _, err := TrainEuclidean(w.data, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp := FromModel(model)
	rng := rand.New(rand.NewSource(6))
	var within, across []float64
	for k := 0; k < 4000; k++ {
		i, j := rng.Intn(120), rng.Intn(120)
		if i == j {
			continue
		}
		d := sp.Distance(i, j)
		if w.clusterOf[i] == w.clusterOf[j] {
			within = append(within, d)
		} else {
			across = append(across, d)
		}
	}
	mw := vecmath.Mean(within)
	ma := vecmath.Mean(across)
	if mw >= ma*0.8 {
		t.Fatalf("within-cluster mean distance %.3f not clearly below across-cluster %.3f", mw, ma)
	}
}

func TestNearestNeighborsFindClusterSiblings(t *testing.T) {
	w := makeWorld(120, 300, 40, 3, 7)
	model, _, err := TrainEuclidean(w.data, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp := FromModel(model)
	hits, total := 0, 0
	for item := 0; item < 40; item++ {
		nns, err := sp.NearestNeighbors(item, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(nns) != 5 {
			t.Fatalf("got %d neighbours", len(nns))
		}
		for i := 1; i < len(nns); i++ {
			if nns[i].Distance < nns[i-1].Distance {
				t.Fatal("neighbours not sorted")
			}
		}
		for _, nb := range nns {
			if nb.Item == item {
				t.Fatal("self in neighbour list")
			}
			total++
			if w.clusterOf[nb.Item] == w.clusterOf[item] {
				hits++
			}
		}
	}
	// Random guessing would hit ~25% (4 clusters). Expect far better.
	if frac := float64(hits) / float64(total); frac < 0.6 {
		t.Fatalf("cluster-sibling fraction = %.2f, want >= 0.6", frac)
	}
}

func TestNearestNeighborsErrors(t *testing.T) {
	sp := NewSpace(vecmath.NewMatrix(3, 2))
	if _, err := sp.NearestNeighbors(-1, 2); err == nil {
		t.Fatal("negative item must fail")
	}
	if _, err := sp.NearestNeighbors(3, 2); err == nil {
		t.Fatal("out-of-range item must fail")
	}
	if _, err := sp.NearestNeighbors(0, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	// k larger than the population returns everyone else.
	nns, err := sp.NearestNeighbors(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nns) != 2 {
		t.Fatalf("len = %d, want 2", len(nns))
	}
}

func TestTrainValidation(t *testing.T) {
	w := makeWorld(10, 10, 3, 2, 10)
	bad := smallConfig()
	bad.Dims = 0
	if _, _, err := TrainEuclidean(w.data, bad); err == nil {
		t.Fatal("Dims=0 must fail")
	}
	bad = smallConfig()
	bad.Epochs = 0
	if _, _, err := TrainEuclidean(w.data, bad); err == nil {
		t.Fatal("Epochs=0 must fail")
	}
	bad = smallConfig()
	bad.LearnRate = 0
	if _, _, err := TrainEuclidean(w.data, bad); err == nil {
		t.Fatal("LearnRate=0 must fail")
	}
	bad = smallConfig()
	bad.Lambda = -1
	if _, _, err := TrainEuclidean(w.data, bad); err == nil {
		t.Fatal("negative Lambda must fail")
	}
	// A non-finite or negative hyperparameter would train an all-NaN
	// space; the trainer must refuse it.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"LearnRate=NaN", func(c *Config) { c.LearnRate = nan }},
		{"LearnRate=+Inf", func(c *Config) { c.LearnRate = inf }},
		{"Lambda=NaN", func(c *Config) { c.Lambda = nan }},
		{"Lambda=+Inf", func(c *Config) { c.Lambda = inf }},
		{"LearnRateDecay=NaN", func(c *Config) { c.LearnRateDecay = nan }},
		{"LearnRateDecay=+Inf", func(c *Config) { c.LearnRateDecay = inf }},
		{"LearnRateDecay=-0.5", func(c *Config) { c.LearnRateDecay = -0.5 }},
		{"InitScale=NaN", func(c *Config) { c.InitScale = nan }},
		{"InitScale=-Inf", func(c *Config) { c.InitScale = -inf }},
		{"InitScale=-0.1", func(c *Config) { c.InitScale = -0.1 }},
	} {
		bad = smallConfig()
		c.set(&bad)
		if _, _, err := TrainEuclidean(w.data, bad); err == nil {
			t.Fatalf("%s must fail", c.name)
		}
	}
	nanScore := &Dataset{Items: 2, Users: 2, Ratings: []Rating{{Item: 1, User: 0, Score: float32(math.NaN())}}}
	if _, _, err := TrainEuclidean(nanScore, smallConfig()); err == nil {
		t.Fatal("a NaN score must fail")
	}
	empty := &Dataset{Items: 5, Users: 5}
	if _, _, err := TrainEuclidean(empty, smallConfig()); err == nil {
		t.Fatal("empty ratings must fail")
	}
	invalid := &Dataset{Items: 2, Users: 2, Ratings: []Rating{{Item: 5, User: 0}}}
	if _, _, err := TrainEuclidean(invalid, smallConfig()); err == nil {
		t.Fatal("invalid dataset must fail")
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	w := makeWorld(40, 60, 15, 2, 11)
	cfg := smallConfig()
	cfg.Epochs = 5
	m1, _, err := TrainEuclidean(w.data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := TrainEuclidean(w.data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Items.Data {
		if m1.Items.Data[i] != m2.Items.Data[i] {
			t.Fatal("equal seeds must give identical models")
		}
	}
}

func TestFromModelSnapshotIsolation(t *testing.T) {
	w := makeWorld(20, 30, 10, 2, 13)
	cfg := smallConfig()
	cfg.Epochs = 2
	model, _, err := TrainEuclidean(w.data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := FromModel(model)
	before := sp.Vector(0)[0]
	model.Items.Row(0)[0] += 100
	if sp.Vector(0)[0] != before {
		t.Fatal("FromModel must deep-copy coordinates")
	}
}
