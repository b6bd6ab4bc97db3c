package dataset

import (
	"math"
	"slices"
	"sync"
	"testing"

	"crowddb/internal/crowd"
	"crowddb/internal/eval"
	"crowddb/internal/space"
	"crowddb/internal/vecmath"
)

func tinyMovies(t *testing.T) *Universe {
	t.Helper()
	u, err := Generate(Movies(ScaleTiny, 1))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestGenerateValidation(t *testing.T) {
	bad := Movies(ScaleTiny, 1)
	bad.Items = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero items must fail")
	}
	bad = Movies(ScaleTiny, 1)
	bad.Categories = nil
	if _, err := Generate(bad); err == nil {
		t.Fatal("no categories must fail")
	}
	bad = Movies(ScaleTiny, 1)
	bad.Categories = []CategorySpec{{Name: "X", Rate: 1.5}}
	if _, err := Generate(bad); err == nil {
		t.Fatal("rate out of range must fail")
	}
	bad = Movies(ScaleTiny, 1)
	bad.Items = 5 // fewer than the named movies
	if _, err := Generate(bad); err == nil {
		t.Fatal("named groups exceeding items must fail")
	}
	bad = Movies(ScaleTiny, 1)
	bad.RatingMax = 1
	if _, err := Generate(bad); err == nil {
		t.Fatal("rating scale < 2 must fail")
	}
}

func TestUniverseShape(t *testing.T) {
	u := tinyMovies(t)
	if len(u.Items) != ScaleTiny.Items {
		t.Fatalf("items = %d", len(u.Items))
	}
	if len(u.Categories) != len(MovieGenres) {
		t.Fatalf("categories = %d", len(u.Categories))
	}
	if u.Ratings == nil || len(u.Ratings.Ratings) == 0 {
		t.Fatal("no ratings generated")
	}
	if err := u.Ratings.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every item has metadata.
	for _, it := range u.Items {
		if it.Name == "" || it.Year < 1900 || it.Country == "" || it.Director == "" || len(it.Actors) == 0 {
			t.Fatalf("incomplete metadata: %+v", it)
		}
		if it.Popularity <= 0 || it.Popularity > 1 {
			t.Fatalf("popularity out of range: %v", it.Popularity)
		}
	}
}

func TestRatingsLookLikeStars(t *testing.T) {
	u := tinyMovies(t)
	for _, r := range u.Ratings.Ratings {
		if r.Score < 1 || r.Score > 5 || r.Score != float32(math.Trunc(float64(r.Score))) {
			t.Fatalf("score %v is not a 1..5 star value", r.Score)
		}
	}
	mean := u.Ratings.Mean()
	if mean < 2.5 || mean > 4.5 {
		t.Fatalf("mean rating = %v, implausible", mean)
	}
}

func TestCategoryRatesApproximateTargets(t *testing.T) {
	u := tinyMovies(t)
	for name, cat := range u.Categories {
		got := 0
		for _, v := range cat.Truth {
			if v {
				got++
			}
		}
		rate := float64(got) / float64(len(cat.Truth))
		if math.Abs(rate-cat.Spec.Rate) > 0.05 {
			t.Errorf("category %s rate = %.3f, target %.3f", name, rate, cat.Spec.Rate)
		}
	}
}

// Expert databases must land in the paper's quality band: individually
// imperfect (g-mean ≈ 0.91–0.95 vs the majority reference) but far better
// than chance.
func TestExpertGMeanBand(t *testing.T) {
	u, err := Generate(Movies(Scale{Items: 2000, Users: 100, RatingsPerUser: 5}, 2))
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, cat := range u.Categories {
		for e := range cat.Expert {
			c := eval.CompareLabels(cat.Expert[e], cat.Reference)
			all = append(all, c.GMean())
		}
	}
	mean, _ := eval.MeanStd(all)
	if mean < 0.87 || mean > 0.98 {
		t.Fatalf("mean expert g-mean = %.3f, want in [0.87, 0.98]", mean)
	}
}

func TestNamedGroupsShareNeighbourhoods(t *testing.T) {
	u := tinyMovies(t)
	rocky := u.FindItem("Rocky (1976)")
	rocky2 := u.FindItem("Rocky II (1979)")
	birds := u.FindItem("The Birds (1963)")
	if rocky < 0 || rocky2 < 0 || birds < 0 {
		t.Fatal("named movies missing")
	}
	same := vecmath.Dist(u.Latent.Row(rocky), u.Latent.Row(rocky2))
	diff := vecmath.Dist(u.Latent.Row(rocky), u.Latent.Row(birds))
	if same >= diff {
		t.Fatalf("franchise distance %v must be below cross-style %v", same, diff)
	}
	if u.FindItem("No Such Movie") != -1 {
		t.Fatal("FindItem must return -1 for unknown names")
	}
}

func TestNamedItemsAreFamous(t *testing.T) {
	u := tinyMovies(t)
	for i := 0; i < 18; i++ { // 3 groups × 6 names
		if u.Items[i].Popularity < 0.8 {
			t.Fatalf("named item %q popularity %v, want famous", u.Items[i].Name, u.Items[i].Popularity)
		}
	}
}

func TestCrowdItems(t *testing.T) {
	u := tinyMovies(t)
	items, err := u.CrowdItems("Comedy")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(u.Items) {
		t.Fatal("length mismatch")
	}
	cat := u.Categories["Comedy"]
	agree := 0
	for i, it := range items {
		if it.Truth == cat.Reference[i] {
			agree++
		}
		if it.Ambiguity < 0 || it.Ambiguity > 0.35 {
			t.Fatalf("ambiguity %v out of range", it.Ambiguity)
		}
	}
	// Perception mostly follows the reference but systematically diverges
	// near category boundaries (that is the point).
	rate := float64(agree) / float64(len(items))
	if rate < 0.80 || rate == 1.0 {
		t.Fatalf("perceived/reference agreement = %.3f, want in [0.80, 1)", rate)
	}
	// Determinism: the same universe generated again perceives the same.
	again, err := tinyMovies(t).CrowdItems("Comedy")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(items, again) {
		t.Fatal("CrowdItems must be deterministic")
	}
	if _, err := u.CrowdItems("NoSuch"); err == nil {
		t.Fatal("unknown category must fail")
	}
}

// A category's models are computed once: the second call allocates nothing
// and returns the first call's backing array, whoever made the first call.
func TestCrowdItemsAreComputedOnce(t *testing.T) {
	u := tinyMovies(t)
	const callers = 8
	got := make([][]crowd.Item, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items, err := u.CrowdItems("Drama")
			if err != nil {
				t.Error(err)
			}
			got[c] = items
		}()
	}
	wg.Wait()
	want, err := tinyMovies(t).CrowdItems("Drama")
	if err != nil {
		t.Fatal(err)
	}
	for c, items := range got {
		if len(items) == 0 || &items[0] != &got[0][0] {
			t.Fatalf("caller %d got its own slice", c)
		}
		if !slices.Equal(items, want) {
			t.Fatalf("caller %d's models differ from a fresh universe's", c)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		items, err := u.CrowdItems("Drama")
		if err != nil || &items[0] != &got[0][0] {
			t.Fatal("a later call returned another slice")
		}
	}); allocs != 0 {
		t.Fatalf("a second CrowdItems of a category allocates %.0f objects, want 0", allocs)
	}
	// Categories do not share models.
	other, err := u.CrowdItems("Comedy")
	if err != nil || &other[0] == &got[0][0] {
		t.Fatalf("Comedy returned Drama's slice (err %v)", err)
	}
}

func TestReferenceMap(t *testing.T) {
	u := tinyMovies(t)
	m, err := u.ReferenceMap("Horror")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(u.Items) {
		t.Fatal("length mismatch")
	}
	if _, err := u.ReferenceMap("NoSuch"); err == nil {
		t.Fatal("unknown category must fail")
	}
}

func TestFactualCategoriesUncorrelatedWithGeometry(t *testing.T) {
	u, err := Generate(BoardGames(ScaleTiny, 3))
	if err != nil {
		t.Fatal(err)
	}
	cat := u.Categories["Modular Board"]
	if cat.Spec.Kind != Factual {
		t.Fatal("Modular Board should be factual")
	}
	// Correlate the label with each latent coordinate: should be noise.
	n := len(cat.Truth)
	labels := make([]float64, n)
	for i, v := range cat.Truth {
		if v {
			labels[i] = 1
		}
	}
	for k := 0; k < u.Config.TrueDims; k++ {
		coord := make([]float64, n)
		for i := 0; i < n; i++ {
			coord[i] = u.Latent.At(i, k)
		}
		// Items are clustered, so coordinates are not i.i.d. across
		// items; allow sampling noise but reject real coupling.
		if r := math.Abs(vecmath.Pearson(labels, coord)); r > 0.25 {
			t.Fatalf("factual label correlates with latent dim %d (r=%.3f)", k, r)
		}
	}
}

func TestPerceptualCategoriesFollowGeometry(t *testing.T) {
	u := tinyMovies(t)
	cat := u.Categories["Comedy"]
	n := len(cat.Truth)
	labels := make([]float64, n)
	for i, v := range cat.Truth {
		if v {
			labels[i] = 1
		}
	}
	// At least one latent dimension must correlate clearly.
	best := 0.0
	for k := 0; k < u.Config.TrueDims; k++ {
		coord := make([]float64, n)
		for i := 0; i < n; i++ {
			coord[i] = u.Latent.At(i, k)
		}
		if r := math.Abs(vecmath.Pearson(labels, coord)); r > best {
			best = r
		}
	}
	if best < 0.2 {
		t.Fatalf("perceptual label correlates with no latent dim (best r=%.3f)", best)
	}
}

func TestDocumentsShape(t *testing.T) {
	u := tinyMovies(t)
	docs := u.Documents(4)
	if len(docs) != len(u.Items) {
		t.Fatal("one document per item required")
	}
	for i, d := range docs {
		if len(d) < 10 {
			t.Fatalf("document %d suspiciously short: %v", i, d)
		}
	}
	// Determinism, token for token.
	again := u.Documents(4)
	for i := range docs {
		if !slices.Equal(docs[i], again[i]) {
			t.Fatalf("document %d differs across equal seeds:\n%v\n%v", i, docs[i], again[i])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	u1 := tinyMovies(t)
	u2 := tinyMovies(t)
	if len(u1.Ratings.Ratings) != len(u2.Ratings.Ratings) {
		t.Fatal("rating counts differ across equal seeds")
	}
	for i := range u1.Ratings.Ratings {
		if u1.Ratings.Ratings[i] != u2.Ratings.Ratings[i] {
			t.Fatal("ratings differ across equal seeds")
		}
	}
	for name, c1 := range u1.Categories {
		c2 := u2.Categories[name]
		for i := range c1.Reference {
			if c1.Reference[i] != c2.Reference[i] {
				t.Fatal("references differ across equal seeds")
			}
		}
	}
}

func TestDomainPresets(t *testing.T) {
	for _, cfg := range []Config{
		Movies(ScaleTiny, 1), Restaurants(ScaleTiny, 1), BoardGames(ScaleTiny, 1),
	} {
		if err := cfg.validate(); err != nil {
			t.Fatalf("%s preset invalid: %v", cfg.Name, err)
		}
	}
	if len(BoardGameCategories) != 20 {
		t.Fatalf("board games need 20 categories (paper), got %d", len(BoardGameCategories))
	}
	if len(RestaurantCategories) != 10 {
		t.Fatalf("restaurants need 10 categories (paper), got %d", len(RestaurantCategories))
	}
	bg, err := Generate(BoardGames(ScaleTiny, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bg.Ratings.Ratings {
		if r.Score < 1 || r.Score > 10 {
			t.Fatalf("BGG score %v outside 1..10", r.Score)
		}
	}
}

// End-to-end sanity: a space trained on generated ratings recovers the
// latent geometry — learned item–item distances correlate with latent
// distances (this is the property every downstream experiment relies on;
// the paper's §4.2 user study measures the same thing against human
// consensus and reports r = 0.52).
func TestSpaceTrainedOnUniverseRecoversGeometry(t *testing.T) {
	u := tinyMovies(t)
	cfg := space.DefaultConfig()
	cfg.Dims = 12
	cfg.Epochs = 30
	model, _, err := space.TrainEuclidean(u.Ratings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := space.FromModel(model)
	var learned, latent []float64
	for i := 0; i < 120; i++ {
		for j := i + 1; j < 120; j++ {
			learned = append(learned, sp.Distance(i, j))
			latent = append(latent, vecmath.Dist(u.Latent.Row(i), u.Latent.Row(j)))
		}
	}
	if r := vecmath.Pearson(learned, latent); r < 0.35 {
		t.Fatalf("learned/latent distance correlation = %.3f, want >= 0.35", r)
	}
}

func TestCategoryKindString(t *testing.T) {
	if Perceptual.String() != "perceptual" || Factual.String() != "factual" {
		t.Fatal("kind strings wrong")
	}
}

func TestCategoryNamesOrder(t *testing.T) {
	u := tinyMovies(t)
	names := u.CategoryNames()
	if len(names) != len(MovieGenres) {
		t.Fatalf("names = %v", names)
	}
	for i, spec := range MovieGenres {
		if names[i] != spec.Name {
			t.Fatalf("declaration order broken: %v", names)
		}
	}
}
