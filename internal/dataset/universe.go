// Package dataset generates the synthetic data universes that stand in for
// the paper's external resources: the Netflix Prize rating corpus, the
// IMDb/Netflix/RottenTomatoes expert genre databases, and the Yelp and
// BoardGameGeek crawls (see DESIGN.md §4 for the substitution argument).
//
// The generative model is the one the paper's method assumes holds in the
// real world: every item and every user occupies a point in a latent
// perceptual geometry; ratings fall off with item–user distance, carry
// item/user biases and noise, and are quantized to a star scale.
// Perceptual categories are regions of the latent geometry (so they are
// recoverable from rating behaviour); factual categories are independent
// of it (so they are not — the contrast Tables 5–6 demonstrate). Expert
// databases are noisy views of the latent truth whose disagreement
// concentrates near category boundaries, which reproduces the paper's
// imperfect 0.91–0.95 inter-expert g-means.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"crowddb/internal/crowd"
	"crowddb/internal/space"
	"crowddb/internal/vecmath"
)

// CategoryKind distinguishes perceptual from factual categories.
type CategoryKind uint8

const (
	// Perceptual categories live in the latent geometry: genre, mood,
	// "party game", "trendy ambience".
	Perceptual CategoryKind = iota
	// Factual categories are independent of perception: "modular board",
	// release-era flags. They cannot be extracted from rating behaviour.
	Factual
)

func (k CategoryKind) String() string {
	if k == Factual {
		return "factual"
	}
	return "perceptual"
}

// CategorySpec declares one binary category of a universe.
type CategorySpec struct {
	Name string
	Kind CategoryKind
	// Rate is the target fraction of items with the label (e.g. 0.301 for
	// the paper's comedy base rate).
	Rate float64
}

// NamedGroup pins a set of recognizable item names to a shared location in
// the latent space. The movie preset uses it to reproduce Table 2's
// franchise neighbourhoods (Rocky / Dirty Dancing / The Birds).
type NamedGroup struct {
	Names []string
}

// Config parameterizes universe generation.
type Config struct {
	Name           string
	Items          int
	Users          int
	RatingsPerUser int
	// TrueDims is the latent geometry's dimensionality.
	TrueDims int
	// Clusters is the number of latent item clusters (taste neighbourhoods).
	Clusters int
	// RatingMax is the star-scale maximum (5 for Netflix, 10 for IMDb).
	RatingMax int
	// Categories declares the binary attributes with ground truth.
	Categories []CategorySpec
	// Experts is the number of independent expert databases (3 for movies).
	Experts int
	// ExpertBaseFlip is each expert's label error rate far from category
	// boundaries; ExpertBoundaryFlip is the additional error rate at the
	// boundary (decaying with margin).
	ExpertBaseFlip     float64
	ExpertBoundaryFlip float64
	// NamedGroups seed famous items (see NamedGroup).
	NamedGroups []NamedGroup
	Seed        int64
}

func (c *Config) validate() error {
	if c.Items <= 0 || c.Users <= 0 {
		return fmt.Errorf("dataset: Items and Users must be positive (%d, %d)", c.Items, c.Users)
	}
	if c.RatingsPerUser <= 0 {
		return fmt.Errorf("dataset: RatingsPerUser must be positive")
	}
	if c.TrueDims <= 0 || c.Clusters <= 0 {
		return fmt.Errorf("dataset: TrueDims and Clusters must be positive")
	}
	if c.RatingMax < 2 {
		return fmt.Errorf("dataset: RatingMax must be at least 2")
	}
	if len(c.Categories) == 0 {
		return fmt.Errorf("dataset: at least one category required")
	}
	named := 0
	for _, g := range c.NamedGroups {
		named += len(g.Names)
	}
	if named > c.Items {
		return fmt.Errorf("dataset: %d named items exceed %d items", named, c.Items)
	}
	for _, cat := range c.Categories {
		if cat.Rate <= 0 || cat.Rate >= 1 {
			return fmt.Errorf("dataset: category %q rate %g outside (0,1)", cat.Name, cat.Rate)
		}
	}
	return nil
}

// Item is one generated catalog entry with factual metadata.
type Item struct {
	ID       int
	Name     string
	Year     int
	Country  string
	Director string
	Actors   []string
	// Popularity in (0, 1] drives both rating volume and how likely crowd
	// workers are to know the item.
	Popularity float64
}

// Category is one generated category with all label views.
type Category struct {
	Spec CategorySpec
	// Truth is the latent ground truth (never directly observable in the
	// paper's setting; used for calibration tests only).
	Truth []bool
	// Margin is each item's distance from the category boundary, in
	// score-standard-deviation units; small margin = genuinely ambiguous.
	Margin []float64
	// Expert[e] is expert database e's label vector.
	Expert [][]bool
	// Reference is the majority vote over experts — the paper's ground
	// truth for all experiments.
	Reference []bool
}

// Universe is a fully generated synthetic domain.
type Universe struct {
	Config     Config
	Items      []Item
	Latent     *vecmath.Matrix // latent item positions (test/calibration only)
	Categories map[string]*Category
	Ratings    *space.Dataset
	// UserLatent retains user positions for diagnostics.
	UserLatent *vecmath.Matrix

	// crowdItems holds each category's crowd-simulator item models once
	// CrowdItems has computed them.
	crowdMu    sync.Mutex
	crowdItems map[string][]crowd.Item
}

// Generate builds a universe from cfg. Generation is deterministic in
// cfg.Seed.
func Generate(cfg Config) (*Universe, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	u := &Universe{Config: cfg, Categories: map[string]*Category{}}

	// --- latent geometry -------------------------------------------------
	centers := vecmath.NewMatrix(cfg.Clusters, cfg.TrueDims)
	centers.FillRandom(rng, 2.0)

	u.Latent = vecmath.NewMatrix(cfg.Items, cfg.TrueDims)
	itemBias := make([]float64, cfg.Items)

	// Named groups first: each group shares an anchor.
	idx := 0
	for _, g := range cfg.NamedGroups {
		anchor := make([]float64, cfg.TrueDims)
		for k := range anchor {
			anchor[k] = (rng.Float64()*2 - 1) * 2.2
		}
		for _, name := range g.Names {
			row := u.Latent.Row(idx)
			for k := range row {
				row[k] = anchor[k] + rng.NormFloat64()*0.15
			}
			u.Items = append(u.Items, Item{ID: idx, Name: name})
			idx++
		}
	}
	// Remaining items from the cluster mixture.
	for ; idx < cfg.Items; idx++ {
		c := rng.Intn(cfg.Clusters)
		row := u.Latent.Row(idx)
		copy(row, centers.Row(c))
		for k := range row {
			row[k] += rng.NormFloat64() * 0.55
		}
		u.Items = append(u.Items, Item{ID: idx})
	}
	for i := range itemBias {
		itemBias[i] = rng.NormFloat64() * 0.35
	}

	// --- factual metadata -------------------------------------------------
	fillMetadata(u, rng)

	// --- popularity: Zipf-ish with named items famous ---------------------
	namedCount := 0
	for _, g := range cfg.NamedGroups {
		namedCount += len(g.Names)
	}
	ranks := rng.Perm(cfg.Items)
	for i := 0; i < cfg.Items; i++ {
		if i < namedCount {
			u.Items[i].Popularity = 0.85 + rng.Float64()*0.15
			continue
		}
		r := float64(ranks[i]+1) / float64(cfg.Items) // uniform (0,1]
		u.Items[i].Popularity = vecmath.Clamp(math.Pow(r, 1.8)+0.05, 0.05, 1)
	}

	// --- categories --------------------------------------------------------
	for _, spec := range cfg.Categories {
		cat, err := generateCategory(u, spec, rng)
		if err != nil {
			return nil, err
		}
		u.Categories[spec.Name] = cat
	}

	// --- ratings ------------------------------------------------------------
	generateRatings(u, itemBias, rng)
	return u, nil
}

func generateCategory(u *Universe, spec CategorySpec, rng *rand.Rand) (*Category, error) {
	cfg := u.Config
	n := cfg.Items
	cat := &Category{Spec: spec, Truth: make([]bool, n), Margin: make([]float64, n)}

	switch spec.Kind {
	case Perceptual:
		// Category = half-space of a random direction, thresholded at the
		// quantile matching the target rate. Using the latent geometry
		// makes the label recoverable from rating behaviour.
		w := make([]float64, cfg.TrueDims)
		for k := range w {
			w[k] = rng.NormFloat64()
		}
		vecmath.Normalize(w)
		scores := make([]float64, n)
		for i := 0; i < n; i++ {
			scores[i] = vecmath.Dot(u.Latent.Row(i), w)
		}
		thr := quantile(scores, 1-spec.Rate)
		std := math.Sqrt(vecmath.Variance(scores))
		if std == 0 {
			std = 1
		}
		for i := 0; i < n; i++ {
			cat.Truth[i] = scores[i] > thr
			cat.Margin[i] = math.Abs(scores[i]-thr) / std
		}
	case Factual:
		// Independent of the latent geometry: a deterministic function of
		// factual metadata (publication era + a random salt), so experts
		// agree nearly perfectly and rating behaviour carries no signal.
		for i := 0; i < n; i++ {
			cat.Truth[i] = rng.Float64() < spec.Rate
			cat.Margin[i] = 3.0 // far from any perceptual boundary
		}
	default:
		return nil, fmt.Errorf("dataset: unknown category kind %v", spec.Kind)
	}

	// Expert databases: flip labels with probability base + boundary·e^(−3m).
	experts := cfg.Experts
	if experts <= 0 {
		experts = 3
	}
	for e := 0; e < experts; e++ {
		labels := make([]bool, n)
		for i := 0; i < n; i++ {
			p := cfg.ExpertBaseFlip + cfg.ExpertBoundaryFlip*math.Exp(-3*cat.Margin[i])
			labels[i] = cat.Truth[i]
			if rng.Float64() < p {
				labels[i] = !labels[i]
			}
		}
		cat.Expert = append(cat.Expert, labels)
	}

	// Reference = majority vote over experts.
	cat.Reference = make([]bool, n)
	for i := 0; i < n; i++ {
		votes := 0
		for e := range cat.Expert {
			if cat.Expert[e][i] {
				votes++
			}
		}
		cat.Reference[i] = votes*2 > len(cat.Expert)
	}
	return cat, nil
}

func generateRatings(u *Universe, itemBias []float64, rng *rand.Rand) {
	cfg := u.Config
	u.UserLatent = vecmath.NewMatrix(cfg.Users, cfg.TrueDims)
	u.UserLatent.FillRandom(rng, 2.0)
	userBias := make([]float64, cfg.Users)
	for i := range userBias {
		userBias[i] = rng.NormFloat64() * 0.3
	}

	// Popularity-weighted item sampling via the alias-free CDF method.
	cdf := make([]float64, cfg.Items)
	var total float64
	for i, it := range u.Items {
		total += it.Popularity
		cdf[i] = total
	}
	pickItem := func() int {
		x := rng.Float64() * total
		lo, hi := 0, cfg.Items-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Normalize the distance penalty by the empirical mean squared
	// item–user distance so that a typical pair loses ~30% of the scale
	// regardless of TrueDims; without this, high-dimensional geometries
	// would push every rating to the bottom of the scale.
	var meanD2 float64
	{
		samples := 0
		for s := 0; s < 2000; s++ {
			it := rng.Intn(cfg.Items)
			usr := rng.Intn(cfg.Users)
			meanD2 += vecmath.SqDist(u.Latent.Row(it), u.UserLatent.Row(usr))
			samples++
		}
		meanD2 /= float64(samples)
	}
	targetDrop := 0.30 * float64(cfg.RatingMax-1)
	alpha := targetDrop / meanD2
	// Center the scale so the mean rating lands near 72% of the maximum
	// (e.g. ≈3.6 stars of 5) after the average distance penalty.
	mu := float64(cfg.RatingMax)*0.72 + targetDrop

	var ratings []space.Rating
	for usr := 0; usr < cfg.Users; usr++ {
		// Rating counts vary ±50% around the mean.
		n := int(float64(cfg.RatingsPerUser) * (0.5 + rng.Float64()))
		if n < 1 {
			n = 1
		}
		seen := map[int]bool{}
		for r := 0; r < n; r++ {
			it := pickItem()
			if seen[it] {
				continue
			}
			seen[it] = true
			d2 := vecmath.SqDist(u.Latent.Row(it), u.UserLatent.Row(usr))
			score := mu + itemBias[it] + userBias[usr] - alpha*d2 + rng.NormFloat64()*0.45
			stars := math.Round(vecmath.Clamp(score, 1, float64(cfg.RatingMax)))
			ratings = append(ratings, space.Rating{
				Item:  int32(it),
				User:  int32(usr),
				Score: float32(stars),
			})
		}
	}
	u.Ratings = &space.Dataset{Items: cfg.Items, Users: cfg.Users, Ratings: ratings}
}

// quantile returns the q-quantile (0..1) of xs by sorting a copy.
func quantile(xs []float64, q float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp) == 0 {
		return 0
	}
	pos := q * float64(len(cp)-1)
	lo := int(pos)
	if lo >= len(cp)-1 {
		return cp[len(cp)-1]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// CrowdItems converts the universe's items into crowd-simulator items for
// the given category. The item's Truth is the *perceived* label: near the
// category boundary the crowd's perception systematically disagrees with
// the expert reference (deterministically per item), which is what caps
// honest-majority accuracy below 100% without inflating tie rates — the
// paper's Exp 2 stalls at 79.4% and Exp 3 at 93.5% for exactly this
// reason. Per-judgment ambiguity adds individual wobble on top.
//
// The models are a pure function of the seed and the category, and the
// rng is drawn once per item in item order, so a subset cannot be derived
// alone: a category's models are computed on its first call and the same
// slice is returned to every caller from then on. It is SHARED and must
// not be written — a caller that wants to reorder, sample or alter items
// copies them out.
func (u *Universe) CrowdItems(category string) ([]crowd.Item, error) {
	u.crowdMu.Lock()
	defer u.crowdMu.Unlock()
	if items, ok := u.crowdItems[category]; ok {
		return items, nil
	}
	cat, ok := u.Categories[category]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown category %q", category)
	}
	rng := rand.New(rand.NewSource(u.Config.Seed ^ int64(len(category))<<32 ^ 0x5eed))
	out := make([]crowd.Item, len(u.Items))
	for i, it := range u.Items {
		perceived := cat.Reference[i]
		pFlip := 0.30 * math.Exp(-2.0*cat.Margin[i])
		if rng.Float64() < pFlip {
			perceived = !perceived
		}
		amb := 0.25 * math.Exp(-2.5*cat.Margin[i])
		out[i] = crowd.Item{
			ID:         it.ID,
			Truth:      perceived,
			Popularity: it.Popularity,
			Ambiguity:  vecmath.Clamp(amb, 0, 0.35),
		}
	}
	if u.crowdItems == nil {
		u.crowdItems = make(map[string][]crowd.Item, len(u.Categories))
	}
	u.crowdItems[category] = out
	return out, nil
}

// ReferenceMap returns the reference labels of a category as an ID-keyed
// map, the shape the crowd vote-accuracy helpers expect.
func (u *Universe) ReferenceMap(category string) (map[int]bool, error) {
	cat, ok := u.Categories[category]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown category %q", category)
	}
	m := make(map[int]bool, len(cat.Reference))
	for i, v := range cat.Reference {
		m[i] = v
	}
	return m, nil
}

// CategoryNames returns the configured category names in declaration order.
func (u *Universe) CategoryNames() []string {
	out := make([]string, 0, len(u.Config.Categories))
	for _, c := range u.Config.Categories {
		out = append(out, c.Name)
	}
	return out
}

// FindItem returns the index of the item with the given name, or -1.
func (u *Universe) FindItem(name string) int {
	for i, it := range u.Items {
		if it.Name == name {
			return i
		}
	}
	return -1
}
