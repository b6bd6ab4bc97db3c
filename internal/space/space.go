package space

import (
	"fmt"
	"math/rand"
	"sort"

	"crowddb/internal/vecmath"
)

// Space is an immutable snapshot of item coordinates — the "perceptual
// space" handed to classifiers and nearest-neighbour queries. It decouples
// consumers from the factor model that produced it.
type Space struct {
	coords *vecmath.Matrix
}

// NewSpace wraps an item-coordinate matrix.
func NewSpace(coords *vecmath.Matrix) *Space { return &Space{coords: coords} }

// FromModel snapshots the item coordinates of a trained factor model.
func FromModel(m Model) *Space {
	out := vecmath.NewMatrix(m.NumItems(), m.Dims())
	for i := 0; i < m.NumItems(); i++ {
		copy(out.Row(i), m.ItemVector(i))
	}
	return &Space{coords: out}
}

// Dims returns the dimensionality.
func (s *Space) Dims() int { return s.coords.Cols }

// NumItems returns the number of items.
func (s *Space) NumItems() int { return s.coords.Rows }

// Vector returns item i's coordinates (a view; callers must not mutate).
func (s *Space) Vector(i int) []float64 { return s.coords.Row(i) }

// Coords returns the item-coordinate matrix, row i being item i (a view;
// callers must not mutate).
func (s *Space) Coords() *vecmath.Matrix { return s.coords }

// Distance returns the Euclidean distance between items i and j.
func (s *Space) Distance(i, j int) float64 {
	return vecmath.Dist(s.coords.Row(i), s.coords.Row(j))
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	Item     int
	Distance float64
}

// NearestNeighbors returns the k items closest to item (excluding itself),
// sorted by ascending distance. It is the machinery behind the paper's
// Table 2. The scan is linear — adequate for catalog-scale item counts.
func (s *Space) NearestNeighbors(item, k int) ([]Neighbor, error) {
	if item < 0 || item >= s.NumItems() {
		return nil, fmt.Errorf("space: item %d out of range [0,%d)", item, s.NumItems())
	}
	if k <= 0 {
		return nil, fmt.Errorf("space: k must be positive, got %d", k)
	}
	q := s.coords.Row(item)
	// Max-heap by distance of size k, kept as a sorted slice (k is small).
	out := make([]Neighbor, 0, k+1)
	for i := 0; i < s.NumItems(); i++ {
		if i == item {
			continue
		}
		d := vecmath.Dist(q, s.coords.Row(i))
		if len(out) == k && d >= out[len(out)-1].Distance {
			continue
		}
		pos := sort.Search(len(out), func(j int) bool { return out[j].Distance > d })
		out = append(out, Neighbor{})
		copy(out[pos+1:], out[pos:])
		out[pos] = Neighbor{Item: i, Distance: d}
		if len(out) > k {
			out = out[:k]
		}
	}
	return out, nil
}

// PairwiseConsensus computes the Pearson correlation between the space's
// item–item distances and an external dissimilarity judgment for the given
// item pairs. The paper reports 0.52 against human consensus (§4.2); the
// experiments reproduce the measurement against synthetic ground truth.
func (s *Space) PairwiseConsensus(pairs [][2]int, dissimilarity []float64) (float64, error) {
	if len(pairs) != len(dissimilarity) {
		return 0, fmt.Errorf("space: %d pairs but %d judgments", len(pairs), len(dissimilarity))
	}
	if len(pairs) == 0 {
		return 0, nil
	}
	dists := make([]float64, len(pairs))
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= s.NumItems() || p[1] < 0 || p[1] >= s.NumItems() {
			return 0, fmt.Errorf("space: pair %v out of range", p)
		}
		dists[i] = s.Distance(p[0], p[1])
	}
	return vecmath.Pearson(dists, dissimilarity), nil
}

// CVResult reports one cross-validation configuration's held-out error.
type CVResult struct {
	Dims     int
	Lambda   float64
	TestRMSE float64
}

// CrossValidate evaluates the Euclidean model over a hyperparameter grid
// using holdout validation, returning results sorted by ascending RMSE.
// This is the procedure the paper uses to choose d and λ (§3.3) — and to
// observe that the choices barely matter beyond "d large enough".
func CrossValidate(data *Dataset, base Config, dims []int, lambdas []float64, holdout float64) ([]CVResult, error) {
	if holdout <= 0 || holdout >= 1 {
		return nil, fmt.Errorf("space: holdout must be in (0,1), got %g", holdout)
	}
	var out []CVResult
	for _, d := range dims {
		for _, lam := range lambdas {
			cfg := base
			cfg.Dims = d
			cfg.Lambda = lam
			// A fixed split per configuration keeps comparisons paired.
			rng := newRand(cfg.Seed)
			train, test := data.Split(holdout, rng)
			model, _, err := TrainEuclidean(train, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, CVResult{Dims: d, Lambda: lam, TestRMSE: model.RMSE(test.Ratings)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TestRMSE != out[j].TestRMSE {
			return out[i].TestRMSE < out[j].TestRMSE
		}
		if out[i].Dims != out[j].Dims {
			return out[i].Dims < out[j].Dims
		}
		return out[i].Lambda < out[j].Lambda
	})
	return out, nil
}

// Spread reports the mean and max pairwise distance over a sample of item
// pairs; useful for diagnosing degenerate (collapsed) spaces in tests.
func (s *Space) Spread(sample int) (mean, max float64) {
	n := s.NumItems()
	if n < 2 {
		return 0, 0
	}
	count := 0
	for i := 0; i < n && count < sample; i++ {
		for j := i + 1; j < n && count < sample; j++ {
			d := s.Distance(i, j)
			mean += d
			if d > max {
				max = d
			}
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return mean / float64(count), max
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
