package space

import (
	"fmt"
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

// FromModel snapshots the item coordinates of a trained model.
func FromModel(m *EuclideanModel) *Space {
	return &Space{coords: m.Items.Clone()}
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
