// Package space builds perceptual spaces from Social-Web rating data.
//
// A perceptual space (paper §3) is a d-dimensional coordinate space in
// which every item and every user is a point; a user's predicted rating of
// an item falls with the squared Euclidean distance between their points:
//
//	r̂(m,u) = μ + δm + δu − ‖a_m − b_u‖²
//
// where μ is the global rating mean and δm, δu are item and user biases.
// The model parameters are fit to observed ratings by stochastic gradient
// descent on the regularized squared error of §3.3 (TrainEuclidean), and
// FromModel snapshots the item coordinates as the Space that classifiers
// and nearest-neighbour queries read.
package space

import (
	"fmt"
	"math"
)

// Rating is one ⟨item, user, score⟩ triple.
type Rating struct {
	Item  int32
	User  int32
	Score float32
}

// Dataset is a collection of ratings over item and user index spaces
// [0, Items) × [0, Users).
type Dataset struct {
	Items   int
	Users   int
	Ratings []Rating
}

// Validate checks index bounds and that every score is finite. Training on
// an out-of-range index would silently corrupt memory-adjacent rows, and
// on a NaN or infinite score would make every coordinate NaN, so
// TrainEuclidean calls this first.
func (d *Dataset) Validate() error {
	if d.Items <= 0 || d.Users <= 0 {
		return fmt.Errorf("space: dataset needs positive Items and Users, got %d×%d", d.Items, d.Users)
	}
	for i, r := range d.Ratings {
		if r.Item < 0 || int(r.Item) >= d.Items {
			return fmt.Errorf("space: rating %d has item %d out of [0,%d)", i, r.Item, d.Items)
		}
		if r.User < 0 || int(r.User) >= d.Users {
			return fmt.Errorf("space: rating %d has user %d out of [0,%d)", i, r.User, d.Users)
		}
		if s := float64(r.Score); math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("space: rating %d has non-finite score %g", i, s)
		}
	}
	return nil
}

// Mean returns the global mean rating μ, or 0 for an empty dataset.
func (d *Dataset) Mean() float64 {
	if len(d.Ratings) == 0 {
		return 0
	}
	var s float64
	for _, r := range d.Ratings {
		s += float64(r.Score)
	}
	return s / float64(len(d.Ratings))
}

// Density is the fraction of the item×user matrix that is observed
// (the paper reports 1–2% for real platforms).
func (d *Dataset) Density() float64 {
	if d.Items == 0 || d.Users == 0 {
		return 0
	}
	return float64(len(d.Ratings)) / (float64(d.Items) * float64(d.Users))
}
