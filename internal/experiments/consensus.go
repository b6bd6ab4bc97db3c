package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"crowddb/internal/vecmath"
)

// ConsensusResult reproduces the §4.2 user-study measurement: the Pearson
// correlation between perceptual-space distances and perceived
// dissimilarity. The paper reports r = 0.52 for the space vs the human
// consensus — comparable to the r = 0.55 an average individual user
// achieves against the same consensus.
//
// In this reproduction the "consensus" is the latent geometry the ratings
// were generated from, and simulated individual users judge dissimilarity
// with personal noise.
type ConsensusResult struct {
	Pairs int
	// SpaceVsConsensus is the space's correlation with the consensus.
	SpaceVsConsensus float64
	// UserVsConsensus is the mean correlation of individual noisy users.
	UserVsConsensus float64
}

// RunConsensus samples item pairs and correlates learned distances with
// the latent geometry plus simulated individual judgments.
func (e *Env) RunConsensus(pairs int) (*ConsensusResult, error) {
	if pairs <= 0 {
		pairs = 2000
	}
	rng := rand.New(rand.NewSource(e.Opt.Seed + 42))
	n := e.Space.NumItems()
	if n < 2 {
		return nil, fmt.Errorf("experiments: space too small")
	}
	consensus := make([]float64, 0, pairs)
	learned := make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		consensus = append(consensus, vecmath.Dist(e.U.Latent.Row(i), e.U.Latent.Row(j)))
		learned = append(learned, e.Space.Distance(i, j))
	}
	res := &ConsensusResult{Pairs: len(consensus)}
	res.SpaceVsConsensus = vecmath.Pearson(learned, consensus)

	// Individual users: consensus + personal noise scaled to match the
	// paper's observed individual-vs-consensus agreement band.
	users := 25
	var sum float64
	std := vecmath.Mean(consensus) * 0.55
	for u := 0; u < users; u++ {
		judged := make([]float64, len(consensus))
		for k := range judged {
			judged[k] = consensus[k] + rng.NormFloat64()*std
		}
		sum += vecmath.Pearson(judged, consensus)
	}
	res.UserVsConsensus = sum / float64(users)
	e.logf("consensus: space r=%.3f, individual users r̄=%.3f over %d pairs",
		res.SpaceVsConsensus, res.UserVsConsensus, res.Pairs)
	return res, nil
}

// Render prints the measurement.
func (c *ConsensusResult) Render(w io.Writer) {
	fmt.Fprintf(w, "§4.2 similarity consensus (%d movie pairs)\n", c.Pairs)
	fmt.Fprintf(w, "  space distance vs consensus:      r = %.2f (paper: 0.52)\n", c.SpaceVsConsensus)
	fmt.Fprintf(w, "  individual users vs consensus:    r = %.2f (paper: 0.55)\n", c.UserVsConsensus)
}
