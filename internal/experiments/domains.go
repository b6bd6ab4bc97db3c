package experiments

import (
	"fmt"
	"io"

	"crowddb/internal/dataset"
	"crowddb/internal/svm"
)

// DomainRow is one category's small-sample g-means in a non-movie domain.
type DomainRow struct {
	Category string
	Kind     dataset.CategoryKind
	GMean    []float64 // indexed like SampleSizes
}

// DomainResult reproduces Table 5 (restaurants) or Table 6 (board games).
type DomainResult struct {
	Domain      string
	Rows        []DomainRow
	Mean        []float64
	Repetitions int
	Items       int
}

// runDomain generates the domain universe, trains its perceptual space,
// and repeats the §4.3 small-sample study over its categories.
func runDomain(cfg dataset.Config, opt Options) (*DomainResult, error) {
	opt.fillDefaults()
	u, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sp, _, err := trainSpace(u, opt)
	if err != nil {
		return nil, err
	}

	res := &DomainResult{
		Domain:      cfg.Name,
		Repetitions: opt.Repetitions,
		Items:       cfg.Items,
		Mean:        make([]float64, len(SampleSizes)),
	}
	counted := make([]int, len(SampleSizes))
	var tr svm.Trainer
	for _, spec := range cfg.Categories {
		cat := u.Categories[spec.Name]
		row := DomainRow{Category: spec.Name, Kind: spec.Kind}
		for si := range SampleSizes {
			// A rare category too small for this n at this scale reports
			// zero and stays out of the mean.
			m, _, ok := repeatedGMean(&tr, sp, cat.Reference, si, opt)
			row.GMean = append(row.GMean, m)
			if ok {
				res.Mean[si] += m
				counted[si]++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for si := range res.Mean {
		if counted[si] > 0 {
			res.Mean[si] /= float64(counted[si])
		}
	}
	return res, nil
}

// RunTable5 reproduces the restaurant domain study (Table 5).
func RunTable5(opt Options) (*DomainResult, error) {
	opt.fillDefaults()
	return runDomain(dataset.Restaurants(opt.Scale, opt.Seed+50), opt)
}

// RunTable6 reproduces the board-game domain study (Table 6).
func RunTable6(opt Options) (*DomainResult, error) {
	opt.fillDefaults()
	return runDomain(dataset.BoardGames(opt.Scale, opt.Seed+60), opt)
}

// PerceptualVsFactualMeans splits the domain's mean g-mean (at the largest
// n) by category kind — quantifying the paper's observation that "party
// game" extracts far better than "modular board".
func (d *DomainResult) PerceptualVsFactualMeans() (perceptual, factual float64) {
	var pSum, fSum float64
	var pN, fN int
	last := len(SampleSizes) - 1
	for _, row := range d.Rows {
		if len(row.GMean) <= last || row.GMean[last] == 0 {
			continue
		}
		if row.Kind == dataset.Factual {
			fSum += row.GMean[last]
			fN++
		} else {
			pSum += row.GMean[last]
			pN++
		}
	}
	if pN > 0 {
		perceptual = pSum / float64(pN)
	}
	if fN > 0 {
		factual = fSum / float64(fN)
	}
	return perceptual, factual
}

// Render prints the domain table.
func (d *DomainResult) Render(w io.Writer) {
	title := "Table 5. Results for restaurants"
	if d.Domain == "boardgames" {
		title = "Table 6. Results for board games"
	}
	fmt.Fprintf(w, "%s (g-mean; %d items, %d repetitions)\n", title, d.Items, d.Repetitions)
	fmt.Fprintf(w, "%-26s %-10s |", "Category", "kind")
	for _, n := range SampleSizes {
		fmt.Fprintf(w, "  n=%-4d", n)
	}
	fmt.Fprintln(w)
	for _, row := range d.Rows {
		fmt.Fprintf(w, "%-26s %-10s |", row.Category, row.Kind)
		for _, g := range row.GMean {
			fmt.Fprintf(w, "  %5.2f ", g)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-26s %-10s |", "Mean", "")
	for _, g := range d.Mean {
		fmt.Fprintf(w, "  %5.2f ", g)
	}
	fmt.Fprintln(w)
	p, f := d.PerceptualVsFactualMeans()
	fmt.Fprintf(w, "perceptual categories mean %.2f vs factual %.2f (n=%d)\n",
		p, f, SampleSizes[len(SampleSizes)-1])
}
