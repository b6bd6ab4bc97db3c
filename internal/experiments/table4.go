package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"crowddb/internal/space"
)

// SwapRates are the paper's corrupted-label fractions x.
var SwapRates = []float64{0.05, 0.10, 0.20}

// Table4Cell is one precision/recall pair.
type Table4Cell struct {
	Precision float64
	Recall    float64
}

func (c Table4Cell) plus(o Table4Cell) Table4Cell {
	return Table4Cell{c.Precision + o.Precision, c.Recall + o.Recall}
}

func (c Table4Cell) over(f float64) Table4Cell { return Table4Cell{c.Precision / f, c.Recall / f} }

// Table4Row is one genre's results across swap rates, on both spaces.
type Table4Row struct {
	Genre      string
	Perceptual []Table4Cell // indexed like SwapRates
	Metadata   []Table4Cell
}

// Table4Result reproduces Table 4 ("Automatic identification of
// questionable HIT responses").
type Table4Result struct {
	Rows        []Table4Row
	Repetitions int
	// MeanPerceptual / MeanMetadata aggregate over genres.
	MeanPerceptual []Table4Cell
	MeanMetadata   []Table4Cell
}

// questionablePR swaps x of the labels, stores the corrupted labels of
// every item in a column and lets core's cleaning primitive flag the
// questionable ones, once over each space; it scores both flag sets
// against the true swap set.
func questionablePR(spaces [2]*space.Space, labels []bool, x float64, seed int64) (pr [2]Table4Cell, err error) {
	rng := rand.New(rand.NewSource(seed))
	n := min(len(labels), spaces[0].NumItems(), spaces[1].NumItems())
	corrupted := slices.Clone(labels[:n])
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	swapped := map[int]bool{}
	for len(swapped) < int(x*float64(n)) {
		if i := rng.Intn(n); !swapped[i] {
			swapped[i] = true
			corrupted[i] = !corrupted[i]
		}
	}
	db, err := openItemDB(nil, spaces[0], ids, corrupted)
	if err != nil {
		return pr, err
	}
	defer db.Close()
	for k, sp := range spaces {
		if err := db.AttachSpace("movies", "id", sp); err != nil {
			return pr, err
		}
		// Row i holds item i, so the flagged rows are the flagged items.
		flagged, err := db.IdentifyQuestionable("movies", "label")
		if err != nil {
			return pr, err
		}
		tp := 0
		for _, i := range flagged {
			if swapped[i] {
				tp++
			}
		}
		if len(flagged) > 0 {
			pr[k].Precision = float64(tp) / float64(len(flagged))
		}
		if len(swapped) > 0 {
			pr[k].Recall = float64(tp) / float64(len(swapped))
		}
	}
	return pr, nil
}

// RunTable4 runs the questionable-response study for every genre and swap
// rate on both spaces.
func (e *Env) RunTable4() (*Table4Result, error) {
	reps := e.Opt.Table4Repetitions
	res := &Table4Result{
		Repetitions:    reps,
		MeanPerceptual: make([]Table4Cell, len(SwapRates)),
		MeanMetadata:   make([]Table4Cell, len(SwapRates)),
	}
	spaces := [2]*space.Space{e.Space, e.MetaSpace}
	for _, spec := range e.U.Config.Categories {
		cat := e.U.Categories[spec.Name]
		row := Table4Row{Genre: spec.Name}
		for xi, x := range SwapRates {
			var sum [2]Table4Cell
			for rep := 0; rep < reps; rep++ {
				pr, err := questionablePR(spaces, cat.Reference, x, e.Opt.Seed+int64(100*xi+rep))
				if err != nil {
					return nil, fmt.Errorf("Table 4 (%s, x=%.2f): %w", spec.Name, x, err)
				}
				sum[0], sum[1] = sum[0].plus(pr[0]), sum[1].plus(pr[1])
			}
			p, m := sum[0].over(float64(reps)), sum[1].over(float64(reps))
			row.Perceptual = append(row.Perceptual, p)
			row.Metadata = append(row.Metadata, m)
			res.MeanPerceptual[xi] = res.MeanPerceptual[xi].plus(p)
			res.MeanMetadata[xi] = res.MeanMetadata[xi].plus(m)
		}
		e.logf("Table 4: %-12s perceptual P/R at 20%% = %.2f/%.2f",
			spec.Name, row.Perceptual[len(row.Perceptual)-1].Precision,
			row.Perceptual[len(row.Perceptual)-1].Recall)
		res.Rows = append(res.Rows, row)
	}
	for xi := range SwapRates {
		res.MeanPerceptual[xi] = res.MeanPerceptual[xi].over(float64(len(res.Rows)))
		res.MeanMetadata[xi] = res.MeanMetadata[xi].over(float64(len(res.Rows)))
	}
	return res, nil
}

// Render prints the table in the paper's precision/recall layout.
func (t *Table4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 4. Automatic identification of questionable HIT responses (precision/recall, %d repetitions)\n", t.Repetitions)
	fmt.Fprintf(w, "%-14s |", "Genre")
	for _, x := range SwapRates {
		fmt.Fprintf(w, "  P x=%2.0f%%   ", 100*x)
	}
	fmt.Fprintf(w, "|")
	for _, x := range SwapRates {
		fmt.Fprintf(w, "  M x=%2.0f%%   ", 100*x)
	}
	fmt.Fprintln(w)
	printRow := func(name string, p, m []Table4Cell) {
		fmt.Fprintf(w, "%-14s |", name)
		for _, c := range p {
			fmt.Fprintf(w, " %4.2f/%4.2f  ", c.Precision, c.Recall)
		}
		fmt.Fprintf(w, "|")
		for _, c := range m {
			fmt.Fprintf(w, " %4.2f/%4.2f  ", c.Precision, c.Recall)
		}
		fmt.Fprintln(w)
	}
	for _, row := range t.Rows {
		printRow(row.Genre, row.Perceptual, row.Metadata)
	}
	printRow("Mean", t.MeanPerceptual, t.MeanMetadata)
}
