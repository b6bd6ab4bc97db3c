package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"crowddb/internal/core"
	"crowddb/internal/eval"
	"crowddb/internal/space"
	"crowddb/internal/svm"
)

// SampleSizes are the paper's training sample sizes (n positive and n
// negative examples).
var SampleSizes = []int{10, 20, 40}

// Table3Row is one genre's results.
type Table3Row struct {
	Genre string
	// PerceptualGMean[i] is the mean g-mean with SampleSizes[i] examples
	// per class on the perceptual space; PerceptualStd its std deviation.
	PerceptualGMean []float64
	PerceptualStd   []float64
	// MetadataGMean is the same on the LSI metadata space.
	MetadataGMean []float64
	MetadataStd   []float64
	// ExpertGMean[e] is expert database e's g-mean vs the reference.
	ExpertGMean []float64
}

// Table3Result reproduces Table 3 ("Automatic schema expansion from small
// samples").
type Table3Result struct {
	Rows        []Table3Row
	Items       int
	Repetitions int
	// MeanPerceptual[i] / MeanMetadata[i] aggregate over genres.
	MeanPerceptual []float64
	MeanMetadata   []float64
	MeanExpert     []float64
}

// balancedSample draws the controlled protocol's training set from the
// labelled items of sp: n positive and n negative, interleaved as pos₀,
// neg₀, pos₁, …, each class shuffled by rng first. It returns the items
// with their coordinates and labels, or nil when a class cannot supply n
// examples and keep one out for evaluation.
func balancedSample(sp *space.Space, labels []bool, n int, rng *rand.Rand) (train []int, X [][]float64, y []bool) {
	var pos, neg []int
	for i, v := range labels[:min(len(labels), sp.NumItems())] {
		if v {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) < n+1 || len(neg) < n+1 {
		return nil, nil, nil
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	for i := 0; i < n; i++ {
		train = append(train, pos[i], neg[i])
		X = append(X, sp.Vector(pos[i]), sp.Vector(neg[i]))
		y = append(y, true, false)
	}
	return train, X, y
}

// heldOutGMean scores predicted, one label per item of the space, against
// labels on every item outside train.
func heldOutGMean(predicted, labels []bool, train []int) float64 {
	var conf eval.Confusion
	for i, v := range labels[:min(len(labels), len(predicted))] {
		if !slices.Contains(train, i) {
			conf.Observe(predicted[i], v)
		}
	}
	return conf.GMean()
}

// smallSampleGMean trains an RBF-SVM with core's fill C on a balanced
// sample of n examples per class drawn from labels (over sp's
// coordinates) and evaluates g-mean on all remaining items. It returns
// ok=false when the class population cannot supply n examples.
func smallSampleGMean(tr *svm.Trainer, sp *space.Space, labels []bool, n int, seed int64) (float64, bool) {
	train, X, y := balancedSample(sp, labels, n, rand.New(rand.NewSource(seed)))
	if train == nil {
		return 0, false
	}
	model, err := tr.TrainSVC(X, y, svm.SVCConfig{C: core.FillC, Seed: seed})
	if err != nil {
		return 0, false
	}
	return heldOutGMean(model.PredictMatrix(sp.Coords(), 0), labels, train), true
}

// repeatedGMean is the mean and standard deviation of smallSampleGMean
// over opt.Repetitions draws of SampleSizes[si] examples per class; ok is
// false when no draw could be made.
func repeatedGMean(tr *svm.Trainer, sp *space.Space, labels []bool, si int, opt Options) (mean, std float64, ok bool) {
	var gs []float64
	for rep := 0; rep < opt.Repetitions; rep++ {
		if g, ok := smallSampleGMean(tr, sp, labels, SampleSizes[si], opt.Seed+int64(1000*si+rep)); ok {
			gs = append(gs, g)
		}
	}
	if len(gs) == 0 {
		return 0, 0, false
	}
	mean, std = eval.MeanStd(gs)
	return mean, std, true
}

// RunTable3 runs the controlled small-sample study: for every genre and
// every n ∈ {10, 20, 40}, train on n positive + n negative reference
// examples (100% accurate, as in §4.3) and classify all other movies —
// once on the perceptual space and once on the LSI metadata space; the
// expert databases' own g-means complete the comparison.
func (e *Env) RunTable3() (*Table3Result, error) {
	res := &Table3Result{
		Items:          e.U.Config.Items,
		Repetitions:    e.Opt.Repetitions,
		MeanPerceptual: make([]float64, len(SampleSizes)),
		MeanMetadata:   make([]float64, len(SampleSizes)),
	}
	contributors := make([]int, len(SampleSizes))
	var tr svm.Trainer
	for _, spec := range e.U.Config.Categories {
		cat := e.U.Categories[spec.Name]
		row := Table3Row{Genre: spec.Name}
		for si, n := range SampleSizes {
			pm, ps, okP := repeatedGMean(&tr, e.Space, cat.Reference, si, e.Opt)
			mm, ms, okM := repeatedGMean(&tr, e.MetaSpace, cat.Reference, si, e.Opt)
			if okP && okM {
				res.MeanPerceptual[si] += pm
				res.MeanMetadata[si] += mm
				contributors[si]++
			} else {
				// The genre population cannot supply n examples per class
				// at this scale (e.g. Documentary at CI scale). Record
				// zeros and exclude the combination from the means.
				e.logf("Table 3: %s skipped at n=%d (class too small)", spec.Name, n)
				pm, ps, mm, ms = 0, 0, 0, 0
			}
			row.PerceptualGMean = append(row.PerceptualGMean, pm)
			row.PerceptualStd = append(row.PerceptualStd, ps)
			row.MetadataGMean = append(row.MetadataGMean, mm)
			row.MetadataStd = append(row.MetadataStd, ms)
		}
		for eIdx := range cat.Expert {
			row.ExpertGMean = append(row.ExpertGMean, eval.CompareLabels(cat.Expert[eIdx], cat.Reference).GMean())
		}
		e.logf("Table 3: %-12s perceptual %.2f metadata %.2f",
			spec.Name, row.PerceptualGMean, row.MetadataGMean)
		res.Rows = append(res.Rows, row)
	}
	for si := range SampleSizes {
		if contributors[si] > 0 {
			res.MeanPerceptual[si] /= float64(contributors[si])
			res.MeanMetadata[si] /= float64(contributors[si])
		}
	}
	// Mean expert g-mean per expert index (every genre has every expert).
	for _, row := range res.Rows {
		if res.MeanExpert == nil {
			res.MeanExpert = make([]float64, len(row.ExpertGMean))
		}
		for eIdx, g := range row.ExpertGMean {
			res.MeanExpert[eIdx] += g
		}
	}
	for i := range res.MeanExpert {
		res.MeanExpert[i] /= float64(len(res.Rows))
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (t *Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 3. Automatic schema expansion from small samples (g-mean; %d items, %d repetitions)\n",
		t.Items, t.Repetitions)
	fmt.Fprintf(w, "%-14s %6s |", "Genre", "Random")
	for _, n := range SampleSizes {
		fmt.Fprintf(w, " P n=%-3d", n)
	}
	fmt.Fprintf(w, "|")
	for _, n := range SampleSizes {
		fmt.Fprintf(w, " M n=%-3d", n)
	}
	fmt.Fprintf(w, "| experts\n")
	for _, row := range t.Rows {
		renderTable3Row(w, row.Genre, row.PerceptualGMean, row.MetadataGMean, row.ExpertGMean)
	}
	renderTable3Row(w, "Mean", t.MeanPerceptual, t.MeanMetadata, t.MeanExpert)
}

// renderTable3Row prints one line of Table 3: its label, the random
// baseline, and the perceptual, metadata and expert g-means.
func renderTable3Row(w io.Writer, label string, perceptual, metadata, expert []float64) {
	fmt.Fprintf(w, "%-14s %6.2f |", label, 0.50)
	for _, v := range perceptual {
		fmt.Fprintf(w, " %7.2f", v)
	}
	fmt.Fprintf(w, "|")
	for _, v := range metadata {
		fmt.Fprintf(w, " %7.2f", v)
	}
	fmt.Fprintf(w, "|")
	for _, v := range expert {
		fmt.Fprintf(w, " %5.2f", v)
	}
	fmt.Fprintf(w, "\n")
}
