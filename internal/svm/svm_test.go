package svm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"crowddb/internal/vecmath"
)

// twoBlobs generates a linearly separable 2-class problem.
func twoBlobs(n int, gap float64, rng *rand.Rand) (X [][]float64, y []bool) {
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		cx := -gap / 2
		if pos {
			cx = gap / 2
		}
		X = append(X, []float64{cx + rng.NormFloat64()*0.4, rng.NormFloat64() * 0.4})
		y = append(y, pos)
	}
	return X, y
}

// rings generates a non-linearly-separable problem: class by radius.
func rings(n int, rng *rand.Rand) (X [][]float64, y []bool) {
	for i := 0; i < n; i++ {
		inner := i%2 == 0
		r := 2.5
		if inner {
			r = 0.8
		}
		theta := rng.Float64() * 2 * math.Pi
		rr := r + rng.NormFloat64()*0.15
		X = append(X, []float64{rr * math.Cos(theta), rr * math.Sin(theta)})
		y = append(y, inner)
	}
	return X, y
}

func accuracyOf(m *SVC, X [][]float64, y []bool) float64 {
	correct := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	if got := (LinearKernel{}).Eval(a, b); got != 11 {
		t.Fatalf("linear = %v", got)
	}
	rbf := RBFKernel{Gamma: 0.5}
	want := math.Exp(-0.5 * 8) // ‖a−b‖² = 8
	if got := rbf.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("rbf = %v, want %v", got, want)
	}
	if got := rbf.Eval(a, a); got != 1 {
		t.Fatalf("rbf self-similarity = %v, want 1", got)
	}
	poly := PolyKernel{Gamma: 1, Coef0: 1, Degree: 2}
	if got := poly.Eval(a, b); got != 144 {
		t.Fatalf("poly = %v, want 144", got)
	}
	for _, k := range []Kernel{LinearKernel{}, rbf, poly} {
		if k.String() == "" {
			t.Fatal("kernel String() empty")
		}
	}
}

func TestDefaultGamma(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	g := DefaultGamma(X)
	if g <= 0 {
		t.Fatalf("gamma = %v", g)
	}
	if got := DefaultGamma(nil); got != 1 {
		t.Fatalf("empty gamma = %v", got)
	}
	constant := [][]float64{{5, 5}, {5, 5}}
	if got := DefaultGamma(constant); got != 0.5 {
		t.Fatalf("degenerate gamma = %v, want 1/d", got)
	}
}

func TestKernelMatrixCacheAgreesWithDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, _ := twoBlobs(20, 2, rng)
	k := RBFKernel{Gamma: 0.7}
	dirty := make([]float32, 20*20+7) // a previous, larger matrix: every cell in use is rewritten
	for i := range dirty {
		dirty[i] = float32(math.NaN())
	}
	cached := newKernelMatrix(k, X, 1<<20, dirty)
	uncached := newKernelMatrix(k, X, 1, nil) // too small: no cache
	if &cached.full[0] != &dirty[0] || len(cached.full) != 20*20 {
		t.Fatal("a buffer with the capacity was not reused")
	}
	if cached.full == nil || uncached.full != nil {
		t.Fatal("cache decision wrong")
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			a, b := cached.at(i, j), uncached.at(i, j)
			if math.Abs(a-b) > 1e-6 {
				t.Fatalf("K(%d,%d): cached %v vs direct %v", i, j, a, b)
			}
		}
	}
	row := make([]float64, 20)
	cached.rowInto(3, row)
	for j := range row {
		if math.Abs(row[j]-cached.at(3, j)) > 1e-9 {
			t.Fatal("rowInto mismatch")
		}
	}
	uncached.rowInto(3, row)
	for j := range row {
		if math.Abs(row[j]-uncached.at(3, j)) > 1e-9 {
			t.Fatal("uncached rowInto mismatch")
		}
	}
}

// A Trainer's memory carries nothing from one training into the next: a
// model fitted after trainings of other sizes, data and seeds is the model
// a fresh Trainer fits, bit for bit — and the second training of a size
// allocates the model alone.
func TestTrainerReusesItsMemoryAndNothingElse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := twoBlobs(80, 4, rng)
	other, otherY := twoBlobs(120, 4, rng)
	cfg := SVCConfig{C: 2}
	want, err := TrainSVC(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trainer
	for _, warm := range []struct {
		X   [][]float64
		y   []bool
		cfg SVCConfig
	}{{other, otherY, SVCConfig{C: 5, Seed: 9}}, {X[:50], y[:50], SVCConfig{Kernel: LinearKernel{}}}, {X, y, cfg}} {
		if _, err := tr.TrainSVC(warm.X, warm.y, warm.cfg); err != nil {
			t.Fatal(err)
		}
	}
	held := tr.Footprint()
	if wantHeld := 4*len(other)*len(other) + 8*6*len(other); held != wantHeld {
		t.Fatalf("the Trainer holds %d B after its largest training of %d samples, want %d", held, len(other), wantHeld)
	}
	got, err := tr.TrainSVC(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.b != want.b || !slices.Equal(got.coef, want.coef) || !slices.Equal(got.sv, want.sv) || got.kernel != want.kernel {
		t.Fatalf("a reused Trainer fitted another model: %d support vectors, b %v; fresh %d, b %v",
			got.NumSupport(), got.b, want.NumSupport(), want.b)
	}
	if cap(got.coef) != len(got.coef) || cap(got.sv) != len(got.sv) {
		t.Fatalf("support arrays over-allocated: coef %d/%d, sv %d/%d", len(got.coef), cap(got.coef), len(got.sv), cap(got.sv))
	}
	// The model: the SVC, its two arrays and the boxed default kernel.
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := tr.TrainSVC(X, y, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("a second training of %d samples allocates %.0f objects, want the model's 4", len(X), allocs)
	}
	if tr.Footprint() != held {
		t.Fatalf("the Trainer grew from %d to %d B on a size it had seen", held, tr.Footprint())
	}
}

func TestSVCLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := twoBlobs(120, 4, rng)
	m, err := TrainSVC(X, y, SVCConfig{Kernel: LinearKernel{}, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(m, X, y); acc < 0.98 {
		t.Fatalf("linear accuracy = %v", acc)
	}
	if m.NumSupport() == 0 || m.NumSupport() == len(X) {
		t.Fatalf("support vectors = %d of %d, looks degenerate", m.NumSupport(), len(X))
	}
}

func TestSVCRBFSolvesRings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := rings(160, rng)
	// Linear kernel cannot separate rings.
	lin, err := TrainSVC(X, y, SVCConfig{Kernel: LinearKernel{}, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	linAcc := accuracyOf(lin, X, y)
	if linAcc > 0.75 {
		t.Fatalf("linear kernel should fail on rings, got %v", linAcc)
	}
	// RBF separates them.
	rbf, err := TrainSVC(X, y, SVCConfig{C: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(rbf, X, y); acc < 0.95 {
		t.Fatalf("rbf accuracy = %v", acc)
	}
}

func TestSVCGeneralization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	Xtr, ytr := rings(120, rng)
	Xte, yte := rings(200, rng)
	m, err := TrainSVC(Xtr, ytr, SVCConfig{C: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(m, Xte, yte); acc < 0.92 {
		t.Fatalf("held-out accuracy = %v", acc)
	}
}

func TestSVCNoisyLabelsStillLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := twoBlobs(200, 4, rng)
	noisy := append([]bool(nil), y...)
	for i := 0; i < len(noisy); i += 10 { // 10% label noise
		noisy[i] = !noisy[i]
	}
	m, err := TrainSVC(X, noisy, SVCConfig{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy vs the CLEAN labels should remain high: the soft margin
	// absorbs the noise.
	if acc := accuracyOf(m, X, y); acc < 0.93 {
		t.Fatalf("accuracy under label noise = %v", acc)
	}
}

func TestSVCInputValidation(t *testing.T) {
	if _, err := TrainSVC(nil, nil, SVCConfig{}); err == nil {
		t.Fatal("empty set must fail")
	}
	X := [][]float64{{1}, {2}}
	if _, err := TrainSVC(X, []bool{true}, SVCConfig{}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := TrainSVC(X, []bool{true, true}, SVCConfig{}); err == nil {
		t.Fatal("single-class set must fail")
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := TrainSVC(ragged, []bool{true, false}, SVCConfig{}); err == nil {
		t.Fatal("ragged input must fail")
	}
	if _, err := TrainSVC(X, []bool{true, false}, SVCConfig{PerSampleC: []float64{1}}); err == nil {
		t.Fatal("PerSampleC length mismatch must fail")
	}
	if _, err := TrainSVC(X, []bool{true, false}, SVCConfig{PerSampleC: []float64{1, -1}}); err == nil {
		t.Fatal("negative PerSampleC must fail")
	}
}

func TestSVCDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := rings(80, rng)
	m1, err := TrainSVC(X, y, SVCConfig{C: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainSVC(X, y, SVCConfig{C: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		if m1.Decision(x) != m2.Decision(x) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestSVCPredictAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := twoBlobs(60, 4, rng)
	m, err := TrainSVC(X, y, SVCConfig{Kernel: LinearKernel{}})
	if err != nil {
		t.Fatal(err)
	}
	preds := m.PredictAll(X)
	if len(preds) != len(X) {
		t.Fatal("PredictAll length mismatch")
	}
	for i := range preds {
		if preds[i] != m.Predict(X[i]) {
			t.Fatal("PredictAll disagrees with Predict")
		}
	}
}

// Property: the decision function is symmetric under swapping the two
// classes (label inversion flips the sign, approximately).
func TestSVCLabelInversionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := twoBlobs(60, 3, rng)
	inv := make([]bool, len(y))
	for i := range y {
		inv[i] = !y[i]
	}
	m1, err := TrainSVC(X, y, SVCConfig{Kernel: LinearKernel{}, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainSVC(X, inv, SVCConfig{Kernel: LinearKernel{}, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		if m1.Predict(x) != m2.Predict(x) {
			agree++
		}
	}
	if agree < 90 {
		t.Fatalf("inverted model should predict the complement, agreement on flip = %d%%", agree)
	}
}

func TestSVRFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		x := rng.Float64()*4 - 2
		X = append(X, []float64{x})
		y = append(y, 2*x+1+rng.NormFloat64()*0.05)
	}
	m, err := TrainSVR(X, y, SVRConfig{Kernel: LinearKernel{}, C: 10, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := -10; i <= 10; i++ {
		x := float64(i) / 5
		got := m.Predict([]float64{x})
		want := 2*x + 1
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.35 {
		t.Fatalf("max error = %v", maxErr)
	}
}

func TestSVRFitsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var X [][]float64
	var y []float64
	for i := 0; i < 120; i++ {
		x := rng.Float64()*2*math.Pi - math.Pi
		X = append(X, []float64{x})
		y = append(y, math.Sin(x)+rng.NormFloat64()*0.05)
	}
	m, err := TrainSVR(X, y, SVRConfig{Kernel: RBFKernel{Gamma: 1}, C: 10, Epsilon: 0.05, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	n := 0
	for x := -3.0; x <= 3.0; x += 0.1 {
		e := m.Predict([]float64{x}) - math.Sin(x)
		sumSq += e * e
		n++
	}
	rmse := math.Sqrt(sumSq / float64(n))
	if rmse > 0.15 {
		t.Fatalf("sine RMSE = %v", rmse)
	}
}

func TestSVRConstantTarget(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	m, err := TrainSVR(X, y, SVRConfig{Kernel: LinearKernel{}, C: 1, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1.5}); math.Abs(got-5) > 0.2 {
		t.Fatalf("constant prediction = %v, want ≈ 5", got)
	}
}

func TestSVRValidation(t *testing.T) {
	if _, err := TrainSVR(nil, nil, SVRConfig{}); err == nil {
		t.Fatal("empty must fail")
	}
	if _, err := TrainSVR([][]float64{{1}}, []float64{1, 2}, SVRConfig{}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := TrainSVR([][]float64{{1, 2}, {3}}, []float64{1, 2}, SVRConfig{}); err == nil {
		t.Fatal("ragged must fail")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median empty = %v", got)
	}
}

func TestTSVMAccuracyAndCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	Xl, yl := twoBlobs(20, 3, rng)
	Xu, yu := twoBlobs(120, 3, rng)

	svcOnly, err := TrainSVC(Xl, yl, SVCConfig{Kernel: LinearKernel{}, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsvm, stats, err := TrainTSVM(Xl, yl, Xu, TSVMConfig{
		SVC:         SVCConfig{Kernel: LinearKernel{}, C: 1},
		MaxRetrains: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	accSVC := accuracyOf(svcOnly, Xu, yu)
	accTSVM := accuracyOf(tsvm, Xu, yu)
	// Paper §5: TSVM achieves roughly the same accuracy…
	if accTSVM < accSVC-0.08 {
		t.Fatalf("TSVM accuracy %v much worse than SVC %v", accTSVM, accSVC)
	}
	// …at hugely increased cost: many full retrainings.
	if stats.Retrains < 5 {
		t.Fatalf("TSVM retrains = %d, expected many", stats.Retrains)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("elapsed must be positive")
	}
}

func TestTSVMNoUnlabeledFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	Xl, yl := twoBlobs(30, 3, rng)
	m, stats, err := TrainTSVM(Xl, yl, nil, TSVMConfig{SVC: SVCConfig{Kernel: LinearKernel{}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retrains != 1 {
		t.Fatalf("retrains = %d", stats.Retrains)
	}
	if acc := accuracyOf(m, Xl, yl); acc < 0.95 {
		t.Fatalf("fallback accuracy = %v", acc)
	}
}

func TestTSVMRespectsPositiveFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	Xl, yl := twoBlobs(16, 3, rng)
	Xu, _ := twoBlobs(60, 3, rng)
	_, stats, err := TrainTSVM(Xl, yl, Xu, TSVMConfig{
		SVC:              SVCConfig{Kernel: LinearKernel{}, C: 1},
		PositiveFraction: 0.5,
		MaxRetrains:      30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retrains > 30 {
		t.Fatalf("retrain cap violated: %d", stats.Retrains)
	}
}

// Property: RBF kernel values are in (0, 1] and symmetric.
func TestRBFKernelProperty(t *testing.T) {
	k := RBFKernel{Gamma: 0.3}
	f := func(a, b [4]float64) bool {
		for i := range a {
			a[i] = math.Mod(a[i], 10)
			b[i] = math.Mod(b[i], 10)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		v := k.Eval(a[:], b[:])
		w := k.Eval(b[:], a[:])
		return v > 0 && v <= 1 && v == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// naiveDecision is the reference the batch paths are held to: the kernel's
// own Eval per support vector, in stored order.
func naiveDecision(m *machine, x []float64) float64 {
	s := m.b
	for i, c := range m.coef {
		s += c * m.kernel.Eval(m.sv[i*m.dim:(i+1)*m.dim], x)
	}
	return s
}

// evalOnly hides a kernel's concrete type, forcing the Eval fallback.
type evalOnly struct{ Kernel }

// The labels an expansion writes must not depend on how the items were
// batched or on how many goroutines scored them: at every worker count
// PredictMatrix and PredictAll give, bit for bit, the decision value of
// per-item Predict and of the naive Kernel.Eval loop.
func TestPredictAllIsBitIdenticalAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 7
	kernels := []Kernel{
		RBFKernel{Gamma: 0.37},
		LinearKernel{},
		PolyKernel{Gamma: 0.5, Coef0: 1, Degree: 3},
		evalOnly{RBFKernel{Gamma: 0.37}},
	}
	for _, k := range kernels {
		X := make([][]float64, 80)
		y := make([]bool, len(X))
		for i := range X {
			X[i] = make([]float64, dim)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()
			}
			y[i] = X[i][0]+0.5*X[i][1]+0.3*rng.NormFloat64() > 0 // overlapping classes: many support vectors
		}
		svc, err := TrainSVC(X, y, SVCConfig{Kernel: k, C: 2})
		if err != nil {
			t.Fatal(err)
		}
		target := make([]float64, len(X))
		for i, x := range X {
			target[i] = x[0] + 0.1*rng.NormFloat64()
		}
		svr, err := TrainSVR(X, target, SVRConfig{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		if svc.NumSupport() == 0 || svr.NumSupport() == 0 {
			t.Fatalf("%v: model without support vectors proves nothing", k)
		}
		for _, n := range []int{0, 1, 3, 257} { // empty, fewer items than workers, an uneven split
			items := vecmath.NewMatrix(n, dim)
			items.FillRandom(rng, 3)
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = items.Row(i)
			}
			for _, workers := range []int{0, 1, 2, 8} {
				labels := svc.PredictMatrix(items, workers)
				scores := svr.PredictMatrix(items, workers)
				if len(labels) != n || len(scores) != n {
					t.Fatalf("%v n=%d workers=%d: %d labels, %d scores", k, n, workers, len(labels), len(scores))
				}
				for i, x := range rows {
					want := naiveDecision(&svc.machine, x)
					if got := svc.Decision(x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v: Decision %v, naive %v", k, got, want)
					}
					if labels[i] != (want > 0) || labels[i] != svc.Predict(x) {
						t.Fatalf("%v n=%d workers=%d item %d: label %v, decision %v", k, n, workers, i, labels[i], want)
					}
					want = naiveDecision(&svr.machine, x)
					if math.Float64bits(scores[i]) != math.Float64bits(want) || math.Float64bits(svr.Predict(x)) != math.Float64bits(want) {
						t.Fatalf("%v n=%d workers=%d item %d: score %v, Predict %v, naive %v", k, n, workers, i, scores[i], svr.Predict(x), want)
					}
				}
			}
			all, allScores := svc.PredictAll(rows), svr.PredictAll(rows)
			for i := range rows {
				if all[i] != svc.Predict(rows[i]) || math.Float64bits(allScores[i]) != math.Float64bits(svr.Predict(rows[i])) {
					t.Fatalf("%v n=%d: PredictAll disagrees with Predict at item %d", k, n, i)
				}
			}
		}
	}
}

func TestPredictRejectsWrongDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	X, y := twoBlobs(40, 3, rng)
	m, err := TrainSVC(X, y, SVCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-d item scored by a 2-d model must panic on the calling goroutine")
		}
	}()
	m.PredictAll([][]float64{{1, 2}, {1, 2, 3}})
}

// One Trainer fitting samples of 40, 300, 20 and 160 items, each model
// predicted into one reused label buffer, labels what TrainSVC and
// PredictMatrix label, bit for bit: Fit's model reuses the arrays of the
// one before it and keeps nothing of it. A model TrainSVC returned owns
// its arrays — a later Fit on its Trainer leaves it as it was — and a Fit
// of a size the Trainer has fitted before allocates at most the boxed
// default kernel.
func TestKeptModelMatchesOwnedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	points, _ := rings(500, rng)
	grid := vecmath.NewMatrix(len(points), 2)
	for i, p := range points {
		copy(grid.Row(i), p)
	}
	var tr Trainer
	var labels []bool
	for _, n := range []int{40, 300, 20, 160} {
		X, y := rings(n, rng)
		for i := range y {
			if rng.Intn(8) == 0 {
				y[i] = !y[i] // a few wrong labels: bounded support vectors too
			}
		}
		cfg := SVCConfig{C: 2, Seed: int64(n)}
		owned, err := TrainSVC(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := owned.PredictMatrix(grid, 2)
		kept, err := tr.Fit(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		labels = kept.PredictMatrixInto(labels, grid, 2)
		if !slices.Equal(labels, want) || kept.NumSupport() != owned.NumSupport() || kept.b != owned.b {
			t.Fatalf("%d samples: the kept model (%d support vectors) labels otherwise than the owned one (%d)", n, kept.NumSupport(), owned.NumSupport())
		}

		mine, err := tr.TrainSVC(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sv, coef := slices.Clone(mine.sv), slices.Clone(mine.coef)
		if allocs := testing.AllocsPerRun(3, func() {
			if _, err := tr.Fit(X, y, cfg); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Fatalf("%d samples: a Fit of a size the Trainer has fitted allocates %.0f objects, want at most 1", n, allocs)
		}
		if !slices.Equal(mine.sv, sv) || !slices.Equal(mine.coef, coef) || !slices.Equal(mine.PredictMatrix(grid, 2), want) {
			t.Fatalf("%d samples: a Fit changed a model TrainSVC returned", n)
		}
	}
}
