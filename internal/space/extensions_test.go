package space

import "testing"

func TestParallelMatchesSequentialQuality(t *testing.T) {
	w := makeWorld(150, 250, 35, 3, 21)
	cfg := smallConfig()

	seq, seqStats, err := TrainEuclidean(w.data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, parStats, err := TrainEuclideanParallel(w.data, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// DSGD visits ratings in a different order, so the models differ, but
	// the fit quality must be equivalent.
	if parStats.FinalRMSE() > seqStats.FinalRMSE()*1.15 {
		t.Fatalf("parallel RMSE %.4f much worse than sequential %.4f",
			parStats.FinalRMSE(), seqStats.FinalRMSE())
	}
	if par.RMSE(w.data.Ratings) > seq.RMSE(w.data.Ratings)*1.15 {
		t.Fatalf("parallel model error %.4f vs sequential %.4f",
			par.RMSE(w.data.Ratings), seq.RMSE(w.data.Ratings))
	}
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	w := makeWorld(60, 100, 20, 2, 22)
	cfg := smallConfig()
	cfg.Epochs = 5
	m1, _, err := TrainEuclideanParallel(w.data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := TrainEuclideanParallel(w.data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Items.Data {
		if m1.Items.Data[i] != m2.Items.Data[i] {
			t.Fatal("DSGD must be deterministic for a fixed seed and worker count")
		}
	}
}

func TestParallelWorkerCountEdgeCases(t *testing.T) {
	w := makeWorld(30, 40, 10, 2, 23)
	cfg := smallConfig()
	cfg.Epochs = 3
	// workers <= 0 → GOMAXPROCS; workers > items → clamped.
	for _, workers := range []int{0, 1, 64} {
		if _, _, err := TrainEuclideanParallel(w.data, cfg, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	empty := &Dataset{Items: 5, Users: 5}
	if _, _, err := TrainEuclideanParallel(empty, cfg, 2); err == nil {
		t.Fatal("empty ratings must fail")
	}
	bad := cfg
	bad.Dims = 0
	if _, _, err := TrainEuclideanParallel(w.data, bad, 2); err == nil {
		t.Fatal("invalid config must fail")
	}
}
