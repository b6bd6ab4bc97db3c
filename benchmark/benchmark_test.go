package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"crowddb/internal/dataset"
)

// testData is a small universe: enough rows for every generator's
// arithmetic, generated in milliseconds.
func testData(t *testing.T) *data {
	t.Helper()
	d, err := buildData(dataset.Scale{Items: 400, Users: 200, RatingsPerUser: 30})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// drawSQL returns the first n statements of one client's stream.
func drawSQL(w workload, seed int64, d *data, client int, phase string, n int) []string {
	g := w.gen(seed, d, client).rephase(streamRand(seed, w.name, client, phase))
	out := make([]string, n)
	for i := range out {
		out[i] = w.draw(g).sql
	}
	return out
}

func TestOpListsAreDeterministic(t *testing.T) {
	d := testData(t)
	for _, w := range workloads {
		if w.draw == nil {
			a := expandOps(streamRand(7, w.name, 0, phaseWindow), d.genres, 0, 60)
			b := expandOps(streamRand(7, w.name, 0, phaseWindow), d.genres, 0, 60)
			c := expandOps(streamRand(8, w.name, 0, phaseWindow), d.genres, 0, 60)
			if len(a) != 60*(1+followups)+60/directEvery {
				t.Errorf("%s: %d ops for 60 cycles", w.name, len(a))
			}
			same, differs := true, false
			for i := range a {
				same = same && a[i] == b[i]
				differs = differs || a[i].sql != c[i].sql
			}
			if !same || !differs {
				t.Errorf("%s: same seed equal = %v, other seed differs = %v", w.name, same, differs)
			}
			continue
		}
		for client := 0; client < w.clients; client++ {
			a := strings.Join(drawSQL(w, 7, d, client, phaseWindow, 1000), "\n")
			if b := strings.Join(drawSQL(w, 7, d, client, phaseWindow, 1000), "\n"); a != b {
				t.Errorf("%s client %d: the same seed gave two different op lists", w.name, client)
			}
			if c := strings.Join(drawSQL(w, 8, d, client, phaseWindow, 1000), "\n"); a == c {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same op list", w.name, client)
			}
		}
		if a, b := drawSQL(w, 7, d, 0, phaseWindow, 100), drawSQL(w, 7, d, 1, phaseWindow, 100); strings.Join(a, "\n") == strings.Join(b, "\n") {
			t.Errorf("%s: clients 0 and 1 send the same list", w.name)
		}
	}
}

// A window that replayed its warm-up's literals would be answered from
// the result cache: the two phases must not share analytic statements.
func TestWarmupAndWindowStreamsAreDisjoint(t *testing.T) {
	d := testData(t)
	w, _ := workloadByName("analytic_scan")
	warm := map[string]bool{}
	for _, sql := range drawSQL(w, 7, d, 0, phaseWarmup, 2000) {
		warm[sql] = true
	}
	shared := 0
	for _, sql := range drawSQL(w, 7, d, 0, phaseWindow, 2000) {
		if warm[sql] {
			shared++
		}
	}
	if shared > 2000/20 { // the small test universe makes a few literals collide by chance
		t.Errorf("%d of 2000 window statements were already sent in the warm-up", shared)
	}
}

func TestMixAndZipfProportions(t *testing.T) {
	d := testData(t)
	const draws = 100000
	want := map[string][numClasses]float64{
		"serve_point":   {clsPoint: 0.60, clsRange: 0.20, clsPerceptual: 0.20},
		"analytic_scan": {clsScanAgg: 0.30, clsTopN: 0.15, clsGroupBy: 0.30, clsJoin: 0.15, clsStream: 0.10},
		// The test universe's delete slice holds 7 spans; once used up, the
		// 0.5 % of deletes turn into point lookups.
		"ingest_mixed": {clsInsert: 0.55, clsUpdate: 0.08, clsPoint: 0.37},
	}
	for name, shares := range want {
		w, _ := workloadByName(name)
		g := w.gen(7, d, 0)
		var got [numClasses]float64
		zero := 0
		for i := 0; i < draws; i++ {
			o := w.draw(g)
			got[o.class]++
			if o.class == clsPoint && o.a == 0 {
				zero++
			}
		}
		for c := class(0); c < numClasses; c++ {
			if diff := math.Abs(got[c]/draws - shares[c]); diff > 0.01 {
				t.Errorf("%s: class %s is %.4f of the mix, want %.2f", name, c, got[c]/draws, shares[c])
			}
		}
		// P(k) ∝ (1+k)^-s over [0, zipfOver): check the hottest key's share.
		var norm float64
		for k := int64(0); k < g.zipfOver; k++ {
			norm += math.Pow(float64(1+k), -zipfS)
		}
		if share := float64(zero) / got[clsPoint]; math.Abs(share-1/norm) > 0.01 {
			t.Errorf("%s: rid 0 is %.4f of the point lookups, want %.4f", name, share, 1/norm)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	for _, tc := range []struct{ p, want float64 }{
		{50, 10}, {95, 19}, {99, 20}, {100, 20}, {5, 1}, {1, 1}, {25, 5}, {75, 15},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..20, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no sample = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9, 1, 5) = %v, want 5", got)
	}
}

// exposition is a capture of GET /v1/metrics, cut down to one family of
// each shape.
const exposition = `# HELP crowddb_wal_appends_total Records appended to the write-ahead log.
# TYPE crowddb_wal_appends_total counter
crowddb_wal_appends_total 101347
# HELP crowddb_crowd_cost_dollars_total Cumulative crowd spend in dollars.
# TYPE crowddb_crowd_cost_dollars_total counter
crowddb_crowd_cost_dollars_total 9.6
# HELP crowdserve_http_requests_total HTTP requests by route, method, and status class.
# TYPE crowdserve_http_requests_total counter
crowdserve_http_requests_total{route="/metrics",method="GET",status_class="2xx"} 2
crowdserve_http_requests_total{route="/query",method="POST",status_class="2xx"} 40
crowdserve_http_requests_total{route="/query",method="POST",status_class="4xx"} 3
# HELP crowddb_query_phase_seconds SELECT latency split by phase (parse, plan, cache_lookup, execute).
# TYPE crowddb_query_phase_seconds histogram
crowddb_query_phase_seconds_bucket{phase="parse",le="0.0001"} 38
crowddb_query_phase_seconds_bucket{phase="parse",le="+Inf"} 40
crowddb_query_phase_seconds_sum{phase="parse"} 0.000287
crowddb_query_phase_seconds_count{phase="parse"} 40
crowddb_query_phase_seconds_sum{phase="plan"} 1.5e-05
crowddb_query_phase_seconds_count{phase="plan"} 37
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"crowddb_wal_appends_total":        101347,
		"crowddb_crowd_cost_dollars_total": 9.6,
		`crowdserve_http_requests_total{route="/query",method="POST",status_class="4xx"}`: 3,
		`crowddb_query_phase_seconds_sum{phase="parse"}`:                                  0.000287,
		`crowddb_query_phase_seconds_count{phase="plan"}`:                                 37,
		`crowddb_query_phase_seconds_bucket{phase="parse",le="+Inf"}`:                     40,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := sumSeries(m, "crowdserve_http_requests_total", `status_class="2xx"`); got != 42 {
		t.Errorf("2xx requests over all routes = %v, want 42", got)
	}
	if got := sumSeries(m, "crowddb_query_phase_seconds_sum", `phase="plan"`); got != 1.5e-05 {
		t.Errorf("plan phase sum = %v, want 1.5e-05", got)
	}
	if got := sumSeries(m, "crowddb_wal_appends_total"); got != 101347 {
		t.Errorf("unlabelled counter = %v, want 101347", got)
	}
	if _, err := parseMetrics(strings.NewReader("crowddb_wal_appends_total many\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

// miniature runs w for seconds on a small database. runWorkload itself
// fails if the listener still answers or goroutines outlive the close.
func miniature(t *testing.T, w workload, seconds float64, trace bool) *report {
	t.Helper()
	work := t.TempDir()
	closeLog, err := logToFile(work + "/crowdserve.log")
	if err != nil {
		t.Fatal(err)
	}
	defer closeLog()
	cfg := config{seed: 7, seconds: seconds, warmup: 0.1, trace: trace, out: work, work: work,
		scale: dataset.Scale{Items: 400, Users: 200, RatingsPerUser: 30}}
	rep, err := runWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.verdict.failed != 0 || rep.verdict.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", rep.verdict.failed, rep.verdict.attempted, rep.verdict.messages)
	}
	if left, err := os.ReadDir(work); err != nil || len(left) > 2 {
		t.Errorf("scratch dir keeps %d entries besides the log and a trace file (%v)", len(left), err)
	}
	return rep
}

// declared reads the metric names BENCHMARK.json promises under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file[key], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name+" "+m.Unit)
	}
	return names
}

func reported(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.name+" "+m.unit)
	}
	return names
}

func TestMiniatureWorkloadLeavesNothingRunning(t *testing.T) {
	w, _ := workloadByName("ingest_mixed")
	rep := miniature(t, w, 1, false)
	if got, want := reported(rep.endToEnd), declared(t, "end_to_end"); !sameSet(got, want) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v (BENCHMARK.json)", got, want)
	}
	for _, m := range rep.endToEnd {
		if m.value <= 0 || math.IsNaN(m.value) {
			t.Errorf("%s = %v; an end-to-end metric is never zero", m.name, m.value)
		}
	}
}

func TestMiniatureTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := workloadByName("expand_query_driven")
	rep := miniature(t, w, 0.2, true)
	if got, want := reported(rep.perLayer), declared(t, "per_layer"); !sameSet(got, want) {
		t.Errorf("per-layer metrics\n got %v\nwant %v (BENCHMARK.json)", got, want)
	}
}

func sameSet(a, b []string) bool {
	sort.Strings(a)
	sort.Strings(b)
	return slices.Equal(a, b)
}
