package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: crowddb
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkWALReplay  	       1	  89661321 ns/op	        89.66 ms/replay-10k	28446048 B/op	  498166 allocs/op
BenchmarkWALReplay  	       1	  80123456 ns/op	        80.12 ms/replay-10k	28446050 B/op	  498170 allocs/op
BenchmarkTopNSelect 	      14	  73334423 ns/op	   1000000 rows-scanned/op	   16000 B/op	     110 allocs/op
BenchmarkTopNSelect-4 	      14	  70000000 ns/op	   1000000 rows-scanned/op	   30000 B/op	     180 allocs/op
PASS
ok  	crowddb	0.561s
`

func TestParseBenchTakesMinAndStripsSuffix(t *testing.T) {
	perCPU, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(perCPU) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(perCPU), perCPU)
	}
	if got, want := perCPU["BenchmarkWALReplay"][1], (Measurement{80123456, 28446048, 498166}); got != want {
		t.Fatalf("WALReplay = %v, want the metric-wise minimum %v", got, want)
	}
	if got := perCPU["BenchmarkTopNSelect"][4]; got != (Measurement{70000000, 30000, 180}) {
		t.Fatalf("TopNSelect-4 = %v (GOMAXPROCS suffix not split off?)", got)
	}
	// The baseline figure is the minimum over the -cpu values too.
	if got := overall(perCPU)["BenchmarkTopNSelect"]; got != (Measurement{70000000, 16000, 110}) {
		t.Fatalf("overall TopNSelect = %v", got)
	}
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	base := map[string]Measurement{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkD": {NsPerOp: 100}, // a baseline older than the memory figures
	}
	current := map[string]Measurement{
		"BenchmarkA": {NsPerOp: 129, BytesPerOp: 1299, AllocsPerOp: 13}, // all inside the 30% fence
		"BenchmarkB": {NsPerOp: 131, BytesPerOp: 5000, AllocsPerOp: 14}, // all three out
		"BenchmarkD": {NsPerOp: 90, BytesPerOp: 1 << 30, AllocsPerOp: 1 << 20},
	}
	names := []string{"BenchmarkA", "BenchmarkB", "BenchmarkD"}
	fails := compare(current, base, names, names, 0.30)
	if len(fails) != 3 {
		t.Fatalf("failures = %v, want ns/op, B/op and allocs/op of BenchmarkB", fails)
	}
	for _, f := range fails {
		if !strings.HasPrefix(f, "BenchmarkB: ") {
			t.Fatalf("unexpected failure %q", f)
		}
	}
	// Memory is guarded only where asked.
	if fails = compare(current, base, names, nil, 0.30); len(fails) != 1 || !strings.Contains(fails[0], "ns/op") {
		t.Fatalf("failures without -require-mem = %v, want only BenchmarkB's ns/op", fails)
	}
	// Missing on either side is a failure, not a silent pass.
	if fails = compare(current, base, []string{"BenchmarkC"}, nil, 0.30); len(fails) != 1 {
		t.Fatalf("missing benchmark not flagged: %v", fails)
	}
}

func TestCompareScaling(t *testing.T) {
	perCPU := map[string]map[int]Measurement{
		"BenchmarkFine":   {1: {100, 1000, 10}, 4: {120, 3900, 40}},
		"BenchmarkSlower": {1: {100, 1000, 10}, 4: {140, 1000, 10}},
		"BenchmarkCopies": {1: {100, 1000, 10}, 4: {60, 4100, 10}},
		"BenchmarkSerial": {1: {100, 1000, 10}},
	}
	fails := compareScaling(perCPU, []string{"BenchmarkFine", "BenchmarkSlower", "BenchmarkCopies", "BenchmarkSerial"}, 0.30)
	if len(fails) != 3 {
		t.Fatalf("failures = %v, want Slower (ns/op), Copies (B/op) and Serial (no parallel run)", fails)
	}
	for i, want := range []string{"BenchmarkSlower: 140 ns/op at -cpu 4", "BenchmarkCopies: 4100 B/op at -cpu 4", "BenchmarkSerial: needs runs"} {
		if !strings.HasPrefix(fails[i], want) {
			t.Fatalf("failure %d = %q, want prefix %q", i, fails[i], want)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	out := filepath.Join(dir, "current.json")
	if err := os.WriteFile(baseline, []byte(`{"benchmarks":{"BenchmarkTopNSelect":{"ns_per_op":70000000,"bytes_per_op":15000,"allocs_per_op":100},"BenchmarkWALReplay":{"ns_per_op":85000000}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	g := guard{require: "BenchmarkTopNSelect,BenchmarkWALReplay", requireMem: "BenchmarkTopNSelect", scaling: "BenchmarkTopNSelect", threshold: 0.30}
	if err := run(strings.NewReader(sampleOutput), baseline, out, g, &report); err != nil {
		t.Fatalf("run: %v\n%s", err, report.String())
	}
	artifact, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	if !strings.Contains(string(artifact), `"bytes_per_op": 16000`) || !strings.Contains(string(artifact), `"allocs_per_op": 110`) {
		t.Fatalf("artifact lacks the memory figures:\n%s", artifact)
	}
	// Tighten the fence so TopN's 110 allocs/op vs 100 (+10%) trips at 5%
	// while its ns/op (70.0ms vs 70ms) and WALReplay (80.1ms vs 85ms) hold.
	g.threshold = 0.05
	report.Reset()
	if err := run(strings.NewReader(sampleOutput), baseline, "", g, &report); err == nil {
		t.Fatal("tight threshold did not trip")
	}
	if !strings.Contains(report.String(), "allocs/op") || strings.Contains(report.String(), "REGRESSION BenchmarkWALReplay") {
		t.Fatalf("wrong regressions reported:\n%s", report.String())
	}
}
