// Command benchguard is the CI bench-regression wall: it parses `go test
// -bench -benchmem` output, emits the measured numbers as a JSON artifact,
// and fails (exit 1) when a guarded benchmark's ns/op, B/op or allocs/op
// regresses beyond a threshold against a committed baseline, or when a
// benchmark run at several -cpu values degrades with the degree of
// parallelism.
//
//	go test -run xxx -bench 'BenchmarkTopNSelect$|BenchmarkWALReplay$' -benchmem -count 3 -cpu 1,4 . | tee bench.txt
//	benchguard -input bench.txt -baseline BENCH_baseline.json -out bench-current.json \
//	    -require BenchmarkTopNSelect,BenchmarkWALReplay -require-mem BenchmarkTopNSelect \
//	    -scaling BenchmarkTopNSelect -threshold 0.30
//
// With -count N and -cpu 1,4 the minimum of each metric over all lines of
// a benchmark is used — the minimum is the least noisy estimator of a
// benchmark's true cost on a shared CI runner, and a baseline measured
// serially can only be beaten by the parallel run, never tripped by it.
// To refresh the baseline after an intentional perf change, run the same
// bench command and commit the -out file as BENCH_baseline.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Measurement is one benchmark's headline numbers. The memory figures are
// zero for a run made without -benchmem (and in baselines older than
// them), which guards nothing.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed reference file format.
type Baseline struct {
	// Note documents provenance (machine, date, refresh command).
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// benchLine matches standard `go test -bench` result lines, e.g.
//
//	BenchmarkTopNSelect-8   	      14	  73334423 ns/op	  57281 B/op	  333 allocs/op
//
// capturing the name, the GOMAXPROCS suffix, ns/op and the rest of the
// line, where -benchmem's columns are looked up by unit.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	bytesCol  = regexp.MustCompile(`\s([0-9.]+) B/op`)
	allocsCol = regexp.MustCompile(`\s([0-9.]+) allocs/op`)
)

// minOf folds b into a metric-wise minimum; the zero Measurement is the
// identity for ns/op, and an absent memory figure never lowers a present
// one.
func minOf(a, b Measurement) Measurement {
	pick := func(x, y float64) float64 {
		if x == 0 || (y != 0 && y < x) {
			return y
		}
		return x
	}
	return Measurement{pick(a.NsPerOp, b.NsPerOp), pick(a.BytesPerOp, b.BytesPerOp), pick(a.AllocsPerOp, b.AllocsPerOp)}
}

// parseBench extracts, per benchmark name and -cpu value (1 when the line
// has no suffix), the metric-wise minimum across -count repetitions.
func parseBench(r io.Reader) (map[string]map[int]Measurement, error) {
	out := map[string]map[int]Measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		cpu := 1
		if m[2] != "" {
			cpu, _ = strconv.Atoi(m[2])
		}
		var cur Measurement
		var err error
		if cur.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op on line %q: %w", sc.Text(), err)
		}
		if c := bytesCol.FindStringSubmatch(m[4]); c != nil {
			cur.BytesPerOp, _ = strconv.ParseFloat(c[1], 64)
		}
		if c := allocsCol.FindStringSubmatch(m[4]); c != nil {
			cur.AllocsPerOp, _ = strconv.ParseFloat(c[1], 64)
		}
		if out[m[1]] == nil {
			out[m[1]] = map[int]Measurement{}
		}
		out[m[1]][cpu] = minOf(out[m[1]][cpu], cur)
	}
	return out, sc.Err()
}

// overall folds a run's per-cpu measurements into one per benchmark: the
// numbers the baseline records and is compared with.
func overall(perCPU map[string]map[int]Measurement) map[string]Measurement {
	out := map[string]Measurement{}
	for name, byCPU := range perCPU {
		var m Measurement
		for _, c := range byCPU {
			m = minOf(m, c)
		}
		out[name] = m
	}
	return out
}

// over formats one metric's regression, or returns "" when cur is within
// base*(1+threshold) — or the baseline has no figure to hold it to.
func over(metric string, cur, base, threshold float64) string {
	if base == 0 || cur <= base*(1+threshold) {
		return ""
	}
	return fmt.Sprintf("%.0f %s vs baseline %.0f (+%.0f%%, limit +%.0f%%)", cur, metric, base, 100*(cur/base-1), 100*threshold)
}

// compare returns one failure message per guarded benchmark that is
// missing from the run, missing from the baseline, slower than
// baseline*(1+threshold), or — for the names in requireMem — allocating
// more bytes or objects per op than baseline*(1+threshold).
func compare(current, baseline map[string]Measurement, require, requireMem []string, threshold float64) []string {
	mem := map[string]bool{}
	for _, name := range requireMem {
		mem[name] = true
	}
	var failures []string
	for _, name := range require {
		cur, okCur := current[name]
		base, okBase := baseline[name]
		switch {
		case !okCur:
			failures = append(failures, fmt.Sprintf("%s: not found in bench output", name))
			continue
		case !okBase:
			failures = append(failures, fmt.Sprintf("%s: not found in baseline", name))
			continue
		}
		msgs := []string{over("ns/op", cur.NsPerOp, base.NsPerOp, threshold)}
		if mem[name] {
			if cur.BytesPerOp == 0 && base.BytesPerOp != 0 {
				msgs = append(msgs, "no B/op in bench output (run with -benchmem)")
			}
			msgs = append(msgs, over("B/op", cur.BytesPerOp, base.BytesPerOp, threshold),
				over("allocs/op", cur.AllocsPerOp, base.AllocsPerOp, threshold))
		}
		for _, msg := range msgs {
			if msg != "" {
				failures = append(failures, name+": "+msg)
			}
		}
	}
	return failures
}

// scalingBytes is how many times the bytes of its serial run a parallel
// run may allocate per op before compareScaling fails it: per-worker
// scratch is fine, per-row copies at the exchange are not.
const scalingBytes = 4

// compareScaling holds each named benchmark's run at the highest -cpu
// value to its own run at -cpu 1, measured in the same process minutes
// apart — a same-run ratio, not a machine number: the parallel run must
// not be slower than the serial one by more than threshold (the noise the
// baseline wall allows too), nor allocate more than scalingBytes times
// its bytes.
func compareScaling(perCPU map[string]map[int]Measurement, names []string, threshold float64) []string {
	var failures []string
	for _, name := range names {
		serial, ok := perCPU[name][1]
		top := 1
		for cpu := range perCPU[name] {
			top = max(top, cpu)
		}
		if !ok || top == 1 {
			failures = append(failures, fmt.Sprintf("%s: needs runs at -cpu 1 and above to check scaling", name))
			continue
		}
		par := perCPU[name][top]
		if par.NsPerOp > serial.NsPerOp*(1+threshold) {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op at -cpu %d vs %.0f serial (+%.0f%%, limit +%.0f%%)",
				name, par.NsPerOp, top, serial.NsPerOp, 100*(par.NsPerOp/serial.NsPerOp-1), 100*threshold))
		}
		if serial.BytesPerOp > 0 && par.BytesPerOp > scalingBytes*serial.BytesPerOp {
			failures = append(failures, fmt.Sprintf("%s: %.0f B/op at -cpu %d vs %.0f serial (%.1f×, limit %d×)",
				name, par.BytesPerOp, top, serial.BytesPerOp, par.BytesPerOp/serial.BytesPerOp, scalingBytes))
		}
	}
	return failures
}

func splitNames(list string) []string {
	var names []string
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// guard names what a run is held to.
type guard struct {
	require    string  // names that must be present and within threshold on ns/op
	requireMem string  // subset additionally held on B/op and allocs/op
	scaling    string  // names whose highest -cpu run is held to their -cpu 1 run
	threshold  float64 // allowed fractional regression
}

func run(input io.Reader, baselinePath, outPath string, g guard, stdout io.Writer) error {
	perCPU, err := parseBench(input)
	if err != nil {
		return err
	}
	current := overall(perCPU)
	if outPath != "" {
		artifact := Baseline{Benchmarks: current}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("benchguard: reading baseline: %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchguard: parsing baseline: %w", err)
	}
	require := splitNames(g.require)
	for _, name := range require {
		if cur, ok := current[name]; ok {
			if b, okB := base.Benchmarks[name]; okB {
				fmt.Fprintf(stdout, "benchguard: %s %.0f ns/op (baseline %.0f, %+.1f%%), %.0f B/op (%.0f), %.0f allocs/op (%.0f)\n",
					name, cur.NsPerOp, b.NsPerOp, 100*(cur.NsPerOp/b.NsPerOp-1),
					cur.BytesPerOp, b.BytesPerOp, cur.AllocsPerOp, b.AllocsPerOp)
			}
		}
	}
	failures := compare(current, base.Benchmarks, require, splitNames(g.requireMem), g.threshold)
	failures = append(failures, compareScaling(perCPU, splitNames(g.scaling), g.threshold)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stdout, "benchguard: REGRESSION %s\n", f)
		}
		return fmt.Errorf("benchguard: %d benchmark regression(s)", len(failures))
	}
	fmt.Fprintln(stdout, "benchguard: ok")
	return nil
}

func main() {
	var (
		input    = flag.String("input", "", "bench output file (default stdin)")
		baseline = flag.String("baseline", "BENCH_baseline.json", "committed baseline JSON")
		out      = flag.String("out", "", "write the measured numbers as JSON (the CI artifact)")
		g        guard
	)
	flag.StringVar(&g.require, "require", "", "comma-separated benchmark names that must be present and within threshold on ns/op")
	flag.StringVar(&g.requireMem, "require-mem", "", "names from -require whose B/op and allocs/op are held to the baseline too (deterministic allocators only)")
	flag.StringVar(&g.scaling, "scaling", "", "names whose run at the highest -cpu value must not be slower than their -cpu 1 run, nor allocate over 4x its bytes")
	flag.Float64Var(&g.threshold, "threshold", 0.30, "allowed fractional regression vs baseline")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, *baseline, *out, g, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
