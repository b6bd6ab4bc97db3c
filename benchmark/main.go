// Command benchmark is crowddb's end-to-end benchmark: it builds one
// seeded database, serves it in-process over HTTP exactly as crowdserve
// does, drives it with closed-loop clients, checks every answer against
// its own oracle, and prints each metric by name and unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var only string
	var trace int
	flag.StringVar(&only, "workload", "", "run one workload (default: all four, in order)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed of the request streams")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured window per workload, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and span files instead of the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for span files and scratch data (default: a new temporary directory)")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale, cfg.warmup = benchScale, warmupSeconds

	run := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", only)
			return 2
		}
		run = []workload{w}
	}
	var err error
	if cfg.out == "" {
		if cfg.out, err = os.MkdirTemp("", "crowdbench-"); err == nil {
			defer os.Remove(cfg.out) // succeeds unless the run left span files in it
		}
	} else {
		err = os.MkdirAll(cfg.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if cfg.work, err = os.MkdirTemp(cfg.out, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	closeLog, err := logToFile(filepath.Join(cfg.work, "crowdserve.log"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer closeLog()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "benchmark: seed=%d seconds=%g warmup=%g trace=%v GOMAXPROCS=%d out=%s\n",
		cfg.seed, cfg.seconds, cfg.warmup, cfg.trace, runtime.GOMAXPROCS(0), cfg.out)

	final := output{Correct: true, Metrics: map[string]value{}}
	for _, w := range run {
		rep, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rep.print(os.Stdout, os.Stderr)
		final.add(rep, cfg.trace, len(run) > 1)
	}
	line, _ := json.Marshal(final) // plain numbers and strings always encode
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}
