package main

import (
	"fmt"
	"io"
)

// value is one metric in the final JSON object.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON object: the last line of standard output.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// add folds one workload's report in: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. When several
// workloads share the object, names are prefixed with the workload.
func (o *output) add(r *report, trace, prefix bool) {
	o.Attempted += r.verdict.attempted
	o.Failed += r.verdict.failed
	o.Correct = o.Correct && r.verdict.failed == 0 && r.verdict.attempted > 0
	ms := r.endToEnd
	if trace {
		ms = r.perLayer
	}
	for _, m := range ms {
		name := m.name
		if prefix {
			name = r.workload + "/" + name
		}
		o.Metrics[name] = value{m.value, m.unit}
	}
}

// print writes one "workload metric value unit" line per metric to out,
// and failures and warnings to log.
func (r *report) print(out, log io.Writer) {
	for _, set := range [][]metric{r.endToEnd, r.perLayer, r.info} {
		for _, m := range set {
			fmt.Fprintf(out, "%s %s %.6g %s\n", r.workload, m.name, m.value, m.unit)
		}
	}
	for _, w := range r.warnings {
		fmt.Fprintf(log, "benchmark: %s: warning: %s\n", r.workload, w)
	}
	for _, m := range r.verdict.messages {
		fmt.Fprintf(log, "benchmark: %s: FAILED: %s\n", r.workload, m)
	}
	fmt.Fprintf(log, "benchmark: %s: %d attempted, %d failed\n", r.workload, r.verdict.attempted, r.verdict.failed)
}
