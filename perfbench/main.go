// Command perfbench is the repository's benchmark. It runs one named
// workload of (tool, program) executions on two closed-loop legs over the
// same cells and seeds — a campaign as cmd/c11tester -q runs it, and one
// serial caller of warm Engine.Execute — checks that the legs agree and
// that no execution failed, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// instruments the engine from outside and reports per-layer metrics, and
// writes its spans under the -out directory. See README.md.
//
// Usage (from the perfbench directory):
//
//	go run . --workload litmus --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"execs_per_refop", "1/refop"},
	{"engine_execs_per_refop", "1/refop"},
	{"engine_p50_refop", "refop"},
	{"engine_p99_refop", "refop"},
	{"alloc_b_per_exec", "B"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"campaign.tool_builds", "count"},
	{"campaign.overhead_frac", "ratio"},
	{"campaign.gc_pause_ms", "ms"},
	{"campaign.num_gc", "count"},
	{"campaign.phase_reset_us", "us"},
	{"campaign.phase_run_us", "us"},
	{"campaign.phase_race_us", "us"},
	{"campaign.phase_validate_us", "us"},
	{"obs.timing_overhead_frac", "ratio"},
	{"obs.events_emitted", "count"},
	{"core.reset_us", "us"},
	{"core.run_self_us", "us"},
	{"core.exec_other_us", "us"},
	{"core.steps_per_exec", "count"},
	{"core.actions_per_exec", "count"},
	{"sched.handoff_wait_us", "us"},
	{"sched.wait_us_per_step", "us"},
	{"sched.worker_spawns", "count"},
	{"rng.draws_per_exec", "count"},
	{"rng.draw_us", "us"},
	{"model.us_per_exec", "us"},
	{"model.calls_per_exec", "count"},
	{"baseline.us_per_exec", "us"},
	{"mograph.nodes_per_exec", "count"},
	{"mograph.edges_per_exec", "count"},
	{"mograph.merge_ops_per_exec", "count"},
	{"race.us_per_exec", "us"},
	{"race.accesses_per_exec", "count"},
	{"race.reports_per_exec", "count"},
	{"axiom.us_per_exec", "us"},
	{"axiom.alloc_b_per_exec", "B"},
	{"analysis.us_per_exec", "us"},
	{"analysis.alloc_b_per_exec", "B"},
	{"analysis.findings", "count"},
	{"outcome.detect_rate", "ratio"},
	{"outcome.weak_coverage", "ratio"},
	{"outcome.race_keys", "count"},
	{"outcome.fail_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if os.Getenv(refEnv) != "" {
		os.Exit(referenceMain(os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// maxProblems bounds how many problem lines a run prints.
const maxProblems = 20

func runMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: litmus, structures, or audit")
	seed := fl.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fl.Float64("seconds", 30, "measured seconds (at least two rounds always run)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	runs := fl.Int("runs", 0, "executions per cell per round (0: the workload's default)")
	out := fl.String("out", ".bench_build/perfbench", "directory for counter records and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *runs > 0 {
		w.runs = *runs
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg := config{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	diffs, err := gateCounters(filepath.Join(*out, "counters"), res.counters)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: counter gate:", err)
		return 1
	}
	for _, d := range diffs {
		res.problems = append(res.problems, "counter changed since an earlier run of this binary and seed: "+d)
	}
	if res.spans != nil {
		path := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := res.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		res.notef("spans written to %s", path)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	sum := summary{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	sum.Correct = res.failed == 0 && len(res.problems) == 0
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			res.problems = append(res.problems, "metric not measured: "+d.name)
			sum.Correct = false
		}
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for i, p := range res.problems {
		if i == maxProblems {
			fmt.Fprintf(stderr, "perfbench: … %d more problems\n", len(res.problems)-maxProblems)
			break
		}
		fmt.Fprintln(stderr, "perfbench: problem:", p)
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	counters, err := json.Marshal(res.counters)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# counters %s\n", counters)
	for _, d := range defs {
		fmt.Fprintf(stdout, "# %-28s %14.6g %s\n", d.name, sum.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
