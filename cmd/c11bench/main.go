// Command c11bench measures the execution-core hot path: for every selected
// (tool, program) cell it runs a serial batch of executions on one tool
// instance — warmup first, so the engine's pools and arenas are in steady
// state — and reports ns/exec, allocated bytes/exec, and allocated
// objects/exec. The result is written as the schema-versioned BENCH_perf.json
// artifact, the perf counterpart of cmd/c11tester's BENCH_campaign.json:
// committed numbers track the hot-path trajectory across PRs.
//
// The scheduler dimension of the paper's Figure 14 is exposed directly:
// -handoff selects the handoff regime (coro ≈ swapcontext fibers, every
// tool's default; osthread ≈ kernel-thread condition-variable sequencing,
// the tsan11rec row), and -fig14 appends the regime × tool matrix to the
// artifact.
//
// Examples:
//
//	go run ./cmd/c11bench                         # full matrix, 30 execs/cell
//	go run ./cmd/c11bench -tools c11tester -bench ms-queue -runs 200
//	go run ./cmd/c11bench -litmus none -runs 100 -json ''
//	go run ./cmd/c11bench -handoff osthread -q    # Figure 14 osthread regime
//	go run ./cmd/c11bench -tools c11tester -litmus SB+rlx,CoRR,MP+rlx -bench none -fig14
package main

import (
	"flag"
	"fmt"
	"os"

	"c11tester/internal/campaign"
	"c11tester/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("c11bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		tools    = fs.String("tools", "c11tester,tsan11,tsan11rec", "comma-separated tools to measure")
		bench    = fs.String("bench", "all", "comma-separated benchmarks, 'all', or 'none'")
		lit      = fs.String("litmus", "all", "comma-separated litmus tests, 'all', or 'none'")
		runs     = fs.Int("runs", 30, "measured executions per (tool, program) cell")
		warmup   = fs.Int("warmup", 1, "unmeasured warmup sweeps of the measured seed range per cell (0 for none)")
		seed     = fs.Int64("seed", 1, "seed base; execution i runs with seed+i")
		jsonPath = fs.String("json", "BENCH_perf.json", "perf artifact path ('' disables)")
		handoff  = fs.String("handoff", "", "scheduler handoff regime of every tool: coro (the default) or osthread (Figure 14)")
		fig14    = fs.Bool("fig14", false, "append the Figure 14 handoff regime × tool matrix over the selected programs")
		compare  = fs.String("compare", "", "diff two perf artifacts: -compare old.json new.json (or old.json,new.json); exits 2 on regression")
		nsTol    = fs.Float64("ns-tol", 20, "-compare: ns/exec tolerance band in percent (negative disables the timing leg)")
		allocTol = fs.Float64("alloc-tol", 0, "-compare: allocation tolerance in percent (0 gates bytes/exec and objects/exec exactly)")
		quiet    = fs.Bool("q", false, "suppress the human-readable report")
		status   = fs.String("status-addr", "", "serve /metrics (Prometheus text), /progress (JSON), and /debug/pprof on this address while the sweep runs ('' disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *compare != "" {
		return runCompare(*compare, fs.Args(), *nsTol, *allocTol, out)
	}

	toolOpts := campaign.ToolOptions{Handoff: *handoff}
	spec := campaign.PerfSpec{
		Runs: *runs, Warmup: *warmup, SeedBase: *seed,
		Handoff: *handoff,
	}
	var toolNames []string
	for _, name := range campaign.SplitList(*tools) {
		ts, err := campaign.StandardTool(name, toolOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11bench:", err)
			return 1
		}
		spec.Tools = append(spec.Tools, ts)
		toolNames = append(toolNames, name)
	}
	var err error
	spec.Benchmarks, err = campaign.SelectBenchmarks(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11bench:", err)
		return 1
	}
	spec.Litmus, err = campaign.SelectLitmus(*lit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11bench:", err)
		return 1
	}
	if len(spec.Tools) == 0 || (len(spec.Benchmarks) == 0 && len(spec.Litmus) == 0) {
		fmt.Fprintln(os.Stderr, "c11bench: nothing selected (need at least one tool and one program)")
		return 1
	}

	if *status != "" {
		reg := obs.NewRegistry()
		prog := campaign.NewPerfProgress(reg)
		spec.Progress = prog
		srv := obs.NewServer(reg, prog.Snapshot)
		addr, err := srv.Start(*status)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11bench: -status-addr:", err)
			return 1
		}
		defer srv.Stop()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "c11bench: serving /metrics and /progress on http://%s\n", addr)
		}
	}

	sum := campaign.RunPerf(spec)
	if *fig14 {
		matrix, err := campaign.RunHandoffMatrix(spec, toolNames, campaign.ToolOptions{}, sum)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11bench:", err)
			return 1
		}
		sum.HandoffMatrix = matrix
	}
	if !*quiet {
		fmt.Fprint(out, sum.String())
	}
	if *jsonPath != "" {
		if err := sum.WriteJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "c11bench:", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
		}
	}
	return 0
}

// runCompare handles -compare old.json new.json: the new path may follow as
// a positional argument or be joined with a comma (the same convention as
// cmd/c11tester -compare).
func runCompare(oldArg string, positional []string, nsTol, allocTol float64, out *os.File) int {
	oldPath, newPath, err := campaign.SplitComparePaths(oldArg, positional)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11bench:", err)
		return 1
	}
	oldSum, err := campaign.LoadPerfSummary(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11bench:", err)
		return 1
	}
	newSum, err := campaign.LoadPerfSummary(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11bench:", err)
		return 1
	}
	cmp := campaign.ComparePerf(oldSum, newSum, nsTol, allocTol)
	fmt.Fprint(out, cmp.String())
	if cmp.Regressed() {
		return 2
	}
	return 0
}
