// Command c11tester runs exploration campaigns: (tool × program × N
// executions) matrices over the paper's benchmark and litmus suites,
// sharded across worker goroutines (internal/campaign), and writes the
// versioned BENCH_campaign.json artifact.
//
// Examples:
//
//	go run ./cmd/c11tester -runs 200                          # full matrix
//	go run ./cmd/c11tester -tools c11tester -bench ms-queue \
//	    -runs 1 -seed 1042                                    # replay one execution
//	go run ./cmd/c11tester -list                              # show selectable names
//
// The command exits 2 when the campaign observed a memory-model soundness
// problem: a forbidden litmus outcome, a data race reported inside a litmus
// program (which only performs atomic accesses), an axiomatic-model
// violation, or an execution the engine aborted with an infeasible
// memory-model state.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"c11tester/internal/analysis"
	"c11tester/internal/campaign"
	"c11tester/internal/litmus"
	"c11tester/internal/structures"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is a parsed command line: the campaign it describes, and the flags
// that act around the campaign rather than inside it.
type config struct {
	spec     campaign.Spec
	tflags   campaign.TelemetryFlags
	jsonPath string
	record   string
	cpuProf  string
	memProf  string
	quiet    bool
}

// parse turns the command line into a config. done reports that the command
// finished while parsing (-list, -compare, or a bad flag) with exit code code.
func parse(args []string, out *os.File) (cfg config, code int, done bool) {
	fs := flag.NewFlagSet("c11tester", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		tools     = fs.String("tools", strings.Join(campaign.StandardToolNames(), ","), "comma-separated tools to run")
		bench     = fs.String("bench", "all", "comma-separated benchmarks, 'all', or 'none'")
		lit       = fs.String("litmus", "all", "comma-separated litmus tests, 'all', or 'none'")
		runs      = fs.Int("runs", 100, "executions per (tool, program) cell")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		shardSz   = fs.Int("shard-size", 0, "executions per work chunk (0 = default)")
		seed      = fs.Int64("seed", 1, "seed base; execution i runs with seed+i")
		prune     = fs.String("prune", "off", "c11tester prune mode: off, conservative, or aggressive")
		sched     = fs.String("sched", "random", "c11tester scheduler strategy: random or quantum")
		quantum   = fs.Int("quantum", 0, "mean scheduling quantum for quantum strategies (0 = default)")
		maxSteps  = fs.Uint64("max-steps", 0, "per-execution visible-operation cap (0 = default)")
		jsonPath  = fs.String("json", "BENCH_campaign.json", "campaign artifact path ('' disables)")
		policy    = fs.String("policy", "uniform", "per-cell budget policy: uniform, or converge (stop a cell once its Good–Turing missing mass is at most 0.05 and reassign the freed budget)")
		guide     = fs.String("guide", "", "directory of recorded traces for trace-guided exploration: matching cells replay a schedule prefix before exploring live ('' disables)")
		guideMin  = fs.Float64("guide-min", 0, "guided prefix depth lower bound, as a fraction of the recorded schedule (0 = default)")
		guideMax  = fs.Float64("guide-max", 0, "guided prefix depth upper bound, as a fraction of the recorded schedule (0 = default)")
		record    = fs.String("record", "", "directory to persist portable traces of racy/forbidden executions ('' disables)")
		recAll    = fs.Bool("record-all", false, "with -record, persist a trace for every execution")
		validate  = fs.Bool("validate", false, "axiom-check every explored execution against the Appendix A model")
		analyzers = fs.String("analyzers", "", "comma-separated execution analyzers to run per cell, 'all', or 'none' (see -list)")
		compare   = fs.String("compare", "", "diff two campaign artifacts: -compare old.json new.json (or old.json,new.json)")
		quiet     = fs.Bool("q", false, "suppress the human-readable report")
		list      = fs.Bool("list", false, "list selectable tools, benchmarks, and litmus tests")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile taken after the campaign to this file")
	)
	tflags := &cfg.tflags
	tflags.Register(fs)
	var cflags campaign.CrashFlags
	cflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, 1, true
	}
	tflags.Quiet = *quiet
	if *compare != "" {
		return cfg, runCompare(*compare, fs.Args(), out), true
	}
	if *list {
		fmt.Fprintf(out, "tools:      %s\n", strings.Join(campaign.StandardToolNames(), " "))
		fmt.Fprintf(out, "benchmarks: %s\n", strings.Join(structures.Names(), " "))
		fmt.Fprintf(out, "litmus:     %s\n", strings.Join(litmus.Names(), " "))
		fmt.Fprintf(out, "analyzers:  %s\n", strings.Join(analysis.Names(), " "))
		return cfg, 0, true
	}

	pruneMode, err := campaign.ParsePrune(*prune)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	opts := campaign.ToolOptions{
		Prune:       pruneMode,
		Strategy:    *sched,
		QuantumMean: *quantum,
		MaxSteps:    *maxSteps,
	}

	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -record:", err)
			return cfg, 1, true
		}
	}
	pol, err := campaign.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	spec := campaign.Spec{
		Runs: *runs, SeedBase: *seed,
		Workers: *workers, ShardSize: *shardSz,
		Policy:       pol,
		GuideMinFrac: *guideMin, GuideMaxFrac: *guideMax,
		RecordDir: *record, RecordAll: *recAll,
		ValidateAxioms: *validate,
		Analyzers:      campaign.ParseAnalyzers(*analyzers),
	}
	if *guide != "" {
		guides, err := campaign.LoadGuides(*guide)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester:", err)
			return cfg, 1, true
		}
		spec.Guides = guides
	}
	for _, name := range campaign.SplitList(*tools) {
		ts, err := campaign.StandardTool(name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester:", err)
			return cfg, 1, true
		}
		spec.Tools = append(spec.Tools, ts)
	}
	spec.Benchmarks, err = campaign.SelectBenchmarks(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	spec.Litmus, err = campaign.SelectLitmus(*lit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	if err := tflags.ApplyCaptureFlags(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	// Crash-safety flags resolve after the matrix so -resume can validate the
	// checkpoint's spec digest against the fully-built spec; the rotation of a
	// previous event stream must also precede SetupTelemetry opening it.
	if err := cflags.Apply(&spec, tflags.EventsPath, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return cfg, 1, true
	}
	cfg.spec = spec
	cfg.jsonPath, cfg.record = *jsonPath, *record
	cfg.cpuProf, cfg.memProf = *cpuProf, *memProf
	cfg.quiet = *quiet
	return cfg, 0, false
}

func run(args []string, out *os.File) int {
	cfg, code, done := parse(args, out)
	if done {
		return code
	}
	spec := cfg.spec

	// Telemetry fabric: per-wave progress lines, the structured event
	// stream, and the live serving surface all hang off one Telemetry,
	// wired by the helper shared with cmd/litmus.
	tel, cleanup, err := campaign.SetupTelemetry("c11tester", cfg.tflags)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cleanup()
	spec.Telemetry = tel

	// Profiling hooks: make hot-path investigation a one-liner
	// (go run ./cmd/c11tester -runs 200 -cpuprofile cpu.pb.gz, then
	// go tool pprof cpu.pb.gz).
	if cfg.cpuProf != "" {
		f, err := os.Create(cfg.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	sum := campaign.Run(spec)

	if cfg.memProf != "" {
		f, err := os.Create(cfg.memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -memprofile:", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date in-use statistics in the profile
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -memprofile:", err)
			return 1
		}
	}

	if !cfg.quiet {
		fmt.Fprint(out, sum.String())
	}
	if cfg.jsonPath != "" {
		if err := sum.WriteJSON(cfg.jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester:", err)
			return 1
		}
		if !cfg.quiet {
			fmt.Fprintf(out, "\nwrote %s\n", cfg.jsonPath)
		}
		if sum.Shard != nil {
			manPath := cfg.jsonPath + ".shard.json"
			if err := campaign.BuildShardManifest(spec, sum).WriteFile(manPath); err != nil {
				fmt.Fprintln(os.Stderr, "c11tester:", err)
				return 1
			}
			if !cfg.quiet {
				fmt.Fprintf(out, "wrote %s\n", manPath)
			}
		}
	}
	if sum.Failed() {
		campaign.WriteEngineFailures(os.Stderr, sum)
		fmt.Fprintf(os.Stderr, "c11tester: FAILED: %d forbidden outcome(s), %d unexpected race(s), %d axiom violation(s), %d engine failure(s)\n",
			len(sum.Forbidden()), len(sum.UnexpectedRaces()), sum.AxiomViolations(), sum.EngineFailures())
		return 2
	}
	if n := sum.RecordErrors(); n > 0 {
		fmt.Fprintf(os.Stderr, "c11tester: failed to record %d trace(s) to %s\n", n, cfg.record)
		return 1
	}
	return 0
}

// runCompare handles -compare old.json new.json: the new path may follow as
// a positional argument or be joined with a comma.
func runCompare(oldArg string, positional []string, out *os.File) int {
	oldPath, newPath, err := campaign.SplitComparePaths(oldArg, positional)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	oldSum, err := campaign.LoadSummary(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	newSum, err := campaign.LoadSummary(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	cmp := campaign.Compare(oldSum, newSum)
	fmt.Fprint(out, cmp.String())
	if cmp.Regressed() {
		return 2
	}
	return 0
}
