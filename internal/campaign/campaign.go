// Package campaign runs exploration campaigns: (tool × program × N
// executions) matrices like the ones behind the paper's Tables 1–4, sharded
// across a pool of worker goroutines.
//
// The campaign runner is built around one invariant: execution i of a
// (tool, program) cell always runs with seed SeedBase+i, and every tool in
// this repository re-derives all scheduling and reads-from choices from its
// seed, so the outcome of an execution is a pure function of (tool, program,
// seed). Sharding therefore only changes *when* an execution runs, never
// *what* it produces, and a K-worker campaign aggregates to byte-identical
// results as a serial one (wall-clock timings excepted — those are
// measurements, not model outcomes). The determinism test in this package
// pins that property. Budget policies (internal/explore) preserve it: a
// cell's stop point is a pure function of the CellState of its executed
// prefix, and the freed-budget redistribution is computed at
// deterministic barriers between waves, so adaptive campaigns are as
// worker-count-independent as uniform ones. Trace-guided cells preserve it
// too: the replayed prefix depth is derived from the execution's seed.
//
// Under the uniform policy, shards — contiguous execution-index ranges of
// one cell — are the unit of work; under an adaptive policy the unit is a
// whole-cell grant, run chunk-by-chunk with convergence checks between
// chunks on the cell's state from earlier waves merged with the unit's own.
// Either way a unit runs its execution indices serially on its
// worker's instance of the cell's tool, folding them into a CellState. Tool
// instances are not goroutine-safe, but their results do not depend on what
// they ran before (capi.Tool), so each worker keeps one instance per tool
// for the whole campaign. Race novelty — which keys a unit sees first, the
// c11_cell_races metric and the flight recorder's new_race trigger — is
// decided by the unit's CellState, never by the tool.
// Workers fold their units into one CellState per cell as they complete;
// CellState.Merge is associative and commutative (sums, histogram unions,
// and min-by-execution-index winners for reproduction metadata), so the fold
// cannot depend on completion order, and a Summary is rendered from the
// folded states in one place (render).
package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"c11tester/internal/analysis"
	"c11tester/internal/axiom"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// ToolSpec names a tool and knows how to build fresh instances of it.
type ToolSpec struct {
	Name string
	// New constructs a fresh tool instance. Each campaign worker calls it at
	// most once, on its first unit of this tool, so implementations must be
	// safe to call concurrently (the instances themselves are confined to
	// one worker).
	New func() capi.Tool
	// Baseline marks the tsan11-family tools, for which a litmus test's
	// BaselineForbidden outcomes are forbidden in addition to Forbidden
	// (the fragment gap of Section 1.1).
	Baseline bool
	// ReproFlags are the non-default cmd/c11tester flags needed to rebuild
	// this tool configuration; they are embedded in every reproduction
	// command the campaign emits (see harness.Repro.Flags).
	ReproFlags string
	// TraceConfig is the portable tool identity embedded in recorded traces
	// (see internal/trace); StandardTool fills it in.
	TraceConfig trace.ToolConfig
}

// BenchmarkSpec is one program cell of the campaign matrix.
type BenchmarkSpec struct {
	Name string
	// New builds a fresh program instance. Instances carry reusable state
	// across executions (see structures.Benchmark) and run one execution at
	// a time, so each unit of work builds its own.
	New func() capi.Program
	// Signal selects which bug signal counts as a detection for this
	// benchmark (races for the data-structure suite, assertion violations
	// for the injected-bug suite).
	Signal harness.Signal
}

// Spec describes a campaign.
type Spec struct {
	Tools      []ToolSpec
	Benchmarks []BenchmarkSpec
	Litmus     []*litmus.Test
	// Runs is the number of executions per (tool, program) cell — under an
	// adaptive policy, the cell's initial budget.
	Runs int
	// SeedBase seeds execution i of every cell with SeedBase+i.
	SeedBase int64
	// Workers sizes the worker pool; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of executions per shard; 0 means 25.
	ShardSize int
	// Policy selects the per-cell budget policy (internal/explore). Nil
	// means explore.Uniform{}: every cell runs exactly Runs executions. An
	// adaptive policy may stop a cell early once its statistics converge and
	// reassigns the freed budget to still-diverging cells, keeping the
	// campaign total at most Runs × cells.
	Policy explore.Policy
	// Guides supplies recorded traces for trace-guided exploration: engine
	// cells whose (tool, program) matches a loaded trace replay a prefix of
	// its schedule before handing control to the live strategy (see
	// trace.PrefixGuide). Execution i of a guided cell follows trace i mod
	// len(traces), with the prefix depth drawn from the execution's seed.
	Guides *GuideSet
	// GuideMinFrac and GuideMaxFrac bound the replayed prefix depth as
	// fractions of the guiding schedule's choice count; zero means the
	// trace.DefaultGuideMinFrac/MaxFrac skew-deep range.
	GuideMinFrac, GuideMaxFrac float64
	// RecordDir, when non-empty, persists a portable execution trace
	// (internal/trace) for every execution that exhibited a detection
	// signal, race, or forbidden outcome. RecordAll persists every
	// execution instead.
	RecordDir string
	RecordAll bool
	// CaptureDir arms the anomaly-triggered flight recorder: every unit of
	// work watches its execution digests, and executions that trip a trigger
	// (first-seen race key, infeasible model state, forbidden litmus outcome,
	// schedule length above the unit's trailing p99) are re-run with a trace
	// recorder attached and written here as portable traces, indexed by a
	// canonical manifest.json. The capture set is a pure function of the seed
	// indices, so workers=1 ≡ workers=K yields an identical capture
	// directory.
	CaptureDir string
	// CaptureSlowNS additionally arms the wall-clock slow-execution trigger.
	// Wall time is not a pure function of the seed, so this trigger breaks
	// the capture set's worker-count independence; it is a diagnosis aid,
	// off by default.
	CaptureSlowNS bool
	// ValidateAxioms checks every execution of a tool whose memory model
	// exposes total modification orders (core.MOProvider) against the
	// axiomatic model of Appendix A, counting violations in the summary;
	// executions of other tools are counted as skipped.
	ValidateAxioms bool
	// Analyzers names the internal/analysis plug-ins to run over every
	// finished execution (e.g. "sc-robustness", "atomicity"). Each cell
	// builds its own instances; analyzers whose trace or modification-order
	// needs the cell's tool cannot meet are skipped on that cell, mirroring
	// how validation skips non-MOProvider tools. Findings are deduplicated
	// per (analyzer, cell, key) with min-seed repro winners and merged
	// across shards exactly like races. Empty (the default) composes no
	// analyzer stage — the default pipeline is byte-identical to the
	// pre-analyzer runner, and stays allocation-free.
	Analyzers []string
	// Telemetry is the campaign's observability fabric (metrics registry,
	// event stream, live progress). Nil means Run builds a quiet internal
	// one — the metrics core is always on (it is allocation-free and the
	// summary's timing histograms come from it); event emission and progress
	// lines only happen when the caller configures them. One Telemetry
	// serves exactly one Run.
	Telemetry *Telemetry `json:"-"`
	// Shard restricts the campaign to shard Index of Count (uniform policy
	// only): each cell's chunk sequence is dealt round-robin across the
	// shards, so the K partial runs cover exactly the seed set of the
	// single-machine run. The zero value (Count ≤ 1) runs everything. A
	// sharded summary carries a ShardInfo header; cmd/c11merge folds K
	// partials back into the single-machine artifact.
	Shard ShardSel
	// CheckpointPath, when non-empty, persists an atomic checkpoint of
	// completed-wave state there at every deterministic wave barrier, plus a
	// final Complete checkpoint when the campaign ends. Checkpoint write
	// failures never abort the campaign; they are counted in the summary
	// (CheckpointErrors) and warned to stderr.
	CheckpointPath string
	// Resume, when non-nil, restores checkpointed state instead of starting
	// fresh: the runner re-enters at the first incomplete wave, and the
	// finished artifact is byte-identical (Summary.Canonical) to an
	// uninterrupted run. Load with LoadCheckpoint and gate with
	// Checkpoint.ValidateAgainst — a checkpoint from a different spec refuses
	// to resume.
	Resume *Checkpoint `json:"-"`
	// checkpointHook observes every checkpoint just before it is persisted
	// (fault-injection tests).
	checkpointHook func(*Checkpoint)
}

func (s Spec) withDefaults() Spec {
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.ShardSize <= 0 {
		s.ShardSize = 25
	}
	if s.Runs < 0 {
		s.Runs = 0
	}
	if s.Policy == nil {
		s.Policy = explore.Uniform{}
	}
	return s
}

// jobKind distinguishes benchmark shards from litmus shards.
type jobKind uint8

const (
	jobBench jobKind = iota
	jobLitmus
)

// job is one unit of work: a contiguous execution-index range of one cell.
type job struct {
	kind   jobKind
	tool   int // index into Spec.Tools
	cell   int // index into Spec.Benchmarks or Spec.Litmus
	lo, hi int // execution indices [lo, hi)
}

// cellJobs lists the matrix's cells in matrix order — tool-major,
// benchmarks before litmus tests — as jobs with empty ranges. A cell's
// position in this list is its index into the campaign's state slice.
func (s Spec) cellJobs() []job {
	var cells []job
	for t := range s.Tools {
		for b := range s.Benchmarks {
			cells = append(cells, job{kind: jobBench, tool: t, cell: b})
		}
		for l := range s.Litmus {
			cells = append(cells, job{kind: jobLitmus, tool: t, cell: l})
		}
	}
	return cells
}

// shardRanges deals one cell's execution indices [0, Runs) into chunks of
// ShardSize, round-robin over Shard.Count shards, and returns this shard's
// deal in order (every chunk when unsharded). Every cell deals identically,
// so the Count shard runs partition the unsharded run's job set exactly —
// what makes the merged partials byte-identical to it.
func (s Spec) shardRanges() [][2]int {
	var out [][2]int
	for ord, lo := 0, 0; lo < s.Runs; ord, lo = ord+1, lo+s.ShardSize {
		if s.Shard.Count <= 1 || ord%s.Shard.Count == s.Shard.Index {
			out = append(out, [2]int{lo, min(lo+s.ShardSize, s.Runs)})
		}
	}
	return out
}

// cellIndex is the matrix-order position of j's cell.
func (s Spec) cellIndex(j job) int {
	i := j.tool*(len(s.Benchmarks)+len(s.Litmus)) + j.cell
	if j.kind == jobLitmus {
		i += len(s.Benchmarks)
	}
	return i
}

func (s Spec) programName(j job) string {
	if j.kind == jobLitmus {
		return s.Litmus[j.cell].Name
	}
	return s.Benchmarks[j.cell].Name
}

// cells pairs the campaign's per-cell states (matrix order) with the static
// identity render needs. budgets is nil under the uniform policy.
func (s Spec) cells(states []CellState, budgets []*BudgetSummary) []Cell {
	out := make([]Cell, len(states))
	for i, j := range s.cellJobs() {
		ts := s.Tools[j.tool]
		c := &out[i]
		c.Tool, c.ReproFlags = ts.Name, ts.ReproFlags
		c.Program, c.Litmus = s.programName(j), j.kind == jobLitmus
		if c.Litmus {
			c.WeakDefined = len(s.Litmus[j.cell].Weak)
		}
		c.GuideTraces = len(s.Guides.For(ts.Name, c.Program))
		if budgets != nil {
			c.Budget = budgets[i]
		}
		c.State = states[i]
	}
	return out
}

// fold is a campaign's result state: one CellState per matrix cell plus the
// flight-recorder capture records. Workers fold their units in as they
// complete; CellState.Merge is commutative and the capture manifest is
// sorted on write, so completion order cannot change the result.
type fold struct {
	mu       sync.Mutex
	states   []CellState
	captures []obs.CaptureRecord
}

func (f *fold) add(spec Spec, r *cellRunner) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.states[spec.cellIndex(r.j)].Merge(&r.st)
	f.captures = append(f.captures, r.captures...)
}

// readAllocCounters reads the process-wide heap allocation counters (cheap,
// no stop-the-world).
func readAllocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// Run executes the campaign and aggregates the results.
func Run(spec Spec) *Summary {
	spec = spec.withDefaults()
	if spec.RecordDir != "" {
		_ = os.MkdirAll(spec.RecordDir, 0o755)
	}
	if spec.CaptureDir != "" {
		_ = os.MkdirAll(spec.CaptureDir, 0o755)
	}
	tel := spec.Telemetry
	if tel == nil {
		tel = NewTelemetry(TelemetryOptions{})
		spec.Telemetry = tel
	}
	// Register the per-cell metric handles before the measured window so
	// registration (the only allocating part of the metrics core) never
	// shows up in the campaign's GC summary.
	f := &fold{states: make([]CellState, len(spec.cellJobs()))}
	tel.bind(spec, f)
	tel.campaignStart(spec.Info())

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	ck := &ckState{path: spec.CheckpointPath, hook: spec.checkpointHook}
	p := newPool(spec)
	var budgets []*BudgetSummary
	_, uniform := spec.Policy.(explore.Uniform)
	switch {
	case spec.Resume != nil && spec.Resume.Complete:
		// The previous run finished its matrix and checkpointed Complete but
		// died before (or while) writing the artifacts: rebuild them from the
		// checkpoint without re-running anything.
		plans := newPlans(spec)
		restore(spec.Resume, f, plans)
		if !uniform {
			budgets = budgetsOf(spec, plans)
		}
	case uniform:
		runUniform(spec, p, tel, f)
		ck.save(spec, tel, 1, true, nil, f)
	default:
		budgets = runAdaptive(spec, p, tel, ck, f)
	}
	p.close()

	wall := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	gc := GCSummary{
		AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:      ms1.Mallocs - ms0.Mallocs,
		NumGC:        ms1.NumGC - ms0.NumGC,
		PauseTotalNS: ms1.PauseTotalNs - ms0.PauseTotalNs,
	}
	cells := spec.cells(tel.observed(spec, f.states), budgets)
	sum := render(spec.Info(), cells)
	sum.WallNS, sum.GC, sum.Provenance = int64(wall), gc, BuildProvenance()
	sum.CheckpointErrors = ck.errs
	if spec.Shard.Count > 1 {
		sum.Shard = &ShardInfo{Index: spec.Shard.Index, Count: spec.Shard.Count,
			SpecDigest: SpecDigest(spec)}
		sum.Cells = cells
	}
	if spec.CaptureDir != "" {
		// Write the canonical capture manifest (an empty one when nothing
		// triggered — consumers rely on the file existing). The manifest is
		// sorted by (tool, litmus, program, seed), so it is byte-identical
		// for any worker count.
		if err := captureManifest(f.captures).WriteFile(filepath.Join(spec.CaptureDir, obs.ManifestFileName)); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: write capture manifest: %v\n", err)
		}
	}
	// campaignEnd closes the event stream (flushing everything queued), so
	// the drop counter folded into the summary is final.
	tel.campaignEnd(totalExecs(sum))
	sum.Obs = &ObsSummary{
		EventsEmitted: tel.EventsEmitted(),
		EventsDropped: tel.EventsDropped(),
	}
	return sum
}

// totalExecs sums the per-tool execution counts of a summary.
func totalExecs(s *Summary) int {
	n := 0
	for _, ts := range s.Tools {
		n += ts.Execs
	}
	return n
}

// pool is the campaign's worker pool. Worker w keeps tools[w], one tool
// instance per Spec.Tools entry, for the whole campaign: an instance is
// built on the worker's first unit of that tool and closed by close. A
// campaign therefore builds at most Workers × len(Tools) tools.
type pool struct {
	spec  Spec
	tools [][]capi.Tool
}

func newPool(spec Spec) *pool {
	p := &pool{spec: spec, tools: make([][]capi.Tool, spec.Workers)}
	for w := range p.tools {
		p.tools[w] = make([]capi.Tool, len(spec.Tools))
	}
	return p
}

// run calls fn(w, i) for every i in [0, n) across the worker pool, where w
// is the calling worker's index. fn runs concurrently; units fold their
// results through fold.add.
func (p *pool) run(n int, fn func(w, i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := range max(min(len(p.tools), n), 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// tool returns worker w's instance of Spec.Tools[t], building it on first
// use.
func (p *pool) tool(w, t int) capi.Tool {
	tools := p.tools[w]
	if tools[t] == nil {
		tools[t] = p.spec.Tools[t].New()
	}
	return tools[t]
}

// close closes every tool the pool's workers built.
func (p *pool) close() {
	for _, tools := range p.tools {
		for _, t := range tools {
			if t != nil {
				closeTool(t)
			}
		}
	}
}

// runUniform is the fixed-budget path: every cell is split into chunks of
// ShardSize executions, and chunks are distributed over the worker pool. The
// whole pass is one telemetry wave. Under Spec.Shard only this shard's deal
// of each cell's chunks is run (Spec.shardRanges).
func runUniform(spec Spec, p *pool, tel *Telemetry, f *fold) {
	var jobs []job
	ranges := spec.shardRanges()
	for _, c := range spec.cellJobs() {
		for _, r := range ranges {
			jobs = append(jobs, job{kind: c.kind, tool: c.tool, cell: c.cell, lo: r[0], hi: r[1]})
		}
	}
	tel.waveStart(1, len(jobs))
	p.run(len(jobs), func(w, i int) {
		tel.unitStart(1, jobs[i], jobs[i].hi-jobs[i].lo)
		r := newCellRunner(spec, jobs[i], p.tool(w, jobs[i].tool))
		r.run(jobs[i].lo, jobs[i].hi)
		r.release()
		tel.unitDone(1, jobs[i], &r.st, r.captures)
		f.add(spec, r)
	})
	waveExecs := 0
	for i := range f.states {
		waveExecs += f.states[i].Execs
	}
	tel.waveEnd(1, len(jobs), waveExecs)
}

// cellPlan tracks one cell's budget state across adaptive waves.
type cellPlan struct {
	kind    jobKind
	tool    int
	cell    int
	used    int
	stopped bool // converged: excluded from further grants
}

// newPlans builds one budget plan per cell, in matrix order.
func newPlans(spec Spec) []*cellPlan {
	var plans []*cellPlan
	for _, c := range spec.cellJobs() {
		plans = append(plans, &cellPlan{kind: c.kind, tool: c.tool, cell: c.cell})
	}
	return plans
}

// budgetsOf renders the plans' budget accounting, in matrix order.
func budgetsOf(spec Spec, plans []*cellPlan) []*BudgetSummary {
	budgets := make([]*BudgetSummary, len(plans))
	for i, p := range plans {
		budgets[i] = &BudgetSummary{Planned: spec.Runs, Used: p.used,
			Extended: max(p.used-spec.Runs, 0), Converged: p.stopped}
	}
	return budgets
}

// runAdaptive is the adaptive-budget path. Wave 0 gives every cell its
// initial budget of Runs executions, run chunk-by-chunk with a convergence
// check between chunks; cells that converge stop early. A check reads the
// cell's folded state from earlier waves merged with the unit's own, so it
// sees exactly the cell's executed prefix. The unspent budget
// of converged cells forms a pool that later waves grant, one chunk per
// still-diverging cell per wave in matrix order, until the pool is exhausted
// or every cell converged. The total never exceeds Runs × cells, and every
// decision happens at a barrier from per-cell-deterministic state, so the
// result is independent of the worker count.
func runAdaptive(spec Spec, p *pool, tel *Telemetry, ck *ckState, f *fold) []*BudgetSummary {
	chunk := spec.Policy.Chunk()
	if chunk <= 0 || chunk > spec.Runs {
		chunk = spec.Runs
	}
	plans := newPlans(spec)

	type grant struct {
		plan   *cellPlan
		budget int
	}
	// runWave executes one grant per selected plan across the worker pool,
	// folding each unit into its cell's state. Each wave emits its barrier
	// events: unit events from the workers as grants complete,
	// cell_converged and wave_end from the deterministic post-barrier state.
	wave := 0
	if spec.Resume != nil {
		// Re-enter at the last completed wave: plans get their used/stopped
		// budgets back, and the cells their folded state.
		wave = spec.Resume.Wave
		restore(spec.Resume, f, plans)
	}
	runWave := func(grants []grant) {
		wave++
		tel.waveStart(wave, len(grants))
		waveJobs := make([]job, len(grants))
		for i, g := range grants {
			waveJobs[i] = job{kind: g.plan.kind, tool: g.plan.tool, cell: g.plan.cell, lo: g.plan.used}
		}
		p.run(len(grants), func(w, i int) {
			tel.unitStart(wave, waveJobs[i], grants[i].budget)
			r := newCellRunner(spec, waveJobs[i], p.tool(w, waveJobs[i].tool))
			// Only this unit folds into its cell during the wave, and only
			// after it finishes, so the earlier waves' state is stable here.
			prior := &f.states[spec.cellIndex(waveJobs[i])]
			used := r.runChunked(waveJobs[i].lo, grants[i].budget, chunk, prior)
			r.release()
			waveJobs[i].hi = waveJobs[i].lo + used
			tel.unitDone(wave, waveJobs[i], &r.st, r.captures)
			f.add(spec, r)
		})
		waveExecs := 0
		for i, g := range grants {
			used := waveJobs[i].hi - waveJobs[i].lo
			g.plan.used += used
			wasStopped := g.plan.stopped
			st := &f.states[spec.cellIndex(waveJobs[i])]
			mm := explore.Estimate(st.Execs, st.singletons(&CellState{}))
			g.plan.stopped = spec.Policy.Converged(mm.Execs, mm.Singletons)
			// The convergence event is emitted here — at the barrier, from the
			// cell's folded state — so the event stream is identical for any
			// worker count.
			tel.convergeState(wave, waveJobs[i], mm)
			if g.plan.stopped && !wasStopped {
				tel.cellConverged(wave, waveJobs[i], g.plan.used)
			}
			waveExecs += used
		}
		tel.waveEnd(wave, len(grants), waveExecs)
		// The wave barrier is the checkpoint point: every decision below this
		// line is a pure function of the state being persisted.
		ck.save(spec, tel, wave, false, plans, f)
	}

	if spec.Resume == nil {
		// Wave 0: initial budgets.
		wave0 := make([]grant, len(plans))
		for i, p := range plans {
			wave0[i] = grant{plan: p, budget: spec.Runs}
		}
		runWave(wave0)
	}

	// Freed budget: what converged cells left unspent.
	pool := 0
	for _, p := range plans {
		pool += spec.Runs - p.used
	}

	// Extension waves: grant one chunk per still-diverging cell per wave.
	for pool > 0 {
		var grants []grant
		for _, p := range plans {
			if p.stopped || pool <= 0 {
				continue
			}
			g := min(chunk, pool)
			pool -= g
			grants = append(grants, grant{plan: p, budget: g})
		}
		if len(grants) == 0 {
			break
		}
		runWave(grants)
		// Recompute the pool from first principles — total budget minus
		// spent — so a cell that converged mid-grant returns its unspent
		// remainder.
		pool = spec.Runs * len(plans)
		for _, p := range plans {
			pool -= p.used
		}
	}

	ck.save(spec, tel, wave, true, plans, f)
	return budgetsOf(spec, plans)
}

// execCtx is the per-execution state threaded through the pipeline stages.
// The cellRunner reuses one instance (rewritten at the top of runOne), so
// composing stages costs no per-execution allocation.
type execCtx struct {
	res     *capi.Result
	i       int    // global execution index (seed = SeedBase+i)
	outcome string // rendered litmus outcome ("" for benchmarks)
	// hit marks executions owed a recorded trace: a detection signal, a
	// race, or a forbidden outcome (the signal stage computes it).
	hit bool
	// newRaces counts the execution's race keys the unit had not seen
	// before (the signal stage computes it).
	newRaces int
	// detected marks the cell's detection signal (a benchmark's suite
	// signal, a litmus cell's forbidden outcome).
	detected bool
	// abort marks the execution's model state untrustworthy (an infeasible
	// modification-order lifting): later stages that would lift it again
	// are skipped.
	abort bool
}

// stage is one pipeline step run over every completed execution. Stages are
// method expressions composed once per cell in newCellRunner — which duties
// run, and in what order, is a property of the spec, not a branch in the
// per-execution path.
type stage func(*cellRunner)

// cellAnalyzer is one analysis plug-in instance bound to a cell, carrying
// its position in Spec.Analyzers (the pre-bound metric slot).
type cellAnalyzer struct {
	analysis.Analyzer
	ix int
}

// cellRunner executes a range of one cell's executions on its worker's tool
// instance, folding results into its state.
type cellRunner struct {
	spec Spec
	j    job
	tool capi.Tool
	st   CellState
	// captures are the unit's flight-recorder capture records, in
	// execution-index order.
	captures []obs.CaptureRecord

	// stages is the cell's composed pipeline, run in order after every
	// completed execution: the cell-kind signal stage (benchmark detection
	// or litmus verdict, including race dedup), then — per spec — axiom
	// validation, the analyzer stage, and trace recording.
	stages []stage
	// x is the reused per-execution context the stages communicate
	// through.
	x execCtx

	// met is the cell's pre-bound metric handle set (nil only when the
	// runner is constructed outside a campaign, e.g. directly in tests).
	met *CellMetrics

	// fr is the unit's flight recorder (Spec.CaptureDir); nil when capture
	// is unarmed.
	fr *obs.FlightRecorder

	// Engine plumbing (trace duties, guided exploration). strategy0 and
	// trace0 are the engine's strategy and trace setting as the unit found
	// them; release puts them back.
	eng       *core.Engine
	mo        core.MOProvider
	rec       *trace.Recorder
	pg        *trace.PrefixGuide
	guides    []*trace.Trace
	strategy0 core.Strategy
	trace0    bool

	// analyzers are the cell's analysis plug-in instances (cell-confined;
	// see analysis.Analyzer), minus the ones this cell's tool cannot feed;
	// ax is the reused Exec handed to them.
	analyzers []cellAnalyzer
	ax        analysis.Exec

	// Program under test.
	prog  capi.Program
	bench BenchmarkSpec // jobBench
	test  *litmus.Test  // jobLitmus
	out   string        // litmus outcome cell
}

func newCellRunner(spec Spec, j job, tool capi.Tool) *cellRunner {
	r := &cellRunner{spec: spec, j: j, tool: tool}
	switch j.kind {
	case jobBench:
		r.bench = spec.Benchmarks[j.cell]
		r.prog = r.bench.New()
	case jobLitmus:
		r.test = spec.Litmus[j.cell]
		r.prog = r.test.Make(&r.out)
	}

	r.eng, _ = r.tool.(*core.Engine)
	if r.eng != nil {
		r.mo, _ = r.eng.Model().(core.MOProvider)
		r.strategy0, r.trace0 = r.eng.Strategy(), r.eng.Config().Trace
	}
	if spec.Telemetry != nil {
		r.met = spec.Telemetry.cellMetrics(j)
		if r.eng != nil {
			// Campaign executions always run with handoff-wait timing and
			// phase spans: both measurements are allocation-free and feed the
			// per-cell c11_cell_handoff_wait_ns and c11_cell_phase_ns
			// histograms. Raw perf sweeps (RunPerf) construct tools without a
			// Telemetry and keep both off.
			r.eng.SetHandoffTiming(true)
			r.eng.SetPhaseTiming(true)
		}
	}
	if spec.CaptureDir != "" {
		r.fr = obs.NewFlightRecorder(obs.FlightRecorderConfig{SlowNS: spec.CaptureSlowNS})
	}
	// Guided exploration: wrap the tool's live strategy in a PrefixGuide
	// when the guide set has traces for this cell.
	if r.eng != nil && spec.Guides != nil {
		r.guides = spec.Guides.For(spec.Tools[j.tool].Name, r.programName())
		if len(r.guides) > 0 {
			r.pg = trace.NewPrefixGuide(r.eng.Strategy())
			if spec.GuideMinFrac > 0 {
				r.pg.MinFrac = spec.GuideMinFrac
			}
			if spec.GuideMaxFrac > 0 {
				r.pg.MaxFrac = spec.GuideMaxFrac
				if spec.GuideMinFrac == 0 && r.pg.MaxFrac < r.pg.MinFrac {
					// An explicit upper bound below the default skew-deep
					// floor implies the whole shallow range.
					r.pg.MinFrac = 0
				}
			}
			r.eng.SetStrategy(r.pg)
		}
	}
	// Analyzer plug-ins: one fresh instance per cell. An analyzer whose
	// needs this cell's tool cannot meet — a trace needs the engine, a
	// modification order needs an MOProvider model — is skipped on this
	// cell, the way axiom validation skips non-MOProvider tools. Unknown
	// names were refused by Spec.Validate; a name slipping past it here is
	// skipped rather than crashed on (workers have nowhere to return an
	// error).
	for ix, name := range spec.Analyzers {
		a, err := analysis.New(name)
		if err != nil {
			continue
		}
		if a.NeedsTrace() && r.eng == nil {
			continue
		}
		if a.NeedsMO() && r.mo == nil {
			continue
		}
		r.analyzers = append(r.analyzers, cellAnalyzer{Analyzer: a, ix: ix})
	}
	// Trace duties: engines whose model exposes total modification orders
	// run in trace mode for validation and event recording, and any
	// analyzer that reads the action trace turns tracing on too; the
	// recorder strategy wrapper captures the (effective, guided included)
	// schedule of every execution.
	needTrace := r.mo != nil && (spec.ValidateAxioms || spec.RecordDir != "")
	for _, ca := range r.analyzers {
		if ca.NeedsTrace() {
			needTrace = true
		}
	}
	if r.eng != nil && needTrace {
		r.eng.SetTrace(true)
	}
	if r.eng != nil && spec.RecordDir != "" {
		r.rec = trace.NewRecorder(r.eng.Strategy())
		r.eng.SetStrategy(r.rec)
	}
	// Compose the pipeline. The stage set and order are fixed per cell:
	// signal first (it computes hit, the trace-owed flag), then validation
	// (it decides abort), then analyzers, then recording. With the default
	// spec — no analyzers, no duties — the pipeline is just the signal
	// stage.
	if j.kind == jobLitmus {
		r.stages = append(r.stages, (*cellRunner).stageLitmus)
	} else {
		r.stages = append(r.stages, (*cellRunner).stageBench)
	}
	if spec.ValidateAxioms {
		r.stages = append(r.stages, (*cellRunner).stageValidate)
	}
	if len(r.analyzers) > 0 {
		r.stages = append(r.stages, (*cellRunner).stageAnalyze)
	}
	if r.rec != nil {
		r.stages = append(r.stages, (*cellRunner).stageRecord)
	}
	return r
}

func (r *cellRunner) programName() string { return r.spec.programName(r.j) }

// closeTool releases a tool instance: engines end their fiber-pool workers
// (core.Engine.Close), so long-lived processes do not accumulate parked
// goroutines across the tool instances campaigns and perf runs construct.
func closeTool(t capi.Tool) {
	if c, ok := t.(interface{ Close() }); ok {
		c.Close()
	}
}

// release ends the unit: it puts back the engine's strategy and trace
// setting as newCellRunner found them, undoing the PrefixGuide and Recorder
// wrapping and the trace duties, so the worker's next unit on this tool
// starts from the tool's own configuration.
func (r *cellRunner) release() {
	if r.eng != nil {
		r.eng.SetStrategy(r.strategy0)
		r.eng.SetTrace(r.trace0)
	}
}

// recordFailure folds one aborted execution into the state.
func (r *cellRunner) recordFailure(i int, err string) {
	r.st.Failed++
	r.st.Failures = addSample(r.st.Failures, Sample{Run: i, Text: err})
}

// run executes global execution indices [lo, hi) serially, folding results
// into the state.
func (r *cellRunner) run(lo, hi int) {
	a0bytes, a0objs := readAllocCounters()
	start := time.Now()
	for i := lo; i < hi; i++ {
		r.runOne(i)
	}
	r.st.ElapsedNS += int64(time.Since(start))
	a1bytes, a1objs := readAllocCounters()
	r.st.AllocBytes += a1bytes - a0bytes
	r.st.AllocObjs += a1objs - a0objs
}

// runChunked executes up to budget executions starting at global index lo,
// in chunks, stopping early once the policy declares the cell converged on
// prior (the cell's state before lo) merged with the unit's own state. It
// returns the number of executions actually run.
func (r *cellRunner) runChunked(lo, budget, chunk int, prior *CellState) int {
	i, end := lo, lo+budget
	for i < end {
		hi := min(i+chunk, end)
		r.run(i, hi)
		i = hi
		if r.spec.Policy.Converged(prior.Execs+r.st.Execs, prior.singletons(&r.st)) {
			break
		}
	}
	return i - lo
}

// runOne executes global index i.
func (r *cellRunner) runOne(i int) {
	if r.pg != nil {
		r.pg.SetSchedule(r.guides[i%len(r.guides)].Schedule)
	}
	if r.test != nil {
		r.out = ""
	}
	// The per-execution instrumentation below — two monotonic clock reads
	// plus CellMetrics.ObserveExec — allocates nothing; the zero-alloc test
	// pins this exact path with metrics enabled.
	execStart := time.Now()
	res := r.tool.Execute(r.prog, r.spec.SeedBase+int64(i))
	execDur := time.Since(execStart)
	if res.EngineError != nil {
		// The tool aborted the execution (core.InfeasibleError). The partial
		// result carries no trustworthy model state: record the failure with
		// its seed and move on — the rest of the matrix keeps running. The
		// execution is excluded from execs (the Detection.Runs denominator);
		// failures are accounted separately.
		r.recordFailure(i, res.EngineError.Error())
		if r.met != nil {
			r.met.Failures.Inc()
		}
		r.flightFail(i)
		return
	}
	r.st.Execs++
	if r.met != nil {
		r.met.ObserveExec(execDur, r.eng)
	}
	if r.pg != nil {
		depth, consumed, diverged := r.pg.Handoff()
		r.st.GuidedExecs++
		r.st.PrefixDepth += int64(depth)
		r.st.PrefixConsumed += int64(consumed)
		if diverged {
			r.st.Divergences++
		}
	}

	// Run the composed pipeline over the reused execution context, then the
	// unconditional tail: the detection metric and the flight-recorder
	// check fire whether or not a stage aborted.
	r.x = execCtx{res: res, i: i}
	for _, st := range r.stages {
		st(r)
	}
	if r.met != nil {
		if r.x.detected {
			r.met.Detected.Inc()
		}
		if r.x.newRaces > 0 {
			r.met.Races.Add(uint64(r.x.newRaces))
		}
	}
	r.flightCheck(i, execDur)
}

// stageBench is the benchmark-cell signal stage: the suite's detection
// signal, op accounting, and race dedup.
func (r *cellRunner) stageBench() {
	res, i := r.x.res, r.x.i
	hit := r.bench.Signal.Hit(res)
	if hit {
		r.st.Detected++
	}
	r.addOps(res)
	r.x.newRaces = recordRaces(&r.st, res, i)
	r.x.hit = hit || len(res.Races) > 0
	r.x.detected = hit
}

// stageLitmus is the litmus-cell signal stage: outcome accounting, the
// forbidden/weak verdicts, and race dedup.
func (r *cellRunner) stageLitmus() {
	res, i := r.x.res, r.x.i
	r.addOps(res)
	// Litmus programs only touch shared state atomically, so any race
	// here is a detector soundness bug, not a finding.
	r.x.newRaces = recordRaces(&r.st, res, i)
	forbidden := false
	if r.out != "" {
		r.st.Outcomes = bump(r.st.Outcomes, r.out)
		if isForbidden(r.test, r.out, r.spec.Tools[r.j.tool].Baseline) {
			forbidden = true
			if first, seen := r.st.Forbidden[r.out]; !seen || i < first {
				if r.st.Forbidden == nil {
					r.st.Forbidden = map[string]int{}
				}
				r.st.Forbidden[r.out] = i
			}
		}
		if r.test.Weak[r.out] {
			r.st.Weak = bump(r.st.Weak, r.out)
		}
	}
	r.x.outcome = r.out
	r.x.hit = forbidden || len(res.Races) > 0
	r.x.detected = forbidden
}

// stageValidate checks the execution against the axiomatic model. The
// lifting (the model's TotalMO) can itself hit an infeasible state — a
// modification-order cycle; RecoverInfeasible converts that into a recorded
// failure, and abort tells the later trace-lifting stages (analyzers,
// recording) to skip this execution.
func (r *cellRunner) stageValidate() {
	if r.mo == nil {
		r.st.Skipped++
		return
	}
	i := r.x.i
	r.st.Checked++
	var vs []axiom.Violation
	// The engine cannot see the campaign's validation duty, so the
	// campaign brackets the PhaseValidate span itself, feeding the same
	// per-cell phase histograms as the engine's reset/run/race spans.
	vt0 := time.Now()
	ie := core.RecoverInfeasible(func() {
		vs = axiom.Check(axiom.FromEngine(r.eng, r.mo))
	})
	r.observePhase(core.PhaseValidate, vt0)
	if ie != nil {
		r.recordFailure(i, ie.Error())
		r.x.abort = true
		// The record stage would hit the same infeasible lifting; if this
		// execution's trace was owed, count it as dropped.
		if r.rec != nil && (r.x.hit || r.spec.RecordAll) {
			r.st.RecordErrs++
		}
		return
	}
	if len(vs) > 0 {
		r.st.Violations += len(vs)
		if len(r.st.VioSamples) < maxViolationSamples {
			r.st.VioSamples = addSample(r.st.VioSamples, Sample{Run: i, Text: fmt.Sprint(vs[0])})
		}
	}
}

// stageAnalyze hands the finished execution to the cell's analyzer
// instances and folds their findings into the state. Each Observe is
// individually recovered: an infeasible lifting inside one analyzer records
// a failure and moves on to the next.
func (r *cellRunner) stageAnalyze() {
	if r.x.abort {
		return
	}
	r.ax = analysis.Exec{
		Result: r.x.res, Index: r.x.i, Seed: r.spec.SeedBase + int64(r.x.i),
		Tool: r.spec.Tools[r.j.tool].Name, Program: r.programName(),
		Litmus: r.test != nil, Outcome: r.x.outcome,
		Engine: r.eng, MO: r.mo,
	}
	for _, ca := range r.analyzers {
		var fs []analysis.Finding
		ie := core.RecoverInfeasible(func() {
			fs = ca.Observe(&r.ax)
		})
		if ie != nil {
			r.recordFailure(r.x.i, ie.Error())
			continue
		}
		for _, f := range fs {
			r.addFinding(ca, f)
		}
	}
}

// addFinding folds one analyzer finding into the state — min-run winner
// per (analyzer, key), counts summed — and bumps the analyzer's pre-bound
// findings counter.
func (r *cellRunner) addFinding(ca cellAnalyzer, f analysis.Finding) {
	if r.st.Findings == nil {
		r.st.Findings = map[string]map[string]Hit{}
	}
	hits := r.st.Findings[ca.Name()]
	if hits == nil {
		hits = map[string]Hit{}
		r.st.Findings[ca.Name()] = hits
	}
	hit, seen := hits[f.Key]
	if !seen {
		hit = Hit{Desc: f.Desc, Run: r.x.i}
	} else if r.x.i < hit.Run {
		hit.Desc, hit.Run = f.Desc, r.x.i
	}
	hit.Count++
	hits[f.Key] = hit
	if r.met != nil && ca.ix < len(r.met.Findings) {
		r.met.Findings[ca.ix].Inc()
	}
}

// stageRecord persists the execution's portable trace when one is owed (a
// signal-bearing execution, or every execution under RecordAll).
func (r *cellRunner) stageRecord() {
	if r.x.abort || !(r.x.hit || r.spec.RecordAll) {
		return
	}
	spec := r.spec
	i := r.x.i
	seed := spec.SeedBase + int64(i)
	meta := trace.Meta{
		Tool: spec.Tools[r.j.tool].TraceConfig, Program: r.programName(),
		Litmus: r.test != nil, Seed: seed, Outcome: r.x.outcome,
	}
	var tr *trace.Trace
	var err error
	// PhaseRecord span: trace serialization + file write, campaign-
	// bracketed like PhaseValidate above.
	rt0 := time.Now()
	ie := core.RecoverInfeasible(func() {
		tr, err = trace.Record(r.eng, r.x.res, r.rec.Schedule(), meta)
	})
	if ie != nil {
		r.observePhase(core.PhaseRecord, rt0)
		r.recordFailure(i, ie.Error())
		r.st.RecordErrs++
		r.x.abort = true
		return
	}
	if err == nil {
		path := filepath.Join(spec.RecordDir, trace.FileName(r.tool.Name(), r.programName(), seed))
		err = tr.WriteFile(path)
	}
	r.observePhase(core.PhaseRecord, rt0)
	if err == nil {
		r.st.Recorded++
	} else {
		// Counted and surfaced in the summary: a campaign asked to
		// persist traces must not drop them silently.
		r.st.RecordErrs++
	}
}

// observePhase folds a campaign-bracketed phase span (validate, record) into
// the cell's phase histograms.
func (r *cellRunner) observePhase(p core.Phase, t0 time.Time) {
	if r.met != nil {
		r.met.PhaseNS[p].Observe(uint64(time.Since(t0)))
	}
}

// raceKeysOf returns the deduplicated race keys of one execution, in report
// order.
func raceKeysOf(res *capi.Result) []string {
	var keys []string
	for j, r := range res.Races {
		if !sameKeyBefore(res.Races[:j], r) {
			keys = append(keys, r.Key())
		}
	}
	return keys
}

// recordRaces folds an execution's races into the state: each key's count
// of executions showing it, and the earliest execution index per key
// (within one execution, the first report of a key). It returns how many of
// the execution's keys the state had not seen: for a unit's own state, the
// keys new to the unit.
func recordRaces(st *CellState, res *capi.Result, run int) (fresh int) {
	for j, r := range res.Races {
		if sameKeyBefore(res.Races[:j], r) {
			continue // this execution's key is already counted
		}
		key := r.Key()
		hit, seen := st.Races[key]
		if !seen {
			fresh++
			if st.Races == nil {
				st.Races = map[string]Hit{}
			}
		}
		if !seen || run < hit.Run {
			hit.Desc, hit.Run = r.String(), run
		}
		hit.Count++
		st.Races[key] = hit
	}
	return fresh
}

// sameKeyBefore reports whether one of the earlier reports has r's key,
// comparing the key's fields rather than rendering it.
func sameKeyBefore(earlier []capi.RaceReport, r capi.RaceReport) bool {
	for _, e := range earlier {
		if e.LocName == r.LocName && e.PriorKind == r.PriorKind && e.Kind == r.Kind {
			return true
		}
	}
	return false
}

// addOps folds an execution's operation counts into the state.
func (r *cellRunner) addOps(res *capi.Result) {
	r.st.AtomicOps += res.Stats.AtomicOps
	r.st.NormalOps += res.Stats.NormalOps
}

// isForbidden reports whether outcome is forbidden for the given tool
// flavour: the Forbidden set always, plus BaselineForbidden for the
// commit-order baselines.
func isForbidden(t *litmus.Test, outcome string, baseline bool) bool {
	if t.Forbidden[outcome] {
		return true
	}
	return baseline && t.BaselineForbidden[outcome]
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	if len(s.Tools) == 0 {
		return fmt.Errorf("campaign: no tools selected")
	}
	if s.RecordAll && s.RecordDir == "" {
		return fmt.Errorf("campaign: RecordAll requires RecordDir")
	}
	if s.CaptureSlowNS && s.CaptureDir == "" {
		return fmt.Errorf("campaign: CaptureSlowNS requires CaptureDir")
	}
	if len(s.Benchmarks) == 0 && len(s.Litmus) == 0 {
		return fmt.Errorf("campaign: no benchmarks or litmus tests selected")
	}
	if s.Runs <= 0 {
		return fmt.Errorf("campaign: runs must be positive, got %d", s.Runs)
	}
	if s.Shard.Count != 0 || s.Shard.Index != 0 {
		if s.Shard.Count < 1 || s.Shard.Index < 0 || s.Shard.Index >= s.Shard.Count {
			return fmt.Errorf("campaign: shard %s out of range (want 0 ≤ index < count)", s.Shard)
		}
		if s.Policy != nil {
			if _, uniform := s.Policy.(explore.Uniform); !uniform {
				return fmt.Errorf("campaign: sharding requires the uniform policy (adaptive budgets redistribute across the whole matrix; got %q)", s.Policy.Name())
			}
		}
		if s.CheckpointPath != "" || s.Resume != nil {
			return fmt.Errorf("campaign: sharding is incompatible with checkpoint/resume (resume the whole campaign, or re-run the one lost shard)")
		}
	}
	if s.GuideMinFrac < 0 || s.GuideMinFrac > 1 || s.GuideMaxFrac > 1 ||
		(s.GuideMaxFrac > 0 && s.GuideMinFrac > s.GuideMaxFrac) {
		return fmt.Errorf("campaign: guide prefix fractions [%g, %g] outside 0 ≤ min ≤ max ≤ 1",
			s.GuideMinFrac, s.GuideMaxFrac)
	}
	seenAnalyzer := map[string]bool{}
	for _, name := range s.Analyzers {
		if _, err := analysis.New(name); err != nil {
			return fmt.Errorf("campaign: %v", err)
		}
		if seenAnalyzer[name] {
			return fmt.Errorf("campaign: duplicate analyzer %q", name)
		}
		seenAnalyzer[name] = true
	}
	seen := map[string]bool{}
	for _, t := range s.Tools {
		if t.New == nil {
			return fmt.Errorf("campaign: tool %q has no factory", t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("campaign: duplicate tool %q", t.Name)
		}
		seen[t.Name] = true
	}
	// Duplicate program cells would double-count every aggregate.
	seenBench := map[string]bool{}
	for _, b := range s.Benchmarks {
		if seenBench[b.Name] {
			return fmt.Errorf("campaign: duplicate benchmark %q", b.Name)
		}
		seenBench[b.Name] = true
	}
	seenLit := map[string]bool{}
	for _, l := range s.Litmus {
		if seenLit[l.Name] {
			return fmt.Errorf("campaign: duplicate litmus test %q", l.Name)
		}
		seenLit[l.Name] = true
	}
	return nil
}
