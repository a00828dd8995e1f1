package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"c11tester/internal/capi"
	"c11tester/internal/harness"
	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// Schema identifiers of the serialized campaign summary. Bump SchemaVersion
// on any incompatible change to the JSON shape; consumers of the
// BENCH_campaign.json trajectory key on it.
//
// v2: per-tool allocation counters ("perf"), campaign-level GC stats
// ("gc"), optional axiomatic-validation results ("validation"), recorded
// trace counts, and the record/validate spec echo.
//
// v3: budget-policy echo ("policy") and per-cell budget accounting
// ("budget") for adaptive campaigns, trace-guided exploration echo
// ("guide_dir"/"guide_traces") with per-cell prefix-depth and divergence
// statistics ("guided"), and per-tool engine-failure counts with repro
// samples ("engine_failures"/"failure_samples").
//
// v4: observability integration — per-cell ns/exec histogram snapshots
// ("timing", from the telemetry fabric's fixed-bucket histograms) and the
// campaign-level event-stream accounting ("obs": events emitted/dropped).
// Compare gates on nonzero drops and reports p99 ns/exec drift.
//
// v5: execution forensics — per-cell phase-span histograms ("phases":
// reset/run/race from the engine's phase timer, validate/record from the
// campaign duties), per-tool flight-recorder capture counts
// ("captures"/"capture_errors" with the capture spec echo), and the build
// provenance header ("provenance"). Compare warns on provenance skew.
//
// v6: crash-safe campaigns — the shard header of a partial run ("shard":
// index/count plus the spec digest cmd/c11merge validates), the
// checkpoint-write failure count ("checkpoint_errors"), and exact
// guided-exploration sums ("prefix_depth_sum"/"consumed_sum" next to the v3
// means) so merged partials reproduce the single-machine statistics without
// floating-point drift.
//
// v7: analyzer pipeline — the analyzer-set echo ("analyzers" in the spec),
// per-tool per-analyzer rollups ("analyzers": distinct keys and total hits),
// and the deduplicated finding list ("findings") with one-command repro
// triples, merged across shards by the same min-by-(cell, seed) winner
// algebra as races.
//
// v8: the rng-source echo ("rng" in the spec): campaigns named the random
// source their decision streams were drawn from ("pcg" or "legacy",
// math/rand). PCG is now the only source and the echo is no longer written;
// an artifact naming "legacy" is refused on load.
//
// v9: shard partials carry their cells' mergeable state ("cells": static
// identity plus CellState, in matrix order); cmd/c11merge decodes and folds
// the states and renders the merged summary through the same code path a
// single-machine run uses. Whole-campaign artifacts are unchanged from v8.
const (
	SchemaName    = "c11tester/campaign"
	SchemaVersion = 9
)

// SpecInfo echoes the campaign parameters into the summary, making every
// artifact self-describing (and every execution in it replayable: seed i of
// a cell is Spec.SeedBase+i).
type SpecInfo struct {
	Tools      []string `json:"tools"`
	Benchmarks []string `json:"benchmarks"`
	Litmus     []string `json:"litmus"`
	Runs       int      `json:"runs"`
	SeedBase   int64    `json:"seed_base"`
	Workers    int      `json:"workers"`
	ShardSize  int      `json:"shard_size"`
	// Policy echoes the budget policy and its parameters (schema v3);
	// "uniform" is the fixed Runs-per-cell matrix.
	Policy string `json:"policy,omitempty"`
	// GuideDir and GuideTraces echo the trace-guided exploration input
	// (schema v3).
	GuideDir    string `json:"guide_dir,omitempty"`
	GuideTraces int    `json:"guide_traces,omitempty"`
	RecordDir   string `json:"record_dir,omitempty"`
	RecordAll   bool   `json:"record_all,omitempty"`
	Validate    bool   `json:"validate,omitempty"`
	// CaptureDir and CaptureSlowNS echo the flight-recorder configuration
	// (schema v5).
	CaptureDir    string `json:"capture_dir,omitempty"`
	CaptureSlowNS bool   `json:"capture_slow_ns,omitempty"`
	// Analyzers echoes the analyzer pipeline composed per cell (schema v7).
	Analyzers []string `json:"analyzers,omitempty"`
	// RNG is never written. Schema v8–v9 artifacts of earlier builds named
	// their random source here, "pcg" or "legacy"; LoadSummary and
	// LoadCheckpoint refuse "legacy", whose stream this build cannot
	// reproduce (rng.Check).
	RNG string `json:"rng,omitempty"`
}

// BudgetSummary is the budget accounting of one cell under an adaptive
// policy (schema v3): how many executions its initial budget planned, how
// many actually ran, how many of those were reassigned from other cells'
// freed budget, and whether the cell's statistics converged.
type BudgetSummary struct {
	Planned   int  `json:"planned"`
	Used      int  `json:"used"`
	Extended  int  `json:"extended,omitempty"`
	Converged bool `json:"converged"`
}

// GuideStats reports the trace-guided exploration of one cell (schema v3):
// how many traces guided it, how many executions ran guided, the mean
// intended prefix depth and mean choices actually consumed before handoff
// (in combined schedule choices), and how many prefixes diverged (a recorded
// choice was not takeable and forced an early handoff).
type GuideStats struct {
	Traces          int     `json:"traces"`
	GuidedExecs     int     `json:"guided_execs"`
	MeanPrefixDepth float64 `json:"mean_prefix_depth"`
	MeanConsumed    float64 `json:"mean_consumed"`
	Divergences     int     `json:"divergences"`
	// PrefixDepthSum and ConsumedSum are the raw sums behind the means
	// (schema v6): merging shard partials recomputes exact means from summed
	// integers instead of averaging averages.
	PrefixDepthSum int64 `json:"prefix_depth_sum,omitempty"`
	ConsumedSum    int64 `json:"consumed_sum,omitempty"`
}

// EngineFailure is one sampled execution the tool itself aborted (schema
// v3): an infeasible memory-model state (core.InfeasibleError), with the
// reproduction triple of the failing execution.
type EngineFailure struct {
	Error string        `json:"error"`
	Repro harness.Repro `json:"repro"`
}

// CellSummary aggregates one (tool, benchmark) cell.
type CellSummary struct {
	Program   string                   `json:"program"`
	Detection harness.DetectionSummary `json:"detection"`
	// RaceKeys are the deduplicated race keys this cell exhibited, sorted.
	RaceKeys []string `json:"race_keys"`
	// Budget is the cell's budget accounting under an adaptive policy
	// (schema v3; absent under the uniform policy).
	Budget *BudgetSummary `json:"budget,omitempty"`
	// Guided is present when the cell ran trace-guided (schema v3).
	Guided *GuideStats `json:"guided,omitempty"`
	// Failed counts executions the tool itself aborted (schema v3).
	Failed int `json:"failed,omitempty"`
	// Timing is the cell's ns/exec histogram snapshot from the telemetry
	// fabric (schema v4; present when the campaign ran with telemetry, which
	// Run always enables).
	Timing *obs.HistogramSnapshot `json:"timing,omitempty"`
	// Phases are the cell's per-phase span histograms keyed by phase name
	// (schema v5; present when the tool is an engine — phase timing rides the
	// telemetry fabric).
	Phases map[string]*obs.HistogramSnapshot `json:"phases,omitempty"`
}

// ForbiddenOutcome is one observed litmus outcome the memory model must
// never produce — a model soundness bug, with the reproduction triple of
// the earliest execution that produced it.
type ForbiddenOutcome struct {
	Test    string        `json:"test"`
	Outcome string        `json:"outcome"`
	Count   int           `json:"count"`
	Repro   harness.Repro `json:"repro"`
}

// LitmusSummary aggregates one (tool, litmus test) cell.
type LitmusSummary struct {
	Test  string `json:"test"`
	Execs int    `json:"execs"`
	// Outcomes histograms the observed outcomes (empty-outcome runs, e.g.
	// starved bounded spins, are not counted).
	Outcomes map[string]int `json:"outcomes"`
	// ForbiddenSeen lists forbidden outcomes that were observed (must stay
	// empty for a sound model).
	ForbiddenSeen []ForbiddenOutcome `json:"forbidden_seen,omitempty"`
	// WeakSeen lists the weak (allowed, non-SC) outcomes observed, sorted;
	// WeakDefined is how many the test defines. Coverage of weak outcomes
	// is what separates the full fragment from the baselines'.
	WeakSeen    []string `json:"weak_seen"`
	WeakDefined int      `json:"weak_defined"`
	// Budget, Guided, and Failed mirror CellSummary's schema v3 fields.
	Budget *BudgetSummary `json:"budget,omitempty"`
	Guided *GuideStats    `json:"guided,omitempty"`
	Failed int            `json:"failed,omitempty"`
	// Timing mirrors CellSummary's schema v4 ns/exec histogram snapshot.
	Timing *obs.HistogramSnapshot `json:"timing,omitempty"`
	// Phases mirrors CellSummary's schema v5 per-phase span histograms.
	Phases map[string]*obs.HistogramSnapshot `json:"phases,omitempty"`
}

// ToolPerf carries the allocation counters of one tool's campaign: global
// heap-allocation deltas summed over the tool's shards. Exact at Workers=1;
// under concurrent workers they include co-scheduled shards' allocations and
// serve as a regression signal, like the shard wall-clock they accompany.
type ToolPerf struct {
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	BytesPerExec float64 `json:"bytes_per_exec"`
}

// ValidationSummary reports the per-tool axiomatic-validation results of a
// -validate campaign: how many executions were checked against the Appendix
// A model, how many were skipped (the tool's memory model exposes no total
// modification order), and how many violations were found. Any violation is
// a model soundness bug and fails the campaign.
type ValidationSummary struct {
	Checked    int      `json:"checked"`
	Skipped    int      `json:"skipped"`
	Violations int      `json:"violations"`
	Samples    []string `json:"samples,omitempty"`
}

// AnalyzerSummary is one analyzer's per-tool rollup (schema v7): how many
// distinct finding keys it produced across the tool's cells and the total
// number of executions that hit one of them. A campaign run with -analyzers
// emits one entry per requested analyzer, in request order, even when the
// analyzer found nothing (or was skipped on every cell because the tool
// cannot satisfy its trace/MO needs).
type AnalyzerSummary struct {
	Analyzer string `json:"analyzer"`
	Distinct int    `json:"distinct"`
	Count    int    `json:"count"`
}

// FindingSummary is one deduplicated analyzer finding (schema v7): the
// analyzer that emitted it, its key (unique per (analyzer, cell)), and the
// reproduction triple of the earliest execution that produced it — the repro
// flags include "-analyzers <name>" so the one-command replay re-runs the
// analyzer that found it.
type FindingSummary struct {
	Analyzer    string        `json:"analyzer"`
	Key         string        `json:"key"`
	Description string        `json:"description"`
	Program     string        `json:"program"`
	Litmus      bool          `json:"litmus,omitempty"`
	Count       int           `json:"count"`
	Repro       harness.Repro `json:"repro"`
}

// GCSummary is the campaign-wide memory profile: heap allocation and GC
// deltas measured across the whole run.
type GCSummary struct {
	AllocBytes   uint64 `json:"alloc_bytes"`
	Mallocs      uint64 `json:"mallocs"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNS uint64 `json:"pause_total_ns"`
}

// ToolSummary aggregates one tool's whole campaign.
type ToolSummary struct {
	Tool string `json:"tool"`
	// Execs counts executions across all cells; WorkNS sums the shard
	// execution times (serial-equivalent work, independent of the worker
	// count up to scheduling noise), and ExecsPerSec = Execs/WorkNS.
	Execs       int     `json:"execs"`
	WorkNS      int64   `json:"work_ns"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	AtomicOps   uint64  `json:"atomic_ops"`
	NormalOps   uint64  `json:"normal_ops"`

	// Perf carries the allocation counters (schema v2).
	Perf ToolPerf `json:"perf"`
	// Validation is present when the campaign ran with ValidateAxioms.
	Validation *ValidationSummary `json:"validation,omitempty"`
	// RecordedTraces counts the trace files this tool persisted (RecordDir);
	// RecordErrors counts executions whose trace could not be recorded or
	// written (any nonzero value is surfaced as a warning in the report).
	RecordedTraces int `json:"recorded_traces,omitempty"`
	RecordErrors   int `json:"record_errors,omitempty"`
	// EngineFailures counts executions this tool aborted with an infeasible
	// memory-model state (schema v3); FailureSamples carries the earliest
	// few with repro triples. Any failure is a model soundness bug and fails
	// the campaign — but only the failing executions, not the worker, so the
	// rest of the matrix still runs.
	EngineFailures int             `json:"engine_failures,omitempty"`
	FailureSamples []EngineFailure `json:"failure_samples,omitempty"`
	// Captures counts the flight-recorder captures this tool triggered
	// (schema v5; the manifest in Spec.CaptureDir has the details);
	// CaptureErrors counts captures whose re-run could not produce a trace
	// file (the manifest entry carries the error).
	Captures      int `json:"captures,omitempty"`
	CaptureErrors int `json:"capture_errors,omitempty"`
	// Analyzers and Findings carry the analyzer pipeline's results (schema
	// v7): per-analyzer rollups and the deduplicated findings with repro
	// triples, sorted by (analyzer, cell order, key). Present only when the
	// campaign ran with a non-empty analyzer set.
	Analyzers []AnalyzerSummary `json:"analyzers,omitempty"`
	Findings  []FindingSummary  `json:"findings,omitempty"`

	Benchmarks []CellSummary   `json:"benchmarks,omitempty"`
	Litmus     []LitmusSummary `json:"litmus,omitempty"`

	// Races are the campaign-wide deduplicated benchmark races with the
	// reproduction triple of the earliest execution per key.
	Races []harness.RaceSummary `json:"races"`
	// UnexpectedRaces are races reported inside litmus programs, which only
	// perform atomic accesses: any entry is a race-detector soundness bug.
	UnexpectedRaces []harness.RaceSummary `json:"unexpected_races,omitempty"`
}

// ObsSummary is the campaign-level event-stream accounting (schema v4).
// EventsDropped must be zero for a healthy run: a nonzero value means the
// bounded event channel overflowed and the JSONL stream is incomplete, and
// Compare treats it as a regression.
type ObsSummary struct {
	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`
}

// Summary is the versioned campaign artifact serialized to
// BENCH_campaign.json.
type Summary struct {
	Schema        string    `json:"schema"`
	SchemaVersion int       `json:"schema_version"`
	Spec          SpecInfo  `json:"spec"`
	WallNS        int64     `json:"wall_ns"`
	GC            GCSummary `json:"gc"`
	// Obs carries the event-stream accounting (schema v4).
	Obs *ObsSummary `json:"obs,omitempty"`
	// Provenance identifies the build that produced the artifact (schema v5).
	Provenance *Provenance   `json:"provenance,omitempty"`
	Tools      []ToolSummary `json:"tools"`
	// Shard marks a partial artifact from a sharded run (schema v6): this is
	// shard Index of Count, cut by the spec with the given digest. Absent on
	// whole-campaign artifacts, including merged ones.
	Shard *ShardInfo `json:"shard,omitempty"`
	// CheckpointErrors counts checkpoint writes that failed (schema v6).
	// The campaign still completes — a failed checkpoint costs the resume
	// point, not the results — but the loss is never silent.
	CheckpointErrors int `json:"checkpoint_errors,omitempty"`
	// Cells carries a partial's per-cell state (schema v9), the input
	// MergeSummaries folds. Absent on whole-campaign artifacts.
	Cells []Cell `json:"cells,omitempty"`
}

// Info echoes the campaign parameters, defaults applied, into their summary
// form; the same echo opens the structured event stream (campaign_start) and
// heads the serialized artifact.
func (s Spec) Info() SpecInfo {
	s = s.withDefaults()
	info := SpecInfo{
		Runs: s.Runs, SeedBase: s.SeedBase,
		Workers: s.Workers, ShardSize: s.ShardSize,
		Benchmarks: []string{}, Litmus: []string{},
		Policy:    s.Policy.Name(),
		RecordDir: s.RecordDir, RecordAll: s.RecordAll,
		Validate:   s.ValidateAxioms,
		CaptureDir: s.CaptureDir, CaptureSlowNS: s.CaptureSlowNS,
		Analyzers: s.Analyzers,
	}
	if s.Guides != nil {
		info.GuideDir = s.Guides.Dir()
		info.GuideTraces = s.Guides.Len()
	}
	for _, t := range s.Tools {
		info.Tools = append(info.Tools, t.Name)
	}
	for _, b := range s.Benchmarks {
		info.Benchmarks = append(info.Benchmarks, b.Name)
	}
	for _, l := range s.Litmus {
		info.Litmus = append(info.Litmus, l.Name)
	}
	return info
}

// Cell is one cell of the campaign matrix as render consumes it: the static
// identity rendering needs, the cell's budget accounting under an adaptive
// policy, and its folded state. Shard partials carry their cells (schema
// v9), in matrix order — tool-major, benchmarks before litmus tests.
type Cell struct {
	Tool       string `json:"tool"`
	ReproFlags string `json:"repro_flags,omitempty"`
	Program    string `json:"program"`
	Litmus     bool   `json:"litmus,omitempty"`
	// WeakDefined is how many weak outcomes the litmus test defines;
	// GuideTraces is how many recorded traces guide the cell.
	WeakDefined int            `json:"weak_defined,omitempty"`
	GuideTraces int            `json:"guide_traces,omitempty"`
	Budget      *BudgetSummary `json:"budget,omitempty"`
	State       CellState      `json:"state"`
}

// render builds a campaign Summary from its spec echo and its cells in
// matrix order. It is the one place a Summary is rendered from state: Run
// renders its own cells, MergeSummaries the folded cells of its partials.
// Every list it emits is ordered by a total order over the cells' contents
// (cell order, run, key), so the result does not depend on how the states
// were folded.
func render(info SpecInfo, cells []Cell) *Summary {
	sum := &Summary{Schema: SchemaName, SchemaVersion: SchemaVersion, Spec: info}
	perTool := len(info.Benchmarks) + len(info.Litmus)
	for t, name := range info.Tools {
		sum.Tools = append(sum.Tools, renderTool(info, name, cells[t*perTool:(t+1)*perTool]))
	}
	return sum
}

// renderTool renders one tool's summary from its row of cells.
func renderTool(info SpecInfo, name string, cells []Cell) ToolSummary {
	ts := ToolSummary{Tool: name, Races: []harness.RaceSummary{}}
	var val ValidationSummary
	repro := func(c *Cell, run int, flags string) harness.Repro {
		return harness.Repro{Tool: name, Program: c.Program,
			Seed: info.SeedBase + int64(run), Litmus: c.Litmus, Flags: flags}
	}
	// Races dedup tool-wide (benchmark races and litmus races apart): cells
	// are visited in matrix order, so the first cell showing a key wins, and
	// within a cell its min-run winner does.
	races := map[string]harness.RaceSummary{}
	unexpected := map[string]harness.RaceSummary{}
	for i := range cells {
		c := &cells[i]
		st := &c.State
		dst := races
		if c.Litmus {
			dst = unexpected
		}
		for key, hit := range st.Races {
			if _, seen := dst[key]; !seen {
				dst[key] = harness.RaceSummary{Key: key, Description: hit.Desc,
					Repro: repro(c, hit.Run, c.ReproFlags)}
			}
		}
		// Finding identity includes the cell, so cells contribute disjoint
		// entries; the stable sort below orders them by (analyzer, cell
		// order, key).
		for _, analyzer := range harness.SortedKeys(st.Findings) {
			flags := strings.TrimSpace(c.ReproFlags + " -analyzers " + analyzer)
			hits := st.Findings[analyzer]
			for _, key := range harness.SortedKeys(hits) {
				hit := hits[key]
				ts.Findings = append(ts.Findings, FindingSummary{Analyzer: analyzer,
					Key: key, Description: hit.Desc, Program: c.Program,
					Litmus: c.Litmus, Count: hit.Count, Repro: repro(c, hit.Run, flags)})
			}
		}
		for _, f := range st.Failures {
			if len(ts.FailureSamples) < maxViolationSamples {
				ts.FailureSamples = append(ts.FailureSamples,
					EngineFailure{Error: f.Text, Repro: repro(c, f.Run, c.ReproFlags)})
			}
		}
		for _, v := range st.VioSamples {
			if len(val.Samples) < maxViolationSamples {
				val.Samples = append(val.Samples, fmt.Sprintf("%s/%s seed %d: %s",
					name, c.Program, info.SeedBase+int64(v.Run), v.Text))
			}
		}
		ts.Execs += st.Execs
		ts.WorkNS += st.ElapsedNS
		ts.AtomicOps += st.AtomicOps
		ts.NormalOps += st.NormalOps
		ts.Perf.AllocBytes += st.AllocBytes
		ts.Perf.AllocObjects += st.AllocObjs
		ts.RecordedTraces += st.Recorded
		ts.RecordErrors += st.RecordErrs
		ts.Captures += st.Captures
		ts.CaptureErrors += st.CaptureErrs
		ts.EngineFailures += st.Failed
		val.Checked += st.Checked
		val.Skipped += st.Skipped
		val.Violations += st.Violations

		if !c.Litmus {
			meanTime := time.Duration(0)
			if st.Execs > 0 {
				meanTime = time.Duration(st.ElapsedNS) / time.Duration(st.Execs)
			}
			ts.Benchmarks = append(ts.Benchmarks, CellSummary{
				Program: c.Program,
				Detection: harness.Detection{Runs: st.Execs, Detected: st.Detected,
					Time: meanTime,
					Ops:  capi.OpStats{AtomicOps: st.AtomicOps, NormalOps: st.NormalOps},
				}.Summary(),
				RaceKeys: harness.SortedKeys(st.Races),
				Budget:   c.Budget, Guided: guideStats(c), Failed: st.Failed,
				Timing: st.Timing, Phases: st.Phases,
			})
			continue
		}
		ls := LitmusSummary{
			Test: c.Program, Execs: st.Execs, Outcomes: st.Outcomes,
			WeakSeen: harness.SortedKeys(st.Weak), WeakDefined: c.WeakDefined,
			Budget: c.Budget, Guided: guideStats(c), Failed: st.Failed,
			Timing: st.Timing, Phases: st.Phases,
		}
		if ls.Outcomes == nil {
			ls.Outcomes = map[string]int{}
		}
		for _, out := range harness.SortedKeys(st.Forbidden) {
			ls.ForbiddenSeen = append(ls.ForbiddenSeen, ForbiddenOutcome{
				Test: c.Program, Outcome: out, Count: st.Outcomes[out],
				Repro: repro(c, st.Forbidden[out], c.ReproFlags)})
		}
		ts.Litmus = append(ts.Litmus, ls)
	}
	for _, key := range harness.SortedKeys(races) {
		ts.Races = append(ts.Races, races[key])
	}
	for _, key := range harness.SortedKeys(unexpected) {
		ts.UnexpectedRaces = append(ts.UnexpectedRaces, unexpected[key])
	}
	// Findings sort by analyzer, keeping (cell order, key) within one; the
	// per-analyzer rollups follow the spec's request order so every
	// requested analyzer appears.
	sort.SliceStable(ts.Findings, func(i, j int) bool {
		return ts.Findings[i].Analyzer < ts.Findings[j].Analyzer
	})
	for _, analyzer := range info.Analyzers {
		as := AnalyzerSummary{Analyzer: analyzer}
		for _, f := range ts.Findings {
			if f.Analyzer == analyzer {
				as.Distinct++
				as.Count += f.Count
			}
		}
		ts.Analyzers = append(ts.Analyzers, as)
	}
	ts.ExecsPerSec = harness.ExecsPerSec(ts.Execs, time.Duration(ts.WorkNS))
	if ts.Execs > 0 {
		ts.Perf.BytesPerExec = float64(ts.Perf.AllocBytes) / float64(ts.Execs)
	}
	if info.Validate {
		ts.Validation = &val
	}
	return ts
}

// guideStats renders a cell's guided-exploration statistics, or nil when the
// cell did not run guided.
func guideStats(c *Cell) *GuideStats {
	st := &c.State
	if c.GuideTraces == 0 || st.GuidedExecs == 0 {
		return nil
	}
	n := float64(st.GuidedExecs)
	return &GuideStats{
		Traces:          c.GuideTraces,
		GuidedExecs:     st.GuidedExecs,
		MeanPrefixDepth: float64(st.PrefixDepth) / n,
		MeanConsumed:    float64(st.PrefixConsumed) / n,
		Divergences:     st.Divergences,
		PrefixDepthSum:  st.PrefixDepth,
		ConsumedSum:     st.PrefixConsumed,
	}
}

// Forbidden returns every forbidden litmus outcome observed in the
// campaign, across all tools.
func (s *Summary) Forbidden() []ForbiddenOutcome {
	var all []ForbiddenOutcome
	for _, ts := range s.Tools {
		for _, ls := range ts.Litmus {
			all = append(all, ls.ForbiddenSeen...)
		}
	}
	return all
}

// UnexpectedRaces returns every race reported inside a litmus program,
// across all tools.
func (s *Summary) UnexpectedRaces() []harness.RaceSummary {
	var all []harness.RaceSummary
	for _, ts := range s.Tools {
		all = append(all, ts.UnexpectedRaces...)
	}
	return all
}

// RecordErrors returns the total number of executions whose trace could not
// be persisted, across all tools.
func (s *Summary) RecordErrors() int {
	n := 0
	for _, ts := range s.Tools {
		n += ts.RecordErrors
	}
	return n
}

// AxiomViolations returns the total number of axiomatic-model violations
// found by a -validate campaign, across all tools.
func (s *Summary) AxiomViolations() int {
	n := 0
	for _, ts := range s.Tools {
		if ts.Validation != nil {
			n += ts.Validation.Violations
		}
	}
	return n
}

// EngineFailures returns the total number of executions the tools themselves
// aborted (infeasible memory-model states), across all tools.
func (s *Summary) EngineFailures() int {
	n := 0
	for _, ts := range s.Tools {
		n += ts.EngineFailures
	}
	return n
}

// Failed reports whether the campaign found a soundness problem: a forbidden
// litmus outcome, a race in a race-free litmus program, an execution that
// violated the axiomatic model, or an execution the tool itself aborted with
// an infeasible memory-model state.
func (s *Summary) Failed() bool {
	return len(s.Forbidden()) > 0 || len(s.UnexpectedRaces()) > 0 ||
		s.AxiomViolations() > 0 || s.EngineFailures() > 0
}

// DetectionTable renders the Table 2-style detection-rate matrix: one row
// per benchmark, one column per tool.
func (s *Summary) DetectionTable() *harness.Table {
	tb := &harness.Table{Header: []string{"benchmark"}}
	for _, ts := range s.Tools {
		tb.Header = append(tb.Header, ts.Tool)
	}
	for b, name := range s.Spec.Benchmarks {
		row := []string{name}
		for _, ts := range s.Tools {
			d := ts.Benchmarks[b].Detection
			row = append(row, fmt.Sprintf("%5.1f%% (%d races)", d.RatePct, len(ts.Benchmarks[b].RaceKeys)))
		}
		tb.AddRow(row...)
	}
	return tb
}

// LitmusTable renders the litmus matrix: outcome diversity, weak-outcome
// coverage, and forbidden-outcome count per (test, tool).
func (s *Summary) LitmusTable() *harness.Table {
	tb := &harness.Table{Header: []string{"litmus"}}
	for _, ts := range s.Tools {
		tb.Header = append(tb.Header, ts.Tool)
	}
	for l, name := range s.Spec.Litmus {
		row := []string{name}
		for _, ts := range s.Tools {
			ls := ts.Litmus[l]
			cell := fmt.Sprintf("%d outcomes, weak %d/%d", len(ls.Outcomes), len(ls.WeakSeen), ls.WeakDefined)
			if n := len(ls.ForbiddenSeen); n > 0 {
				cell += fmt.Sprintf(", FORBIDDEN×%d", n)
			}
			row = append(row, cell)
		}
		tb.AddRow(row...)
	}
	return tb
}

// ThroughputTable renders per-tool execution throughput and allocation
// pressure.
func (s *Summary) ThroughputTable() *harness.Table {
	tb := &harness.Table{Header: []string{"tool", "execs", "work", "execs/sec", "atomic ops", "normal ops", "alloc/exec"}}
	for _, ts := range s.Tools {
		tb.AddRow(ts.Tool,
			fmt.Sprintf("%d", ts.Execs),
			harness.FmtDuration(time.Duration(ts.WorkNS)),
			fmt.Sprintf("%.0f", ts.ExecsPerSec),
			harness.FmtOps(ts.AtomicOps),
			harness.FmtOps(ts.NormalOps),
			harness.FmtBytes(uint64(ts.Perf.BytesPerExec)))
	}
	return tb
}

// BudgetReport summarizes an adaptive campaign's budget accounting: total
// executions run vs. the uniform plan, and how many cells converged. ok is
// false when the campaign ran under the uniform policy (no budget data).
func (s *Summary) BudgetReport() (used, planned, converged, cells int, ok bool) {
	each := func(b *BudgetSummary) {
		if b == nil {
			return
		}
		ok = true
		cells++
		used += b.Used
		planned += b.Planned
		if b.Converged {
			converged++
		}
	}
	for _, ts := range s.Tools {
		for _, cell := range ts.Benchmarks {
			each(cell.Budget)
		}
		for _, ls := range ts.Litmus {
			each(ls.Budget)
		}
	}
	return used, planned, converged, cells, ok
}

// String renders the human-readable campaign report.
func (s *Summary) String() string {
	out := fmt.Sprintf("campaign: %d tool(s) × (%d benchmark(s) + %d litmus test(s)) × %d runs, %d workers, seed base %d\nwall clock: %s\n",
		len(s.Spec.Tools), len(s.Spec.Benchmarks), len(s.Spec.Litmus),
		s.Spec.Runs, s.Spec.Workers, s.Spec.SeedBase,
		harness.FmtDuration(time.Duration(s.WallNS)))
	if p := s.Spec.Policy; p != "" && p != "uniform" {
		out += fmt.Sprintf("policy: %s", p)
		if used, planned, converged, cells, ok := s.BudgetReport(); ok && planned > 0 {
			out += fmt.Sprintf(" — %d/%d executions (%.0f%% of uniform), %d/%d cells converged",
				used, planned, 100*float64(used)/float64(planned), converged, cells)
		}
		out += "\n"
	}
	if s.Spec.GuideDir != "" {
		out += fmt.Sprintf("guided by %d trace(s) from %s\n", s.Spec.GuideTraces, s.Spec.GuideDir)
	}
	out += "\n" + s.ThroughputTable().String()
	if len(s.Spec.Benchmarks) > 0 {
		out += "\n" + s.DetectionTable().String()
	}
	if len(s.Spec.Litmus) > 0 {
		out += "\n" + s.LitmusTable().String()
	}
	for _, ts := range s.Tools {
		if len(ts.Races) > 0 {
			out += fmt.Sprintf("\n%s: %d distinct race(s)\n", ts.Tool, len(ts.Races))
			for _, r := range ts.Races {
				out += fmt.Sprintf("  %s\n    repro: %s\n", r.Description, r.Repro.Command())
			}
		}
	}
	for _, ts := range s.Tools {
		if v := ts.Validation; v != nil {
			out += fmt.Sprintf("\n%s: axiomatic validation: %d checked, %d skipped, %d violation(s)\n",
				ts.Tool, v.Checked, v.Skipped, v.Violations)
			for _, sample := range v.Samples {
				out += "  VIOLATION " + sample + "\n"
			}
		}
		if ts.RecordedTraces > 0 {
			out += fmt.Sprintf("\n%s: recorded %d trace(s) to %s\n", ts.Tool, ts.RecordedTraces, s.Spec.RecordDir)
		}
		if ts.RecordErrors > 0 {
			out += fmt.Sprintf("\n%s: WARNING: failed to record %d trace(s) to %s\n", ts.Tool, ts.RecordErrors, s.Spec.RecordDir)
		}
		if ts.Captures > 0 {
			out += fmt.Sprintf("\n%s: flight recorder captured %d execution(s) to %s\n", ts.Tool, ts.Captures, s.Spec.CaptureDir)
		}
		if ts.CaptureErrors > 0 {
			out += fmt.Sprintf("\n%s: WARNING: %d capture(s) failed to produce a trace (see %s)\n",
				ts.Tool, ts.CaptureErrors, s.Spec.CaptureDir)
		}
		if ts.EngineFailures > 0 {
			out += fmt.Sprintf("\n%s: ENGINE FAILURE: %d execution(s) aborted with an infeasible model state\n",
				ts.Tool, ts.EngineFailures)
			for _, f := range ts.FailureSamples {
				out += fmt.Sprintf("  %s\n    repro: %s\n", f.Error, f.Repro.Command())
			}
		}
	}
	for _, ts := range s.Tools {
		if len(ts.Analyzers) == 0 {
			continue
		}
		for _, as := range ts.Analyzers {
			out += fmt.Sprintf("\n%s: analyzer %s: %d distinct finding(s), %d hit(s)\n",
				ts.Tool, as.Analyzer, as.Distinct, as.Count)
			for _, f := range ts.Findings {
				if f.Analyzer != as.Analyzer {
					continue
				}
				out += fmt.Sprintf("  [%s] %s\n    repro: %s\n", f.Program, f.Description, f.Repro.Command())
			}
		}
	}
	for _, f := range s.Forbidden() {
		out += fmt.Sprintf("\nFORBIDDEN OUTCOME %s=%q ×%d\n  repro: %s\n",
			f.Test, f.Outcome, f.Count, f.Repro.Command())
	}
	for _, r := range s.UnexpectedRaces() {
		out += fmt.Sprintf("\nUNEXPECTED RACE in litmus program: %s\n  repro: %s\n",
			r.Description, r.Repro.Command())
	}
	return out
}

// WriteJSON writes the indented artifact file (BENCH_campaign.json)
// atomically: readers never observe a torn summary, even if the writer is
// killed mid-write.
func (s *Summary) WriteJSON(path string) error {
	return safeio.WriteJSONAtomic(path, s, 0o644)
}

// Canonical returns a deep copy with every wall-clock-derived measurement
// zeroed, leaving only model outcomes. This is the form in which the
// package's byte-identity guarantees hold: workers=1 vs workers=K, merged
// shard partials vs the single-machine run, and a SIGKILL-then-resume run vs
// an uninterrupted one all marshal to identical bytes after Canonical.
// Zeroed: wall clock, GC and allocation counters, per-cell mean times and
// timing/phase histograms, per-tool work time and throughput, event-stream
// accounting, and the run-shape echoes (Workers, artifact directories) plus
// a partial's shard header and cell states, checkpoint accounting, and build
// provenance (`go run` and `go build` of the same tree stamp different VCS
// metadata, and the guarantee must hold across binaries; skew is surfaced by
// Compare and refused by MergeSummaries instead). Kept: everything the model produced —
// detections, races, outcomes, budgets, guide sums, validation.
func (s *Summary) Canonical() *Summary {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("campaign: canonicalize: %v", err))
	}
	var c Summary
	if err := json.Unmarshal(data, &c); err != nil {
		panic(fmt.Sprintf("campaign: canonicalize: %v", err))
	}
	c.WallNS = 0
	c.GC = GCSummary{}
	c.Obs = nil
	c.Shard = nil
	c.Cells = nil
	c.CheckpointErrors = 0
	c.Provenance = nil
	c.Spec.Workers = 0
	c.Spec.RecordDir = ""
	c.Spec.CaptureDir = ""
	c.Spec.GuideDir = ""
	for t := range c.Tools {
		ts := &c.Tools[t]
		ts.WorkNS = 0
		ts.ExecsPerSec = 0
		ts.Perf = ToolPerf{}
		for b := range ts.Benchmarks {
			cell := &ts.Benchmarks[b]
			cell.Detection.MeanTimeNS = 0
			cell.Timing = nil
			cell.Phases = nil
		}
		for l := range ts.Litmus {
			ls := &ts.Litmus[l]
			ls.Timing = nil
			ls.Phases = nil
		}
	}
	return &c
}
