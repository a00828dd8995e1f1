package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
)

// convergeSpec is a matrix whose every cell converges under the Converge
// policy within its initial budget: ms-queue races unconditionally,
// seqlock's rate is stable, and the two litmus tests have small,
// quickly-saturated outcome histograms.
func convergeSpec(t *testing.T, seedBase int64, workers, shardSize int, policy explore.Policy) Spec {
	return Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Benchmarks: []BenchmarkSpec{
			benchSpec(t, "ms-queue"),
			benchSpec(t, "seqlock"),
		},
		Litmus: []*litmus.Test{
			mustLitmus(t, "MP+rel+acq"),
			mustLitmus(t, "SB+sc"),
		},
		Runs:      100,
		SeedBase:  seedBase,
		Workers:   workers,
		ShardSize: shardSize,
		Policy:    policy,
	}
}

// TestConvergeDeterminismUnderSharding extends the campaign determinism
// guarantee to adaptive budgets: a Converge-policy campaign must aggregate
// identically on one worker and on four.
func TestConvergeDeterminismUnderSharding(t *testing.T) {
	serial := canonicalize(Run(convergeSpec(t, 1, 1, 60, explore.Converge{})))
	sharded := canonicalize(Run(convergeSpec(t, 1, 4, 7, explore.Converge{})))

	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("converge campaign aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", sj, pj)
	}
}

// convergeMissBound is the largest probability that one key of per-execution
// rate p is found by a uniform cell of runs executions but missed by a
// converge cell that stops at the rule-of-three floor explore.MinExecs = 3/δ:
// the key must be absent from the first MinExecs executions and present in
// the rest, (1−p)^MinExecs · (1 − (1−p)^(runs−MinExecs)), maximized over p.
// A cell that stops later misses less.
func convergeMissBound(runs int) float64 {
	worst := 0.0
	for i := 1; i < 10000; i++ {
		q := 1 - float64(i)/10000
		if m := math.Pow(q, float64(explore.MinExecs)) * (1 - math.Pow(q, float64(runs-explore.MinExecs))); m > worst {
			worst = m
		}
	}
	return worst
}

// binomialLowerQuantile returns the largest k with P(X < k) ≤ alpha for
// X ~ Binomial(n, p).
func binomialLowerQuantile(n int, p, alpha float64) int {
	cdf := 0.0
	for k := 0; k <= n; k++ {
		pk := math.Exp(lgammaOf(n+1)-lgammaOf(k+1)-lgammaOf(n-k+1)) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		if cdf+pk > alpha {
			return k
		}
		cdf += pk
	}
	return n
}

func lgammaOf(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}

// TestConvergeReproducesUniformVerdictsAtLowerBudget is the adaptive-budget
// acceptance test, held across 40 seed bases rather than one: on a matrix
// whose cells all converge, every base must spend at most 60% of the
// uniform budget, converge every cell, and keep the uniform campaign's
// forbidden-outcome and failure verdicts. Reproducing the uniform race set
// is a statistical property: a key rare enough to be absent from a cell's
// first 3/δ executions can still appear in the uniform campaign's later
// ones. With one such key per matrix the per-base miss probability is at
// most convergeMissBound (≈ 0.19 for 60 of 100), so the number of bases that
// reproduce the race set must reach the 1% lower quantile of
// Binomial(40, 1 − bound).
func TestConvergeReproducesUniformVerdictsAtLowerBudget(t *testing.T) {
	const bases = 40
	reproduced := 0
	var missed []string
	for b := 0; b < bases; b++ {
		seedBase := int64(1001 + 1000*b)
		uniform := Run(convergeSpec(t, seedBase, 2, 0, nil))
		adaptive := Run(convergeSpec(t, seedBase, 2, 0, explore.Converge{}))

		var uniExecs, adExecs int
		same := true
		for i := range uniform.Tools {
			ut, at := uniform.Tools[i], adaptive.Tools[i]
			uniExecs += ut.Execs
			adExecs += at.Execs
			found := map[string]bool{}
			for _, r := range at.Races {
				found[r.Key] = true
			}
			for _, r := range ut.Races {
				if !found[r.Key] {
					same = false
					missed = append(missed, fmt.Sprintf("base %d: %s %s", seedBase, ut.Tool, r.Key))
				}
			}
		}
		if same {
			reproduced++
		}
		if uf, af := len(uniform.Forbidden()), len(adaptive.Forbidden()); uf != af {
			t.Errorf("base %d: forbidden verdicts differ: uniform %d, converge %d", seedBase, uf, af)
		}
		if adaptive.Failed() != uniform.Failed() {
			t.Errorf("base %d: failure verdicts differ: uniform %v, converge %v", seedBase, uniform.Failed(), adaptive.Failed())
		}
		if adExecs*10 > uniExecs*6 {
			t.Errorf("base %d: converge campaign used %d executions, want ≤ 60%% of uniform's %d", seedBase, adExecs, uniExecs)
		}
		// The budget accounting must agree with the throughput counters and
		// mark every cell converged.
		used, planned, converged, cells, ok := adaptive.BudgetReport()
		if !ok || used != adExecs || planned != uniExecs {
			t.Errorf("base %d: BudgetReport() = (%d, %d, ok=%v), want (%d, %d, true)", seedBase, used, planned, ok, adExecs, uniExecs)
		}
		if converged != cells {
			t.Errorf("base %d: %d of %d cells converged, want all", seedBase, converged, cells)
		}
		if uniform.Tools[0].Benchmarks[0].Budget != nil {
			t.Error("uniform campaign must carry no budget accounting")
		}
	}
	bound := convergeMissBound(100)
	floor := binomialLowerQuantile(bases, 1-bound, 0.01)
	t.Logf("converge reproduced the uniform race set in %d of %d seed bases (floor %d, per-base miss bound %.3f); missed: %v",
		reproduced, bases, floor, bound, missed)
	if reproduced < floor {
		t.Errorf("converge reproduced the uniform race set in %d of %d seed bases, below the binomial floor %d", reproduced, bases, floor)
	}
}

// novelLitmus is a test-local litmus cell that never converges on any
// stream: its outcome is a fresh workload draw in almost every execution, so
// nearly every outcome is a singleton key. Pairing it with cells that
// converge early makes an adaptive campaign reassign their freed budget over
// several extension waves.
func novelLitmus() *litmus.Test {
	return &litmus.Test{Name: "novel", Make: func(out *string) capi.Program {
		return capi.Program{Name: "novel", Run: func(env capi.Env) {
			*out = fmt.Sprint(env.RandUint64() % 1000000)
		}}
	}}
}

// TestConvergeRedistributesFreedBudget pins the budget-reassignment
// behaviour: pairing a quickly-converging cell with one that shows a new key
// in almost every execution must reassign the freed budget to the latter,
// keep the total at the uniform level, and mark only the converging cell as
// such.
func TestConvergeRedistributesFreedBudget(t *testing.T) {
	spec := Spec{
		Tools:    []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Litmus:   []*litmus.Test{mustLitmus(t, "SB+sc"), novelLitmus()},
		Runs:     100,
		SeedBase: 1,
		Workers:  2,
		Policy:   explore.Converge{},
	}
	sum := Run(spec)
	sb, nov := sum.Tools[0].Litmus[0], sum.Tools[0].Litmus[1]
	if sb.Budget == nil || !sb.Budget.Converged || sb.Budget.Used >= spec.Runs {
		t.Fatalf("SB+sc budget = %+v, want early convergence", sb.Budget)
	}
	if nov.Budget == nil || nov.Budget.Converged || nov.Budget.Extended == 0 {
		t.Fatalf("novel budget = %+v, want reassigned budget (extended > 0) and no convergence", nov.Budget)
	}
	if total := sb.Budget.Used + nov.Budget.Used; total != 2*spec.Runs {
		t.Errorf("total executions %d, want the whole campaign budget %d", total, 2*spec.Runs)
	}
}

// TestGuidedCampaignFindsSeededRaceAtHigherRate is the trace-guided
// acceptance test: record the racy executions of a cell whose uniform
// detection rate is well below 100% (dekker-fences), then re-run the same
// budget guided by those traces — the seeded race must be found in strictly
// more executions, and every race key of the uniform campaign must still be
// found.
func TestGuidedCampaignFindsSeededRaceAtHigherRate(t *testing.T) {
	dir := t.TempDir()
	base := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
		Runs:       50,
		SeedBase:   1,
		Workers:    2,
		RecordDir:  dir, // records the signal-bearing (racy) executions
	}
	uniform := Run(base)
	uniCell := uniform.Tools[0].Benchmarks[0]
	if uniCell.Detection.Detected == 0 || uniCell.Detection.Detected == uniCell.Detection.Runs {
		t.Fatalf("uniform dekker-fences detection %d/%d is not informative for this test",
			uniCell.Detection.Detected, uniCell.Detection.Runs)
	}
	if uniform.Tools[0].RecordedTraces == 0 {
		t.Fatal("no racy traces recorded to seed the guided campaign")
	}

	guides, err := LoadGuides(dir)
	if err != nil {
		t.Fatal(err)
	}
	guided := base
	guided.RecordDir = ""
	guided.Guides = guides
	gsum := Run(guided)
	gCell := gsum.Tools[0].Benchmarks[0]

	if gCell.Detection.Detected <= uniCell.Detection.Detected {
		t.Fatalf("guided campaign detected %d/%d, want strictly more than uniform's %d/%d",
			gCell.Detection.Detected, gCell.Detection.Runs,
			uniCell.Detection.Detected, uniCell.Detection.Runs)
	}
	seeded := map[string]bool{}
	for _, k := range gCell.RaceKeys {
		seeded[k] = true
	}
	for _, k := range uniCell.RaceKeys {
		if !seeded[k] {
			t.Errorf("guided campaign lost race key %s", k)
		}
	}

	// Guided cells must report their prefix statistics in the summary.
	gs := gCell.Guided
	if gs == nil || gs.GuidedExecs != base.Runs || gs.Traces != uniform.Tools[0].RecordedTraces {
		t.Fatalf("guided stats = %+v, want %d guided execs over %d traces",
			gs, base.Runs, uniform.Tools[0].RecordedTraces)
	}
	if gs.MeanPrefixDepth <= 0 || gs.MeanConsumed <= 0 {
		t.Errorf("guided stats carry no depth data: %+v", gs)
	}
	if gsum.Spec.GuideDir != dir || gsum.Spec.GuideTraces != guides.Len() {
		t.Errorf("spec echo = %q/%d, want %q/%d", gsum.Spec.GuideDir, gsum.Spec.GuideTraces, dir, guides.Len())
	}
}

// TestGuidedCampaignDeterminismUnderSharding extends the determinism
// guarantee to guided cells: the prefix depth is drawn from the execution
// seed, so worker count must not change any aggregate.
func TestGuidedCampaignDeterminismUnderSharding(t *testing.T) {
	dir := t.TempDir()
	rec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
		Runs:       20,
		SeedBase:   1,
		RecordDir:  dir,
	}
	Run(rec)
	guides, err := LoadGuides(dir)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers, shard int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
			Runs:       30,
			SeedBase:   100,
			Workers:    workers,
			ShardSize:  shard,
			Guides:     guides,
		}
	}
	serial, _ := json.Marshal(canonicalize(Run(build(1, 30))))
	sharded, _ := json.Marshal(canonicalize(Run(build(4, 7))))
	if string(serial) != string(sharded) {
		t.Fatalf("guided campaign aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", serial, sharded)
	}
}

// infeasibleModel panics with a core.InfeasibleError on every atomic load —
// the failure mode of a model soundness bug — while completing every other
// operation trivially.
type infeasibleModel struct{}

func (infeasibleModel) Begin(*core.Engine) {}
func (infeasibleModel) AtomicLoad(ts *core.ThreadState, op *capi.Op) memmodel.Value {
	panic(&core.InfeasibleError{Stage: "load", Loc: op.Loc, Detail: "stub model"})
}
func (infeasibleModel) AtomicStore(*core.ThreadState, *capi.Op) {}
func (infeasibleModel) AtomicRMW(ts *core.ThreadState, op *capi.Op) (memmodel.Value, bool) {
	return 0, true
}
func (infeasibleModel) Fence(*core.ThreadState, *capi.Op) {}
func (infeasibleModel) PromoteNAStore(*core.ThreadState, memmodel.LocID, memmodel.TID, memmodel.SeqNum, memmodel.Value) {
}
func (infeasibleModel) Maintain(*core.Engine) {}

// TestEngineFailureRecordedAndCampaignContinues pins the infeasible-store
// hardening: a cell whose every execution hits an infeasible model state is
// recorded as failed — with seed and repro triple — while the rest of the
// matrix keeps running to completion.
func TestEngineFailureRecordedAndCampaignContinues(t *testing.T) {
	loads := capi.Program{Name: "loads", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		env.Load(x, memmodel.Relaxed)
	}}
	stores := capi.Program{Name: "stores", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		env.Store(x, 1, memmodel.Relaxed)
	}}
	spec := Spec{
		Tools: []ToolSpec{{Name: "stub", New: func() capi.Tool {
			return core.New("stub", infeasibleModel{}, core.Config{})
		}}},
		Benchmarks: []BenchmarkSpec{
			{Name: "loads", New: func() capi.Program { return loads }},
			{Name: "stores", New: func() capi.Program { return stores }},
		},
		Runs:      12,
		SeedBase:  5,
		Workers:   3,
		ShardSize: 4,
	}
	sum := Run(spec)
	ts := sum.Tools[0]
	failing, healthy := ts.Benchmarks[0], ts.Benchmarks[1]

	if failing.Failed != spec.Runs || ts.EngineFailures != spec.Runs {
		t.Fatalf("failing cell recorded %d/%d failures (tool total %d)", failing.Failed, spec.Runs, ts.EngineFailures)
	}
	if healthy.Failed != 0 || healthy.Detection.Runs != spec.Runs {
		t.Fatalf("healthy cell = %+v, want %d clean executions", healthy, spec.Runs)
	}
	if len(ts.FailureSamples) == 0 {
		t.Fatal("no failure samples recorded")
	}
	s := ts.FailureSamples[0]
	if s.Repro.Seed != spec.SeedBase || s.Repro.Program != "loads" || s.Repro.Tool != "stub" {
		t.Errorf("failure repro = %+v, want stub/loads seed=%d", s.Repro, spec.SeedBase)
	}
	if !strings.Contains(s.Error, "infeasible") {
		t.Errorf("failure error = %q, want an infeasibility message", s.Error)
	}
	if !sum.Failed() {
		t.Error("a campaign with engine failures must fail")
	}
	if !strings.Contains(sum.String(), "ENGINE FAILURE") {
		t.Error("report does not surface the engine failures")
	}
}

// TestSchemaArtifactRoundTrip pins the versioned summary fields through JSON.
func TestSchemaArtifactRoundTrip(t *testing.T) {
	sum := Run(Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       explore.MinExecs,
		SeedBase:   1,
		Policy:     explore.Converge{},
	})
	if sum.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version = %d, want %d", sum.SchemaVersion, SchemaVersion)
	}
	if want := "converge(delta=0.05)"; sum.Spec.Policy != want {
		t.Fatalf("policy echo = %q, want %q", sum.Spec.Policy, want)
	}
	if sum.Obs == nil || sum.Obs.EventsDropped != 0 {
		t.Fatalf("obs accounting = %+v, want present with zero drops", sum.Obs)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var rt Summary
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	b := rt.Tools[0].Benchmarks[0].Budget
	if b == nil || !b.Converged || b.Planned != explore.MinExecs || b.Used == 0 {
		t.Fatalf("budget did not round-trip: %+v", b)
	}
	tm := rt.Tools[0].Benchmarks[0].Timing
	if tm == nil || tm.Count == 0 || tm.Sum == 0 || tm.P50 == 0 {
		t.Fatalf("timing snapshot did not round-trip: %+v", tm)
	}
	ph := rt.Tools[0].Benchmarks[0].Phases
	if ph == nil || ph["run"] == nil || ph["run"].Count == 0 {
		t.Fatalf("phase snapshots did not round-trip: %+v", ph)
	}
	if _, ok := ph["validate"]; ok {
		t.Fatal("validate phase present without validation duties")
	}
	if rt.Provenance == nil || rt.Provenance.GoVersion == "" {
		t.Fatalf("provenance did not round-trip: %+v", rt.Provenance)
	}
}
