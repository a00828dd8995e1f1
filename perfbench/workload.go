package main

import (
	"fmt"
	"sort"
	"strings"

	"c11tester/internal/analysis"
	"c11tester/internal/axiom"
	"c11tester/internal/campaign"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
)

// workload is one named input set of the benchmark: a (tool × program)
// matrix, the post-execution duties every execution carries, and the number
// of executions per cell in one measurement round.
type workload struct {
	name      string
	tools     []string
	litmus    string // campaign.SelectLitmus selection
	bench     string // campaign.SelectBenchmarks selection
	validate  bool
	analyzers []string
	// runs is the per-cell budget of one round. A round is one campaign.Run
	// plus the raw legs over the same seeds; it is sized so that a round
	// takes about a second on a 2-vCPU machine and a run measures many rounds.
	runs int
}

var workloads = []workload{
	{name: "litmus", tools: campaign.StandardToolNames(), litmus: "all", bench: "none", runs: 400},
	{name: "structures", tools: campaign.StandardToolNames(), litmus: "none", bench: "all", runs: 100},
	{name: "audit", tools: []string{"c11tester"}, litmus: "all", bench: "all",
		validate: true, analyzers: campaign.ParseAnalyzers("all"), runs: 100},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// matrix is a workload's resolved campaign matrix.
type matrix struct {
	tools  []campaign.ToolSpec
	bench  []campaign.BenchmarkSpec
	litmus []*litmus.Test
}

func (w workload) matrix() (matrix, error) {
	var m matrix
	for _, name := range w.tools {
		ts, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			return m, err
		}
		m.tools = append(m.tools, ts)
	}
	var err error
	if m.bench, err = campaign.SelectBenchmarks(w.bench); err != nil {
		return m, err
	}
	if m.litmus, err = campaign.SelectLitmus(w.litmus); err != nil {
		return m, err
	}
	return m, nil
}

// cellSpec names one (tool, program) cell of a matrix.
type cellSpec struct {
	tool  campaign.ToolSpec
	bench *campaign.BenchmarkSpec
	test  *litmus.Test
}

// cells lists the matrix's cells in campaign order (per tool: benchmarks,
// then litmus tests).
func (m matrix) cells() []cellSpec {
	var out []cellSpec
	for _, t := range m.tools {
		for i := range m.bench {
			out = append(out, cellSpec{tool: t, bench: &m.bench[i]})
		}
		for _, l := range m.litmus {
			out = append(out, cellSpec{tool: t, test: l})
		}
	}
	return out
}

func (s cellSpec) program() string {
	if s.test != nil {
		return s.test.Name
	}
	return s.bench.Name
}

func (s cellSpec) key() string { return s.tool.Name + "/" + s.program() }

// cell is one raw-leg cell: a tool instance and a program instance kept warm
// across rounds, exactly as one serial caller of Engine.Execute keeps them,
// plus the post-execution duties the workload asks for.
type cell struct {
	cellSpec
	eng  *core.Engine
	prog capi.Program
	out  string // litmus outcome written by the program
	mo   core.MOProvider
	c11  *core.C11Model // nil for the commit-order baselines
	// validate runs axiom.Check after every execution; analyzers observe it.
	validate  bool
	analyzers []analysis.Analyzer
	ax        analysis.Exec
	// clock is non-nil on traced cells: it accumulates the time of the
	// wrapped model and strategy calls of the current execution.
	clock *layerClock
}

// newCell builds the cell's tool and program. With traced set, the engine is
// rebuilt around a timing wrapper of its memory model and strategy.
func newCell(s cellSpec, validate bool, analyzers []string, traced bool) (*cell, error) {
	eng, ok := s.tool.New().(*core.Engine)
	if !ok {
		return nil, fmt.Errorf("tool %s is not built on core.Engine", s.tool.Name)
	}
	c := &cell{cellSpec: s, eng: eng}
	c.c11, _ = eng.Model().(*core.C11Model)
	if traced {
		c.clock = &layerClock{}
		inner := eng
		eng = core.New(inner.Name(), wrapModel(inner.Model(), c.clock), inner.Config())
		eng.SetStrategy(&timedStrategy{inner: inner.Strategy(), clock: c.clock})
		eng.SetPhaseTiming(true)
		eng.SetHandoffTiming(true)
		c.eng = eng
	}
	c.mo, _ = c.eng.Model().(core.MOProvider)
	if s.test != nil {
		c.prog = s.test.Make(&c.out)
	} else {
		c.prog = s.bench.New()
	}
	// Post duties follow the campaign's cell runner: validation and
	// MO-reading analyzers need a model with a total modification order,
	// and any of them turns trace recording on.
	c.validate = validate && c.mo != nil
	needTrace := c.validate
	for _, name := range analyzers {
		a, err := analysis.New(name)
		if err != nil {
			return nil, err
		}
		if a.NeedsMO() && c.mo == nil {
			continue
		}
		needTrace = needTrace || a.NeedsTrace()
		c.analyzers = append(c.analyzers, a)
	}
	c.eng.SetTrace(needTrace)
	c.ax = analysis.Exec{Tool: s.tool.Name, Program: s.program(), Litmus: s.test != nil, Engine: c.eng, MO: c.mo}
	return c, nil
}

func (c *cell) close() { c.eng.Close() }

// execute runs one execution of the cell's program.
func (c *cell) execute(seed int64) *capi.Result {
	c.out = ""
	return c.eng.Execute(c.prog, seed)
}

// check runs axiom validation on the last execution. An infeasible lifting
// is returned as an error, the way the campaign records it as a failure.
func (c *cell) check() ([]axiom.Violation, error) {
	var vs []axiom.Violation
	if ie := core.RecoverInfeasible(func() {
		vs = axiom.Check(axiom.FromEngine(c.eng, c.mo))
	}); ie != nil {
		return nil, ie
	}
	return vs, nil
}

// analyze hands the last execution to every analyzer and returns the number
// of findings and of analyzers that hit an infeasible lifting.
func (c *cell) analyze(res *capi.Result, i int, seed int64) (findings, failures int) {
	c.ax.Result, c.ax.Index, c.ax.Seed, c.ax.Outcome = res, i, seed, c.out
	for _, a := range c.analyzers {
		var n int
		if ie := core.RecoverInfeasible(func() { n = len(a.Observe(&c.ax)) }); ie != nil {
			failures++
			continue
		}
		findings += n
	}
	return findings, failures
}

// tally is what one leg observed on one cell in one round: the quantities
// the raw and campaign legs must agree on exactly, plus the failure counts.
type tally struct {
	execs    int // executions that completed (engine failures excluded)
	failures int // engine failures, including infeasible liftings in post duties
	detected int // benchmark signal hits; forbidden outcomes on litmus cells
	outcomes map[string]int
	races    map[string]bool
	// Soundness failures: forbidden litmus outcomes, executions with a race
	// inside a litmus program, and axiom violations.
	forbidden  int
	litmusRace int
	violations int
	weakSeen   map[string]bool
	// seen collects raw-leg races by comparable identity, so recording a
	// race already seen allocates nothing; finish renders them into races.
	seen map[raceID]bool
}

// raceID is the comparable identity behind capi.RaceReport.Key.
type raceID struct {
	loc         string
	prior, kind memmodel.Kind
}

func newTally() *tally {
	return &tally{outcomes: map[string]int{}, races: map[string]bool{}, weakSeen: map[string]bool{}, seen: map[raceID]bool{}}
}

// finish renders the races observe collected into their report keys.
func (t *tally) finish() {
	for id := range t.seen {
		t.races[capi.RaceReport{LocName: id.loc, PriorKind: id.prior, Kind: id.kind}.Key()] = true
	}
}

// failed counts the executions that count as failed in fail_frac.
func (t *tally) failed() int { return t.failures + t.forbidden + t.litmusRace + t.violations }

// observe folds one finished execution of c into t.
func (t *tally) observe(c *cell, res *capi.Result) {
	if res.EngineError != nil {
		t.failures++
		return
	}
	t.execs++
	for _, r := range res.Races {
		t.seen[raceID{r.LocName, r.PriorKind, r.Kind}] = true
	}
	if c.test == nil {
		if c.bench.Signal.Hit(res) {
			t.detected++
		}
		return
	}
	if len(res.Races) > 0 {
		t.litmusRace++
	}
	if c.out == "" {
		return
	}
	t.outcomes[c.out]++
	if c.test.Forbidden[c.out] || (c.tool.Baseline && c.test.BaselineForbidden[c.out]) {
		t.forbidden++
		t.detected++
	}
	if c.test.Weak[c.out] {
		t.weakSeen[c.out] = true
	}
}

// campaignTallies splits a campaign summary into per-cell tallies keyed like
// cellSpec.key. Litmus races are reported per tool, not per cell; agree
// compares them as per-tool unions.
func campaignTallies(sum *campaign.Summary) map[string]*tally {
	out := map[string]*tally{}
	for _, ts := range sum.Tools {
		for _, b := range ts.Benchmarks {
			t := newTally()
			t.execs, t.failures, t.detected = b.Detection.Runs, b.Failed, b.Detection.Detected
			for _, k := range b.RaceKeys {
				t.races[k] = true
			}
			out[ts.Tool+"/"+b.Program] = t
		}
		for _, l := range ts.Litmus {
			t := newTally()
			t.execs, t.failures = l.Execs, l.Failed
			for o, n := range l.Outcomes {
				t.outcomes[o] = n
			}
			for _, f := range l.ForbiddenSeen {
				t.forbidden += f.Count
			}
			t.detected = t.forbidden
			for _, r := range ts.UnexpectedRaces {
				if r.Repro.Program == l.Test {
					t.races[r.Key] = true
				}
			}
			out[ts.Tool+"/"+l.Test] = t
		}
	}
	return out
}

// campaignFailed counts the failed executions of a campaign round: engine
// failures, forbidden outcomes, litmus races, and axiom violations.
func campaignFailed(sum *campaign.Summary) int {
	n := sum.EngineFailures() + len(sum.UnexpectedRaces()) + sum.AxiomViolations()
	for _, f := range sum.Forbidden() {
		n += f.Count
	}
	return n
}

// agree compares a raw leg's tallies with the campaign's for one round and
// returns one line per disagreement. Race keys are a pure function of (tool,
// program, seed), so they must match per cell; the campaign deduplicates
// litmus races per tool, so those are compared as per-tool unions.
func agree(leg string, specs []cellSpec, raw map[string]*tally, camp map[string]*tally) []string {
	var diffs []string
	litRaw, litCamp := map[string]map[string]bool{}, map[string]map[string]bool{}
	for _, s := range specs {
		k := s.key()
		r, c := raw[k], camp[k]
		if c == nil {
			diffs = append(diffs, fmt.Sprintf("%s: cell %s missing from the campaign summary", leg, k))
			continue
		}
		if r.execs != c.execs || r.failures != c.failures || r.detected != c.detected {
			diffs = append(diffs, fmt.Sprintf("%s: cell %s: execs/failures/detected raw %d/%d/%d, campaign %d/%d/%d",
				leg, k, r.execs, r.failures, r.detected, c.execs, c.failures, c.detected))
		}
		if !sameCounts(r.outcomes, c.outcomes) {
			diffs = append(diffs, fmt.Sprintf("%s: cell %s: litmus outcomes raw %v, campaign %v", leg, k, r.outcomes, c.outcomes))
		}
		if s.test != nil {
			union(litRaw, s.tool.Name, r.races)
			union(litCamp, s.tool.Name, c.races)
		} else if !sameSet(r.races, c.races) {
			diffs = append(diffs, fmt.Sprintf("%s: cell %s: race keys raw %v, campaign %v", leg, k, keys(r.races), keys(c.races)))
		}
	}
	for tool, rs := range litRaw {
		if !sameSet(rs, litCamp[tool]) {
			diffs = append(diffs, fmt.Sprintf("%s: tool %s: litmus race keys raw %v, campaign %v", leg, tool, keys(rs), keys(litCamp[tool])))
		}
	}
	return diffs
}

func union(m map[string]map[string]bool, k string, set map[string]bool) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	for x := range set {
		m[k][x] = true
	}
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
