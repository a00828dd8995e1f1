package main

import (
	"runtime"
	"sync/atomic"

	"c11tester/internal/campaign"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/obs"
)

// buildCounter counts calls to the campaign's ToolSpec factories.
type buildCounter struct{ n atomic.Int64 }

// wrap returns ts with a New that counts each call and returns the tool the
// original factory built, unchanged.
func (b *buildCounter) wrap(ts campaign.ToolSpec) campaign.ToolSpec {
	inner := ts.New
	ts.New = func() capi.Tool {
		b.n.Add(1)
		return inner()
	}
	return ts
}

// work sums per-execution quantities over a set of raw-leg executions. The
// count fields are pure functions of (tool, program, seed); the time fields
// are filled on traced legs only.
type work struct {
	Execs        int64 `json:"execs"`
	Steps        int64 `json:"steps"`
	Choices      int64 `json:"choices"`
	Actions      int64 `json:"actions"`
	RaceAccesses int64 `json:"race_accesses"`
	RaceReports  int64 `json:"race_reports"`
	Findings     int64 `json:"findings"`
	// C11Execs are executions on C11Model cells (the mograph counters and
	// model calls cover them); BaseExecs on commit-order baseline cells.
	C11Execs   int64 `json:"c11_execs"`
	MONodes    int64 `json:"mograph_nodes"`
	MOEdges    int64 `json:"mograph_edges"`
	MOMerges   int64 `json:"mograph_merge_ops"`
	BaseExecs  int64 `json:"baseline_execs"`
	ModelCalls int64 `json:"model_calls,omitempty"`
	BaseCalls  int64 `json:"baseline_calls,omitempty"`

	// Traced legs: per-execution child totals, in nanoseconds. SpanNS is the
	// execution span (Execute plus post duties); RunNS contains WaitNS,
	// C11NS/BaseNS (model self time), DrawNS and RaceNS.
	SpanNS, ResetNS, RunNS, WaitNS, DrawNS, RaceNS int64 `json:"-"`
	C11NS, BaseNS                                  int64 `json:"-"`
	AxiomNS, AnalysisNS                            int64 `json:"-"`
	AxiomExecs, AnalysisExecs                      int64 `json:"-"`
}

// addExec folds the counters of c's last execution into w.
func (w *work) addExec(c *cell, res *capi.Result) {
	st := c.eng.ExecStats()
	w.Execs++
	w.Steps += int64(st.Steps)
	w.Choices += int64(st.Choices)
	w.Actions += int64(c.eng.ActionCount())
	w.RaceAccesses += int64(res.Stats.AtomicOps + res.Stats.NormalOps)
	w.RaceReports += int64(len(res.Races))
	if c.c11 != nil {
		g := c.c11.Graph()
		w.C11Execs++
		w.MONodes += int64(g.NodeCount())
		w.MOEdges += int64(g.EdgeCount())
		w.MOMerges += int64(g.MergeOps())
	} else {
		w.BaseExecs++
	}
	if c.clock == nil {
		return
	}
	w.ResetNS += st.PhaseNS[core.PhaseReset]
	w.RunNS += st.PhaseNS[core.PhaseRun]
	w.RaceNS += st.PhaseNS[core.PhaseRace]
	w.WaitNS += st.HandoffWaitNS
	w.DrawNS += c.clock.drawNS
	if c.c11 != nil {
		w.ModelCalls += c.clock.modelCalls
		w.C11NS += c.clock.modelSelfNS()
	} else {
		w.BaseCalls += c.clock.modelCalls
		w.BaseNS += c.clock.modelSelfNS()
	}
}

func (w *work) add(o *work) {
	w.Execs += o.Execs
	w.Steps += o.Steps
	w.Choices += o.Choices
	w.Actions += o.Actions
	w.RaceAccesses += o.RaceAccesses
	w.RaceReports += o.RaceReports
	w.Findings += o.Findings
	w.C11Execs += o.C11Execs
	w.MONodes += o.MONodes
	w.MOEdges += o.MOEdges
	w.MOMerges += o.MOMerges
	w.BaseExecs += o.BaseExecs
	w.ModelCalls += o.ModelCalls
	w.BaseCalls += o.BaseCalls
	w.SpanNS += o.SpanNS
	w.ResetNS += o.ResetNS
	w.RunNS += o.RunNS
	w.WaitNS += o.WaitNS
	w.DrawNS += o.DrawNS
	w.RaceNS += o.RaceNS
	w.C11NS += o.C11NS
	w.BaseNS += o.BaseNS
	w.AxiomNS += o.AxiomNS
	w.AnalysisNS += o.AnalysisNS
	w.AxiomExecs += o.AxiomExecs
	w.AnalysisExecs += o.AnalysisExecs
}

// counts returns w's execution counters without the model-call counts and
// the times, which only traced legs fill: what any two legs over the same
// seeds must agree on.
func (w work) counts() work {
	return work{Execs: w.Execs, Steps: w.Steps, Choices: w.Choices, Actions: w.Actions,
		RaceAccesses: w.RaceAccesses, RaceReports: w.RaceReports, Findings: w.Findings,
		C11Execs: w.C11Execs, MONodes: w.MONodes, MOEdges: w.MOEdges, MOMerges: w.MOMerges,
		BaseExecs: w.BaseExecs}
}

// runSelfNS is the run phase minus its attributed children: the engine's
// own dispatch work, reported as the unattributed remainder of the run.
func (w *work) runSelfNS() int64 {
	return w.RunNS - w.WaitNS - w.C11NS - w.BaseNS - w.DrawNS - w.RaceNS
}

// otherNS is the execution span minus reset, run and post duties: Execute's
// work outside its phases plus the benchmark's own bookkeeping.
func (w *work) otherNS() int64 { return w.SpanNS - w.ResetNS - w.RunNS - w.AxiomNS - w.AnalysisNS }

// rawLeg is one serial caller running warm Engine.Execute on one tool
// instance per cell.
type rawLeg struct {
	name  string
	cells []*cell
	// clock times the executions: cpuNS on an end-to-end run, wallNS on a
	// traced run and the probe, whose layer times are wall times.
	clock func() int64
	// samples holds the current round's execution times in nanoseconds when
	// the percentiles are wanted; roundP50 and roundP99 keep each round's.
	keepSamples        bool
	samples            []int64
	roundP50, roundP99 []float64
	// roundEPS is each round's executions per second of execution time.
	roundEPS []float64
	execs    int64 // attempted executions
	busyNS   int64 // summed execution spans
	work     work  // all rounds
	round0   work
	spawns   int64 // worker spawns in rounds after the first
	// Outcome accounting across rounds (quality metrics).
	weak      map[string]map[string]bool
	raceKeys  map[string]bool
	detected  int64
	benchRuns int64
}

func newRawLeg(name string, cells []*cell, clock func() int64, keepSamples bool) *rawLeg {
	return &rawLeg{name: name, cells: cells, clock: clock, keepSamples: keepSamples,
		weak: map[string]map[string]bool{}, raceKeys: map[string]bool{}}
}

func (l *rawLeg) close() {
	for _, c := range l.cells {
		c.close()
	}
}

func (l *rawLeg) workerSpawns() int64 {
	var n int64
	for _, c := range l.cells {
		n += int64(c.eng.WorkerSpawns())
	}
	return n
}

// round runs round r: runs executions per cell at seeds base, base+1, …. It
// returns the per-cell tallies. The leg is one serial caller, so the Go
// scheduler gets one P while it runs: with two, a handoff between the
// engine's goroutines can wake the idle P, whose spinning the CPU clock
// then charges to the leg in amounts that depend on the rest of the host.
func (l *rawLeg) round(r, runs int, base int64, sp *spanLog, legSpan int) map[string]*tally {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spawns0 := l.workerSpawns()
	execs0, busy0 := l.execs, l.busyNS
	l.samples = l.samples[:0]
	tallies := map[string]*tally{}
	var rw work
	for _, c := range l.cells {
		t := newTally()
		cs := sp.begin(legSpan, "cell:"+c.key(), base)
		for i := 0; i < runs; i++ {
			l.one(c, i, base+int64(i), t, &rw, sp, cs)
		}
		sp.end(cs)
		t.finish()
		tallies[c.key()] = t
		l.fold(c, t)
	}
	l.roundEPS = append(l.roundEPS, float64(l.execs-execs0)/(float64(l.busyNS-busy0)/1e9))
	if l.keepSamples {
		l.roundP50 = append(l.roundP50, percentile(l.samples, 0.50))
		l.roundP99 = append(l.roundP99, percentile(l.samples, 0.99))
	}
	if r == 0 {
		l.round0 = rw
	} else {
		l.spawns += l.workerSpawns() - spawns0
	}
	l.work.add(&rw)
	return tallies
}

// one runs a single execution with its post duties. The execution span is
// the time in Execute plus the time in the post duties; the benchmark's own
// bookkeeping between them is left out.
func (l *rawLeg) one(c *cell, i int, seed int64, t *tally, w *work, sp *spanLog, cellSpan int) {
	if c.clock != nil {
		c.clock.reset()
	}
	t0 := l.clock()
	res := c.execute(seed)
	execNS := l.clock() - t0
	ok := res.EngineError == nil
	if ok {
		w.addExec(c, res)
	}
	var axiomNS, analysisNS int64
	if ok && c.validate {
		a0 := l.clock()
		vs, err := c.check()
		axiomNS = l.clock() - a0
		w.AxiomExecs++
		if err != nil {
			t.failures++
			ok = false
		}
		t.violations += len(vs)
	}
	if ok && len(c.analyzers) > 0 {
		a0 := l.clock()
		n, fails := c.analyze(res, i, seed)
		analysisNS = l.clock() - a0
		w.AnalysisExecs++
		w.Findings += int64(n)
		t.failures += fails
	}
	t.observe(c, res)
	span := execNS + axiomNS + analysisNS
	l.execs++
	l.busyNS += span
	if l.keepSamples {
		l.samples = append(l.samples, span)
	}
	if c.clock != nil {
		w.SpanNS += span
		w.AxiomNS += axiomNS
		w.AnalysisNS += analysisNS
		st := c.eng.ExecStats()
		sp.exec(cellSpan, seed, t0, span, children{
			Reset: st.PhaseNS[core.PhaseReset], Run: st.PhaseNS[core.PhaseRun],
			HandoffWait: st.HandoffWaitNS, Model: c.clock.modelSelfNS(), Strategy: c.clock.drawNS,
			Race: st.PhaseNS[core.PhaseRace], Axiom: axiomNS, Analysis: analysisNS,
		})
	}
}

// fold adds a cell's round tally to the leg's outcome accounting.
func (l *rawLeg) fold(c *cell, t *tally) {
	for k := range t.races {
		l.raceKeys[c.key()+"/"+k] = true
	}
	if c.test != nil {
		if l.weak[c.key()] == nil {
			l.weak[c.key()] = map[string]bool{}
		}
		for o := range t.weakSeen {
			l.weak[c.key()][o] = true
		}
		return
	}
	l.detected += int64(t.detected)
	l.benchRuns += int64(t.execs)
}

// weakCoverage is weak outcomes seen over weak outcomes defined, across the
// leg's litmus cells (0 when the leg has none).
func (l *rawLeg) weakCoverage() float64 {
	var seen, defined int
	for _, c := range l.cells {
		if c.test == nil {
			continue
		}
		seen += len(l.weak[c.key()])
		defined += len(c.test.Weak)
	}
	if defined == 0 {
		return 0
	}
	return float64(seen) / float64(defined)
}

// campaignLeg runs campaign.Run the way cmd/c11tester -q -workers 1 does:
// telemetry from campaign.SetupTelemetry, default chunking, one worker. Like
// the raw leg it runs on one P, so it measures the campaign path's cost per
// execution rather than how a shared host schedules parallel workers.
type campaignLeg struct {
	spec     campaign.Spec
	builds   *buildCounter
	execs    int64
	busyNS   int64
	alloc    uint64
	gcPause  uint64
	numGC    int64
	rounds   int64
	events   uint64
	phaseSum map[string]uint64
	phaseN   map[string]uint64
	// Round-0 exact counters.
	round0Builds int64
	round0Alloc  float64
	// clock times the rounds, as on the raw legs; roundEPS is each round's
	// executions per second of it.
	clock    func() int64
	roundEPS []float64
}

func newCampaignLeg(w workload, m matrix, clock func() int64) (*campaignLeg, error) {
	bc := &buildCounter{}
	spec := campaign.Spec{
		Benchmarks: m.bench, Litmus: m.litmus,
		Workers:        1,
		ValidateAxioms: w.validate,
		Analyzers:      w.analyzers,
		Runs:           w.runs,
	}
	for _, ts := range m.tools {
		spec.Tools = append(spec.Tools, bc.wrap(ts))
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &campaignLeg{spec: spec, builds: bc, clock: clock, phaseSum: map[string]uint64{}, phaseN: map[string]uint64{}}, nil
}

// round runs one campaign over the leg's matrix at the given seed base.
func (l *campaignLeg) round(base int64) (*campaign.Summary, error) {
	builds0 := l.builds.n.Load()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t0 := l.clock()
	tel, cleanup, err := campaign.SetupTelemetry("perfbench", campaign.TelemetryFlags{Quiet: true})
	if err != nil {
		return nil, err
	}
	spec := l.spec
	spec.SeedBase = base
	spec.Telemetry = tel
	sum := campaign.Run(spec)
	cleanup()
	ns := l.clock() - t0

	execs := int64(spec.Runs * len(spec.Tools) * (len(spec.Benchmarks) + len(spec.Litmus)))
	if l.rounds == 0 {
		l.round0Builds = l.builds.n.Load() - builds0
		l.round0Alloc = float64(sum.GC.AllocBytes)
	}
	l.rounds++
	l.roundEPS = append(l.roundEPS, float64(execs)/(float64(ns)/1e9))
	l.execs += execs
	l.busyNS += ns
	l.alloc += sum.GC.AllocBytes
	l.gcPause += sum.GC.PauseTotalNS
	l.numGC += int64(sum.GC.NumGC)
	if sum.Obs != nil {
		l.events += sum.Obs.EventsEmitted
	}
	for _, ts := range sum.Tools {
		for _, b := range ts.Benchmarks {
			l.addPhases(b.Phases)
		}
		for _, lt := range ts.Litmus {
			l.addPhases(lt.Phases)
		}
	}
	return sum, nil
}

func (l *campaignLeg) addPhases(ph map[string]*obs.HistogramSnapshot) {
	for name, h := range ph {
		l.phaseSum[name] += h.Sum
		l.phaseN[name] += h.Count
	}
}

// phaseUS is the mean of one phase histogram in microseconds.
func (l *campaignLeg) phaseUS(name string) float64 {
	if l.phaseN[name] == 0 {
		return 0
	}
	return float64(l.phaseSum[name]) / float64(l.phaseN[name]) / 1e3
}

// execsPerS is the median over rounds of the campaign's executions per
// second of its clock.
func (l *campaignLeg) execsPerS() float64 { return median(l.roundEPS) }
