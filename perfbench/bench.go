package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"c11tester/internal/campaign"
)

const (
	// setupReps is how many times an end-to-end run builds every cell and
	// runs its cold execution, each time at the next seed; setup_s is the
	// median.
	setupReps = 101
	// probeRuns is the per-cell budget of the traced run's probe pass, and
	// allocRuns the number of those executions whose post duties are
	// bracketed by heap-allocation reads.
	probeRuns = 20
	allocRuns = 10
	// probeCampaignRuns is the per-cell budget of the probe campaign that
	// times the validate phase on workloads whose campaign leg does not
	// validate.
	probeCampaignRuns = 25
)

// config is one invocation of the benchmark.
type config struct {
	w      workload
	seed   int64
	dur    time.Duration
	traced bool
}

// seedBase is the first seed of round r: rounds use consecutive, disjoint
// seed ranges derived from the run's seed.
func (c config) seedBase(r int) int64 {
	return c.seed*10_000_000 + int64(r)*int64(c.w.runs)
}

// result is what a run measured and checked.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	counters  counterRecord
	notes     []string
	spans     *spanLog
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// buildCells builds one cell per spec and runs its first, cold execution at
// seed. timing turns on the phase and handoff-wait clocks the campaign uses.
func buildCells(specs []cellSpec, w workload, traced, timing bool, seed int64, res *result) ([]*cell, error) {
	cells := make([]*cell, 0, len(specs))
	for _, s := range specs {
		c, err := newCell(s, w.validate, w.analyzers, traced)
		if err != nil {
			return nil, err
		}
		if timing {
			c.eng.SetPhaseTiming(true)
			c.eng.SetHandoffTiming(true)
		}
		res.attempted++
		if r := c.execute(seed); r.EngineError != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("setup: %s seed %d: %v", s.key(), seed, r.EngineError))
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// setup builds every cell setupReps times, each time from a collected heap,
// and returns the last set with the median build time in seconds of process
// CPU time. It runs serially on one P, like the raw leg. Set-up k runs the
// cold executions at seed+k: one cold execution's cost depends much on its
// seed, so a single seed would make setup_s a property of that seed.
func setup(specs []cellSpec, w workload, seed int64, res *result) ([]*cell, float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var times []float64
	var cells []*cell
	for k := 0; k < setupReps; k++ {
		for _, c := range cells {
			c.close()
		}
		runtime.GC()
		t0 := cpuNS()
		var err error
		if cells, err = buildCells(specs, w, false, false, seed+int64(k), res); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(cpuNS()-t0)/1e9)
	}
	return cells, median(times), nil
}

// spread renders min/median/max of xs.
func spread(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.0f/%.0f/%.0f", s[0], median(s), s[len(s)-1])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates the q-quantile of xs linearly between order
// statistics.
func percentile[T int64 | float64](xs []T, q float64) float64 {
	s := append([]T(nil), xs...)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])
}

func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// run executes one benchmark run: set-up, then measurement rounds until the
// configured duration has passed (at least two rounds), each round a
// campaign leg and the raw legs over the same seeds, checked against each
// other. A traced run adds a timing-clock leg, a traced leg and a probe.
func run(cfg config) (*result, error) {
	w := cfg.w
	m, err := w.matrix()
	if err != nil {
		return nil, err
	}
	specs := m.cells()
	// End-to-end runs time every leg by the process's CPU clock. A traced
	// run uses the wall clock, in which its layer times are measured.
	clock := cpuNS
	if cfg.traced {
		clock = wallNS
	}
	camp, err := newCampaignLeg(w, m, clock)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	var sp *spanLog
	if cfg.traced {
		sp = newSpanLog()
		res.spans = sp
	}
	wspan := sp.begin(0, "workload:"+w.name, cfg.seed)
	base0 := cfg.seedBase(0)

	// Set-up: every cell's tool and program plus its cold execution.
	var legs []*rawLeg
	if !cfg.traced {
		ref0, err := readReference()
		if err != nil {
			return nil, err
		}
		cells, setupS, err := setup(specs, w, base0, res)
		if err != nil {
			return nil, err
		}
		ref1, err := readReference()
		if err != nil {
			return nil, err
		}
		ref := (ref0 + ref1) / 2
		res.metrics["setup_s"] = setupS / (ref / 1e9) * nominalRefOpS
		res.notef("set-up: %.3f ms of CPU time; one reference op %.3f ms", setupS*1e3, ref/1e6)
		legs = append(legs, newRawLeg("raw", cells, clock, true))
	} else {
		for _, v := range []struct {
			name           string
			traced, timing bool
		}{{"raw", false, false}, {"raw-timing", false, true}, {"traced", true, false}} {
			cells, err := buildCells(specs, w, v.traced, v.timing, base0, res)
			if err != nil {
				return nil, err
			}
			legs = append(legs, newRawLeg(v.name, cells, clock, false))
		}
	}
	defer func() {
		for _, l := range legs {
			l.close()
		}
	}()
	plain := legs[0]

	campSpan := sp.begin(wspan, "leg:campaign", base0)
	legSpans := make([]int, len(legs))
	for i, l := range legs {
		legSpans[i] = sp.begin(wspan, "leg:"+l.name, base0)
	}
	// Every leg starts from a collected heap, so no leg pays for the
	// garbage of the one before it. An untraced run also reads the
	// reference there (see ref.go).
	var refs []float64
	collect := func() error {
		runtime.GC()
		if cfg.traced {
			return nil
		}
		ns, err := readReference()
		refs = append(refs, ns)
		return err
	}
	start := time.Now()
	rounds := 0
	for r := 0; r < 2 || time.Since(start) < cfg.dur; r++ {
		base := cfg.seedBase(r)
		if r == 0 {
			if err := collect(); err != nil {
				return nil, err
			}
		}
		rs := sp.begin(campSpan, "round", base)
		sum, err := camp.round(base)
		if err != nil {
			return nil, err
		}
		sp.end(rs)
		res.failed += int64(campaignFailed(sum))
		ct := campaignTallies(sum)
		for i, l := range legs {
			if err := collect(); err != nil {
				return nil, err
			}
			tallies := l.round(r, w.runs, base, sp, legSpans[i])
			for _, t := range tallies {
				res.failed += int64(t.failed())
			}
			diffs := agree(fmt.Sprintf("round %d %s", r, l.name), specs, tallies, ct)
			res.problems = append(res.problems, diffs...)
			res.failed += int64(len(diffs) * w.runs)
		}
		if err := collect(); err != nil {
			return nil, err
		}
		rounds++
	}
	sp.end(campSpan)
	for i := range legs {
		sp.end(legSpans[i])
	}
	res.attempted += camp.execs
	for _, l := range legs {
		res.attempted += l.execs
	}

	res.notef("workload %s seed %d: %d rounds of %d executions per cell over %d cells",
		w.name, cfg.seed, rounds, w.runs, len(specs))
	clockName := "CPU"
	if cfg.traced {
		clockName = "wall"
	}
	res.notef("campaign leg: %d executions in %.3f s; raw leg: %d executions in %.3f s of execution time (%s clock)",
		camp.execs, float64(camp.busyNS)/1e9, plain.execs, float64(plain.busyNS)/1e9, clockName)
	res.notef("per-round execs/s, min/median/max: campaign %s; raw %s", spread(camp.roundEPS), spread(plain.roundEPS))

	res.counters = counterRecord{
		Workload: w.name, Seed: cfg.seed, Runs: w.runs, Trace: cfg.traced,
		Raw: plain.round0, ToolBuilds: camp.round0Builds, WorkerSpawns: plain.spawns,
		CampaignAllocB: camp.round0Alloc,
	}
	if !cfg.traced {
		// Each timing is the slower quartile over rounds. Other guests leave
		// the machine idle in bursts of seconds, and rounds that fall in one
		// run up to 40% faster; how many do varies from run to run, which
		// moves the median with it. The slower quartile reads the machine in
		// its usual, shared state.
		campEPR, rawEPR, p50, p99 := inRefOps(refs, camp, plain)
		res.metrics["execs_per_refop"] = percentile(campEPR, 0.25)
		res.metrics["engine_execs_per_refop"] = percentile(rawEPR, 0.25)
		res.metrics["engine_p50_refop"] = percentile(p50, 0.75)
		res.metrics["engine_p99_refop"] = percentile(p99, 0.75)
		res.notef("in CPU time: campaign %.0f execs/s, engine %.0f execs/s, engine p50 %.2f us, p99 %.1f us; one reference op %.3f ms (median of %d readings)",
			percentile(camp.roundEPS, 0.25), percentile(plain.roundEPS, 0.25),
			percentile(plain.roundP50, 0.75)/1e3, percentile(plain.roundP99, 0.75)/1e3, median(refs)/1e6, len(refs))
		res.metrics["alloc_b_per_exec"] = float64(camp.alloc) / float64(camp.execs)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.metrics["peak_rss_mb"] = rss
		res.notef("engine_p50_refop and engine_p99_refop are the upper quartiles over %d rounds of per-round percentiles, each over %d executions",
			rounds, w.runs*len(specs))
	} else if err := tracedMetrics(cfg, m, camp, legs, res, wspan); err != nil {
		return nil, err
	}
	sp.end(wspan)

	// Quality of the results, from the plain raw leg (the campaign agrees
	// with it cell by cell). Traced runs report them as metrics.
	outcome := map[string]float64{
		"outcome.detect_rate":   ratio(float64(plain.detected), float64(plain.benchRuns)),
		"outcome.weak_coverage": plain.weakCoverage(),
		"outcome.race_keys":     float64(len(plain.raceKeys)),
		"outcome.fail_frac":     ratio(float64(res.failed), float64(res.attempted)),
	}
	if cfg.traced {
		for k, v := range outcome {
			res.metrics[k] = v
		}
	}
	res.notef("quality: detect_rate %.4f, weak_coverage %.4f, race_keys %.0f, fail_frac %g",
		outcome["outcome.detect_rate"], outcome["outcome.weak_coverage"], outcome["outcome.race_keys"], outcome["outcome.fail_frac"])
	return res, nil
}

// tracedMetrics computes the per-layer metrics of a traced run from its
// legs, then runs the probe for layers the workload's legs do not exercise.
func tracedMetrics(cfg config, m matrix, camp *campaignLeg, legs []*rawLeg, res *result, wspan int) error {
	w := cfg.w
	plain, timing, traced := legs[0], legs[1], legs[2]
	tw, t0 := &traced.work, &traced.round0
	res.counters.Raw = *t0
	// Instrumentation must not change what executes: the traced leg's
	// round-0 work must equal the plain leg's, model calls aside.
	if plain.round0.counts() != t0.counts() {
		res.problems = append(res.problems, fmt.Sprintf("traced leg round-0 counters %+v differ from the plain leg's %+v", *t0, plain.round0))
	}

	probe, err := runProbe(cfg, m, res, wspan)
	if err != nil {
		return err
	}
	defer probe.leg.close()
	pv := &probe.leg.work

	perExec := func(ns, n int64) float64 { return ratio(float64(ns), float64(n)) / 1e3 }
	count := func(x, n int64) float64 { return ratio(float64(x), float64(n)) }
	engineEPS := median(plain.roundEPS)
	mt := res.metrics
	mt["campaign.tool_builds"] = float64(camp.round0Builds)
	mt["campaign.overhead_frac"] = 1 - camp.execsPerS()/engineEPS
	mt["campaign.gc_pause_ms"] = float64(camp.gcPause) / float64(camp.rounds) / 1e6
	mt["campaign.num_gc"] = float64(camp.numGC) / float64(camp.rounds)
	mt["campaign.phase_reset_us"] = camp.phaseUS("reset")
	mt["campaign.phase_run_us"] = camp.phaseUS("run")
	mt["campaign.phase_race_us"] = camp.phaseUS("race")
	mt["campaign.phase_validate_us"] = camp.phaseUS("validate")
	if !w.validate {
		mt["campaign.phase_validate_us"] = probe.validateUS
	}
	mt["obs.timing_overhead_frac"] = float64(timing.busyNS)/float64(plain.busyNS) - 1
	mt["obs.events_emitted"] = float64(camp.events)
	mt["bench.trace_overhead_frac"] = 1 - float64(plain.busyNS)/float64(traced.busyNS)

	mt["core.reset_us"] = perExec(tw.ResetNS, tw.Execs)
	mt["core.run_self_us"] = perExec(tw.runSelfNS(), tw.Execs)
	mt["core.exec_other_us"] = perExec(tw.otherNS(), tw.Execs)
	mt["core.steps_per_exec"] = count(t0.Steps, t0.Execs)
	mt["core.actions_per_exec"] = count(t0.Actions, t0.Execs)
	mt["sched.handoff_wait_us"] = perExec(tw.WaitNS, tw.Execs)
	mt["sched.wait_us_per_step"] = perExec(tw.WaitNS, tw.Steps)
	mt["sched.worker_spawns"] = float64(plain.spawns)
	mt["rng.draws_per_exec"] = count(t0.Choices, t0.Execs)
	mt["rng.draw_us"] = perExec(tw.DrawNS, tw.Execs)
	mt["model.us_per_exec"] = perExec(tw.C11NS, tw.C11Execs)
	mt["model.calls_per_exec"] = count(t0.ModelCalls, t0.C11Execs)
	mt["mograph.nodes_per_exec"] = count(t0.MONodes, t0.C11Execs)
	mt["mograph.edges_per_exec"] = count(t0.MOEdges, t0.C11Execs)
	mt["mograph.merge_ops_per_exec"] = count(t0.MOMerges, t0.C11Execs)
	mt["race.us_per_exec"] = perExec(tw.RaceNS, tw.Execs)
	mt["race.accesses_per_exec"] = count(t0.RaceAccesses, t0.Execs)
	mt["race.reports_per_exec"] = count(t0.RaceReports, t0.Execs)

	// Layers the legs may not run come from the probe.
	base, axiomSrc, analysisSrc, findings := tw, tw, tw, t0.Findings
	if tw.BaseExecs == 0 {
		base = pv
	}
	if !w.validate {
		axiomSrc = pv
	}
	if len(w.analyzers) == 0 {
		analysisSrc, findings = pv, pv.Findings
	}
	mt["baseline.us_per_exec"] = perExec(base.BaseNS, base.BaseExecs)
	mt["axiom.us_per_exec"] = perExec(axiomSrc.AxiomNS, axiomSrc.AxiomExecs)
	mt["axiom.alloc_b_per_exec"] = probe.axiomAlloc
	mt["analysis.us_per_exec"] = perExec(analysisSrc.AnalysisNS, analysisSrc.AnalysisExecs)
	mt["analysis.alloc_b_per_exec"] = probe.analysisAlloc
	mt["analysis.findings"] = float64(findings)
	res.counters.Probe = &probe.leg.round0
	res.counters.AxiomAllocB, res.counters.AnalysisAllocB = probe.axiomAlloc, probe.analysisAlloc

	// The layer self times and the two unattributed remainders (run self,
	// execution other) must add up to the traced leg's own execution time,
	// and no remainder may be negative: a negative one means two layers
	// were counted over the same interval.
	layers := []struct {
		name string
		ns   int64
	}{
		{"reset", tw.ResetNS}, {"handoff_wait", tw.WaitNS}, {"model", tw.C11NS}, {"baseline", tw.BaseNS},
		{"strategy", tw.DrawNS}, {"race", tw.RaceNS}, {"run_self", tw.runSelfNS()},
		{"axiom", tw.AxiomNS}, {"analysis", tw.AnalysisNS}, {"other", tw.otherNS()},
	}
	var sum int64
	line := "traced leg µs/exec:"
	for _, l := range layers {
		sum += l.ns
		line += fmt.Sprintf(" %s %.3f", l.name, perExec(l.ns, tw.Execs))
		if l.ns < 0 {
			res.problems = append(res.problems, fmt.Sprintf("layer accounting: %s remainder is negative (%d ns)", l.name, l.ns))
		}
	}
	res.notef("%s = %.3f (leg %.3f over %d executions)", line, perExec(sum, tw.Execs), perExec(traced.busyNS, traced.execs), traced.execs)
	if sum != traced.busyNS {
		res.problems = append(res.problems, fmt.Sprintf("layer accounting: layers sum to %d ns, the traced leg measured %d ns", sum, traced.busyNS))
	}
	return nil
}

// probe holds what the traced run's probe pass measured.
type probe struct {
	leg                       *rawLeg
	validateUS                float64
	axiomAlloc, analysisAlloc float64
}

// runProbe measures, on the workload's own programs and outside both legs,
// the layers a workload's legs may not run: the post duties (c11tester with
// validation and every analyzer) and the commit-order baseline model
// (tsan11), plus the campaign's validate phase. On the audit workload only
// the baseline and the post-duty allocations come from here.
func runProbe(cfg config, m matrix, res *result, wspan int) (*probe, error) {
	w := cfg.w
	post := workload{name: "probe", tools: []string{"c11tester"}, validate: true,
		analyzers: campaign.ParseAnalyzers("all"), runs: probeCampaignRuns}
	pm := matrix{bench: m.bench, litmus: m.litmus}
	c11, err := campaign.StandardTool("c11tester", campaign.ToolOptions{})
	if err != nil {
		return nil, err
	}
	pm.tools = []campaign.ToolSpec{c11}
	cells, err := buildCells(pm.cells(), post, true, false, cfg.seedBase(0), res)
	if err != nil {
		return nil, err
	}
	hasBaseline := false
	for _, t := range m.tools {
		hasBaseline = hasBaseline || t.Baseline
	}
	if !hasBaseline {
		tsan, err := campaign.StandardTool("tsan11", campaign.ToolOptions{})
		if err != nil {
			return nil, err
		}
		bm := matrix{tools: []campaign.ToolSpec{tsan}, bench: m.bench, litmus: m.litmus}
		more, err := buildCells(bm.cells(), workload{}, true, false, cfg.seedBase(0), res)
		if err != nil {
			for _, c := range cells {
				c.close()
			}
			return nil, err
		}
		cells = append(cells, more...)
	}
	p := &probe{leg: newRawLeg("probe", cells, wallNS, false)}
	sp := res.spans
	ps := sp.begin(wspan, "leg:probe", cfg.seedBase(0))
	for _, t := range p.leg.round(0, probeRuns, cfg.seedBase(0), sp, ps) {
		res.failed += int64(t.failed())
	}
	sp.end(ps)
	res.attempted += p.leg.execs

	// Post-duty allocations: heap bytes allocated by axiom.Check and by the
	// analyzers, read around each call (ReadMemStats stops the world, so
	// this pass is kept short and out of every timed span).
	var ms runtime.MemStats
	var axiomB, analysisB, n uint64
	for _, c := range cells {
		if !c.validate {
			continue
		}
		for i := 0; i < allocRuns; i++ {
			seed := cfg.seedBase(0) + int64(i)
			r := c.execute(seed)
			res.attempted++
			if r.EngineError != nil {
				res.failed++
				continue
			}
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			if _, err := c.check(); err != nil {
				res.failed++
				continue
			}
			runtime.ReadMemStats(&ms)
			a1 := ms.TotalAlloc
			c.analyze(r, i, seed)
			runtime.ReadMemStats(&ms)
			axiomB += a1 - a0
			analysisB += ms.TotalAlloc - a1
			n++
		}
	}
	p.axiomAlloc = ratio(float64(axiomB), float64(n))
	p.analysisAlloc = ratio(float64(analysisB), float64(n))

	if !w.validate {
		pc, err := newCampaignLeg(post, pm, wallNS)
		if err != nil {
			return nil, err
		}
		sum, err := pc.round(cfg.seedBase(0))
		if err != nil {
			return nil, err
		}
		res.failed += int64(campaignFailed(sum))
		res.attempted += pc.execs
		p.validateUS = pc.phaseUS("validate")
	}
	return p, nil
}
