// capture.go wires the obs flight recorder (internal/obs/forensics.go) into
// the campaign runner. Each unit of work carries its own recorder and its own
// race state — the unit set is a pure function of the spec, so trigger
// decisions (and therefore the capture set) are identical for workers=1 and
// workers=K. A granted trigger re-runs the exact seed on the unit's own
// engine with a trace.Recorder attached; tool results are pure functions of
// (program, seed), so the re-run changes nothing the unit observes later.
// The per-execution cost of an armed recorder is one digest build and one
// allocation-free ring check, which keeps the hot path at 0 B / 0 obj.
package campaign

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"c11tester/internal/core"
	"c11tester/internal/harness"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// flightCheck feeds the digest of execution i, just folded into r.x, to the
// unit's flight recorder and captures it if a trigger fires. No-op (and
// allocation-free) when the recorder is unarmed or nothing triggers.
func (r *cellRunner) flightCheck(i int, dur time.Duration) {
	if r.fr == nil {
		return
	}
	d := obs.ExecDigest{
		Index:     i,
		NS:        int64(dur),
		NewRace:   r.x.newRaces > 0,
		Forbidden: r.test != nil && r.x.detected,
	}
	if r.eng != nil {
		st := r.eng.ExecStats()
		d.Steps = st.Steps
		d.Choices = st.Choices
	}
	if trig := r.fr.Check(d); trig != obs.TriggerNone {
		r.capture(trig, d, raceKeysOf(r.x.res), r.x.outcome)
	}
}

// flightFail is flightCheck for executions the tool aborted
// (core.InfeasibleError): the digest carries only the infeasibility flag, and
// the capture manifest gets a trace-less entry (the re-run aborts the same
// way — the repro line is the artifact).
func (r *cellRunner) flightFail(i int) {
	if r.fr == nil {
		return
	}
	d := obs.ExecDigest{Index: i, Infeasible: true}
	if trig := r.fr.Check(d); trig != obs.TriggerNone {
		r.capture(trig, d, nil, "")
	}
}

// capture records one granted trigger: it re-runs the seed for a portable
// trace (captureTrace) and appends the manifest entry to the unit's records.
func (r *cellRunner) capture(trig obs.Trigger, d obs.ExecDigest, raceKeys []string, outcome string) {
	spec := r.spec
	toolSpec := spec.Tools[r.j.tool]
	seed := spec.SeedBase + int64(d.Index)
	keys := append([]string(nil), raceKeys...)
	sort.Strings(keys)
	rec := obs.CaptureRecord{
		Tool:     toolSpec.Name,
		Program:  r.programName(),
		Litmus:   r.j.kind == jobLitmus,
		Seed:     seed,
		Index:    d.Index,
		Trigger:  trig.String(),
		RaceKeys: keys,
		Outcome:  outcome,
		Steps:    d.Steps,
		Choices:  d.Choices,
		Repro: harness.Repro{Tool: toolSpec.Name, Program: r.programName(),
			Seed: seed, Litmus: r.j.kind == jobLitmus,
			Flags: toolSpec.ReproFlags}.Command(),
	}
	file, err := r.captureTrace(d.Index)
	if err != nil {
		rec.Err = err.Error()
		r.st.CaptureErrs++
	} else {
		rec.File = file
	}
	r.st.Captures++
	r.captures = append(r.captures, rec)
}

// captureTrace re-runs execution i on the unit's engine with a trace
// recorder attached and writes the portable trace into the capture
// directory, returning its file name. Executions are pure functions of
// (tool, program, seed), so the re-run reproduces exactly the execution the
// recorder flagged. It runs right after execution i, whose guide schedule
// is still installed. The engine's strategy and trace setting are restored
// afterwards.
func (r *cellRunner) captureTrace(i int) (string, error) {
	spec := r.spec
	toolSpec := spec.Tools[r.j.tool]
	if r.eng == nil {
		return "", fmt.Errorf("tool %s cannot record traces (not an engine)", toolSpec.Name)
	}
	strategy, traceOn := r.eng.Strategy(), r.eng.Config().Trace
	defer func() {
		r.eng.SetStrategy(strategy)
		r.eng.SetTrace(traceOn)
	}()
	rec := trace.NewRecorder(strategy)
	r.eng.SetStrategy(rec)
	if r.mo != nil {
		r.eng.SetTrace(true)
	}
	if r.test != nil {
		r.out = ""
	}
	seed := spec.SeedBase + int64(i)
	res := r.tool.Execute(r.prog, seed)
	if res.EngineError != nil {
		return "", fmt.Errorf("capture re-run aborted: %v", res.EngineError)
	}
	meta := trace.Meta{Tool: toolSpec.TraceConfig, Program: r.programName(),
		Litmus: r.test != nil, Seed: seed, Outcome: r.out}
	var tr *trace.Trace
	var err error
	if ie := core.RecoverInfeasible(func() {
		tr, err = trace.Record(r.eng, res, rec.Schedule(), meta)
	}); ie != nil {
		return "", fmt.Errorf("capture lifting infeasible: %v", ie)
	}
	if err != nil {
		return "", err
	}
	name := trace.FileName(toolSpec.Name, r.programName(), seed)
	if err := tr.WriteFile(filepath.Join(spec.CaptureDir, name)); err != nil {
		return "", err
	}
	return name, nil
}

// captureManifest sorts a campaign's capture records into the canonical
// manifest Run writes to CaptureDir.
func captureManifest(captures []obs.CaptureRecord) *obs.Manifest {
	m := obs.NewManifest()
	m.Captures = append([]obs.CaptureRecord{}, captures...)
	m.Sort()
	return m
}
