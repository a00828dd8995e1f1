// capture.go wires the obs flight recorder (internal/obs/forensics.go) into
// the campaign runner. Each unit of work carries its own recorder — the unit
// set is a pure function of the spec, so trigger decisions (and therefore the
// capture set) are identical for workers=1 and workers=K. A granted trigger
// re-runs the exact seed on a *fresh* tool instance with a trace.Recorder
// attached: re-executing on the campaign's own engine would perturb its
// race-dedup state and change NewRaces for the unit's later executions, and
// keeping the capture off the campaign engine is also what keeps the hot path
// at 0 B / 0 obj — the per-execution cost of an armed recorder is one digest
// build and one allocation-free ring check.
package campaign

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// flightCheck feeds one completed execution's digest to the unit's flight
// recorder and captures it if a trigger fires. No-op (and allocation-free)
// when the recorder is unarmed or nothing triggers.
func (r *cellRunner) flightCheck(i int, dur time.Duration, newRace bool, o explore.Obs) {
	if r.fr == nil {
		return
	}
	d := obs.ExecDigest{
		Index:     i,
		NS:        int64(dur),
		NewRace:   newRace,
		Forbidden: r.test != nil && o.Detected,
	}
	if r.eng != nil {
		st := r.eng.ExecStats()
		d.Steps = st.Steps
		d.Choices = st.Choices
	}
	if trig := r.fr.Check(d); trig != obs.TriggerNone {
		r.capture(trig, d, o.RaceKeys, o.Outcome)
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
	file, err := captureTrace(spec, r.j, seed)
	if err != nil {
		rec.Err = err.Error()
		r.st.CaptureErrs++
	} else {
		rec.File = file
	}
	r.st.Captures++
	r.captures = append(r.captures, rec)
}

// captureTrace re-runs one seed with a trace recorder attached and writes the
// portable trace into the capture directory, returning its file name. The
// re-run builds a fresh tool and program through the same wiring as a
// campaign unit (guides included), minus the campaign duties: executions are
// pure functions of (tool, program, seed), so the re-run reproduces exactly
// the execution the recorder flagged.
func captureTrace(spec Spec, j job, seed int64) (string, error) {
	sub := spec
	sub.Telemetry = nil
	sub.RecordDir = ""
	sub.RecordAll = false
	sub.ValidateAxioms = false
	sub.Analyzers = nil
	sub.CaptureDir = "" // no recursive recorders
	sub.CheckpointPath = ""
	sub.Resume = nil
	sub.checkpointHook = nil
	sub.Shard = ShardSel{}
	cr := newCellRunner(sub, j)
	defer cr.close()
	if cr.eng == nil {
		return "", fmt.Errorf("tool %s cannot record traces (not an engine)", spec.Tools[j.tool].Name)
	}
	rec := trace.NewRecorder(cr.eng.Strategy())
	cr.eng.SetStrategy(rec)
	if cr.mo != nil {
		cr.eng.SetTrace(true)
	}
	i := int(seed - spec.SeedBase)
	if cr.pg != nil {
		cr.pg.SetSchedule(cr.guides[i%len(cr.guides)].Schedule)
	}
	if cr.test != nil {
		cr.out = ""
	}
	res := cr.tool.Execute(cr.prog, seed)
	if res.EngineError != nil {
		return "", fmt.Errorf("capture re-run aborted: %v", res.EngineError)
	}
	meta := trace.Meta{Tool: spec.Tools[j.tool].TraceConfig, Program: cr.programName(),
		Litmus: cr.test != nil, Seed: seed, Outcome: cr.out}
	var tr *trace.Trace
	var err error
	if ie := core.RecoverInfeasible(func() {
		tr, err = trace.Record(cr.eng, res, rec.Schedule(), meta)
	}); ie != nil {
		return "", fmt.Errorf("capture lifting infeasible: %v", ie)
	}
	if err != nil {
		return "", err
	}
	name := trace.FileName(spec.Tools[j.tool].Name, cr.programName(), seed)
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
