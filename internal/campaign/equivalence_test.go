package campaign

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/trace"
)

// execDigest is the complete observable outcome of one execution. The pooled
// engine's arenas must be observationally invisible: executing seed s as the
// (i+1)-th execution of a reused engine must produce byte-identical results
// to executing it on a fresh engine.
type execDigest struct {
	RaceKeys       []string
	Outcome        string
	FinalValues    map[string]uint64
	Deadlocked     bool
	Truncated      bool
	AssertFailures int
	// TraceJSON is the full serialized trace (events, rf edges, per-location
	// modification orders, schedule) for tools whose model exposes total
	// modification orders; "" otherwise.
	TraceJSON string
}

func digestOf(t *testing.T, eng *core.Engine, rec *trace.Recorder, res *capi.Result, program string, isLit bool, outcome string, seed int64) execDigest {
	t.Helper()
	keys := map[string]bool{}
	for _, r := range res.Races {
		keys[r.Key()] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	fv := map[string]uint64{}
	for k, v := range eng.FinalValues() {
		fv[k] = uint64(v)
	}
	d := execDigest{
		RaceKeys: sorted, Outcome: outcome, FinalValues: fv,
		Deadlocked: res.Deadlocked, Truncated: res.Truncated,
		AssertFailures: len(res.AssertFailures),
	}
	if _, ok := eng.Model().(core.MOProvider); ok {
		tr, err := trace.Record(eng, res, rec.Schedule(), trace.Meta{
			Tool: trace.ToolConfig{Name: eng.Name()}, Program: program,
			Litmus: isLit, Seed: seed, Outcome: outcome,
		})
		if err != nil {
			t.Fatalf("record %s seed %d: %v", program, seed, err)
		}
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("marshal trace: %v", err)
		}
		d.TraceJSON = string(data)
	}
	return d
}

func digestEqual(a, b execDigest) string {
	if fmt.Sprintf("%v", a.RaceKeys) != fmt.Sprintf("%v", b.RaceKeys) {
		return fmt.Sprintf("race keys %v vs %v", a.RaceKeys, b.RaceKeys)
	}
	if a.Outcome != b.Outcome {
		return fmt.Sprintf("outcome %q vs %q", a.Outcome, b.Outcome)
	}
	if len(a.FinalValues) != len(b.FinalValues) {
		return fmt.Sprintf("final value count %d vs %d", len(a.FinalValues), len(b.FinalValues))
	}
	for k, v := range a.FinalValues {
		if bv, ok := b.FinalValues[k]; !ok || bv != v {
			return fmt.Sprintf("final value %s: %d vs %d (present=%v)", k, v, bv, ok)
		}
	}
	if a.Deadlocked != b.Deadlocked || a.Truncated != b.Truncated || a.AssertFailures != b.AssertFailures {
		return fmt.Sprintf("termination (%v,%v,%d) vs (%v,%v,%d)",
			a.Deadlocked, a.Truncated, a.AssertFailures, b.Deadlocked, b.Truncated, b.AssertFailures)
	}
	if a.TraceJSON != b.TraceJSON {
		return "serialized traces differ"
	}
	return ""
}

// newTracedTool builds a tool instance with trace mode and a schedule
// recorder interposed when the model supports total modification orders, so
// pooled and fresh instances run the identical instrumented path.
func newTracedTool(spec ToolSpec) (capi.Tool, *core.Engine, *trace.Recorder) {
	tool := spec.New()
	eng := tool.(*core.Engine)
	rec := trace.NewRecorder(eng.Strategy())
	eng.SetStrategy(rec)
	if _, ok := eng.Model().(core.MOProvider); ok {
		eng.SetTrace(true)
	}
	return tool, eng, rec
}

// TestPooledEngineArenaEquivalence pins the tentpole invariant of the
// execution arenas and the fiber pool: N sequential Execute calls on ONE
// engine (exercising the recycled Action/clock-vector/mo-graph state and the
// re-bound pool workers) produce byte-identical race keys, outcomes, final
// values, and serialized traces to N fresh engines, each on newly started
// scheduler workers, across every tool × program cell of the standard
// matrix.
func TestPooledEngineArenaEquivalence(t *testing.T) {
	const runs = 3
	benches, err := SelectBenchmarks("all")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range StandardToolNames() {
		spec, err := StandardTool(name, ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		type cell struct {
			name   string
			isLit  bool
			prog   capi.Program
			reset  func()
			outStr func() string
		}
		var cells []cell
		for _, b := range benches {
			cells = append(cells, cell{name: b.Name, prog: b.New(), outStr: func() string { return "" }})
		}
		for _, l := range lits {
			out := new(string)
			prog := l.Make(out)
			cells = append(cells, cell{
				name: l.Name, isLit: true, prog: prog,
				reset:  func() { *out = "" },
				outStr: func() string { return *out },
			})
		}

		for _, c := range cells {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				pooledTool, pooledEng, pooledRec := newTracedTool(spec)
				var pooled []execDigest
				for i := 0; i < runs; i++ {
					if c.reset != nil {
						c.reset()
					}
					res := pooledTool.Execute(c.prog, int64(i+1))
					pooled = append(pooled, digestOf(t, pooledEng, pooledRec, res, c.name, c.isLit, c.outStr(), int64(i+1)))
				}
				for i := 0; i < runs; i++ {
					freshTool, freshEng, freshRec := newTracedTool(spec)
					if c.reset != nil {
						c.reset()
					}
					res := freshTool.Execute(c.prog, int64(i+1))
					fresh := digestOf(t, freshEng, freshRec, res, c.name, c.isLit, c.outStr(), int64(i+1))
					if diff := digestEqual(pooled[i], fresh); diff != "" {
						t.Fatalf("execution %d (seed %d): pooled engine diverged from fresh engine: %s", i, i+1, diff)
					}
				}
			})
		}
	}
}

// resultView is everything one execution reports: the whole capi.Result
// (report slices copied, empty ones as nil), the litmus outcome, and the
// engine's step and choice counts.
type resultView struct {
	Res            capi.Result
	Outcome        string
	Steps, Choices uint64
}

func viewOf(tool capi.Tool, res *capi.Result, outcome string) resultView {
	v := resultView{Res: *res, Outcome: outcome}
	v.Res.Races = append([]capi.RaceReport(nil), res.Races...)
	v.Res.AssertFailures = append([]capi.AssertFailure(nil), res.AssertFailures...)
	v.Res.Blocks = append([]capi.BlockSpan(nil), res.Blocks...)
	if eng, ok := tool.(*core.Engine); ok {
		st := eng.ExecStats()
		v.Steps, v.Choices = st.Steps, st.Choices
	}
	return v
}

// TestToolReuseIsPure pins the capi.Tool contract campaign workers rely on
// when they keep one tool instance for every unit they run: a Result is a
// pure function of (program, seed). One instance per standard tool runs
// every litmus test and benchmark, interleaved, over several seeds, and each
// execution must report exactly what a fresh instance reports for it.
func TestToolReuseIsPure(t *testing.T) {
	benches, err := SelectBenchmarks("all")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name string
		prog func(out *string) capi.Program
	}
	var cells []cell
	for _, b := range benches {
		cells = append(cells, cell{b.Name, func(*string) capi.Program { return b.New() }})
	}
	for _, l := range lits {
		cells = append(cells, cell{l.Name, l.Make})
	}
	for _, name := range StandardToolNames() {
		spec, err := StandardTool(name, ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shared := spec.New()
		outs := make([]string, len(cells))
		progs := make([]capi.Program, len(cells))
		for c := range cells {
			progs[c] = cells[c].prog(&outs[c])
		}
		for seed := int64(1); seed <= 4; seed++ {
			for c, cl := range cells {
				outs[c] = ""
				got := viewOf(shared, shared.Execute(progs[c], seed), outs[c])

				var out string
				fresh := spec.New()
				want := viewOf(fresh, fresh.Execute(cl.prog(&out), seed), out)
				closeTool(fresh)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s seed %d: reused instance reported\n%+v\nfresh instance reported\n%+v",
						name, cl.name, seed, got, want)
				}
			}
		}
		closeTool(shared)
	}
}
