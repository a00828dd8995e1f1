package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/trace"
)

func mkSummary(execsPerSec float64, ratePct float64, raceKeys ...string) *Summary {
	var races []harness.RaceSummary
	for _, k := range raceKeys {
		races = append(races, harness.RaceSummary{Key: k})
	}
	return &Summary{
		Schema: SchemaName, SchemaVersion: SchemaVersion,
		Tools: []ToolSummary{{
			Tool: "c11tester", ExecsPerSec: execsPerSec, Races: races,
			Benchmarks: []CellSummary{{
				Program:   "ms-queue",
				Detection: harness.DetectionSummary{Runs: 100, RatePct: ratePct},
			}},
		}},
	}
}

func TestCompareDetectsMovement(t *testing.T) {
	old := mkSummary(1000, 80, "a/x/y", "b/x/y")
	new := mkSummary(2000, 95, "a/x/y", "c/x/y")

	c := Compare(old, new)
	if len(c.Tools) != 1 {
		t.Fatalf("matched %d tools, want 1", len(c.Tools))
	}
	td := c.Tools[0]
	if td.ThroughputRatio != 2 {
		t.Errorf("throughput ratio = %v, want 2", td.ThroughputRatio)
	}
	if len(td.NewRaceKeys) != 1 || td.NewRaceKeys[0] != "c/x/y" {
		t.Errorf("new race keys = %v", td.NewRaceKeys)
	}
	if len(td.LostRaceKeys) != 1 || td.LostRaceKeys[0] != "b/x/y" {
		t.Errorf("lost race keys = %v", td.LostRaceKeys)
	}
	if len(td.Detection) != 1 || td.Detection[0].DeltaPct != 15 {
		t.Errorf("detection delta = %+v", td.Detection)
	}
	if !c.Regressed() {
		t.Error("a lost race key must count as a regression")
	}
	text := c.String()
	for _, want := range []string{"2.00×", "LOST race key b/x/y", "NEW race key c/x/y", "ms-queue"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison text missing %q:\n%s", want, text)
		}
	}

	// No movement → no regression.
	if Compare(old, old).Regressed() {
		t.Error("identical artifacts must not regress")
	}
}

// TestCompareLostToolsAndCellsRegress pins that a new artifact covering less
// of the matrix than the old one cannot pass the trajectory gate: a tool or a
// cell of the old artifact that the new one lacks takes its race keys and
// weak outcomes with it. A wider new artifact is not a regression.
func TestCompareLostToolsAndCellsRegress(t *testing.T) {
	full := mkSummary(1000, 80, "a/x/y")
	full.Tools[0].Litmus = []LitmusSummary{{Test: "SB+rlx"}}
	full.Tools = append(full.Tools, ToolSummary{Tool: "tsan11"})

	lessTools := mkSummary(1000, 80, "a/x/y")
	lessTools.Tools[0].Litmus = []LitmusSummary{{Test: "SB+rlx"}}
	c := Compare(full, lessTools)
	if !c.Regressed() || len(c.UnmatchedOld) != 1 {
		t.Errorf("a lost tool must regress: unmatched old %v, regressed %v", c.UnmatchedOld, c.Regressed())
	}
	if Compare(lessTools, full).Regressed() {
		t.Error("a tool only in the new artifact must not regress")
	}

	lessCells := mkSummary(1000, 80, "a/x/y")
	lessCells.Tools = append(lessCells.Tools, ToolSummary{Tool: "tsan11"})
	c = Compare(full, lessCells)
	if !c.Regressed() || len(c.Tools[0].LostCells) != 1 || c.Tools[0].LostCells[0] != "litmus/SB+rlx" {
		t.Errorf("a lost litmus cell must regress: lost cells %v, regressed %v", c.Tools[0].LostCells, c.Regressed())
	}
	if !strings.Contains(c.String(), "LOST cell litmus/SB+rlx") {
		t.Errorf("comparison text does not name the lost cell:\n%s", c.String())
	}
	if Compare(lessCells, full).Regressed() {
		t.Error("a cell only in the new artifact must not regress")
	}
}

func TestCompareRoundTripsThroughDisk(t *testing.T) {
	sum := Run(Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       5,
		SeedBase:   7,
	})
	path := filepath.Join(t.TempDir(), "old.json")
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	old, err := LoadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	c := Compare(old, sum)
	if c.Regressed() {
		t.Errorf("self-comparison regressed:\n%s", c)
	}
	if len(c.Tools) != 1 || c.Tools[0].ThroughputRatio == 0 {
		t.Errorf("self-comparison lost the tool: %+v", c.Tools)
	}
}

func mkLitmusSummary(weakSeen []string, validation *ValidationSummary) *Summary {
	return &Summary{
		Schema: SchemaName, SchemaVersion: SchemaVersion,
		Tools: []ToolSummary{{
			Tool: "c11tester",
			Litmus: []LitmusSummary{{
				Test: "MP+rlx", WeakSeen: weakSeen, WeakDefined: 2,
			}},
			Validation: validation,
		}},
	}
}

func TestCompareWeakOutcomeCoverage(t *testing.T) {
	old := mkLitmusSummary([]string{"r1=1 r2=0", "r1=2 r2=0"}, nil)
	new := mkLitmusSummary([]string{"r1=1 r2=0"}, nil)

	c := Compare(old, new)
	if len(c.Tools) != 1 || len(c.Tools[0].Litmus) != 1 {
		t.Fatalf("litmus deltas = %+v", c.Tools)
	}
	ld := c.Tools[0].Litmus[0]
	if ld.OldWeak != 2 || ld.NewWeak != 1 {
		t.Errorf("weak counts %d → %d, want 2 → 1", ld.OldWeak, ld.NewWeak)
	}
	if len(ld.LostOutcomes) != 1 || ld.LostOutcomes[0] != "r1=2 r2=0" {
		t.Errorf("lost outcomes = %v", ld.LostOutcomes)
	}
	if !c.Regressed() {
		t.Error("lost weak-outcome coverage must count as a regression")
	}
	if !strings.Contains(c.String(), `LOST weak outcome MP+rlx="r1=2 r2=0"`) {
		t.Errorf("report missing lost-outcome line:\n%s", c.String())
	}

	// Gained coverage is movement, not regression.
	c = Compare(new, old)
	if c.Regressed() {
		t.Error("gained coverage must not regress")
	}
	if len(c.Tools[0].Litmus) != 1 || len(c.Tools[0].Litmus[0].GainedOutcomes) != 1 {
		t.Errorf("gained outcomes not reported: %+v", c.Tools[0].Litmus)
	}

	// Identical coverage produces no delta entries at all.
	if ls := Compare(old, old).Tools[0].Litmus; len(ls) != 0 {
		t.Errorf("identical coverage produced deltas: %+v", ls)
	}
}

func TestCompareValidationCounts(t *testing.T) {
	old := mkLitmusSummary([]string{"r1=1 r2=0"}, &ValidationSummary{Checked: 100, Violations: 0})
	new := mkLitmusSummary([]string{"r1=1 r2=0"}, &ValidationSummary{Checked: 100, Violations: 2})

	c := Compare(old, new)
	v := c.Tools[0].Validation
	if v == nil || v.OldViolations != 0 || v.NewViolations != 2 {
		t.Fatalf("validation delta = %+v", v)
	}
	if !c.Regressed() {
		t.Error("new axiom violations must count as a regression")
	}
	if !strings.Contains(c.String(), "violations 0 → 2") {
		t.Errorf("report missing validation line:\n%s", c.String())
	}
	if Compare(old, old).Regressed() {
		t.Error("stable validation must not regress")
	}

	// Validation present on only one side → no delta, no false regression.
	if d := Compare(mkLitmusSummary(nil, nil), new); d.Tools[0].Validation != nil {
		t.Errorf("one-sided validation produced a delta: %+v", d.Tools[0].Validation)
	}
}

// TestRNGSpecValidation pins the refusal of artifacts that name the removed
// legacy random source: a summary, a checkpoint, a perf artifact and a trace
// naming "legacy", and a summary older than the echo, must each be refused with an error that names the source
// as removed — never loaded and replayed on PCG.
func TestRNGSpecValidation(t *testing.T) {
	dir := t.TempDir()
	tool := mustTool(t, "c11tester", ToolOptions{})
	// nameLegacy rewrites the JSON file at path so the object at key names
	// the legacy source.
	nameLegacy := func(path, key string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc[key].(map[string]any)["rng"] = "legacy"
		if data, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantRemoved := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"legacy"`) || !strings.Contains(err.Error(), "removed") {
			t.Errorf("%s naming the legacy source: err = %v, want a removed-source refusal", what, err)
		}
	}

	ckPath := filepath.Join(dir, "ck.json")
	traces := filepath.Join(dir, "traces")
	sum := Run(Spec{
		Tools:          []ToolSpec{tool},
		Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:           2,
		CheckpointPath: ckPath,
		RecordDir:      traces,
	})
	sumPath := filepath.Join(dir, "sum.json")
	if err := sum.WriteJSON(sumPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSummary(sumPath); err != nil {
		t.Fatalf("pcg summary refused: %v", err)
	}
	// A pre-v8 summary carries no echo, but its campaign drew from
	// math/rand: it is refused the same way.
	pre := *sum
	pre.SchemaVersion = firstPCGSchemaVersion - 1
	prePath := filepath.Join(dir, "pre.json")
	if err := pre.WriteJSON(prePath); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSummary(prePath)
	wantRemoved("pre-v8 summary", err)
	nameLegacy(sumPath, "spec")
	_, err = LoadSummary(sumPath)
	wantRemoved("summary", err)

	if _, err := LoadCheckpoint(ckPath); err != nil {
		t.Fatalf("pcg checkpoint refused: %v", err)
	}
	nameLegacy(ckPath, "spec")
	_, err = LoadCheckpoint(ckPath)
	wantRemoved("checkpoint", err)

	perfPath := filepath.Join(dir, "perf.json")
	perf := RunPerf(PerfSpec{Tools: []ToolSpec{tool}, Litmus: []*litmus.Test{mustLitmus(t, "SB+sc")}, Runs: 2})
	if err := perf.WriteJSON(perfPath); err != nil {
		t.Fatal(err)
	}
	nameLegacy(perfPath, "spec")
	_, err = LoadPerfSummary(perfPath)
	wantRemoved("perf artifact", err)

	files, _ := filepath.Glob(filepath.Join(traces, "trace_*.json"))
	if len(files) == 0 {
		t.Fatal("racy campaign recorded no trace")
	}
	nameLegacy(files[0], "tool")
	_, err = trace.ReadFile(files[0])
	wantRemoved("trace", err)
}
