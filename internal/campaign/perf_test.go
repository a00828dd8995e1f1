package campaign

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunPerfProducesArtifact(t *testing.T) {
	spec, err := StandardTool("c11tester", ToolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	benches, err := SelectBenchmarks("seqlock")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("MP+rel+acq")
	if err != nil {
		t.Fatal(err)
	}
	sum := RunPerf(PerfSpec{
		Tools: []ToolSpec{spec}, Benchmarks: benches, Litmus: lits,
		Runs: 4, Warmup: 2, SeedBase: 1,
	})
	if sum.Schema != PerfSchemaName || sum.SchemaVersion != PerfSchemaVersion {
		t.Fatalf("schema header %q v%d", sum.Schema, sum.SchemaVersion)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(sum.Cells))
	}
	for _, c := range sum.Cells {
		if c.Execs != 4 {
			t.Errorf("%s/%s execs = %d, want 4", c.Tool, c.Program, c.Execs)
		}
		if c.NsPerExec <= 0 {
			t.Errorf("%s/%s ns/exec = %v, want > 0", c.Tool, c.Program, c.NsPerExec)
		}
		if c.AtomicOpsPerExec <= 0 {
			t.Errorf("%s/%s atomic ops/exec = %v, want > 0", c.Tool, c.Program, c.AtomicOpsPerExec)
		}
	}
	if len(sum.Tools) != 1 || sum.Tools[0].Execs != 8 {
		t.Fatalf("tool totals wrong: %+v", sum.Tools)
	}
	if sum.String() == "" {
		t.Fatal("empty report")
	}

	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPerfSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SchemaVersion != sum.SchemaVersion || len(loaded.Cells) != len(sum.Cells) {
		t.Fatalf("roundtrip mismatch: %+v", loaded)
	}
}

// TestLoadPerfSummaryRejectsWrongSchema: a foreign schema and any version
// but the current one (a v2 artifact here) are refused with an error.
func TestLoadPerfSummaryRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	sum := &PerfSummary{Schema: "other/schema", SchemaVersion: 1}
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPerfSummary(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
	sum = &PerfSummary{Schema: PerfSchemaName, SchemaVersion: 2}
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPerfSummary(path); err == nil || !strings.Contains(err.Error(), "schema version 2") {
		t.Fatalf("v2 artifact: err = %v, want a schema version error", err)
	}
}
