package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c11tester/internal/explore"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// captureSpec is the fixed matrix of the flight-recorder tests: benchmark
// cells that race (new-race triggers) plus litmus cells, under the converge
// policy so the stream also carries cell_converge_state snapshots. The
// never-converging novel cell takes the budget the others free, so a
// converge run crosses several wave barriers.
func captureSpec(t *testing.T, workers int, dir string, tel *Telemetry) Spec {
	return Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), novelLitmus()},
		Runs:       80,
		SeedBase:   500,
		Workers:    workers,
		ShardSize:  7,
		Policy:     explore.Converge{},
		CaptureDir: dir,
		Telemetry:  tel,
	}
}

// TestCaptureDeterminismUnderSharding extends the workers=1 ≡ workers=K
// byte-identity to the forensics layer, under both the uniform and the
// converge policy: the capture manifest must be byte-identical across worker
// counts, the event stream (including capture events, and under converge
// cell_converge_state events) identical after canonical ordering, and at
// least one captured trace must replay exactly. Workers reuse one tool
// instance across units, so the uniform policy's many short units also
// catch race novelty leaking from one unit into the next.
func TestCaptureDeterminismUnderSharding(t *testing.T) {
	t.Run("uniform", func(t *testing.T) { testCaptureDeterminism(t, explore.Uniform{}) })
	t.Run("converge", func(t *testing.T) { testCaptureDeterminism(t, explore.Converge{}) })
}

func testCaptureDeterminism(t *testing.T, policy explore.Policy) {
	_, converge := policy.(explore.Converge)
	run := func(workers int) (*Summary, []byte, string, []byte) {
		dir := t.TempDir()
		var buf bytes.Buffer
		tel := NewTelemetry(TelemetryOptions{EventSink: &buf})
		spec := captureSpec(t, workers, dir, tel)
		spec.Policy = policy
		sum := Run(spec)
		man, err := os.ReadFile(filepath.Join(dir, obs.ManifestFileName))
		if err != nil {
			t.Fatalf("workers=%d: no manifest: %v", workers, err)
		}
		return sum, man, dir, buf.Bytes()
	}
	serialSum, serialMan, serialDir, serialRaw := run(1)
	shardSum, shardMan, _, shardRaw := run(4)

	if !bytes.Equal(serialMan, shardMan) {
		t.Errorf("capture manifests differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s",
			serialMan, shardMan)
	}
	serialEv := canonicalEvents(t, serialRaw)
	shardEv := canonicalEvents(t, shardRaw)
	if !reflect.DeepEqual(serialEv, shardEv) {
		t.Errorf("event streams differ after canonical ordering (%d vs %d lines)",
			len(serialEv), len(shardEv))
	}

	// The stream carries the forensics event types.
	types := map[string]int{}
	for _, line := range serialEv {
		var m struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		types[m.Type]++
	}
	if types["capture"] == 0 {
		t.Errorf("no capture events in stream (types: %v)", types)
	}
	if converge && (types["cell_converge_state"] == 0 || types["wave_end"] < 2) {
		t.Errorf("want cell_converge_state events over at least 2 waves (types: %v)", types)
	}

	man, err := obs.ReadManifest(filepath.Join(serialDir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Captures) == 0 {
		t.Fatal("racy matrix produced no captures")
	}
	for _, sum := range []*Summary{serialSum, shardSum} {
		total := 0
		for _, ts := range sum.Tools {
			total += ts.Captures
		}
		if total != len(man.Captures) {
			t.Errorf("summary counts %d captures, manifest has %d", total, len(man.Captures))
		}
		if sum.Spec.CaptureDir == "" {
			t.Error("summary does not echo the capture dir")
		}
	}

	// The summary report mentions the captures.
	if !strings.Contains(serialSum.String(), "flight recorder captured") {
		t.Error("report does not surface the captures")
	}

	// Every manifest entry is well-formed; count the trace-backed ones.
	traced := 0
	for _, c := range man.Captures {
		if c.Trigger == "" || c.Repro == "" {
			t.Errorf("malformed capture record: %+v", c)
		}
		if c.File != "" {
			traced++
		} else if c.Err == "" {
			t.Errorf("capture with neither trace nor error: %+v", c)
		}
	}
	if traced == 0 {
		t.Fatal("no capture produced a trace file")
	}

	// Exact-replay verification: every captured trace must re-drive to the
	// recorded race keys, outcome, and event stream.
	verified := 0
	for _, c := range man.Captures {
		if c.File == "" {
			continue
		}
		tr, err := trace.ReadFile(filepath.Join(serialDir, c.File))
		if err != nil {
			t.Fatalf("capture %s/%s seed %d: %v", c.Tool, c.Program, c.Seed, err)
		}
		if tr.Seed != c.Seed || tr.Program != c.Program {
			t.Fatalf("trace identity %s/%d does not match manifest entry %+v", tr.Program, tr.Seed, c)
		}
		sub, err := TraceSubject(tr)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := trace.Replay(tr, sub)
		closeTool(sub.Tool)
		if err != nil {
			t.Fatalf("capture %s replay: %v", c.File, err)
		}
		if err := tr.Verify(rr); err != nil {
			t.Errorf("capture %s failed exact replay: %v", c.File, err)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("verified no captures")
	}
}

// TestCaptureSlowNSRequiresCaptureDir pins the spec validation of the
// non-deterministic opt-in trigger.
func TestCaptureSlowNSRequiresCaptureDir(t *testing.T) {
	spec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       1, SeedBase: 1,
		CaptureSlowNS: true,
	}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "CaptureDir") {
		t.Fatalf("Validate() = %v, want CaptureSlowNS-requires-CaptureDir error", err)
	}
}
