package campaign

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/explore"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// canonicalJSON renders a summary's canonical form — the byte-identity the
// shard-merge and checkpoint-resume guarantees are stated over.
func canonicalJSON(t *testing.T, s *Summary) string {
	t.Helper()
	data, err := json.MarshalIndent(s.Canonical(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestParseShard(t *testing.T) {
	good := map[string]ShardSel{
		"0/1": {Index: 0, Count: 1},
		"0/3": {Index: 0, Count: 3},
		"2/3": {Index: 2, Count: 3},
	}
	for in, want := range good {
		sel, err := ParseShard(in)
		if err != nil || sel != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, sel, err, want)
		}
		if sel.String() != in {
			t.Errorf("ShardSel(%+v).String() = %q, want %q", sel, sel.String(), in)
		}
	}
	for _, in := range []string{"", "3/3", "-1/3", "x/3", "1/x", "1", "1/0", "0/-2", "1/2/3"} {
		if sel, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) = %+v, want error", in, sel)
		}
	}
}

func TestValidateCrashOptions(t *testing.T) {
	base := func() Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       4,
		}
	}
	s := base()
	s.Shard = ShardSel{Index: 1, Count: 3}
	if err := s.Validate(); err != nil {
		t.Errorf("valid shard selection rejected: %v", err)
	}
	s = base()
	s.Shard = ShardSel{Index: 3, Count: 3}
	if err := s.Validate(); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	s = base()
	s.Shard = ShardSel{Index: 0, Count: 2}
	s.Policy = explore.Converge{}
	if err := s.Validate(); err == nil {
		t.Error("sharding under an adaptive policy accepted; the round-robin deal is only deterministic under uniform budgets")
	}
	s = base()
	s.Shard = ShardSel{Index: 0, Count: 2}
	s.CheckpointPath = "ck.json"
	if err := s.Validate(); err == nil {
		t.Error("sharding combined with -checkpoint accepted")
	}
	s = base()
	s.CheckpointPath = "ck.json"
	if err := s.Validate(); err != nil {
		t.Errorf("checkpointing alone rejected: %v", err)
	}
}

// TestShardMergeByteIdentical is half the tentpole acceptance criterion: cut
// a campaign into three shards (each run with a different worker count),
// merge the partials, and the merged summary must be byte-identical — modulo
// Canonical, which strips machine-local timing — to an unsharded run.
func TestShardMergeByteIdentical(t *testing.T) {
	build := func(workers int) Spec {
		return Spec{
			Tools: []ToolSpec{
				mustTool(t, "c11tester", ToolOptions{}),
				mustTool(t, "tsan11", ToolOptions{}),
			},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
			Runs:       30,
			SeedBase:   500,
			Workers:    workers,
			// Does not divide Runs: the ragged tail chunk lands in a shard too.
			ShardSize:      4,
			ValidateAxioms: true,
		}
	}
	single := Run(build(1))

	const shards = 3
	var parts []*Summary
	for i := 0; i < shards; i++ {
		spec := build(i + 2)
		spec.Shard = ShardSel{Index: i, Count: shards}
		part := Run(spec)
		if part.Shard == nil || part.Shard.Index != i || part.Shard.SpecDigest == "" {
			t.Fatalf("shard %d summary carries no shard header: %+v", i, part.Shard)
		}
		parts = append(parts, part)
	}
	// The digest must not depend on shard selection or worker count.
	if d := SpecDigest(build(1)); parts[0].Shard.SpecDigest != d {
		t.Fatalf("shard digest %s != unsharded spec digest %s", parts[0].Shard.SpecDigest, d)
	}

	// Every execution runs in exactly one shard.
	var total int
	for _, p := range parts {
		for _, ts := range p.Tools {
			total += ts.Execs
		}
	}
	var want int
	for _, ts := range single.Tools {
		want += ts.Execs
	}
	if total != want {
		t.Fatalf("shards ran %d executions in total, single run %d", total, want)
	}

	// Merge order must not matter.
	merged, err := MergeSummaries([]*Summary{parts[2], parts[0], parts[1]}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantJSON := canonicalJSON(t, merged), canonicalJSON(t, single); got != wantJSON {
		t.Fatalf("merged summary differs from single-machine run:\nmerged: %s\nsingle: %s", got, wantJSON)
	}
}

func TestMergeSummariesRefusals(t *testing.T) {
	build := func(seedBase int64) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       6,
			SeedBase:   seedBase,
			ShardSize:  2,
		}
	}
	shardRun := func(spec Spec, i, n int) *Summary {
		spec.Shard = ShardSel{Index: i, Count: n}
		return Run(spec)
	}
	p0, p1 := shardRun(build(1), 0, 2), shardRun(build(1), 1, 2)

	if _, err := MergeSummaries(nil, false); err == nil {
		t.Error("empty part list accepted")
	}
	if _, err := MergeSummaries([]*Summary{Run(build(1))}, false); err == nil {
		t.Error("summary without a shard header accepted as a partial")
	}
	if _, err := MergeSummaries([]*Summary{p0}, false); err == nil {
		t.Error("merge of 1 of 2 shards accepted")
	}
	if _, err := MergeSummaries([]*Summary{p0, p0}, false); err == nil {
		t.Error("duplicate shard index accepted")
	}
	// A shard cut from a different spec (different seed base → different
	// digest) must refuse even though the matrix shape matches.
	alien := shardRun(build(999), 1, 2)
	if _, err := MergeSummaries([]*Summary{p0, alien}, false); err == nil ||
		!strings.Contains(err.Error(), "different campaign spec") {
		t.Errorf("digest mismatch not refused: %v", err)
	}
	// Provenance skew refuses without -force and merges with it.
	skewed := shardRun(build(1), 1, 2)
	skewed.Provenance.GoVersion = "go0.0"
	if _, err := MergeSummaries([]*Summary{p0, skewed}, false); err == nil ||
		!strings.Contains(err.Error(), "provenance skew") {
		t.Errorf("provenance skew not refused: %v", err)
	}
	if _, err := MergeSummaries([]*Summary{p0, skewed}, true); err != nil {
		t.Errorf("force did not override provenance skew: %v", err)
	}
	// Schema-version drift refuses.
	old := shardRun(build(1), 1, 2)
	old.SchemaVersion = SchemaVersion - 1
	if _, err := MergeSummaries([]*Summary{p0, old}, false); err == nil {
		t.Error("old-schema partial accepted")
	}
	// Cell states are input from outside the program: a partial whose states
	// are missing, miscounted, or name a cell its spec does not put there is
	// refused with an error naming the shard — never a panic.
	bad := map[string]func(s *Summary){
		"missing":    func(s *Summary) { s.Cells = nil },
		"too few":    func(s *Summary) { s.Cells = s.Cells[:len(s.Cells)-1] },
		"too many":   func(s *Summary) { s.Cells = append(s.Cells, s.Cells[0]) },
		"tool":       func(s *Summary) { s.Cells[0].Tool = "tsan11" },
		"program":    func(s *Summary) { s.Cells[0].Program = "seqlock" },
		"litmus bit": func(s *Summary) { s.Cells[0].Litmus = true },
		"histogram": func(s *Summary) {
			s.Cells[0].State.Timing = &obs.HistogramSnapshot{Le: []uint64{1, 2}, N: []uint64{1}}
		},
		"spec": func(s *Summary) {
			s.Spec.Benchmarks = []string{"seqlock"}
			s.Cells[0].Program = "seqlock"
		},
	}
	for name, corrupt := range bad {
		part := *p1
		part.Cells = append([]Cell(nil), p1.Cells...)
		corrupt(&part)
		if _, err := MergeSummaries([]*Summary{p0, &part}, false); err == nil ||
			!strings.Contains(err.Error(), "shard 1") {
			t.Errorf("%s cell states: err = %v, want a refusal naming shard 1", name, err)
		}
	}
	if _, err := MergeSummaries([]*Summary{p0, p1}, false); err != nil {
		t.Errorf("untouched partials refused: %v", err)
	}
}

// TestCheckpointResumeByteIdentical is the other half of the tentpole
// acceptance criterion: interrupt an adaptive campaign at ANY wave barrier,
// resume from the checkpoint (with a different worker count), and the
// finished summary must be byte-identical to the uninterrupted run's. The
// never-converging novel cell takes the budget the others free, so the
// campaign crosses several wave barriers.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	build := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR"), novelLitmus()},
			Runs:       80,
			SeedBase:   100,
			Workers:    workers,
			Policy:     explore.Converge{},
		}
	}

	// Baseline: uninterrupted, collecting the checkpoint written at every
	// wave barrier (deep-copied: later waves must not alias earlier state).
	var checkpoints []*Checkpoint
	spec := build(2)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	spec.checkpointHook = func(c *Checkpoint) {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var copied Checkpoint
		if err := json.Unmarshal(data, &copied); err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, &copied)
	}
	baseline := Run(spec)
	want := canonicalJSON(t, baseline)
	if len(checkpoints) < 2 || checkpoints[len(checkpoints)-1].Wave < 2 {
		t.Fatalf("campaign wrote %d checkpoint(s) over %d wave(s); the test needs at least 2 waves", len(checkpoints), checkpoints[len(checkpoints)-1].Wave)
	}
	if !checkpoints[len(checkpoints)-1].Complete {
		t.Fatal("final checkpoint not marked complete")
	}

	for i, ck := range checkpoints {
		resumed := build(3) // different worker count: must not matter
		resumed.Resume = ck
		got := canonicalJSON(t, Run(resumed))
		if got != want {
			t.Fatalf("resume from checkpoint %d (wave %d, complete=%v) diverged from the uninterrupted run:\nresumed: %s\nwant:    %s",
				i, ck.Wave, ck.Complete, got, want)
		}
	}
}

// TestUniformCheckpointResume covers the uniform-policy path: the checkpoint
// is written once at completion, and resuming from it replays the summary
// without re-running anything.
func TestUniformCheckpointResume(t *testing.T) {
	build := func() Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "SB+sc")},
			Runs:       8,
			SeedBase:   7,
		}
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	spec := build()
	spec.CheckpointPath = path
	want := canonicalJSON(t, Run(spec))

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Complete {
		t.Fatalf("uniform campaign checkpoint not complete: %+v", ck)
	}
	if err := ck.ValidateAgainst(build()); err != nil {
		t.Fatalf("checkpoint does not validate against its own spec: %v", err)
	}
	resumed := build()
	resumed.Resume = ck
	if got := canonicalJSON(t, Run(resumed)); got != want {
		t.Fatalf("resume from complete checkpoint diverged:\n%s\nwant:\n%s", got, want)
	}
}

// TestValidateAgainstDetectsSpecDrift pins that a checkpoint refuses to
// resume under a spec that would change execution outcomes.
func TestValidateAgainstDetectsSpecDrift(t *testing.T) {
	build := func(runs int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       runs,
			SeedBase:   7,
		}
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	spec := build(4)
	spec.CheckpointPath = path
	Run(spec)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.ValidateAgainst(build(5)); err == nil ||
		!strings.Contains(err.Error(), "digest") {
		t.Errorf("spec drift (runs 4→5) not refused: %v", err)
	}
	// Worker count and output paths are excluded from the digest: resuming on
	// a different machine shape is legitimate.
	same := build(4)
	same.Workers = 13
	same.RecordDir = ""
	if err := ck.ValidateAgainst(same); err != nil {
		t.Errorf("worker-count change refused: %v", err)
	}
	// A cell list that does not match the matrix (a corrupt file) refuses
	// instead of indexing out of range on resume.
	cells := ck.Cells
	ck.Cells = nil
	if err := ck.ValidateAgainst(same); err == nil {
		t.Error("checkpoint without cells accepted")
	}
	ck.Cells = cells
	ck.Cells[0].Program = "seqlock"
	if err := ck.ValidateAgainst(same); err == nil {
		t.Error("checkpoint cell naming another program accepted")
	}
}

// TestCheckpointWriteFailureDoesNotAbort is the ENOSPC fault-injection leg:
// every checkpoint write fails, the campaign must complete with the identical
// summary, counting the failures in CheckpointErrors — one per wave barrier
// plus the final one, over at least 2 waves.
func TestCheckpointWriteFailureDoesNotAbort(t *testing.T) {
	build := func() Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{novelLitmus()},
			Runs:       80,
			SeedBase:   3,
			Policy:     explore.Converge{},
		}
	}
	want := canonicalJSON(t, Run(build()))

	path := filepath.Join(t.TempDir(), "ck.json")
	safeio.SetFailpoint(func(p string) error {
		if p == path {
			return errors.New("injected ENOSPC")
		}
		return nil
	})
	defer safeio.SetFailpoint(nil)
	spec := build()
	spec.CheckpointPath = path
	sum := Run(spec)
	if sum.CheckpointErrors < 3 {
		t.Fatalf("CheckpointErrors = %d, want one per wave over at least 2 waves plus the final checkpoint", sum.CheckpointErrors)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("failed checkpoint writes left a file behind")
	}
	if got := canonicalJSON(t, sum); got != want {
		t.Fatal("campaign outcome changed under checkpoint write failures")
	}
}

// TestLoadCheckpointCorrupt feeds torn and corrupt checkpoint files to the
// loader: structured *safeio.DecodeError, never a panic.
func TestLoadCheckpointCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	spec := Spec{
		Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:           4,
		CheckpointPath: path,
	}
	Run(spec)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// len(data)-1 would only shave the trailing newline and still parse; -2
	// cuts into the closing brace.
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2} {
		torn := filepath.Join(dir, "torn.json")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(torn)
		var de *safeio.DecodeError
		if !errors.As(err, &de) {
			t.Errorf("truncation at byte %d: err = %v, want *safeio.DecodeError", cut, err)
		}
	}
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"schema":"other/thing","schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(wrong); err == nil {
		t.Error("foreign schema accepted as a checkpoint")
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"schema":"c11tester/checkpoint","schema_version":1,"cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(old); err == nil {
		t.Error("v1 checkpoint accepted; its cells carry no CellState")
	}
}

// TestBuildShardManifest pins that the K shard manifests partition every
// cell's seed range exactly.
func TestBuildShardManifest(t *testing.T) {
	build := func(i, n int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       10,
			SeedBase:   50,
			ShardSize:  3,
			Shard:      ShardSel{Index: i, Count: n},
		}
	}
	seeds := map[int64]int{}
	for i := 0; i < 3; i++ {
		spec := build(i, 3)
		m := BuildShardManifest(spec, Run(spec))
		if m.Schema != ShardManifestSchemaName || m.Shard.Index != i {
			t.Fatalf("manifest header = %+v", m)
		}
		if m.Execs == 0 && len(m.SeedRanges) > 0 {
			t.Errorf("shard %d: seed ranges but zero executions", i)
		}
		for _, r := range m.SeedRanges {
			for s := r[0]; s < r[1]; s++ {
				seeds[s]++
			}
		}
	}
	for s := int64(50); s < 60; s++ {
		if seeds[s] != 1 {
			t.Fatalf("seed %d covered %d time(s) across shards, want exactly once", s, seeds[s])
		}
	}
	if len(seeds) != 10 {
		t.Fatalf("shards cover %d seeds, want 10", len(seeds))
	}
}

// seedLog wraps a tool and records every seed it executes.
type seedLog struct {
	capi.Tool
	mu    *sync.Mutex
	seeds map[int64]int
}

func (l seedLog) Execute(p capi.Program, seed int64) *capi.Result {
	l.mu.Lock()
	l.seeds[seed]++
	l.mu.Unlock()
	return l.Tool.Execute(p, seed)
}

func (l seedLog) Close() { closeTool(l.Tool) }

// TestShardDeal pins the one round-robin deal of a cell's chunks: with Runs
// not a multiple of ShardSize, the shards' ranges partition [0, Runs), and
// each shard's planned executions, manifest seed ranges and executed seeds
// all follow its deal.
func TestShardDeal(t *testing.T) {
	const runs, size, seedBase = 11, 3, 100
	for _, count := range []int{1, 3} {
		covered := make([]int, runs)
		for idx := 0; idx < count; idx++ {
			var mu sync.Mutex
			seeds := map[int64]int{}
			ts := mustTool(t, "c11tester", ToolOptions{})
			inner := ts.New
			ts.New = func() capi.Tool { return seedLog{Tool: inner(), mu: &mu, seeds: seeds} }
			tel := NewTelemetry(TelemetryOptions{})
			spec := Spec{
				Tools:      []ToolSpec{ts},
				Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
				Litmus:     []*litmus.Test{mustLitmus(t, "SB+rlx")},
				Runs:       runs, SeedBase: seedBase, ShardSize: size, Workers: 2,
				Shard:     ShardSel{Index: idx, Count: count},
				Telemetry: tel,
			}
			ranges := spec.shardRanges()
			dealt := 0
			want := map[int64]int{}
			for _, r := range ranges {
				if r[0] >= r[1] || r[1] > runs {
					t.Fatalf("%d/%d: bad range %v", idx, count, r)
				}
				for i := r[0]; i < r[1]; i++ {
					covered[i]++
					want[seedBase+int64(i)] = 2 // two cells run every dealt seed
				}
				dealt += r[1] - r[0]
			}
			sum := Run(spec)
			if tel.execsPlanned != 2*dealt {
				t.Errorf("%d/%d: planned %d execs, deal has %d per cell × 2 cells", idx, count, tel.execsPlanned, dealt)
			}
			if sum.Tools[0].Execs != 2*dealt {
				t.Errorf("%d/%d: executed %d execs, want %d", idx, count, sum.Tools[0].Execs, 2*dealt)
			}
			m := BuildShardManifest(spec, sum)
			if len(m.SeedRanges) != len(ranges) {
				t.Fatalf("%d/%d: manifest has %d seed ranges, deal has %d", idx, count, len(m.SeedRanges), len(ranges))
			}
			for i, r := range ranges {
				if m.SeedRanges[i] != [2]int64{seedBase + int64(r[0]), seedBase + int64(r[1])} {
					t.Errorf("%d/%d: manifest range %d = %v, deal %v", idx, count, i, m.SeedRanges[i], r)
				}
			}
			if len(seeds) != len(want) {
				t.Errorf("%d/%d: executed %d distinct seeds, deal has %d", idx, count, len(seeds), len(want))
			}
			for s, n := range want {
				if seeds[s] != n {
					t.Errorf("%d/%d: seed %d executed %d time(s), want %d", idx, count, s, seeds[s], n)
				}
			}
		}
		for i, n := range covered {
			if n != 1 {
				t.Errorf("count %d: execution %d dealt %d time(s), want exactly once", count, i, n)
			}
		}
	}
}

// TestCanonicalEventStreams runs the same campaign sharded (with an event
// stream per shard) and unsharded, and the canonicalized unit-event sets
// must be identical.
func TestCanonicalEventStreams(t *testing.T) {
	dir := t.TempDir()
	build := func(events string) (Spec, func() error) {
		f, err := os.Create(filepath.Join(dir, events))
		if err != nil {
			t.Fatal(err)
		}
		tel := NewTelemetry(TelemetryOptions{EventSink: f})
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
			Runs:       9,
			SeedBase:   20,
			ShardSize:  2,
			Telemetry:  tel,
		}, f.Close
	}

	spec, done := build("single.jsonl")
	Run(spec)
	if err := done(); err != nil {
		t.Fatal(err)
	}
	var shardPaths []string
	for i := 0; i < 3; i++ {
		name := filepath.Join("", "shard"+string(rune('0'+i))+".jsonl")
		spec, done := build(name)
		spec.Shard = ShardSel{Index: i, Count: 3}
		Run(spec)
		if err := done(); err != nil {
			t.Fatal(err)
		}
		shardPaths = append(shardPaths, filepath.Join(dir, name))
	}

	single, bad, err := CanonicalEvents(filepath.Join(dir, "single.jsonl"))
	if err != nil || bad != 0 {
		t.Fatalf("single stream: bad=%d err=%v", bad, err)
	}
	merged, bad, err := CanonicalEvents(shardPaths...)
	if err != nil || bad != 0 {
		t.Fatalf("shard streams: bad=%d err=%v", bad, err)
	}
	if len(single) == 0 {
		t.Fatal("canonical stream is empty")
	}
	if strings.Join(single, "\n") != strings.Join(merged, "\n") {
		t.Fatalf("canonical event sets differ:\nsingle (%d): %v\nmerged (%d): %v",
			len(single), single, len(merged), merged)
	}
}

// TestResumeFreshStartRotatesEventStream pins the stream hygiene of the
// idempotent `-checkpoint ck -resume ck` loop: a run killed before its first
// checkpoint leaves an event stream that may end in a torn line, and the next
// attempt — a fresh start, since no checkpoint exists — must append to a new
// file rather than after that torn line.
func TestResumeFreshStartRotatesEventStream(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "ev.jsonl")
	if err := os.WriteFile(events, []byte(`{"type":"campaign_start"}`+"\n"+`{"type":"uni`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Tools: []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")}, Runs: 4}
	ck := filepath.Join(dir, "ck.json")
	if err := (CrashFlags{Checkpoint: ck, Resume: ck}).Apply(&spec, events, nil); err != nil {
		t.Fatal(err)
	}
	if spec.Resume != nil {
		t.Fatal("a missing checkpoint must start fresh")
	}
	if _, err := os.Stat(events); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("previous event stream not rotated aside (stat: %v)", err)
	}
	if _, err := os.Stat(events + ".1"); err != nil {
		t.Fatalf("rotated stream missing: %v", err)
	}
}
