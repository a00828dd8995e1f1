// checkpoint.go is the crash-safety core of the campaign runner: seed-slice
// sharding (ShardSel), the spec digest that gates merging and resuming, and
// the wave-barrier checkpoint (Checkpoint) a killed campaign resumes from.
//
// The design leans entirely on the package invariant that every execution is
// a pure function of (tool, program, seed) and that all budget decisions
// happen at deterministic wave barriers. A checkpoint therefore only has to
// persist barrier state — per-cell budgets and one folded CellState per
// cell, from which the converge policy decides — and a resumed run re-enters
// the wave loop as if the completed waves had just run: CellState.Merge is
// associative, so folding the remaining units into the restored states
// yields the state an uninterrupted run folds, and the finished artifact is
// byte-identical (Summary.Canonical).
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"c11tester/internal/obs"
	"c11tester/internal/rng"
	"c11tester/internal/safeio"
	"c11tester/internal/trace"
)

// ShardSel selects shard Index of Count for a sharded campaign run. The zero
// value means "unsharded".
type ShardSel struct {
	Index int
	Count int
}

func (s ShardSel) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses the CLI shard selector "index/count" (e.g. "0/3").
func ParseShard(s string) (ShardSel, error) {
	head, tail, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSel{}, fmt.Errorf("shard %q: want \"index/count\", e.g. 0/3", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(head))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(tail))
	if err1 != nil || err2 != nil {
		return ShardSel{}, fmt.Errorf("shard %q: want \"index/count\", e.g. 0/3", s)
	}
	sel := ShardSel{Index: idx, Count: cnt}
	if cnt < 1 || idx < 0 || idx >= cnt {
		return ShardSel{}, fmt.Errorf("shard %s out of range (want 0 ≤ index < count)", sel)
	}
	return sel, nil
}

// ShardInfo is the shard header a partial summary carries (schema v6): which
// slice this is and the digest of the spec that cut it. cmd/c11merge refuses
// partials whose digests differ.
type ShardInfo struct {
	Index      int    `json:"index"`
	Count      int    `json:"count"`
	SpecDigest string `json:"spec_digest"`
}

// SpecDigest fingerprints every outcome-affecting campaign parameter: the
// tool set (name, repro flags, baseline flavour, trace identity), the program
// matrix, Runs/SeedBase/ShardSize, the budget policy, the guide configuration,
// and the validation/record/capture duties. Two specs with equal digests run
// identical execution sets with identical duties; Workers and artifact paths
// deliberately do not participate (they change where and how fast, never
// what).
func SpecDigest(spec Spec) string {
	spec = spec.withDefaults()
	type digestTool struct {
		Name       string           `json:"name"`
		ReproFlags string           `json:"repro_flags"`
		Baseline   bool             `json:"baseline"`
		Trace      trace.ToolConfig `json:"trace"`
	}
	d := struct {
		Tools         []digestTool `json:"tools"`
		Benchmarks    []string     `json:"benchmarks"`
		Litmus        []string     `json:"litmus"`
		Runs          int          `json:"runs"`
		SeedBase      int64        `json:"seed_base"`
		ShardSize     int          `json:"shard_size"`
		Policy        string       `json:"policy"`
		GuideDir      string       `json:"guide_dir,omitempty"`
		GuideTraces   int          `json:"guide_traces,omitempty"`
		GuideMinFrac  float64      `json:"guide_min_frac,omitempty"`
		GuideMaxFrac  float64      `json:"guide_max_frac,omitempty"`
		Validate      bool         `json:"validate,omitempty"`
		Record        bool         `json:"record,omitempty"`
		RecordAll     bool         `json:"record_all,omitempty"`
		Capture       bool         `json:"capture,omitempty"`
		CaptureSlowNS bool         `json:"capture_slow_ns,omitempty"`
		// Analyzers change what a campaign observes and reports, so they are
		// digest material; omitempty keeps pre-analyzer digests unchanged.
		Analyzers []string `json:"analyzers,omitempty"`
	}{
		Benchmarks: []string{}, Litmus: []string{},
		Runs: spec.Runs, SeedBase: spec.SeedBase, ShardSize: spec.ShardSize,
		Policy:   spec.Policy.Name(),
		Validate: spec.ValidateAxioms,
		Record:   spec.RecordDir != "", RecordAll: spec.RecordAll,
		Capture: spec.CaptureDir != "", CaptureSlowNS: spec.CaptureSlowNS,
	}
	for _, t := range spec.Tools {
		d.Tools = append(d.Tools, digestTool{Name: t.Name, ReproFlags: t.ReproFlags,
			Baseline: t.Baseline, Trace: t.TraceConfig})
	}
	for _, b := range spec.Benchmarks {
		d.Benchmarks = append(d.Benchmarks, b.Name)
	}
	for _, l := range spec.Litmus {
		d.Litmus = append(d.Litmus, l.Name)
	}
	if spec.Guides != nil {
		d.GuideDir = spec.Guides.Dir()
		d.GuideTraces = spec.Guides.Len()
		d.GuideMinFrac = spec.GuideMinFrac
		d.GuideMaxFrac = spec.GuideMaxFrac
	}
	if len(spec.Analyzers) > 0 {
		d.Analyzers = spec.Analyzers
	}
	b, err := json.Marshal(d)
	if err != nil {
		// Every field above is a plain value; Marshal cannot fail. Keep the
		// signature infallible.
		panic(fmt.Sprintf("campaign: spec digest: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// Schema identifiers of the serialized checkpoint. v2: cells carry their
// folded CellState (the shard-partial payload) and the barrier's capture
// records travel with the checkpoint. v3: race hits carry per-execution
// counts, which the converge policy reads, and cells carry no tracker.
const (
	CheckpointSchemaName    = "c11tester/checkpoint"
	CheckpointSchemaVersion = 3
)

// Checkpoint is the wave-barrier state of a campaign: everything a resumed
// run needs to re-enter at the first incomplete wave and finish with an
// artifact byte-identical (Summary.Canonical) to an uninterrupted run.
type Checkpoint struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	SpecDigest    string   `json:"spec_digest"`
	Spec          SpecInfo `json:"spec"`
	// Provenance pins the build that wrote the checkpoint; resuming under a
	// skewed build is refused (a different toolchain may schedule
	// differently).
	Provenance *Provenance `json:"provenance,omitempty"`
	// Wave is the last completed wave; Complete marks the whole matrix done
	// (resuming a Complete checkpoint rebuilds the artifacts without running
	// anything).
	Wave     int  `json:"wave"`
	Complete bool `json:"complete,omitempty"`
	// Event cursors: accounting of the append-only event stream at the
	// barrier, for introspection and post-crash audit.
	EventsEmitted uint64 `json:"events_emitted,omitempty"`
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// Captures are the flight-recorder capture records at the barrier, in
	// manifest order; a resumed run's manifest starts from them.
	Captures []obs.CaptureRecord `json:"captures,omitempty"`
	// Cells holds one entry per campaign cell, in matrix order (tool-major,
	// benchmarks before litmus tests).
	Cells []CellCheckpoint `json:"cells"`
}

// CellCheckpoint is one cell's barrier state: its budget accounting and its
// folded state.
type CellCheckpoint struct {
	Tool    string    `json:"tool"`
	Program string    `json:"program"`
	Used    int       `json:"used"`
	Stopped bool      `json:"stopped,omitempty"`
	State   CellState `json:"state"`
}

// buildCheckpoint snapshots the barrier state: one CellCheckpoint per cell,
// in matrix order. plans supplies budget state under an adaptive policy;
// nil (uniform) means every cell ran its whole budget.
func buildCheckpoint(spec Spec, tel *Telemetry, wave int, complete bool, plans []*cellPlan, f *fold) *Checkpoint {
	c := &Checkpoint{
		Schema: CheckpointSchemaName, SchemaVersion: CheckpointSchemaVersion,
		SpecDigest: SpecDigest(spec), Spec: spec.Info(),
		Provenance: BuildProvenance(),
		Wave:       wave, Complete: complete,
		EventsEmitted: tel.EventsEmitted(), EventsDropped: tel.EventsDropped(),
		Captures: captureManifest(f.captures).Captures,
		Cells:    []CellCheckpoint{},
	}
	states := tel.observed(spec, f.states)
	for i, j := range spec.cellJobs() {
		cc := CellCheckpoint{Tool: spec.Tools[j.tool].Name, Program: spec.programName(j),
			Used: spec.Runs, State: states[i]}
		if plans != nil {
			cc.Used, cc.Stopped = plans[i].used, plans[i].stopped
		}
		c.Cells = append(c.Cells, cc)
	}
	return c
}

// restore folds a checkpoint's barrier state into a fresh run — the cells'
// states and capture records into f, budgets into plans — leaving the
// checkpoint itself unmodified.
func restore(c *Checkpoint, f *fold, plans []*cellPlan) {
	for i := range c.Cells {
		if i == len(f.states) {
			// Unreachable behind ValidateAgainst (it pins the matrix);
			// stopping beats indexing out of range.
			break
		}
		cc := &c.Cells[i]
		f.states[i].Merge(&cc.State)
		plans[i].used, plans[i].stopped = cc.Used, cc.Stopped
	}
	f.captures = append(f.captures, c.Captures...)
}

// ckState carries the checkpoint duty through the runner: the target path
// (empty = disarmed), the test hook, and the write-failure count surfaced as
// Summary.CheckpointErrors. Checkpoint failures never abort a campaign — a
// full disk costs the resume point, not the run.
type ckState struct {
	path string
	hook func(*Checkpoint)
	errs int
}

func (ck *ckState) save(spec Spec, tel *Telemetry, wave int, complete bool, plans []*cellPlan, f *fold) {
	if ck.path == "" {
		return
	}
	// The checkpoint's event cursor must not run ahead of the durable stream:
	// flush queued event lines before persisting the barrier state.
	tel.syncEvents()
	c := buildCheckpoint(spec, tel, wave, complete, plans, f)
	if ck.hook != nil {
		ck.hook(c)
	}
	if err := safeio.WriteJSONAtomic(ck.path, c, 0o644); err != nil {
		ck.errs++
		fmt.Fprintf(os.Stderr, "campaign: checkpoint: %v\n", err)
	}
}

// LoadCheckpoint reads and schema-checks a checkpoint. Truncated or corrupt
// files come back as a *safeio.DecodeError naming the byte offset.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var c Checkpoint
	if err := safeio.DecodeJSONFile(path, &c); err != nil {
		return nil, err
	}
	if c.Schema != CheckpointSchemaName {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, c.Schema, CheckpointSchemaName)
	}
	if err := rng.Check(c.Spec.RNG); err != nil {
		return nil, fmt.Errorf("campaign: %s: %v", path, err)
	}
	if c.SchemaVersion != CheckpointSchemaVersion {
		return nil, fmt.Errorf("campaign: %s: checkpoint schema version %d; resuming needs exactly %d (start the campaign over)", path, c.SchemaVersion, CheckpointSchemaVersion)
	}
	return &c, nil
}

// ValidateAgainst reports why the checkpoint cannot resume the given spec:
// a spec-digest mismatch (different execution set or duties), build
// provenance skew (a different toolchain cannot promise identical replay),
// or a cell list that does not match the spec's matrix (a corrupt file).
func (c *Checkpoint) ValidateAgainst(spec Spec) error {
	if d := SpecDigest(spec); c.SpecDigest != d {
		return fmt.Errorf("campaign: checkpoint was cut from a different campaign spec (digest %.12s… vs %.12s…): resuming would mix incompatible runs — point -checkpoint at a fresh path to start over", c.SpecDigest, d)
	}
	if skew := BuildProvenance().Skew(c.Provenance); len(skew) > 0 {
		return fmt.Errorf("campaign: checkpoint build provenance skew (%s): a different build cannot promise byte-identical resume — re-run the campaign from scratch", strings.Join(skew, "; "))
	}
	cells := spec.cellJobs()
	if len(c.Cells) != len(cells) {
		return fmt.Errorf("campaign: checkpoint holds %d cell(s), the spec's matrix has %d", len(c.Cells), len(cells))
	}
	for i, j := range cells {
		if tool, prog := spec.Tools[j.tool].Name, spec.programName(j); c.Cells[i].Tool != tool || c.Cells[i].Program != prog {
			return fmt.Errorf("campaign: checkpoint cell %d is %s/%s, the spec's is %s/%s", i, c.Cells[i].Tool, c.Cells[i].Program, tool, prog)
		}
		if err := c.Cells[i].State.check(); err != nil {
			return fmt.Errorf("campaign: checkpoint cell %d (%s/%s): %v", i, c.Cells[i].Tool, c.Cells[i].Program, err)
		}
	}
	return nil
}
