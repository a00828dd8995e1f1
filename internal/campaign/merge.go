// merge.go folds the partial artifacts of a sharded campaign — summaries,
// capture manifests, event streams — back into the single-machine artifact.
// Shards partition the execution set (each seed runs in exactly one shard),
// and every partial summary carries its cells' mergeable state (schema v9).
// MergeSummaries validates the partials, folds each cell's states with
// CellState.Merge — associative and commutative, so shard order and grouping
// cannot matter — and renders the folded cells through the same function
// Run uses. The merge is therefore exact: the merged summary is
// byte-identical (Summary.Canonical) to the summary of an unsharded run.
//
// Merging refuses partials that were not cut from the same campaign: every
// partial carries its spec digest (ShardInfo.SpecDigest) and build
// provenance, and mismatched digests, duplicate or missing shard indices,
// provenance skew, and cell states that do not match the spec's matrix are
// structured errors, not silently wrong artifacts.
package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// MergeSummaries folds K shard partials into the whole-campaign summary.
// Parts may be given in any order; they are validated (same spec digest, same
// shard count, indices exactly 0..K-1, this schema version, uniform policy,
// one cell state per matrix cell) and merged deterministically. force skips
// the provenance-skew refusal (never the digest checks).
func MergeSummaries(parts []*Summary, force bool) (*Summary, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: merge: no partial summaries")
	}
	sorted := make([]*Summary, len(parts))
	copy(sorted, parts)
	for _, p := range sorted {
		if p.Schema != SchemaName {
			return nil, fmt.Errorf("campaign: merge: schema %q, want %q", p.Schema, SchemaName)
		}
		if p.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("campaign: merge: partial has schema version %d; merging needs exactly %d (regenerate the shards with this build)", p.SchemaVersion, SchemaVersion)
		}
		if p.Shard == nil {
			return nil, fmt.Errorf("campaign: merge: summary has no shard header (not a partial — was it produced with -shard?)")
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard.Index < sorted[j].Shard.Index })
	first := sorted[0]
	if len(sorted) != first.Shard.Count {
		return nil, fmt.Errorf("campaign: merge: have %d partial(s), shard headers say count=%d", len(sorted), first.Shard.Count)
	}
	for i, p := range sorted {
		if p.Shard.Index != i {
			return nil, fmt.Errorf("campaign: merge: shard indices are not exactly 0..%d (duplicate or missing shard %d)", first.Shard.Count-1, i)
		}
		if p.Shard.SpecDigest != first.Shard.SpecDigest {
			return nil, fmt.Errorf("campaign: merge: shard %d was cut from a different campaign spec (digest %.12s… vs %.12s…)", p.Shard.Index, p.Shard.SpecDigest, first.Shard.SpecDigest)
		}
		if p.Spec.Policy != "" && p.Spec.Policy != "uniform" {
			return nil, fmt.Errorf("campaign: merge: shard %d ran policy %q; only uniform campaigns shard", p.Shard.Index, p.Spec.Policy)
		}
		if skew := first.Provenance.Skew(p.Provenance); len(skew) > 0 && !force {
			return nil, fmt.Errorf("campaign: merge: shard %d build provenance skew (%s); pass -force to merge anyway", p.Shard.Index, strings.Join(skew, "; "))
		}
		if err := checkCells(p, first); err != nil {
			return nil, fmt.Errorf("campaign: merge: shard %d: %v", p.Shard.Index, err)
		}
	}

	cells := make([]Cell, len(first.Cells))
	for i := range cells {
		cells[i] = first.Cells[i]
		cells[i].State = CellState{}
		for _, p := range sorted {
			cells[i].State.Merge(&p.Cells[i].State)
		}
	}
	// Workers describes one machine's pool; a merged artifact has no single
	// meaningful value. Canonical zeroes it anyway.
	info := first.Spec
	info.Workers = 0
	m := render(info, cells)
	m.Provenance = first.Provenance
	var obsAcc ObsSummary
	for _, p := range sorted {
		m.WallNS += p.WallNS
		m.GC.AllocBytes += p.GC.AllocBytes
		m.GC.Mallocs += p.GC.Mallocs
		m.GC.NumGC += p.GC.NumGC
		m.GC.PauseTotalNS += p.GC.PauseTotalNS
		m.CheckpointErrors += p.CheckpointErrors
		if p.Obs != nil {
			m.Obs = &obsAcc
			obsAcc.EventsEmitted += p.Obs.EventsEmitted
			obsAcc.EventsDropped += p.Obs.EventsDropped
		}
	}
	return m, nil
}

// checkCells validates a partial's cell states as input from outside the
// program: one per matrix cell of the partial's own spec, each naming the
// tool and program the spec puts at its position, and the same matrix as
// the first partial's.
func checkCells(p, first *Summary) error {
	if len(p.Cells) == 0 {
		return fmt.Errorf("partial carries no cell states (schema v%d partials do; regenerate the shard)", SchemaVersion)
	}
	info := p.Spec
	perTool := len(info.Benchmarks) + len(info.Litmus)
	if want := len(info.Tools) * perTool; len(p.Cells) != want {
		return fmt.Errorf("partial carries %d cell state(s), its spec's matrix has %d (%d tool(s) × %d program(s))",
			len(p.Cells), want, len(info.Tools), perTool)
	}
	if len(p.Cells) != len(first.Cells) {
		return fmt.Errorf("partial's matrix has %d cell(s), shard %d's has %d", len(p.Cells), first.Shard.Index, len(first.Cells))
	}
	for i := range p.Cells {
		c := &p.Cells[i]
		tool, prog, litmus := info.Tools[i/perTool], "", i%perTool >= len(info.Benchmarks)
		if litmus {
			prog = info.Litmus[i%perTool-len(info.Benchmarks)]
		} else {
			prog = info.Benchmarks[i%perTool]
		}
		if c.Tool != tool || c.Program != prog || c.Litmus != litmus {
			return fmt.Errorf("cell %d names %s/%s (litmus=%v), the partial's spec puts %s/%s (litmus=%v) there",
				i, c.Tool, c.Program, c.Litmus, tool, prog, litmus)
		}
		if f := &first.Cells[i]; c.Tool != f.Tool || c.Program != f.Program || c.Litmus != f.Litmus {
			return fmt.Errorf("cell %d names %s/%s, shard %d's names %s/%s", i, c.Tool, c.Program, first.Shard.Index, f.Tool, f.Program)
		}
		if err := c.State.check(); err != nil {
			return fmt.Errorf("cell %d (%s/%s): %v", i, c.Tool, c.Program, err)
		}
	}
	return nil
}

// MergeManifests folds the shards' capture manifests into one, re-sorted
// canonically. Shards capture disjoint seed sets, so concatenation is exact.
func MergeManifests(parts []*obs.Manifest) *obs.Manifest {
	m := obs.NewManifest()
	m.Captures = []obs.CaptureRecord{}
	for _, p := range parts {
		m.Captures = append(m.Captures, p.Captures...)
	}
	m.Sort()
	return m
}

// lifecycleEvents are shard-local: their counts describe one process's run
// (its own wave barriers and campaign bracket), not the campaign outcome, so
// the canonical merged stream drops them.
var lifecycleEvents = map[string]bool{
	"campaign_start": true,
	"campaign_end":   true,
	"wave_start":     true,
	"wave_end":       true,
}

// CanonicalEvents reads one or more JSONL event streams and returns the
// canonical unit-level line set: lifecycle events dropped, timestamps
// stripped, lines re-marshaled through the Event schema and sorted. Two
// streams that observed the same executions — one machine or K shards, any
// worker interleaving — canonicalize to identical line sets. bad counts
// unparseable (torn) lines across all inputs.
func CanonicalEvents(paths ...string) (lines []string, bad int, err error) {
	lines = []string{}
	for _, path := range paths {
		b, err := safeio.ForEachJSONLine(path, func(line []byte) bool {
			var ev Event
			if json.Unmarshal(line, &ev) != nil || ev.Type == "" {
				return false
			}
			if lifecycleEvents[ev.Type] {
				return true
			}
			ev.T = 0
			// Re-marshal through the struct: field order is fixed by the
			// type, so equal events render equal bytes.
			out, err := json.Marshal(ev)
			if err != nil {
				return false
			}
			lines = append(lines, string(out))
			return true
		})
		bad += b
		if err != nil {
			return nil, bad, err
		}
	}
	sort.Strings(lines)
	return lines, bad, nil
}

// Schema identifiers of the shard manifest written next to a partial summary.
const (
	ShardManifestSchemaName    = "c11tester/shard"
	ShardManifestSchemaVersion = 1
)

// ShardManifest describes one shard's slice of a campaign: which shard, cut
// by which spec (digest + echo), built where, covering which seed ranges,
// with the partial's event/capture accounting. It makes a directory of
// partials auditable before merging.
type ShardManifest struct {
	Schema        string      `json:"schema"`
	SchemaVersion int         `json:"schema_version"`
	Shard         ShardInfo   `json:"shard"`
	Spec          SpecInfo    `json:"spec"`
	Provenance    *Provenance `json:"provenance,omitempty"`
	// SeedRanges are the [lo, hi) seed sub-ranges this shard ran in every
	// cell (the round-robin deal of the cell's chunk sequence).
	SeedRanges [][2]int64 `json:"seed_ranges"`
	// Execs counts completed executions; events/captures mirror the
	// summary's accounting.
	Execs         int    `json:"execs"`
	EventsEmitted uint64 `json:"events_emitted,omitempty"`
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	Captures      int    `json:"captures,omitempty"`
}

// BuildShardManifest renders the manifest of one partial summary.
func BuildShardManifest(spec Spec, sum *Summary) *ShardManifest {
	spec = spec.withDefaults()
	m := &ShardManifest{
		Schema: ShardManifestSchemaName, SchemaVersion: ShardManifestSchemaVersion,
		Spec:       sum.Spec,
		Provenance: sum.Provenance,
		SeedRanges: [][2]int64{},
	}
	if sum.Shard != nil {
		m.Shard = *sum.Shard
	}
	for _, r := range spec.shardRanges() {
		m.SeedRanges = append(m.SeedRanges, [2]int64{spec.SeedBase + int64(r[0]), spec.SeedBase + int64(r[1])})
	}
	for _, ts := range sum.Tools {
		m.Execs += ts.Execs
		m.Captures += ts.Captures
	}
	if sum.Obs != nil {
		m.EventsEmitted = sum.Obs.EventsEmitted
		m.EventsDropped = sum.Obs.EventsDropped
	}
	return m
}

// WriteFile persists the shard manifest atomically.
func (m *ShardManifest) WriteFile(path string) error {
	return safeio.WriteJSONAtomic(path, m, 0o644)
}
