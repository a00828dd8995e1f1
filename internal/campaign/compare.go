package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"c11tester/internal/harness"
	"c11tester/internal/obs"
	"c11tester/internal/rng"
	"c11tester/internal/safeio"
)

// SplitComparePaths resolves the -compare argument convention shared by
// cmd/c11tester and cmd/c11bench: the new artifact either follows as a
// positional argument ("-compare old.json new.json") or is joined with a
// comma ("-compare old.json,new.json").
func SplitComparePaths(oldArg string, positional []string) (oldPath, newPath string, err error) {
	oldPath = oldArg
	if i := strings.IndexByte(oldArg, ','); i >= 0 {
		oldPath, newPath = oldArg[:i], oldArg[i+1:]
	} else if len(positional) == 1 {
		newPath = positional[0]
	}
	if oldPath == "" || newPath == "" {
		return "", "", fmt.Errorf("-compare needs two artifacts: -compare old.json new.json")
	}
	return oldPath, newPath, nil
}

// LoadSummary reads a serialized campaign artifact (BENCH_campaign.json)
// and sanity-checks its schema header. Versions 8 through SchemaVersion are
// accepted — comparison only touches fields that exist in every one of them;
// newer versions are rejected, since a bump signals an incompatible reshape
// that would silently decode to zero values here. Versions before 8 predate
// the PCG source: their decision streams were drawn from math/rand, so they
// are refused like an artifact that names "legacy".
func LoadSummary(path string) (*Summary, error) {
	var s Summary
	if err := safeio.DecodeJSONFile(path, &s); err != nil {
		// A truncated artifact (a campaign killed mid-write predates the
		// atomic writer) comes back named with its byte offset.
		return nil, err
	}
	if s.Schema != SchemaName {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, s.Schema, SchemaName)
	}
	if s.SchemaVersion < 1 || s.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("campaign: %s: schema version %d, this build understands 8..%d",
			path, s.SchemaVersion, SchemaVersion)
	}
	source := s.Spec.RNG
	if s.SchemaVersion < firstPCGSchemaVersion {
		source = "legacy"
	}
	if err := rng.Check(source); err != nil {
		return nil, fmt.Errorf("campaign: %s: %v", path, err)
	}
	return &s, nil
}

// firstPCGSchemaVersion is the first summary schema whose campaigns could
// draw from PCG; every earlier artifact was drawn from math/rand.
const firstPCGSchemaVersion = 8

// CellDelta is the detection-rate movement of one (tool, benchmark) cell.
type CellDelta struct {
	Tool      string  `json:"tool"`
	Benchmark string  `json:"benchmark"`
	OldPct    float64 `json:"old_pct"`
	NewPct    float64 `json:"new_pct"`
	DeltaPct  float64 `json:"delta_pct"`
}

// LitmusDelta is the weak-outcome-coverage movement of one (tool, test)
// cell: which allowed-but-non-SC outcomes each artifact observed. Coverage of
// weak outcomes is what separates the full fragment from the baselines', so
// losing it to a "perf win" is a regression the trajectory check must catch.
type LitmusDelta struct {
	Tool        string `json:"tool"`
	Test        string `json:"test"`
	OldWeak     int    `json:"old_weak"`
	NewWeak     int    `json:"new_weak"`
	WeakDefined int    `json:"weak_defined"`
	// LostOutcomes are weak outcomes observed only in the old artifact;
	// GainedOutcomes only in the new one.
	LostOutcomes   []string `json:"lost_outcomes,omitempty"`
	GainedOutcomes []string `json:"gained_outcomes,omitempty"`
}

// ValidationDelta compares the axiomatic-validation results of two -validate
// campaigns (present only when both artifacts carry them, schema v2).
type ValidationDelta struct {
	OldChecked    int `json:"old_checked"`
	NewChecked    int `json:"new_checked"`
	OldViolations int `json:"old_violations"`
	NewViolations int `json:"new_violations"`
}

// ToolDelta is the per-tool movement between two campaign artifacts.
type ToolDelta struct {
	Tool string `json:"tool"`
	// ThroughputRatio is new execs/sec over old execs/sec (>1 is faster).
	OldExecsPerSec  float64 `json:"old_execs_per_sec"`
	NewExecsPerSec  float64 `json:"new_execs_per_sec"`
	ThroughputRatio float64 `json:"throughput_ratio"`
	// NewRaceKeys are race keys present only in the new artifact; LostRaceKeys
	// only in the old one.
	NewRaceKeys  []string `json:"new_race_keys,omitempty"`
	LostRaceKeys []string `json:"lost_race_keys,omitempty"`
	// NewFindingKeys and LostFindingKeys are analyzer finding identities
	// ("analyzer program key") present in only one artifact (schema v7),
	// compared only when both artifacts ran the same analyzer set — an
	// artifact without analyzers has nothing to lose.
	NewFindingKeys  []string    `json:"new_finding_keys,omitempty"`
	LostFindingKeys []string    `json:"lost_finding_keys,omitempty"`
	Detection       []CellDelta `json:"detection,omitempty"`
	// LostCells are the old artifact's cells of this tool that the new one
	// does not have (litmus cells carry the litmus/ prefix): their race keys
	// and weak outcomes are lost with them.
	LostCells []string `json:"lost_cells,omitempty"`
	// Litmus lists the (tool, test) cells whose weak-outcome coverage moved.
	Litmus []LitmusDelta `json:"litmus,omitempty"`
	// Validation is present when both artifacts carry validation results.
	Validation *ValidationDelta `json:"validation,omitempty"`
	// OldP99NS/NewP99NS are the tool's p99 ns/exec from the merged per-cell
	// timing histograms (schema v4; zero when either artifact predates them).
	// Report-only: wall-clock quantiles are not comparable across machines,
	// so drift is surfaced in the report but never gates Regressed.
	OldP99NS uint64 `json:"old_p99_ns,omitempty"`
	NewP99NS uint64 `json:"new_p99_ns,omitempty"`
}

// Comparison diffs two campaign artifacts for PR-to-PR trajectory tracking.
// Tools and benchmarks are matched by name; entries present in only one
// artifact are listed as unmatched.
type Comparison struct {
	Tools        []ToolDelta `json:"tools"`
	UnmatchedOld []string    `json:"unmatched_old,omitempty"`
	UnmatchedNew []string    `json:"unmatched_new,omitempty"`
	OldWall      int64       `json:"old_wall_ns"`
	NewWall      int64       `json:"new_wall_ns"`
	OldSchemaVer int         `json:"old_schema_version"`
	NewSchemaVer int         `json:"new_schema_version"`
	// OldDropped/NewDropped are the artifacts' event-stream drop counters
	// (schema v4). A nonzero NewDropped means the new run's bounded event
	// channel overflowed — its JSONL stream is incomplete — and is gated as a
	// regression.
	OldDropped uint64 `json:"old_events_dropped,omitempty"`
	NewDropped uint64 `json:"new_events_dropped,omitempty"`
	// ProvenanceSkew lists build-provenance fields on which the two artifacts
	// disagree (schema v5). Report-only: wall-clock comparisons across builds
	// are already flagged as incomparable, and skew alone is not a regression.
	ProvenanceSkew []string `json:"provenance_skew,omitempty"`
}

// Compare diffs two campaign summaries.
func Compare(old, new *Summary) *Comparison {
	c := &Comparison{
		OldWall: old.WallNS, NewWall: new.WallNS,
		OldSchemaVer: old.SchemaVersion, NewSchemaVer: new.SchemaVersion,
	}
	if old.Obs != nil {
		c.OldDropped = old.Obs.EventsDropped
	}
	if new.Obs != nil {
		c.NewDropped = new.Obs.EventsDropped
	}
	c.ProvenanceSkew = old.Provenance.Skew(new.Provenance)
	oldTools := map[string]*ToolSummary{}
	for i := range old.Tools {
		oldTools[old.Tools[i].Tool] = &old.Tools[i]
	}
	matched := map[string]bool{}
	for i := range new.Tools {
		nt := &new.Tools[i]
		ot, ok := oldTools[nt.Tool]
		if !ok {
			c.UnmatchedNew = append(c.UnmatchedNew, nt.Tool)
			continue
		}
		matched[nt.Tool] = true
		td := ToolDelta{
			Tool:           nt.Tool,
			OldExecsPerSec: ot.ExecsPerSec, NewExecsPerSec: nt.ExecsPerSec,
		}
		if ot.ExecsPerSec > 0 {
			td.ThroughputRatio = nt.ExecsPerSec / ot.ExecsPerSec
		}
		td.NewRaceKeys, td.LostRaceKeys = diffRaceKeys(ot.Races, nt.Races)
		if sameAnalyzers(old.Spec.Analyzers, new.Spec.Analyzers) {
			lost, gained := diffOutcomes(findingIdents(ot.Findings), findingIdents(nt.Findings))
			td.LostFindingKeys, td.NewFindingKeys = lost, gained
		}

		newCells := map[string]bool{}
		for _, cell := range nt.Benchmarks {
			newCells[cell.Program] = true
		}
		for _, ls := range nt.Litmus {
			newCells["litmus/"+ls.Test] = true
		}
		oldCells := map[string]harness.DetectionSummary{}
		for _, cell := range ot.Benchmarks {
			oldCells[cell.Program] = cell.Detection
			if !newCells[cell.Program] {
				td.LostCells = append(td.LostCells, cell.Program)
			}
		}
		for _, ls := range ot.Litmus {
			if !newCells["litmus/"+ls.Test] {
				td.LostCells = append(td.LostCells, "litmus/"+ls.Test)
			}
		}
		for _, cell := range nt.Benchmarks {
			od, ok := oldCells[cell.Program]
			if !ok {
				continue
			}
			td.Detection = append(td.Detection, CellDelta{
				Tool: nt.Tool, Benchmark: cell.Program,
				OldPct: od.RatePct, NewPct: cell.Detection.RatePct,
				DeltaPct: cell.Detection.RatePct - od.RatePct,
			})
		}

		oldLit := map[string]LitmusSummary{}
		for _, ls := range ot.Litmus {
			oldLit[ls.Test] = ls
		}
		for _, ls := range nt.Litmus {
			ols, ok := oldLit[ls.Test]
			if !ok {
				continue
			}
			lost, gained := diffOutcomes(ols.WeakSeen, ls.WeakSeen)
			if len(lost) == 0 && len(gained) == 0 {
				continue
			}
			td.Litmus = append(td.Litmus, LitmusDelta{
				Tool: nt.Tool, Test: ls.Test,
				OldWeak: len(ols.WeakSeen), NewWeak: len(ls.WeakSeen),
				WeakDefined:  ls.WeakDefined,
				LostOutcomes: lost, GainedOutcomes: gained,
			})
		}

		if ot.Validation != nil && nt.Validation != nil {
			td.Validation = &ValidationDelta{
				OldChecked: ot.Validation.Checked, NewChecked: nt.Validation.Checked,
				OldViolations: ot.Validation.Violations, NewViolations: nt.Validation.Violations,
			}
		}
		td.OldP99NS = toolP99(ot)
		td.NewP99NS = toolP99(nt)
		c.Tools = append(c.Tools, td)
	}
	for _, ot := range old.Tools {
		if !matched[ot.Tool] {
			c.UnmatchedOld = append(c.UnmatchedOld, ot.Tool)
		}
	}
	return c
}

// toolP99 merges a tool's per-cell ns/exec timing snapshots (schema v4) and
// returns the merged p99, or 0 when the artifact carries no timing data.
func toolP99(ts *ToolSummary) uint64 {
	merged := &obs.HistogramSnapshot{}
	for i := range ts.Benchmarks {
		merged.Merge(ts.Benchmarks[i].Timing)
	}
	for i := range ts.Litmus {
		merged.Merge(ts.Litmus[i].Timing)
	}
	return merged.P99
}

// sameAnalyzers reports whether two artifacts ran the same non-empty
// analyzer set, making their finding lists comparable.
func sameAnalyzers(old, new []string) bool {
	if len(old) == 0 || len(old) != len(new) {
		return false
	}
	for i := range old {
		if old[i] != new[i] {
			return false
		}
	}
	return true
}

// findingIdents renders a finding list as sortable identity strings
// ("analyzer program key"; litmus programs carry the litmus/ prefix).
func findingIdents(fs []FindingSummary) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		program := f.Program
		if f.Litmus {
			program = "litmus/" + program
		}
		out[i] = f.Analyzer + " " + program + " " + f.Key
	}
	return out
}

// diffOutcomes returns the outcomes only in old (lost) and only in new
// (gained), sorted. Inputs are the sorted WeakSeen lists of a litmus cell.
func diffOutcomes(old, new []string) (lost, gained []string) {
	oldSet := map[string]bool{}
	for _, o := range old {
		oldSet[o] = true
	}
	newSet := map[string]bool{}
	for _, o := range new {
		newSet[o] = true
		if !oldSet[o] {
			gained = append(gained, o)
		}
	}
	for _, o := range old {
		if !newSet[o] {
			lost = append(lost, o)
		}
	}
	sort.Strings(lost)
	sort.Strings(gained)
	return lost, gained
}

// diffRaceKeys returns the race keys only in new (added) and only in old
// (lost), sorted.
func diffRaceKeys(old, new []harness.RaceSummary) (added, lost []string) {
	keys := func(rs []harness.RaceSummary) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.Key
		}
		return out
	}
	lost, added = diffOutcomes(keys(old), keys(new))
	return added, lost
}

// Regressed reports whether the new artifact lost a tool or a cell of the old
// one, lost race keys, lost analyzer findings (schema v7, same-analyzer-set
// artifacts only), lost more than
// 10 percentage points of detection rate in any cell, lost litmus
// weak-outcome coverage, introduced axiomatic violations, or dropped
// telemetry events — the signals the PR trajectory check keys on. The
// weak-coverage and validation legs are what keep a perf optimisation from
// silently trading exploration quality for speed; the drop leg keeps the
// event stream trustworthy (p99 timing drift, by contrast, is report-only:
// wall clock is not comparable across machines).
func (c *Comparison) Regressed() bool {
	if c.NewDropped > 0 || len(c.UnmatchedOld) > 0 {
		return true
	}
	for _, td := range c.Tools {
		if len(td.LostCells) > 0 || len(td.LostRaceKeys) > 0 {
			return true
		}
		if len(td.LostFindingKeys) > 0 {
			return true
		}
		for _, d := range td.Detection {
			if d.DeltaPct < -10 {
				return true
			}
		}
		for _, ld := range td.Litmus {
			if len(ld.LostOutcomes) > 0 {
				return true
			}
		}
		if v := td.Validation; v != nil && v.NewViolations > v.OldViolations {
			return true
		}
	}
	return false
}

// String renders the human-readable comparison report.
func (c *Comparison) String() string {
	out := fmt.Sprintf("campaign comparison (old schema v%d, new schema v%d)\nwall clock: %s → %s\n",
		c.OldSchemaVer, c.NewSchemaVer,
		harness.FmtDuration(time.Duration(c.OldWall)), harness.FmtDuration(time.Duration(c.NewWall)))

	tb := &harness.Table{Header: []string{"tool", "execs/sec old", "execs/sec new", "ratio", "new races", "lost races"}}
	for _, td := range c.Tools {
		tb.AddRow(td.Tool,
			fmt.Sprintf("%.0f", td.OldExecsPerSec),
			fmt.Sprintf("%.0f", td.NewExecsPerSec),
			fmt.Sprintf("%.2f×", td.ThroughputRatio),
			fmt.Sprintf("%d", len(td.NewRaceKeys)),
			fmt.Sprintf("%d", len(td.LostRaceKeys)))
	}
	out += "\n" + tb.String()

	var cells []CellDelta
	for _, td := range c.Tools {
		for _, d := range td.Detection {
			if d.DeltaPct != 0 {
				cells = append(cells, d)
			}
		}
	}
	if len(cells) > 0 {
		dt := &harness.Table{Header: []string{"tool", "benchmark", "old", "new", "delta"}}
		for _, d := range cells {
			dt.AddRow(d.Tool, d.Benchmark,
				fmt.Sprintf("%5.1f%%", d.OldPct),
				fmt.Sprintf("%5.1f%%", d.NewPct),
				fmt.Sprintf("%+5.1f%%", d.DeltaPct))
		}
		out += "\ndetection-rate movement:\n" + dt.String()
	}
	var lits []LitmusDelta
	for _, td := range c.Tools {
		lits = append(lits, td.Litmus...)
	}
	if len(lits) > 0 {
		lt := &harness.Table{Header: []string{"tool", "litmus", "weak old", "weak new", "lost", "gained"}}
		for _, ld := range lits {
			lt.AddRow(ld.Tool, ld.Test,
				fmt.Sprintf("%d/%d", ld.OldWeak, ld.WeakDefined),
				fmt.Sprintf("%d/%d", ld.NewWeak, ld.WeakDefined),
				fmt.Sprintf("%d", len(ld.LostOutcomes)),
				fmt.Sprintf("%d", len(ld.GainedOutcomes)))
		}
		out += "\nweak-outcome coverage movement:\n" + lt.String()
	}
	for _, td := range c.Tools {
		if v := td.Validation; v != nil {
			out += fmt.Sprintf("\n%s: axiomatic validation: checked %d → %d, violations %d → %d",
				td.Tool, v.OldChecked, v.NewChecked, v.OldViolations, v.NewViolations)
		}
	}
	for _, td := range c.Tools {
		if td.OldP99NS > 0 && td.NewP99NS > 0 {
			out += fmt.Sprintf("\n%s: p99 ns/exec %s → %s (report-only)",
				td.Tool, harness.FmtDuration(time.Duration(td.OldP99NS)),
				harness.FmtDuration(time.Duration(td.NewP99NS)))
		}
	}
	if c.NewDropped > 0 {
		out += fmt.Sprintf("\nWARNING: new artifact dropped %d telemetry event(s) — its event stream is incomplete", c.NewDropped)
	}
	for _, skew := range c.ProvenanceSkew {
		out += fmt.Sprintf("\nWARNING: build provenance skew: %s — wall-clock comparisons are not meaningful", skew)
	}
	for _, td := range c.Tools {
		for _, cell := range td.LostCells {
			out += fmt.Sprintf("\n%s: LOST cell %s", td.Tool, cell)
		}
		for _, k := range td.NewRaceKeys {
			out += fmt.Sprintf("\n%s: NEW race key %s", td.Tool, k)
		}
		for _, k := range td.LostRaceKeys {
			out += fmt.Sprintf("\n%s: LOST race key %s", td.Tool, k)
		}
		for _, k := range td.NewFindingKeys {
			out += fmt.Sprintf("\n%s: NEW analyzer finding %s", td.Tool, k)
		}
		for _, k := range td.LostFindingKeys {
			out += fmt.Sprintf("\n%s: LOST analyzer finding %s", td.Tool, k)
		}
		for _, ld := range td.Litmus {
			for _, o := range ld.LostOutcomes {
				out += fmt.Sprintf("\n%s: LOST weak outcome %s=%q", td.Tool, ld.Test, o)
			}
		}
	}
	if len(c.UnmatchedOld) > 0 {
		out += fmt.Sprintf("\ntools only in old artifact: %v", c.UnmatchedOld)
	}
	if len(c.UnmatchedNew) > 0 {
		out += fmt.Sprintf("\ntools only in new artifact: %v", c.UnmatchedNew)
	}
	if c.Regressed() {
		out += "\n\nREGRESSION: lost tools or cells, lost race keys, lost analyzer findings, a detection-rate drop > 10 points, lost weak-outcome coverage, new axiom violations, or dropped telemetry events\n"
	} else {
		out += "\n\nno regression detected\n"
	}
	return out
}
