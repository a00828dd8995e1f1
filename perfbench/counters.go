package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// Allocation counters gate within allocTolerance of their value or
// allocSlackB bytes, whichever is larger. A campaign allocates goroutine
// descriptors for its per-chunk fiber pools, and the runtime recycles the
// descriptors of exited workers or allocates new ones depending on when
// those workers exited. That moves a campaign's total by up to a few tens
// of kilobytes whatever its size. Every other counter gates exactly.
const (
	allocTolerance = 0.01
	allocSlackB    = 64 << 10
)

// counterRecord is the exact-work gate of one (binary, workload, seed,
// per-cell budget, trace) run: counters that are pure functions of the code
// and the seed. A timing shift with no counter shift is an environment
// effect.
type counterRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Runs     int    `json:"runs"`
	Trace    bool   `json:"trace"`
	// Raw is round 0 of the raw leg (the traced leg on a traced run: it adds
	// model calls).
	Raw work `json:"raw"`
	// Probe is the traced run's probe pass.
	Probe        *work `json:"probe,omitempty"`
	ToolBuilds   int64 `json:"tool_builds"`
	WorkerSpawns int64 `json:"worker_spawns"`
	// Allocation counters: the campaign leg's heap bytes in round 0, and
	// the probe's post-duty bytes per execution.
	CampaignAllocB float64 `json:"campaign_alloc_b"`
	AxiomAllocB    float64 `json:"axiom_alloc_b_per_exec,omitempty"`
	AnalysisAllocB float64 `json:"analysis_alloc_b_per_exec,omitempty"`
}

// diff lists how r departs from a previous record of the same run.
func (r counterRecord) diff(prev counterRecord) []string {
	var out []string
	exact := func(name string, a, b any) {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			out = append(out, fmt.Sprintf("%s: was %s, now %s", name, jb, ja))
		}
	}
	near := func(name string, a, b float64) {
		if math.Abs(a-b) > math.Max(allocTolerance*math.Max(a, b), allocSlackB) {
			out = append(out, fmt.Sprintf("%s: was %g, now %g", name, b, a))
		}
	}
	exact("raw", r.Raw, prev.Raw)
	exact("probe", r.Probe, prev.Probe)
	exact("tool_builds", r.ToolBuilds, prev.ToolBuilds)
	exact("worker_spawns", r.WorkerSpawns, prev.WorkerSpawns)
	near("campaign_alloc_b", r.CampaignAllocB, prev.CampaignAllocB)
	near("axiom_alloc_b_per_exec", r.AxiomAllocB, prev.AxiomAllocB)
	near("analysis_alloc_b_per_exec", r.AnalysisAllocB, prev.AnalysisAllocB)
	return out
}

// binaryID identifies the running build: the hash of its executable, so
// records from another version of the code are never compared.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// gateCounters compares rec with the record an earlier run of the same
// binary, workload, seed, budget and trace mode left in dir, or stores rec
// when there is none. It returns the differences.
func gateCounters(dir string, rec counterRecord) ([]string, error) {
	id, err := binaryID()
	if err != nil {
		return nil, fmt.Errorf("identify binary: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-trace%t-seed%d-runs%d.json", id, rec.Workload, rec.Trace, rec.Seed, rec.Runs))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		return nil, err
	}
	var prev counterRecord
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return rec.diff(prev), nil
}
