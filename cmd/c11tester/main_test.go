package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"c11tester/internal/campaign"
)

// ciTrajectoryArgs is the campaign the CI trajectory gate re-runs and diffs
// against the committed BENCH_campaign.json.
var ciTrajectoryArgs = []string{"-runs", "50", "-workers", "1", "-q"}

// TestCommittedArtifactSpecMatchesCICommand pins the campaign trajectory
// gate to what it claims to gate: the committed BENCH_campaign.json must
// echo exactly the spec of the CI command (every tool, the full matrix,
// runs, seed base, workers), or tools and cells the CI run has and the
// artifact lacks go uncompared. The echo is a function of the flags alone,
// so no campaign runs. Regenerate the artifact with
// `go run ./cmd/c11tester -runs 50 -workers 1 -json BENCH_campaign.json -q`.
func TestCommittedArtifactSpecMatchesCICommand(t *testing.T) {
	cfg, code, done := parse(ciTrajectoryArgs, os.Stdout)
	if done {
		t.Fatalf("parsing the CI trajectory command finished with exit code %d", code)
	}
	committed, err := campaign.LoadSummary(filepath.Join("..", "..", "BENCH_campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if now := cfg.spec.Info(); !reflect.DeepEqual(now, committed.Spec) {
		t.Fatalf("committed BENCH_campaign.json spec %+v differs from the CI command's %+v", committed.Spec, now)
	}
}
