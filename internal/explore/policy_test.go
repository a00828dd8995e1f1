package explore

import (
	"fmt"
	"testing"
)

func TestUniformNeverConverges(t *testing.T) {
	p := Uniform{}
	if p.Chunk() != 0 {
		t.Fatalf("Uniform.Chunk() = %d, want 0 (whole budget)", p.Chunk())
	}
	for execs := 0; execs < 1000; execs += 7 {
		if p.Converged(execs, 0) {
			t.Fatalf("uniform policy converged after %d executions", execs)
		}
	}
}

// TestConvergeStableStreamConvergesAtFloor pins the rule-of-three floor: a
// cell with no singleton key converges at exactly 3/Delta executions and not
// one before.
func TestConvergeStableStreamConvergesAtFloor(t *testing.T) {
	var c Converge
	if c.Converged(MinExecs-1, 0) {
		t.Fatalf("converged after %d < %d executions", MinExecs-1, MinExecs)
	}
	if !c.Converged(MinExecs, 0) {
		t.Fatalf("stream with no singleton did not converge at the %d-execution floor", MinExecs)
	}
}

// TestConvergeSingletonsBlockConvergence pins the missing-mass bound: the
// cell stops while N1/n ≤ Delta and keeps running once one more key is a
// singleton.
func TestConvergeSingletonsBlockConvergence(t *testing.T) {
	var c Converge
	for _, tc := range []struct {
		execs, singletons int
		want              bool
	}{
		{60, 3, true}, {60, 4, false},
		{100, 5, true}, {100, 6, false},
		{1000, 50, true}, {1000, 51, false},
	} {
		if got := c.Converged(tc.execs, tc.singletons); got != tc.want {
			t.Errorf("Converged(%d, %d) = %v, want %v", tc.execs, tc.singletons, got, tc.want)
		}
	}
}

// keyStream counts, per key, the executions of a cell that showed it, so a
// test can feed Converge the (execs, singletons) pair the campaign folds.
type keyStream struct {
	execs int
	seen  map[string]int
}

func (s *keyStream) observe(keys ...string) {
	if s.seen == nil {
		s.seen = map[string]int{}
	}
	s.execs++
	for _, k := range keys {
		s.seen[k]++
	}
}

func (s *keyStream) converged() bool {
	n1 := 0
	for _, c := range s.seen {
		if c == 1 {
			n1++
		}
	}
	return Converge{}.Converged(s.execs, n1)
}

// TestConvergeNewRaceKeyInWindowBlocksConvergence pins that a first-seen race
// key blocks a cell sitting at the missing-mass bound, and that the block
// lifts once the key is seen a second time: novelty holds a cell only while
// it is a singleton, not forever.
func TestConvergeNewRaceKeyInWindowBlocksConvergence(t *testing.T) {
	var s keyStream
	// Three early one-off races, then a stable stream: 3/60 = Delta.
	for _, k := range []string{"race:a", "race:b", "race:c"} {
		s.observe("race:r1", k)
	}
	for s.execs < MinExecs {
		s.observe("race:r1")
	}
	if !s.converged() {
		t.Fatal("stable race stream at the bound did not converge")
	}
	s.observe("race:r1", "race:r2")
	if s.converged() {
		t.Fatal("a first-seen race key past the bound must block convergence")
	}
	s.observe("race:r1", "race:r2")
	if !s.converged() {
		t.Fatal("a race key seen twice must not block convergence")
	}
}

// TestConvergeNewOutcomeInWindowBlocksConvergence pins the same for litmus
// outcomes: a fresh outcome on a cell at the bound keeps it running.
func TestConvergeNewOutcomeInWindowBlocksConvergence(t *testing.T) {
	var s keyStream
	for _, o := range []string{"out:a", "out:b", "out:c"} {
		s.observe(o)
	}
	for s.execs < MinExecs {
		s.observe(fmt.Sprintf("out:o%d", s.execs%2))
	}
	if !s.converged() {
		t.Fatal("two-outcome alternating stream did not converge")
	}
	s.observe("out:fresh")
	if s.converged() {
		t.Fatal("a first-seen outcome past the bound must block convergence")
	}
}

func TestConvergeDefaultsAndName(t *testing.T) {
	var c Converge
	if c.Chunk() != convergeChunk {
		t.Errorf("Chunk() = %d, want %d", c.Chunk(), convergeChunk)
	}
	if want := "converge(delta=0.05)"; c.Name() != want {
		t.Errorf("Name() = %q, want %q", c.Name(), want)
	}
	if MinExecs != 60 {
		t.Errorf("MinExecs = %d, want 3/Delta = 60", MinExecs)
	}
}

// TestEstimateReportsItsInputs pins the introspection record: the counts, the
// estimate, the bound, and a verdict that agrees with the policy.
func TestEstimateReportsItsInputs(t *testing.T) {
	m := Estimate(80, 2)
	want := MissingMass{Execs: 80, Singletons: 2, Estimate: 0.025, Delta: Delta, Converged: true}
	if m != want {
		t.Fatalf("Estimate(80, 2) = %+v, want %+v", m, want)
	}
	if z := Estimate(0, 0); z.Estimate != 0 || z.Converged {
		t.Fatalf("Estimate(0, 0) = %+v, want a zero estimate and no verdict", z)
	}
}
