// Package explore implements campaign-level budget policies: the logic that
// decides how many executions each (tool, program) cell of a campaign matrix
// deserves. The paper's evaluation spends a uniform N executions per cell; a
// Converge policy instead stops a cell once it is unlikely that one more
// execution shows anything the cell has not shown yet, and the campaign
// reassigns the freed budget to cells that are still finding new things.
//
// The stopping rule is a Good–Turing missing-mass bound (Good 1953). A cell's
// keys are what one execution can show: its race keys, its litmus outcome,
// and its detection signal. After n executions, let N1 be the number of keys
// seen in exactly one of them. N1/n estimates the probability that the next
// execution shows a key never seen before, and a cell may stop once that
// estimate is at most Delta and n is at least 3/Delta (the rule of three: with
// no singleton at all, 3/n is the 95% upper bound on the rate of an unseen
// key).
//
// Determinism contract: the verdict is a pure function of a cell's execution
// and singleton counts, which the campaign folds from the cell's executed
// prefix in index order. Executions themselves are pure functions of (tool,
// program, seed), so a cell's stop point — and therefore the whole campaign's
// budget assignment — is independent of worker count and scheduling,
// preserving the campaign invariant that workers=1 and workers=K aggregate
// identically.
package explore

import "fmt"

// Delta bounds the missing mass at which a Converge cell may stop: the
// estimated probability that its next execution shows a new key.
const Delta = 0.05

// MinExecs is the rule-of-three floor 3/Delta below which no cell converges.
const MinExecs int = 3 / Delta

// convergeChunk is the number of executions a Converge cell runs between
// convergence checks.
const convergeChunk = 10

// Policy decides per-cell budgets.
type Policy interface {
	// Name renders the policy for the summary spec echo.
	Name() string
	// Chunk is the number of executions a cell runs between convergence
	// checks; 0 means the cell's whole budget at once (no early stopping).
	Chunk() int
	// Converged reports whether a cell that ran execs executions, singletons
	// of whose keys were seen in exactly one of them, may stop.
	Converged(execs, singletons int) bool
}

// Uniform is the fixed-budget policy: every cell runs its full budget.
type Uniform struct{}

// Name implements Policy.
func (Uniform) Name() string { return "uniform" }

// Chunk implements Policy.
func (Uniform) Chunk() int { return 0 }

// Converged implements Policy: a uniform cell never stops early.
func (Uniform) Converged(int, int) bool { return false }

// Converge stops a cell once its Good–Turing missing-mass estimate is at most
// Delta (see Estimate).
type Converge struct{}

// Name implements Policy.
func (Converge) Name() string { return fmt.Sprintf("converge(delta=%g)", Delta) }

// Chunk implements Policy.
func (Converge) Chunk() int { return convergeChunk }

// Converged implements Policy.
func (Converge) Converged(execs, singletons int) bool {
	return Estimate(execs, singletons).Converged
}

// MissingMass is the Converge verdict on one cell: the counts it is computed
// from, the estimate N1/n, the bound it is held to, and whether the cell may
// stop. It is what /debug/converge and the cell_converge_state events report.
type MissingMass struct {
	Execs      int     `json:"execs"`
	Singletons int     `json:"singletons"`
	Estimate   float64 `json:"estimate"`
	Delta      float64 `json:"delta"`
	Converged  bool    `json:"converged"`
}

// Estimate computes the missing-mass verdict for a cell that ran execs
// executions with singletons keys seen in exactly one of them.
func Estimate(execs, singletons int) MissingMass {
	m := MissingMass{Execs: execs, Singletons: singletons, Delta: Delta}
	if execs > 0 {
		m.Estimate = float64(singletons) / float64(execs)
	}
	m.Converged = execs >= MinExecs && m.Estimate <= Delta
	return m
}
