package campaign

import (
	"fmt"

	"c11tester/internal/obs"
)

// Hit is a deduplicated race or analyzer finding: the rendered description
// of its winning sighting, the global execution index of that sighting
// (seed = SeedBase+Run), and how many executions showed it (a race's count
// feeds the converge policy's singleton count; a finding's is reported).
// The winner is the smallest (Run, Desc). A Hit carries the rendered
// description rather than the capi.RaceReport: tools recycle their report
// storage across Execute calls, so retaining a report would alias mutated
// memory. Rendering happens only on first sight or an earlier-run upgrade,
// never in the steady state.
type Hit struct {
	Desc  string `json:"desc"`
	Run   int    `json:"run"`
	Count int    `json:"count,omitempty"`
}

// before orders two sightings of one key: earlier run first, description as
// the tie-break, so the winner is the same under any merge order.
func (h Hit) before(o Hit) bool {
	return h.Run < o.Run || (h.Run == o.Run && h.Desc < o.Desc)
}

// Sample is one capped-list entry (an engine failure or an axiom violation):
// the execution index it happened at and its text.
type Sample struct {
	Run  int    `json:"run"`
	Text string `json:"text"`
}

// maxViolationSamples caps the axiom-violation and engine-failure samples
// kept per cell and per tool summary.
const maxViolationSamples = 5

// addSample inserts s into the (Run, Text)-sorted list, keeping only the
// maxViolationSamples smallest entries.
func addSample(list []Sample, s Sample) []Sample {
	i := len(list)
	for i > 0 && (s.Run < list[i-1].Run || (s.Run == list[i-1].Run && s.Text < list[i-1].Text)) {
		i--
	}
	if i >= maxViolationSamples {
		return list
	}
	if len(list) < maxViolationSamples {
		list = append(list, Sample{})
	}
	copy(list[i+1:], list[i:])
	list[i] = s
	return list
}

// CellState is the mergeable statistics of one (tool, program) cell. A unit
// of work folds its executions into one; the runner folds units into one per
// cell; a checkpoint persists one per cell, and a shard partial carries one
// per cell so cmd/c11merge can fold partials exactly. Merge is associative
// and commutative with the zero value as its identity, so every grouping and
// order of a cell's units folds to the same state. A Summary is rendered
// from states in exactly one place (render).
//
// Maps are allocated on first insert: a unit that sees no race, outcome, or
// finding allocates none.
type CellState struct {
	Execs     int    `json:"execs"`
	Detected  int    `json:"detected,omitempty"`
	AtomicOps uint64 `json:"atomic_ops,omitempty"`
	NormalOps uint64 `json:"normal_ops,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns,omitempty"`
	// Races are keyed by RaceReport.Key().
	Races map[string]Hit `json:"races,omitempty"`
	// Litmus cells only: the outcome histogram, the earliest run showing
	// each forbidden outcome, and the weak-outcome counts.
	Outcomes  map[string]int `json:"outcomes,omitempty"`
	Forbidden map[string]int `json:"forbidden,omitempty"`
	Weak      map[string]int `json:"weak,omitempty"`
	// Findings are keyed by analyzer name, then finding key.
	Findings map[string]map[string]Hit `json:"findings,omitempty"`
	// Failed counts executions the tool itself aborted (core.InfeasibleError
	// surfaced through capi.Result.EngineError, or an infeasible
	// modification-order lifting hit by a duty); Failures samples the
	// earliest.
	Failed   int      `json:"failed,omitempty"`
	Failures []Sample `json:"failures,omitempty"`
	// Guided-exploration sums (cells running under a PrefixGuide).
	GuidedExecs    int   `json:"guided_execs,omitempty"`
	PrefixDepth    int64 `json:"prefix_depth,omitempty"`
	PrefixConsumed int64 `json:"prefix_consumed,omitempty"`
	Divergences    int   `json:"divergences,omitempty"`
	// Duties: axiom validation (VioSamples holds the earliest violations),
	// trace recording, and flight-recorder captures.
	Checked     int      `json:"checked,omitempty"`
	Skipped     int      `json:"skipped,omitempty"`
	Violations  int      `json:"violations,omitempty"`
	VioSamples  []Sample `json:"vio_samples,omitempty"`
	Recorded    int      `json:"recorded,omitempty"`
	RecordErrs  int      `json:"record_errs,omitempty"`
	Captures    int      `json:"captures,omitempty"`
	CaptureErrs int      `json:"capture_errs,omitempty"`
	// AllocBytes and AllocObjs are global heap-allocation deltas observed
	// around the cell's units: exact at Workers=1, a regression signal
	// otherwise (like the wall clock they sit next to).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	AllocObjs  uint64 `json:"alloc_objs,omitempty"`
	// Timing and Phases are the cell's ns/exec and per-phase span
	// histograms from the telemetry fabric.
	Timing *obs.HistogramSnapshot            `json:"timing,omitempty"`
	Phases map[string]*obs.HistogramSnapshot `json:"phases,omitempty"`
}

// Merge folds o into s. Counters sum; races, forbidden outcomes, and
// findings keep their min-run winners (finding counts sum); the sample lists
// keep the smallest runs of the union; histograms merge bucket-wise. o is
// never modified, and s never aliases o's maps or histograms.
func (s *CellState) Merge(o *CellState) {
	s.Execs += o.Execs
	s.Detected += o.Detected
	s.AtomicOps += o.AtomicOps
	s.NormalOps += o.NormalOps
	s.ElapsedNS += o.ElapsedNS
	s.Races = mergeHits(s.Races, o.Races)
	s.Outcomes = addCounts(s.Outcomes, o.Outcomes)
	for out, run := range o.Forbidden {
		if cur, seen := s.Forbidden[out]; !seen || run < cur {
			if s.Forbidden == nil {
				s.Forbidden = map[string]int{}
			}
			s.Forbidden[out] = run
		}
	}
	s.Weak = addCounts(s.Weak, o.Weak)
	for analyzer, hits := range o.Findings {
		if len(hits) == 0 {
			continue
		}
		if s.Findings == nil {
			s.Findings = map[string]map[string]Hit{}
		}
		s.Findings[analyzer] = mergeHits(s.Findings[analyzer], hits)
	}
	s.Failed += o.Failed
	for _, f := range o.Failures {
		s.Failures = addSample(s.Failures, f)
	}
	s.GuidedExecs += o.GuidedExecs
	s.PrefixDepth += o.PrefixDepth
	s.PrefixConsumed += o.PrefixConsumed
	s.Divergences += o.Divergences
	s.Checked += o.Checked
	s.Skipped += o.Skipped
	s.Violations += o.Violations
	for _, v := range o.VioSamples {
		s.VioSamples = addSample(s.VioSamples, v)
	}
	s.Recorded += o.Recorded
	s.RecordErrs += o.RecordErrs
	s.Captures += o.Captures
	s.CaptureErrs += o.CaptureErrs
	s.AllocBytes += o.AllocBytes
	s.AllocObjs += o.AllocObjs
	s.Timing = mergeHist(s.Timing, o.Timing)
	for name, h := range o.Phases {
		if s.Phases == nil {
			s.Phases = map[string]*obs.HistogramSnapshot{}
		}
		s.Phases[name] = mergeHist(s.Phases[name], h)
	}
}

// singletons counts the keys that the merge of s and o shows in exactly one
// execution: race keys, litmus outcomes, and the detection signal. It is
// the N1 of the converge policy's missing-mass estimate (explore.Estimate),
// computed without building the merged state.
func (s *CellState) singletons(o *CellState) int {
	n := 0
	if s.Detected+o.Detected == 1 {
		n++
	}
	for k, h := range s.Races {
		if h.Count+o.Races[k].Count == 1 {
			n++
		}
	}
	for k, h := range o.Races {
		if _, seen := s.Races[k]; !seen && h.Count == 1 {
			n++
		}
	}
	for k, c := range s.Outcomes {
		if c+o.Outcomes[k] == 1 {
			n++
		}
	}
	for k, c := range o.Outcomes {
		if _, seen := s.Outcomes[k]; !seen && c == 1 {
			n++
		}
	}
	return n
}

// check reports a decoded state that Merge cannot fold: a histogram whose
// bucket bounds and counts differ in length.
func (s *CellState) check() error {
	hists := map[string]*obs.HistogramSnapshot{"timing": s.Timing}
	for name, h := range s.Phases {
		hists["phase "+name] = h
	}
	for name, h := range hists {
		if h != nil && len(h.Le) != len(h.N) {
			return fmt.Errorf("%s histogram has %d bucket bound(s) but %d count(s)", name, len(h.Le), len(h.N))
		}
	}
	return nil
}

// mergeHits folds src into dst (allocated on demand): min-(run, desc)
// winners, counts summed.
func mergeHits(dst, src map[string]Hit) map[string]Hit {
	for key, hit := range src {
		if dst == nil {
			dst = make(map[string]Hit, len(src))
		}
		cur, seen := dst[key]
		if !seen {
			dst[key] = hit
			continue
		}
		count := cur.Count + hit.Count
		if hit.before(cur) {
			cur = hit
		}
		cur.Count = count
		dst[key] = cur
	}
	return dst
}

// addCounts sums src into dst (allocated on demand).
func addCounts(dst, src map[string]int) map[string]int {
	for k, n := range src {
		if dst == nil {
			dst = make(map[string]int, len(src))
		}
		dst[k] += n
	}
	return dst
}

// bump increments m[k], allocating m on first use.
func bump(m map[string]int, k string) map[string]int {
	if m == nil {
		m = map[string]int{}
	}
	m[k]++
	return m
}

// mergeHist returns the bucket-wise union of two histogram snapshots as a
// fresh snapshot (nil when both are nil), leaving both inputs untouched.
func mergeHist(a, b *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	if b == nil {
		return a
	}
	m := &obs.HistogramSnapshot{}
	m.Merge(a)
	m.Merge(b)
	return m
}
