package campaign

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
	"c11tester/internal/obs"
)

// genState draws a well-formed CellState — sample lists sorted and capped,
// histograms normalized, as every state the runner produces is — from small
// key and run alphabets, so generated states collide on keys and runs often
// enough to exercise every winner and tie-break rule.
func genState(r *rand.Rand) *CellState {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	hits := func(count bool) map[string]Hit {
		var m map[string]Hit
		for n := r.Intn(4); n > 0; n-- {
			if m == nil {
				m = map[string]Hit{}
			}
			h := Hit{Desc: pick("x", "y", "z"), Run: r.Intn(6)}
			if count {
				h.Count = 1 + r.Intn(4)
			}
			m[pick("k1", "k2", "k3", "k4")] = h
		}
		return m
	}
	counts := func(runs bool) map[string]int {
		var m map[string]int
		for n := r.Intn(4); n > 0; n-- {
			if m == nil {
				m = map[string]int{}
			}
			v := 1 + r.Intn(9)
			if runs {
				v = r.Intn(6)
			}
			m[pick("0 0", "0 1", "1 0", "1 1")] = v
		}
		return m
	}
	samples := func() []Sample {
		var list []Sample
		for n := r.Intn(8); n > 0; n-- {
			list = addSample(list, Sample{Run: r.Intn(10), Text: pick("a", "b", "c")})
		}
		return list
	}
	hist := func() *obs.HistogramSnapshot {
		if r.Intn(3) == 0 {
			return nil
		}
		raw := &obs.HistogramSnapshot{Sum: uint64(r.Intn(1e6))}
		for _, le := range []uint64{100, 1000, 10000, 0} {
			if r.Intn(2) == 0 {
				raw.Le = append(raw.Le, le)
				raw.N = append(raw.N, uint64(1+r.Intn(20)))
			}
		}
		return mergeHist(nil, raw)
	}
	s := &CellState{
		Execs: r.Intn(50), Detected: r.Intn(50),
		AtomicOps: uint64(r.Intn(1000)), NormalOps: uint64(r.Intn(1000)),
		ElapsedNS: int64(r.Intn(1e6)),
		Races:     hits(true),
		Outcomes:  counts(false), Forbidden: counts(true), Weak: counts(false),
		Failed: r.Intn(9), Failures: samples(),
		GuidedExecs: r.Intn(9), PrefixDepth: int64(r.Intn(99)),
		PrefixConsumed: int64(r.Intn(99)), Divergences: r.Intn(9),
		Checked: r.Intn(9), Skipped: r.Intn(9), Violations: r.Intn(9),
		VioSamples: samples(),
		Recorded:   r.Intn(9), RecordErrs: r.Intn(9),
		Captures: r.Intn(9), CaptureErrs: r.Intn(9),
		AllocBytes: uint64(r.Intn(1e6)), AllocObjs: uint64(r.Intn(1e4)),
		Timing: hist(),
	}
	for _, analyzer := range []string{"atomicity", "sc-robustness"} {
		if h := hits(true); h != nil && r.Intn(2) == 0 {
			if s.Findings == nil {
				s.Findings = map[string]map[string]Hit{}
			}
			s.Findings[analyzer] = h
		}
	}
	for _, phase := range []string{"reset", "run"} {
		if h := hist(); h != nil {
			if s.Phases == nil {
				s.Phases = map[string]*obs.HistogramSnapshot{}
			}
			s.Phases[phase] = h
		}
	}
	return s
}

// stateJSON is the comparison form: a state's JSON is its canonical
// encoding (sorted map keys, empty collections omitted).
func stateJSON(t *testing.T, s *CellState) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// merged folds states left to right into a fresh state.
func merged(states ...*CellState) *CellState {
	var s CellState
	for _, x := range states {
		s.Merge(x)
	}
	return &s
}

func quickStates(t *testing.T, n int, prop func(states []*CellState) bool) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 500, Values: func(args []reflect.Value, r *rand.Rand) {
		states := make([]*CellState, n)
		for i := range states {
			states[i] = genState(r)
		}
		args[0] = reflect.ValueOf(states)
	}}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCellStateMergeAssociative: (a⊕b)⊕c = a⊕(b⊕c), and neither fold
// modifies its inputs.
func TestCellStateMergeAssociative(t *testing.T) {
	quickStates(t, 3, func(s []*CellState) bool {
		before := stateJSON(t, s[0]) + stateJSON(t, s[1]) + stateJSON(t, s[2])
		left := merged(merged(s[0], s[1]), s[2])
		right := merged(s[0], merged(s[1], s[2]))
		after := stateJSON(t, s[0]) + stateJSON(t, s[1]) + stateJSON(t, s[2])
		return stateJSON(t, left) == stateJSON(t, right) && before == after
	})
}

// TestCellStateMergeCommutative: a⊕b = b⊕a.
func TestCellStateMergeCommutative(t *testing.T) {
	quickStates(t, 2, func(s []*CellState) bool {
		return stateJSON(t, merged(s[0], s[1])) == stateJSON(t, merged(s[1], s[0]))
	})
}

// TestCellStateMergeIdentity: the zero state is the identity on both sides.
func TestCellStateMergeIdentity(t *testing.T) {
	quickStates(t, 1, func(s []*CellState) bool {
		want := stateJSON(t, s[0])
		var zero CellState
		left := merged(&zero, s[0])
		right := merged(s[0])
		right.Merge(&zero)
		return stateJSON(t, left) == want && stateJSON(t, right) == want
	})
}

// TestSingletonsCountTheMergedState pins the converge policy's N1: counting
// the singleton keys of two states must agree with counting them on their
// merge, which is what lets a unit decide on the cell's earlier waves plus
// its own state without folding them.
func TestSingletonsCountTheMergedState(t *testing.T) {
	quickStates(t, 2, func(s []*CellState) bool {
		return s[0].singletons(s[1]) == merged(s[0], s[1]).singletons(&CellState{})
	})
	st := &CellState{Detected: 1,
		Races:    map[string]Hit{"once": {Count: 1}, "twice": {Count: 2}},
		Outcomes: map[string]int{"a": 1, "b": 3}}
	if got := st.singletons(&CellState{}); got != 3 {
		t.Fatalf("singletons = %d, want 3 (detection, race once, outcome a)", got)
	}
}

// TestRecordRacesCountsExecutions pins the per-execution race count: a key
// reported several times in one execution counts once, and the winner is
// the first report of the earliest execution.
func TestRecordRacesCountsExecutions(t *testing.T) {
	a := capi.RaceReport{LocName: "x", PriorKind: memmodel.KNAStore, Kind: memmodel.KNALoad, TID: 1}
	b := capi.RaceReport{LocName: "y", PriorKind: memmodel.KNAStore, Kind: memmodel.KNALoad, TID: 2}
	a2 := a
	a2.TID = 3
	var st CellState
	if fresh := recordRaces(&st, &capi.Result{Races: []capi.RaceReport{a, a2, b}}, 7); fresh != 2 {
		t.Fatalf("first execution: %d fresh keys, want 2", fresh)
	}
	if fresh := recordRaces(&st, &capi.Result{Races: []capi.RaceReport{a2}}, 4); fresh != 0 {
		t.Fatalf("second execution: %d fresh keys, want 0", fresh)
	}
	if h := st.Races[a.Key()]; h.Count != 2 || h.Run != 4 || h.Desc != a2.String() {
		t.Fatalf("key %s = %+v, want count 2 won by run 4's report", a.Key(), h)
	}
	if h := st.Races[b.Key()]; h.Count != 1 || h.Run != 7 {
		t.Fatalf("key %s = %+v, want count 1 at run 7", b.Key(), h)
	}
}

// TestCellStateJSONRoundTrip: a decoded state merges exactly like the
// original — the property checkpoints and shard partials rely on.
func TestCellStateJSONRoundTrip(t *testing.T) {
	quickStates(t, 2, func(s []*CellState) bool {
		var back CellState
		if err := json.Unmarshal([]byte(stateJSON(t, s[0])), &back); err != nil {
			t.Fatal(err)
		}
		return stateJSON(t, merged(&back, s[1])) == stateJSON(t, merged(s[0], s[1])) &&
			stateJSON(t, merged(s[1], &back)) == stateJSON(t, merged(s[1], s[0]))
	})
}

// TestAddSampleKeepsSmallest pins the capped sample list: after any insertion
// sequence it holds the maxViolationSamples smallest (run, text) entries of
// everything inserted, in order.
func TestAddSampleKeepsSmallest(t *testing.T) {
	var list []Sample
	for _, run := range []int{9, 3, 7, 1, 8, 3, 0, 5} {
		list = addSample(list, Sample{Run: run, Text: "t"})
	}
	list = addSample(list, Sample{Run: 3, Text: "a"})
	want := []Sample{{0, "t"}, {1, "t"}, {3, "a"}, {3, "t"}, {3, "t"}}
	if !reflect.DeepEqual(list, want) {
		t.Fatalf("samples = %v, want %v", list, want)
	}
}
