package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/litmus"
)

// builtTools wraps ts so every instance its factory builds is kept, in build
// order.
type builtTools struct {
	mu    sync.Mutex
	tools []capi.Tool
}

func (b *builtTools) wrap(ts ToolSpec) ToolSpec {
	inner := ts.New
	ts.New = func() capi.Tool {
		tool := inner()
		b.mu.Lock()
		b.tools = append(b.tools, tool)
		b.mu.Unlock()
		return tool
	}
	return ts
}

// TestToolBuildsPerWorker: each campaign worker builds one instance per tool
// for the whole campaign — adaptive waves included — so a campaign builds at
// most Workers × len(Tools) tools, and exactly len(Tools) on one worker.
// Every instance is closed when the campaign ends.
func TestToolBuildsPerWorker(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		policy  explore.Policy
	}{
		{"uniform/workers=1", 1, nil},
		{"uniform/workers=3", 3, nil},
		{"converge/workers=1", 1, explore.Converge{}},
		{"converge/workers=2", 2, explore.Converge{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var built builtTools
			spec := Spec{
				Tools: []ToolSpec{
					built.wrap(mustTool(t, "c11tester", ToolOptions{})),
					built.wrap(mustTool(t, "tsan11", ToolOptions{})),
				},
				Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
				Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "SB+sc")},
				Runs:       60,
				SeedBase:   1,
				Workers:    c.workers,
				ShardSize:  7,
				Policy:     c.policy,
			}
			Run(spec)
			n := len(built.tools)
			if c.workers == 1 && n != len(spec.Tools) {
				t.Errorf("one worker built %d tools, want exactly %d", n, len(spec.Tools))
			}
			if max := c.workers * len(spec.Tools); n > max {
				t.Errorf("%d workers built %d tools, want at most %d", c.workers, n, max)
			}
			for i, tool := range built.tools {
				if w := tool.(*core.Engine).Workers(); w != 0 {
					t.Errorf("tool %d (%s) still holds %d scheduler workers after Run", i, tool.Name(), w)
				}
			}
		})
	}
}

// TestRaceNoveltyPerUnit: a race key counts as new exactly once per unit of
// work, however many units the worker's tool instance ran before. The cell's
// c11_cell_races counter must therefore equal the sum, over the cell's
// units, of the distinct race keys each unit saw (cell_end events), and
// every unit of an always-racing cell must see its keys anew.
func TestRaceNoveltyPerUnit(t *testing.T) {
	var events bytes.Buffer
	tel := NewTelemetry(TelemetryOptions{EventSink: &events})
	spec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{}), mustTool(t, "tsan11", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       40,
		SeedBase:   1,
		Workers:    2,
		ShardSize:  5,
		Telemetry:  tel,
	}
	Run(spec)

	unitKeys := map[string]int{}
	units := map[string]int{}
	sc := bufio.NewScanner(&events)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "cell_end" {
			continue
		}
		if ev.Races == 0 {
			t.Errorf("%s/%s unit [%d, %d) saw no race keys", ev.Tool, ev.Program, ev.Lo, ev.Hi)
		}
		unitKeys[ev.Tool] += ev.Races
		units[ev.Tool]++
	}
	for ti, ts := range spec.Tools {
		if want := spec.Runs / spec.ShardSize; units[ts.Name] != want {
			t.Fatalf("%s: %d cell_end events, want %d units", ts.Name, units[ts.Name], want)
		}
		got := tel.cellMetrics(job{kind: jobBench, tool: ti, cell: 0}).Races.Load()
		if got != uint64(unitKeys[ts.Name]) {
			t.Errorf("%s: c11_cell_races = %d, want %d (each unit's distinct keys, once per unit)",
				ts.Name, got, unitKeys[ts.Name])
		}
	}
}
