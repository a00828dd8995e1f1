package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the reference process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		os.Exit(referenceMain(os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny budget, untraced and traced, twice
// each: every declared metric must be printed with its declared unit, the
// outputs must check out, and the second run must reproduce every counter of
// the first (the counter gate compares them).
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := bf.EndToEnd
			if trace == "1" {
				want = bf.PerLayer
			}
			for rep := 0; rep < 2; rep++ {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--runs", "10", "--trace", trace, "--out", out}
				if code := runMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("%v: last line is not the summary: %v", args, err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Errorf("%v: correct=%v failed=%d attempted=%d\n%s", args, sum.Correct, sum.Failed, sum.Attempted, stderr.String())
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("%v: %d metrics printed, BENCHMARK.json declares %d", args, len(sum.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := sum.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%v: metric %s printed as %+v, want unit %q", args, m.Name, got, m.Unit)
					}
				}
			}
		}
	}
}

// TestCounterDiff pins the gate itself: an exact counter that moves is
// reported, and an allocation counter that moves within its slack is not.
func TestCounterDiff(t *testing.T) {
	a := counterRecord{Raw: work{Execs: 10, Steps: 200}, ToolBuilds: 4, CampaignAllocB: 900_000}
	b := a
	b.CampaignAllocB += 20_000
	if d := b.diff(a); len(d) != 0 {
		t.Errorf("allocation within slack reported: %v", d)
	}
	b.Raw.Steps++
	b.CampaignAllocB = 1_000_000
	if d := b.diff(a); len(d) != 2 {
		t.Errorf("want the steps and allocation changes reported, got %v", d)
	}
}
