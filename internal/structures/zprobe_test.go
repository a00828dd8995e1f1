package structures

import (
	"fmt"
	"testing"

	"c11tester/internal/baseline"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/harness"
)

func TestShapeProbe(t *testing.T) {
	mk := map[string]func() capi.Tool{
		"c11tester": func() capi.Tool { return core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true}) },
		"tsan11":    func() capi.Tool { return baseline.NewTsan11(baseline.Options{}) },
		"tsan11rec": func() capi.Tool { return baseline.NewTsan11rec(baseline.Options{}) },
	}
	for _, b := range DataStructures() {
		line := b.Name + ": "
		for _, name := range []string{"c11tester", "tsan11rec", "tsan11"} {
			d := harness.MeasureDetection(mk[name](), b.New(), 200, 0, harness.SignalRace)
			line += fmt.Sprintf("%s=%.1f%% ", name, d.Rate())
		}
		t.Log(line)
	}
	for _, b := range InjectedBugs() {
		line := b.Name + ": "
		for _, name := range []string{"c11tester", "tsan11rec", "tsan11"} {
			d := harness.MeasureDetection(mk[name](), b.New(), 300, 0, harness.SignalAssert)
			line += fmt.Sprintf("%s=%.1f%% ", name, d.Rate())
		}
		t.Log(line)
	}
}
