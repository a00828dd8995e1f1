package campaign

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the test binary when its tests leave goroutines behind.
// Scheduler workers are coroutines parked between executions, and the
// garbage collector never reclaims a parked one: a test that builds an
// engine and does not close it keeps its workers for the rest of the binary.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		after := runtime.NumGoroutine()
		// Goroutines that are already ending get a moment to exit.
		for i := 0; i < 100 && after > before; i++ {
			time.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutine(s) before the tests, %d after\n", before, after)
			code = 1
		}
	}
	os.Exit(code)
}
