package sched

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// coroGoroutines counts the goroutines that run a pooled coro worker from a
// dump of every goroutine's stack. runtime.NumGoroutine would also count goroutines that earlier tests
// (respawn-mode threads, retired osthread workers) left exiting, which makes
// it drift by one now and then under -race.
func coroGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "sched.(*Thread).coroLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// runCalls runs one execution of n threads on s, each making two calls, and
// replies to them round-robin. Every reply carries a value the thread checks,
// so a worker bound to the wrong thread or scheduler shows up as an error.
func runCalls(t *testing.T, s *Scheduler, n int) []*Thread {
	t.Helper()
	for i := 0; i < n; i++ {
		s.NewThread("t", func(th *Thread) {
			for k := 1; k <= 2; k++ {
				op := &capi.Op{Kind: memmodel.KLoad}
				th.Call(op)
				if want := memmodel.Value(int(th.ID)*10 + k); op.Val != want {
					t.Errorf("thread %d call %d: got %d, want %d", th.ID, k, op.Val, want)
				}
			}
		})
	}
	threads := append([]*Thread(nil), s.Threads()...)
	for k := 1; k <= 2; k++ {
		for _, th := range threads {
			if th.State() != Ready {
				t.Errorf("thread %d state %v before reply %d, want ready", th.ID, th.State(), k)
				continue
			}
			th.Pending().Val = memmodel.Value(int(th.ID)*10 + k)
			s.Reply(th)
		}
	}
	if s.AliveCount() != 0 {
		t.Errorf("%d threads alive after the last reply", s.AliveCount())
	}
	return threads
}

// TestShutdownEndsEveryCoroutine: Shutdown ends every coro worker it
// started, the replacement of a retired worker included, and the coroutine
// goroutine count returns to its baseline.
func TestShutdownEndsEveryCoroutine(t *testing.T) {
	base := coroGoroutines()
	s := New(Config{})
	runCalls(t, s, 3)
	if got := coroGoroutines(); got != base+3 {
		t.Fatalf("goroutines = %d with 3 workers, want %d", got, base+3)
	}
	// Retire slot 0's worker with a non-abort panic: its coroutine ends and
	// the next execution replaces it.
	s.Reset()
	bomb := s.NewThread("bomb", func(*Thread) { panic("boom") })
	if bomb.PanicValue != "boom" || bomb.State() != Finished {
		t.Fatalf("bomb: state %v panic %v", bomb.State(), bomb.PanicValue)
	}
	if got := coroGoroutines(); got != base+2 {
		t.Errorf("goroutines = %d after the retirement, want %d", got, base+2)
	}
	s.Reset()
	runCalls(t, s, 3)
	if got := s.Spawns(); got != 4 {
		t.Errorf("spawns = %d, want 4 (three workers plus one replacement)", got)
	}
	s.Shutdown()
	if got := coroGoroutines(); got != base {
		t.Errorf("goroutines after Shutdown = %d, want baseline %d", got, base)
	}
}

// TestConcurrentSchedulersShutdown builds, runs and shuts down schedulers on
// several goroutines at once (run it under -race); afterwards no coroutine
// is left running.
func TestConcurrentSchedulersShutdown(t *testing.T) {
	base := coroGoroutines()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := New(Config{})
				for e := 0; e < 3; e++ {
					s.Reset()
					runCalls(t, s, 1+(i+e)%4)
				}
				s.Shutdown()
			}
		}()
	}
	wg.Wait()
	if got := coroGoroutines(); got != base {
		t.Errorf("goroutines after every Shutdown = %d, want baseline %d", got, base)
	}
}

// BenchmarkHandoff measures one Reply round trip — the tool resumes a parked
// thread and waits until it parks on its next operation — per regime.
func BenchmarkHandoff(b *testing.B) {
	for _, name := range HandoffRegimes() {
		b.Run(name, func(b *testing.B) {
			s := New(MustHandoff(name))
			op := &capi.Op{Kind: memmodel.KLoad}
			th := s.NewThread("spin", func(th *Thread) {
				for {
					th.Call(op)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reply(th)
			}
			b.StopTimer()
			s.Abort()
			s.Shutdown()
		})
	}
}
