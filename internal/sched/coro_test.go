package sched

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// drainIdle stops every idle coro worker, so a test starts from an empty
// idle list and a goroutine count that excludes parked coroutines.
func drainIdle() {
	for t := adopt(); t != nil; t = adopt() {
		t.stop()
	}
}

// coroGoroutines counts the goroutines that run a pooled coro worker — the
// goroutines the idle list keeps alive — from a dump of every goroutine's
// stack. runtime.NumGoroutine would also count goroutines that earlier tests
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

func idleWorkers() []*Thread {
	idle.Lock()
	defer idle.Unlock()
	return append([]*Thread(nil), idle.workers...)
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

// TestIdleWorkersAdoptedAcrossSchedulers: the workers scheduler A releases
// at Shutdown serve scheduler B, which starts no coroutine goroutine for them
// and still runs its execution correctly.
func TestIdleWorkersAdoptedAcrossSchedulers(t *testing.T) {
	drainIdle()
	a := New(Config{})
	fromA := runCalls(t, a, 3)
	a.Shutdown()
	if got := len(idleWorkers()); got != 3 {
		t.Fatalf("idle list holds %d workers after Shutdown, want 3", got)
	}

	before := coroGoroutines()
	b := New(Config{})
	fromB := runCalls(t, b, 3)
	if got := coroGoroutines(); got != before {
		t.Errorf("goroutines %d → %d while B adopted idle workers, want unchanged", before, got)
	}
	if got := b.Spawns(); got != 3 {
		t.Errorf("B spawns = %d, want 3 (adopted workers count as obtained)", got)
	}
	if got := len(idleWorkers()); got != 0 {
		t.Errorf("idle list holds %d workers after B adopted, want 0", got)
	}
	adopted := map[*Thread]bool{}
	for _, th := range fromA {
		adopted[th] = true
	}
	for _, th := range fromB {
		if !adopted[th] {
			t.Errorf("B thread %d is not one of A's workers", th.ID)
		}
	}
	b.Shutdown()
	drainIdle()
}

// TestIdleListCap: Shutdown keeps at most idleCap workers and stops the rest,
// so the coroutine goroutine count settles at baseline + idleCap.
func TestIdleListCap(t *testing.T) {
	drainIdle()
	base := coroGoroutines()
	s := New(Config{})
	n := idleCap + 5
	for i := 0; i < n; i++ {
		s.NewThread("t", func(*Thread) {})
	}
	if got := coroGoroutines(); got != base+n {
		t.Fatalf("goroutines = %d with %d workers, want %d", got, n, base+n)
	}
	s.Shutdown()
	if got := len(idleWorkers()); got != idleCap {
		t.Errorf("idle list holds %d workers, want the cap %d", got, idleCap)
	}
	if got := coroGoroutines(); got != base+idleCap {
		t.Errorf("goroutines after Shutdown = %d, want baseline + cap = %d", got, base+idleCap)
	}
	drainIdle()
	if got := coroGoroutines(); got != base {
		t.Errorf("goroutines after draining = %d, want baseline %d", got, base)
	}
}

// TestConcurrentSchedulersShareIdleList builds, runs and shuts down
// schedulers on several goroutines at once, all trading workers through the
// one idle list (run it under -race).
func TestConcurrentSchedulersShareIdleList(t *testing.T) {
	drainIdle()
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
	if got := len(idleWorkers()); got > idleCap {
		t.Errorf("idle list holds %d workers, over the cap %d", got, idleCap)
	}
	drainIdle()
	if got := coroGoroutines(); got != base {
		t.Errorf("goroutines after draining = %d, want baseline %d", got, base)
	}
}

// TestRetiredWorkerNotReleased: a worker retired by a non-abort panic has
// ended its coroutine and must never reach the idle list; its live sibling
// does.
func TestRetiredWorkerNotReleased(t *testing.T) {
	drainIdle()
	s := New(Config{})
	bomb := s.NewThread("bomb", func(*Thread) { panic("boom") })
	ok := s.NewThread("ok", func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KYield})
	})
	if bomb.PanicValue != "boom" || bomb.State() != Finished {
		t.Fatalf("bomb: state %v panic %v", bomb.State(), bomb.PanicValue)
	}
	s.Reply(ok)
	s.Shutdown()
	got := idleWorkers()
	if len(got) != 1 || got[0] != ok {
		t.Errorf("idle list = %v, want only the live worker %p (retired %p)", got, ok, bomb)
	}
	drainIdle()
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
