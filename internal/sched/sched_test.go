package sched

import (
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// drive runs a trivial tool loop over the scheduler: process pending ops in
// the order pick() dictates until all threads finish. Each op's Val result
// is set to its own sequence in processing order.
func drive(t *testing.T, h Handoff, body func(*Thread), pick func([]*Thread) *Thread) []memmodel.Kind {
	t.Helper()
	s := New(h)
	defer s.Shutdown()
	var processed []memmodel.Kind
	s.NewThread("main", body)
	for {
		ready := s.Ready(nil)
		if len(ready) == 0 {
			if s.AliveCount() == 0 {
				return processed
			}
			t.Fatal("deadlock: threads alive but none ready")
		}
		th := pick(ready)
		op := th.Pending()
		processed = append(processed, op.Kind)
		op.Val = memmodel.Value(len(processed))
		s.Reply(th)
	}
}

func first(ready []*Thread) *Thread { return ready[0] }

func TestSingleThreadOpsInOrder(t *testing.T) {
	kinds := []memmodel.Kind{memmodel.KLoad, memmodel.KStore, memmodel.KFence}
	got := drive(t, Coro, func(th *Thread) {
		for _, k := range kinds {
			op := &capi.Op{Kind: k}
			th.Call(op)
			if op.Val == 0 {
				t.Error("result not delivered")
			}
		}
	}, first)
	if len(got) != len(kinds) {
		t.Fatalf("processed %d ops, want %d", len(got), len(kinds))
	}
	for i, k := range kinds {
		if got[i] != k {
			t.Fatalf("op %d = %v, want %v", i, got[i], k)
		}
	}
}

// TestEveryHandoffRegime runs a thread through every Figure 14 handoff
// regime: each must deliver both ops in order.
func TestEveryHandoffRegime(t *testing.T) {
	for _, h := range HandoffRegimes() {
		got := drive(t, h, func(th *Thread) {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
			th.Call(&capi.Op{Kind: memmodel.KStore})
		}, first)
		if len(got) != 2 || got[0] != memmodel.KLoad || got[1] != memmodel.KStore {
			t.Fatalf("%s: processed %v", h, got)
		}
	}
}

func TestParseHandoff(t *testing.T) {
	for _, h := range HandoffRegimes() {
		got, err := ParseHandoff(h.String())
		if err != nil || got != h {
			t.Errorf("ParseHandoff(%q) = %v, %v; want %v", h.String(), got, err, h)
		}
	}
	if h, err := ParseHandoff(""); err != nil || h != Coro || h.String() != "coro" {
		t.Errorf("default regime = %q, %v; want coro", h, err)
	}
	if _, err := ParseHandoff("cond"); err == nil {
		t.Error("ParseHandoff accepted the removed cond regime")
	}
}

func TestBlockAndWake(t *testing.T) {
	s := New(Coro)
	defer s.Shutdown()
	order := []string{}
	main := s.NewThread("main", func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KMutexLock})
		order = append(order, "main-after-lock")
	})
	// Main parks on the lock op; block it, then wake it.
	if main.State() != Ready {
		t.Fatal("main must be ready")
	}
	s.Block(main)
	if main.State() != Blocked {
		t.Fatal("main must be blocked")
	}
	if got := s.Ready(nil); len(got) != 0 {
		t.Fatal("blocked thread must not be ready")
	}
	if st := s.Reply(main); st != Finished {
		t.Fatalf("main should have finished, state %v", st)
	}
	if len(order) != 1 {
		t.Fatal("main body did not resume")
	}
}

func TestNestedSpawn(t *testing.T) {
	s := New(Coro)
	defer s.Shutdown()
	var childSeen bool
	main := s.NewThread("main", func(th *Thread) {
		op := &capi.Op{Kind: memmodel.KThreadCreate}
		th.Call(op)
	})
	// Process main's spawn op by creating the child; the child runs to its
	// first op before NewThread returns.
	child := s.NewThread("child", func(th *Thread) {
		childSeen = true
		th.Call(&capi.Op{Kind: memmodel.KLoad})
	})
	if !childSeen {
		t.Fatal("child must run to its first op during NewThread")
	}
	if child.State() != Ready || child.ID != 1 {
		t.Fatalf("child state %v id %d", child.State(), child.ID)
	}
	if st := s.Reply(main); st != Finished {
		t.Fatalf("main state %v", st)
	}
	if st := s.Reply(child); st != Finished {
		t.Fatalf("child state %v", st)
	}
}

func TestAbortUnwindsThreads(t *testing.T) {
	s := New(Coro)
	defer s.Shutdown()
	cleanedUp := false
	s.NewThread("main", func(th *Thread) {
		defer func() { cleanedUp = true }()
		for {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
		}
	})
	s.Abort()
	if s.AliveCount() != 0 {
		t.Fatal("all threads must be finished after abort")
	}
	if !cleanedUp {
		t.Fatal("thread defers must run during abort")
	}
}

func TestPanicCaptured(t *testing.T) {
	s := New(Coro)
	th := s.NewThread("main", func(th *Thread) {
		panic("boom")
	})
	if th.State() != Finished {
		t.Fatal("panicking thread must settle as finished")
	}
	if th.PanicValue != "boom" {
		t.Fatalf("panic value %v", th.PanicValue)
	}
}

// TestFiberPoolReusesWorkers pins the tentpole invariant: after the first
// execution warms the pool, further executions start zero goroutines, in
// every handoff regime.
func TestFiberPoolReusesWorkers(t *testing.T) {
	for _, h := range HandoffRegimes() {
		s := New(h)
		runOnce := func() {
			for i := 0; i < 3; i++ {
				s.NewThread("t", func(t *Thread) {
					t.Call(&capi.Op{Kind: memmodel.KYield})
				})
			}
			for _, th := range s.Threads() {
				s.Reply(th)
			}
		}
		runOnce()
		warm := s.Spawns()
		if warm != 3 {
			t.Fatalf("%s: first execution spawned %d goroutines, want 3", h, warm)
		}
		for i := 0; i < 5; i++ {
			s.Reset()
			runOnce()
		}
		if got := s.Spawns(); got != warm {
			t.Errorf("%s: steady state spawned %d extra goroutines, want 0", h, got-warm)
		}
		if got := s.WorkerCount(); got != 3 {
			t.Errorf("%s: worker count = %d, want 3", h, got)
		}
		s.Shutdown()
		if got := s.WorkerCount(); got != 0 {
			t.Errorf("%s: worker count after shutdown = %d, want 0", h, got)
		}
	}
}

// TestWorkerRetiredAfterPanic pins the retirement rule: a worker whose body
// escaped with a non-abort panic must not be recycled — the next execution
// replaces it with a fresh goroutine — while abort unwinds keep workers
// pooled.
func TestWorkerRetiredAfterPanic(t *testing.T) {
	s := New(Coro)
	th := s.NewThread("bomb", func(th *Thread) {
		panic("boom")
	})
	if th.State() != Finished || th.PanicValue != "boom" {
		t.Fatalf("panicking thread state %v panic %v", th.State(), th.PanicValue)
	}
	if got := s.WorkerCount(); got != 0 {
		t.Fatalf("worker count after panic = %d, want 0 (retired)", got)
	}
	spawnsAfterPanic := s.Spawns()

	// The slot must be served by a fresh worker on the next execution, and
	// the panic must not leak into it.
	s.Reset()
	th2 := s.NewThread("clean", func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KYield})
	})
	if th2.PanicValue != nil {
		t.Fatalf("recycled panic value %v on fresh binding", th2.PanicValue)
	}
	if s.Spawns() != spawnsAfterPanic+1 {
		t.Fatalf("replacement worker not spawned: spawns %d → %d", spawnsAfterPanic, s.Spawns())
	}
	if st := s.Reply(th2); st != Finished {
		t.Fatalf("clean thread state %v", st)
	}
	if got := s.WorkerCount(); got != 1 {
		t.Fatalf("worker count = %d, want 1", got)
	}

	// Abort unwinds, by contrast, recycle the worker.
	s.Reset()
	s.NewThread("loop", func(th *Thread) {
		for {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
		}
	})
	s.Abort()
	if got := s.WorkerCount(); got != 1 {
		t.Fatalf("worker count after abort = %d, want 1 (abort must not retire)", got)
	}
	spawns := s.Spawns()
	s.Reset()
	s.NewThread("again", func(th *Thread) {})
	if s.Spawns() != spawns {
		t.Fatal("aborted worker was not reused")
	}
	s.Shutdown()
}

func TestSchedulerResetRecyclesThreads(t *testing.T) {
	s := New(Coro)
	defer s.Shutdown()
	runOnce := func(wantRecycled []*Thread) []*Thread {
		var handles []*Thread
		for i := 0; i < 3; i++ {
			th := s.NewThread("t", func(t *Thread) {
				t.Call(&capi.Op{Kind: memmodel.KYield})
			})
			handles = append(handles, th)
			if wantRecycled != nil && th != wantRecycled[i] {
				t.Fatalf("thread %d not recycled after Reset", i)
			}
		}
		for _, th := range handles {
			if th.State() != Ready {
				t.Fatalf("thread %d state %v, want ready", th.ID, th.State())
			}
			if st := s.Reply(th); st != Finished {
				t.Fatalf("thread %d state after reply %v, want finished", th.ID, st)
			}
		}
		return handles
	}
	first := runOnce(nil)
	s.Reset()
	if len(s.Threads()) != 0 {
		t.Fatalf("Reset must clear the thread list, got %d", len(s.Threads()))
	}
	runOnce(first)
}
