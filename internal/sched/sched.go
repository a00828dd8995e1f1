// Package sched implements the controlled scheduler that stands in for
// C11Tester's fibers (Sections 7.3–7.4 of the paper).
//
// Every thread of the program under test runs on a worker, but at most one
// of them executes at a time: a thread runs until its next visible
// operation, parks itself while handing the operation to the tool, and
// resumes only when the tool replies. The tool (engine) therefore has full
// control of the interleaving, exactly like C11Tester's fiber scheduler.
//
// Workers form a fiber pool: a Scheduler obtains each worker once and parks
// it between executions; NewThread re-binds a parked worker to a fresh
// (name, body) instead of starting one. Steady-state executions therefore
// start zero goroutines and allocate nothing — the analogue of C11Tester
// reusing its fiber stacks across executions rather than paying thread
// creation per run (Section 7.3).
//
// The handoff mechanism is one value, Handoff, mirroring the two rows of
// the paper's Figure 14 comparison:
//
//   - Coro (the zero value, so every tool's default) runs each worker as a
//     pulled coroutine (iter.Pull): a handoff is a direct goroutine switch
//     that bypasses the Go scheduler, the analogue of §7.3's swapcontext
//     fibers;
//   - OSThread hands off through condition variables between goroutines
//     pinned to kernel threads (LockOSThread), so every handoff is a real OS
//     context switch, the regime tsan11rec's kernel-thread sequencing
//     operates in.
//
// A Scheduler owns its workers: Shutdown ends them all. Starting a worker
// costs a few allocations (pulling a coroutine, or starting a goroutine), so
// callers keep one Scheduler for many executions: each campaign worker keeps
// one tool, and so one Scheduler, per tool for the whole campaign.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// State is a thread's scheduling state.
type State uint8

const (
	// Ready means the thread has parked with a pending operation and can be
	// scheduled.
	Ready State = iota
	// Blocked means the tool has suspended the thread (mutex, cond, join);
	// it must be woken with Reply after the tool completes its operation.
	Blocked
	// Finished means the thread's function has returned.
	Finished
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Finished:
		return "finished"
	}
	return "invalid"
}

// abortSignal is panicked through a program thread to unwind it when the
// scheduler aborts the execution (step-limit hit or deadlock).
type abortSignal struct{}

// Handoff selects how the tool and a program thread pass control to each
// other (the Figure 14 regimes, see HandoffRegimes).
type Handoff uint8

const (
	// Coro runs every worker as a pulled coroutine; the zero value, so the
	// default.
	Coro Handoff = iota
	// OSThread pins every worker goroutine to its own kernel thread and
	// resumes it through a sync.Cond, the analogue of pthread
	// condition-variable sequencing, so each handoff costs a real OS context
	// switch (the kernel-thread regime of tsan11rec).
	OSThread
)

var handoffNames = [...]string{Coro: "coro", OSThread: "osthread"}

// String returns the regime's ParseHandoff name.
func (h Handoff) String() string { return handoffNames[h] }

// HandoffRegimes lists the Figure 14 handoff regimes in the paper's order:
// user-level switches first, full kernel-thread sequencing last.
func HandoffRegimes() []Handoff { return []Handoff{Coro, OSThread} }

// ParseHandoff maps a handoff regime name onto its Handoff; "" is the
// default, Coro.
func ParseHandoff(name string) (Handoff, error) {
	if name == "" {
		return Coro, nil
	}
	for h, n := range handoffNames {
		if n == name {
			return Handoff(h), nil
		}
	}
	return Coro, fmt.Errorf("sched: unknown handoff regime %q (want coro or osthread)", name)
}

// Thread is one managed thread of the program under test. The handle owns a
// persistent worker that serves one thread binding per execution and parks
// between executions.
type Thread struct {
	ID   memmodel.TID
	Name string

	sched   *Scheduler
	state   State
	pending *capi.Op

	// body is the worker's current binding; NewThread sets it before waking
	// the worker and the worker clears it when the binding finishes. A nil
	// body at wakeup is the retirement sentinel of osthread workers
	// (Shutdown).
	body func(*Thread)

	// dead marks a retired worker: it has exited (a non-abort panic escaped
	// the body, or Shutdown retired it) and the handle must not be re-bound.
	// Written by the worker before it settles (or by Shutdown while the
	// worker is parked), read by the tool goroutine after the settle — the
	// handoff orders the two.
	dead bool

	// Coro handoff: next resumes the worker's coroutine until it settles,
	// stop ends it while it is parked between bindings, and yield — called
	// only on the coroutine — parks it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// OSThread handoff.
	mu      sync.Mutex
	cond    *sync.Cond
	replied bool

	// PanicValue records a non-abort panic that escaped the thread's
	// function, so the tool can surface it instead of crashing the host.
	PanicValue any
}

// State returns the thread's scheduling state. Only the tool goroutine may
// call it.
func (t *Thread) State() State { return t.state }

// Pending returns the operation the thread is parked on (nil unless Ready).
func (t *Thread) Pending() *capi.Op { return t.pending }

// Call hands op to the tool and parks until the tool replies. It must be
// called from t's own worker. If the execution is aborting, Call unwinds
// the thread instead of returning.
func (t *Thread) Call(op *capi.Op) {
	if t.sched.aborting {
		panic(abortSignal{})
	}
	t.pending = op
	t.state = Ready
	if t.sched.handoff == Coro {
		t.yield(struct{}{})
	} else {
		t.sched.events <- t
		t.awaitReply()
	}
	if t.sched.aborting {
		panic(abortSignal{})
	}
}

// awaitReply parks an osthread worker until signalReply wakes it.
func (t *Thread) awaitReply() {
	t.mu.Lock()
	for !t.replied {
		t.cond.Wait()
	}
	t.replied = false
	t.mu.Unlock()
}

func (t *Thread) signalReply() {
	t.mu.Lock()
	t.replied = true
	t.cond.Signal()
	t.mu.Unlock()
}

// workerLoop is the body of a pooled osthread worker goroutine: park until
// NewThread binds a thread function, run it, and park again. The loop exits
// when the binding signal carries no body (Shutdown) or when a non-abort
// panic escaped the body — the goroutine's stack may then hold arbitrary
// half-unwound program state, so it is retired rather than recycled (the
// tool observes the retirement through Thread.PanicValue and the pool
// replaces the worker on the next binding).
func (t *Thread) workerLoop() {
	runtime.LockOSThread()
	for {
		t.awaitReply()
		if t.body == nil {
			return // Shutdown retired this worker while it was parked.
		}
		if t.runOnce() {
			return
		}
	}
}

// runOnce runs the worker's current binding to completion, converting an
// abort unwind into a clean finish, and reports whether the worker must be
// retired. Everything the tool goroutine may read — state, PanicValue, dead —
// is written before the worker settles: by the finish event on the events
// channel, or for a coro worker by its return to the worker loop, whose
// yield (or, when retired, the coroutine's exit) ends the tool's next().
func (t *Thread) runOnce() (retire bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				t.PanicValue = r
				t.dead = true
				retire = true
			}
		}
		t.body = nil
		t.state = Finished
		t.pending = nil
		if t.sched.handoff != Coro {
			t.sched.events <- t
		}
	}()
	t.body(t)
	return
}

// Scheduler sequences the threads of one execution. One Scheduler instance
// serves many executions in sequence: its fiber pool keeps one parked worker
// per thread slot, and Reset + NewThread re-bind those workers (and their
// coroutines or condition variables) to the next execution's threads, so
// steady-state executions start no goroutines and allocate nothing.
type Scheduler struct {
	handoff  Handoff
	threads  []*Thread
	events   chan *Thread // settle events; nil in the coro regime
	aborting bool

	// pool recycles Thread handles and their workers across executions;
	// pool[i] serves TID i. All threads of the previous execution have
	// settled as Finished by the time Reset hands a slot out again.
	pool []*Thread

	// spawns counts the workers (goroutines or coroutines) the scheduler
	// started over its lifetime. It stops growing once the pool covers the
	// program's thread count — the invariant the fiber-pool tests pin.
	spawns int

	// measureWait, when set, times every waitSettle park — the tool-side
	// half of a handoff, where the tool goroutine waits for the program
	// thread to reach its next visible operation — accumulating into waitNS.
	// Opt-in because it costs two monotonic clock reads per visible
	// operation; campaign telemetry enables it, raw perf sweeps do not.
	// time.Now/Since never allocate, so the instrumented handoff stays
	// inside the zero-alloc steady state.
	measureWait bool
	waitNS      int64
}

// New returns a scheduler. The same instance is reused across executions via
// Reset; call Shutdown when discarding it so the pooled workers are released.
func New(h Handoff) *Scheduler {
	s := &Scheduler{handoff: h}
	if h != Coro {
		s.events = make(chan *Thread)
	}
	return s
}

// Reset prepares the scheduler for a new execution. It must only be called
// after the previous execution fully ended (all threads Finished, via normal
// completion or Abort); every pooled worker is parked then, so the recycled
// scheduler starts from a clean handoff state.
func (s *Scheduler) Reset() {
	s.threads = s.threads[:0]
	s.aborting = false
	s.waitNS = 0
}

// SetMeasureWait toggles handoff-wait timing for subsequent executions.
func (s *Scheduler) SetMeasureWait(on bool) { s.measureWait = on }

// WaitNS returns the accumulated handoff wait of the current (or last)
// execution: total time the tool goroutine spent parked in waitSettle while
// program threads ran to their next visible operation. Zero unless
// SetMeasureWait enabled timing.
func (s *Scheduler) WaitNS() int64 { return s.waitNS }

// Threads returns all threads created so far, indexed by TID.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Ready appends to dst the threads that are parked with a pending operation.
func (s *Scheduler) Ready(dst []*Thread) []*Thread {
	for _, t := range s.threads {
		if t.state == Ready {
			dst = append(dst, t)
		}
	}
	return dst
}

// AliveCount returns the number of unfinished threads.
func (s *Scheduler) AliveCount() int {
	n := 0
	for _, t := range s.threads {
		if t.state != Finished {
			n++
		}
	}
	return n
}

// WorkerCount returns the number of live pooled workers (retired workers
// excluded). It is bounded by the widest execution the scheduler has run,
// plus one replacement per retirement — the invariant the pool stress tests
// assert.
func (s *Scheduler) WorkerCount() int {
	n := 0
	for _, t := range s.pool {
		if !t.dead {
			n++
		}
	}
	return n
}

// Spawns returns the number of workers the scheduler has started. It is
// constant across steady-state executions.
func (s *Scheduler) Spawns() int { return s.spawns }

// NewThread creates a managed thread running body and blocks until it
// settles (parks on its first operation, or finishes). body receives the
// thread handle so the tool can wire up its Env.
//
// The thread is served by the slot's parked worker; a worker is only started
// when the slot is new or its previous worker was retired.
func (s *Scheduler) NewThread(name string, body func(*Thread)) *Thread {
	idx := len(s.threads)
	var t *Thread
	if idx < len(s.pool) && !s.pool[idx].dead {
		t = s.pool[idx]
		// t.replied is deliberately not touched: every signal is consumed by
		// the worker before it parks (Call, abort unwind, or retirement), so
		// the flag is false here — and the worker may concurrently be taking
		// t.mu to park, so only the signal protocol itself may write it.
	} else {
		t = s.worker()
		if idx < len(s.pool) {
			s.pool[idx] = t // replace a retired worker's handle
		} else {
			s.pool = append(s.pool, t)
		}
	}
	t.ID = memmodel.TID(idx)
	t.Name = name
	t.state = Ready
	t.pending = nil
	t.PanicValue = nil
	t.dead = false
	s.threads = append(s.threads, t)
	t.body = body
	s.resume(t)
	return t
}

// worker starts a worker for a new pool slot, or for a slot whose worker was
// retired, and counts it as a spawn: a coro worker is pulled and runs its
// first binding on its first next(); an osthread worker goroutine starts
// parked, awaiting its first binding.
func (s *Scheduler) worker() *Thread {
	t := &Thread{sched: s}
	s.spawns++
	if s.handoff == Coro {
		t.pull(t.coroLoop)
	} else {
		t.cond = sync.NewCond(&t.mu)
		go t.workerLoop()
	}
	return t
}

// Block marks t suspended. The tool must not reply to a blocked thread until
// it completes the thread's pending operation; Reply wakes it.
func (s *Scheduler) Block(t *Thread) {
	if t.state != Ready {
		panic(fmt.Sprintf("sched: blocking %s thread %d", t.state, t.ID))
	}
	t.state = Blocked
}

// Reply resumes t after its pending operation was processed and blocks until
// t settles again. It returns t's new state (Ready or Finished).
func (s *Scheduler) Reply(t *Thread) State {
	if t.state == Finished {
		panic(fmt.Sprintf("sched: replying to finished thread %d", t.ID))
	}
	t.pending = nil
	t.state = Blocked // transient until the thread settles
	s.resume(t)
	return t.state
}

// resume wakes t's parked worker and blocks until t settles again.
func (s *Scheduler) resume(t *Thread) {
	if s.handoff != Coro {
		t.signalReply()
	}
	s.waitSettle(t)
}

// waitSettle blocks until t settles. A coro worker settles by yielding (or
// returning) to next(); an osthread worker sends t as the next settle event,
// which must come from t: only one program thread runs at a time, so no
// other thread can settle.
func (s *Scheduler) waitSettle(t *Thread) {
	var t0 time.Time
	if s.measureWait {
		t0 = time.Now()
	}
	if s.handoff == Coro {
		t.next()
	} else if ev := <-s.events; ev != t {
		panic(fmt.Sprintf("sched: thread %d settled while waiting for %d", ev.ID, t.ID))
	}
	if s.measureWait {
		s.waitNS += int64(time.Since(t0))
	}
}

// Abort unwinds every unfinished thread. After Abort returns, all threads
// have finished and every pooled worker is parked again awaiting its next
// binding; the execution is over and the scheduler must not be used again
// until Reset recycles it for the next execution (Reset relies on exactly
// this all-settled state). Workers unwound by an abort are recycled — only a
// non-abort panic retires one.
func (s *Scheduler) Abort() {
	s.aborting = true
	for _, t := range s.threads {
		if t.state != Finished {
			s.resume(t)
		}
	}
}

// Shutdown ends every pooled worker: coro workers are stopped while parked,
// osthread worker goroutines exit their loop. Like Reset, it must only be
// called in the quiescent all-threads-finished state. The scheduler must
// not run further executions afterwards; tools call it when an engine is
// discarded so long-lived processes (campaign runners) do not accumulate
// parked workers.
func (s *Scheduler) Shutdown() {
	for _, t := range s.pool {
		if t.dead {
			continue
		}
		t.dead = true
		if s.handoff == Coro {
			t.stop() // a parked coroLoop's yield returns false: it returns
		} else {
			t.body = nil
			t.signalReply() // nil body: the worker exits its loop
		}
	}
	s.pool = nil
	s.threads = nil
}
