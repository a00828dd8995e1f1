//go:build go1.23

package sched

import (
	"iter"
	"sync"
)

// pull starts a coroutine running seq on t; its first next() enters seq.
func (t *Thread) pull(seq iter.Seq[struct{}]) {
	t.next, t.stop = iter.Pull(seq)
}

// coroLoop is the body of a pooled coro worker: run the current binding,
// then park at yield until NewThread binds the next one. The loop returns —
// ending the coroutine, so next() reports done — when a non-abort panic
// retired the worker (see runOnce), or when stop() ended it while parked.
func (t *Thread) coroLoop(yield func(struct{}) bool) {
	t.yield = yield
	for !t.runOnce() && yield(struct{}{}) {
	}
}

// coroOnce is the body of a respawn-mode coroutine: one binding, then return.
func (t *Thread) coroOnce(yield func(struct{}) bool) {
	t.yield = yield
	t.runOnce()
}

// idleCap bounds the idle list. A campaign keeps one tool — and so one
// scheduler's worth of workers, a handful per program — live per worker
// goroutine, so a few dozen parked coroutines cover every scheduler a
// process rebuilds; each costs one parked goroutine stack.
const idleCap = 64

// idle is the process-wide list of parked coro workers that Shutdown
// released and NewThread adopts, so a rebuilt scheduler does not pull (and
// allocate) its coroutines again.
var idle struct {
	sync.Mutex
	workers []*Thread
}

// release hands t, a live coro worker parked between bindings, to the idle
// list, or stops it when the list is full.
func release(t *Thread) {
	t.sched = nil // an idle worker must not keep its scheduler alive
	idle.Lock()
	keep := len(idle.workers) < idleCap
	if keep {
		idle.workers = append(idle.workers, t)
	}
	idle.Unlock()
	if !keep {
		t.stop()
	}
}

// adopt takes the most recently released idle worker (its stack is the
// likeliest to be warm), or returns nil when the list is empty.
func adopt() *Thread {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.workers)
	if n == 0 {
		return nil
	}
	t := idle.workers[n-1]
	idle.workers[n-1] = nil
	idle.workers = idle.workers[:n-1]
	return t
}
