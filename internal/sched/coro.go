//go:build go1.23

package sched

import "iter"

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
