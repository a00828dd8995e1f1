package main

import (
	"time"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// layerClock accumulates, per execution, the time spent in the traced
// engine's memory-model and strategy calls. Those calls last well under a
// microsecond each, so they are not individual spans: their totals become
// child totals of the execution span. Strategy draws made from inside a
// model call (reads-from selection routes through Engine.PickIndex) are
// tracked separately so the model's self time excludes them.
type layerClock struct {
	modelNS, modelCalls int64
	drawNS, draws       int64
	drawInModelNS       int64
	inModel             bool
}

func (c *layerClock) reset() { *c = layerClock{} }

func (c *layerClock) enterModel() time.Time {
	c.inModel = true
	return time.Now()
}

func (c *layerClock) leaveModel(t0 time.Time) {
	c.modelNS += int64(time.Since(t0))
	c.modelCalls++
	c.inModel = false
}

// modelSelfNS is the model time net of the strategy draws it made.
func (c *layerClock) modelSelfNS() int64 { return c.modelNS - c.drawInModelNS }

// timedModel wraps a core.MemModel, timing every per-operation call. Begin
// runs inside the engine's reset phase and is forwarded untimed.
type timedModel struct {
	inner core.MemModel
	clock *layerClock
}

// timedMOModel is a timedModel over a model that provides total
// modification orders; the wrapper keeps core.MOProvider visible so
// validation, the analyzers and the campaign treat the traced engine like
// the original.
type timedMOModel struct {
	*timedModel
	mo core.MOProvider
}

func (m timedMOModel) Locations() []memmodel.LocID { return m.mo.Locations() }

func (m timedMOModel) TotalMO(loc memmodel.LocID) []*core.Action { return m.mo.TotalMO(loc) }

func wrapModel(inner core.MemModel, clock *layerClock) core.MemModel {
	tm := &timedModel{inner: inner, clock: clock}
	if mo, ok := inner.(core.MOProvider); ok {
		return timedMOModel{timedModel: tm, mo: mo}
	}
	return tm
}

func (m *timedModel) Begin(e *core.Engine) { m.inner.Begin(e) }

func (m *timedModel) AtomicLoad(t *core.ThreadState, op *capi.Op) memmodel.Value {
	t0 := m.clock.enterModel()
	v := m.inner.AtomicLoad(t, op)
	m.clock.leaveModel(t0)
	return v
}

func (m *timedModel) AtomicStore(t *core.ThreadState, op *capi.Op) {
	t0 := m.clock.enterModel()
	m.inner.AtomicStore(t, op)
	m.clock.leaveModel(t0)
}

func (m *timedModel) AtomicRMW(t *core.ThreadState, op *capi.Op) (memmodel.Value, bool) {
	t0 := m.clock.enterModel()
	v, ok := m.inner.AtomicRMW(t, op)
	m.clock.leaveModel(t0)
	return v, ok
}

func (m *timedModel) Fence(t *core.ThreadState, op *capi.Op) {
	t0 := m.clock.enterModel()
	m.inner.Fence(t, op)
	m.clock.leaveModel(t0)
}

func (m *timedModel) PromoteNAStore(t *core.ThreadState, loc memmodel.LocID, writer memmodel.TID, epoch memmodel.SeqNum, v memmodel.Value) {
	t0 := m.clock.enterModel()
	m.inner.PromoteNAStore(t, loc, writer, epoch, v)
	m.clock.leaveModel(t0)
}

func (m *timedModel) Maintain(e *core.Engine) {
	t0 := m.clock.enterModel()
	m.inner.Maintain(e)
	m.clock.leaveModel(t0)
}

// timedStrategy wraps a core.Strategy, timing every decision. Seed runs
// inside the engine's reset phase and is forwarded untimed.
type timedStrategy struct {
	inner core.Strategy
	clock *layerClock
}

func (s *timedStrategy) Seed(seed int64) { s.inner.Seed(seed) }

func (s *timedStrategy) PickThread(ready []*core.ThreadState) *core.ThreadState {
	t0 := time.Now()
	t := s.inner.PickThread(ready)
	s.done(t0)
	return t
}

func (s *timedStrategy) PickIndex(n int) int {
	t0 := time.Now()
	i := s.inner.PickIndex(n)
	s.done(t0)
	return i
}

func (s *timedStrategy) done(t0 time.Time) {
	d := int64(time.Since(t0))
	s.clock.drawNS += d
	s.clock.draws++
	if s.clock.inModel {
		s.clock.drawInModelNS += d
	}
}
