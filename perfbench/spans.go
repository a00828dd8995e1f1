package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxExecSpans caps the execution spans kept in memory; later executions
// still count in every total, only their individual records are dropped.
const maxExecSpans = 20000

// children are an execution span's child totals in nanoseconds. Model and
// strategy calls last well under a microsecond, so each is one total per
// execution rather than a span per call. Model is self time: strategy draws
// made inside model calls count under Strategy only.
type children struct {
	Reset       int64 `json:"reset"`
	Run         int64 `json:"run"`
	HandoffWait int64 `json:"handoff_wait"`
	Model       int64 `json:"model"`
	Strategy    int64 `json:"strategy"`
	Race        int64 `json:"race"`
	Axiom       int64 `json:"axiom,omitempty"`
	Analysis    int64 `json:"analysis,omitempty"`
}

// span is one record of the trace: workload → leg → cell (per round) →
// execution. Times are nanoseconds since the start of the run.
type span struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Name     string    `json:"name"`
	Seed     int64     `json:"seed"`
	Start    int64     `json:"start_ns"`
	End      int64     `json:"end_ns"`
	Children *children `json:"children,omitempty"`
}

// spanLog keeps the trace of a traced run in memory. A nil *spanLog records
// nothing, so untraced runs pass nil.
type spanLog struct {
	t0      time.Time
	spans   []span
	execs   int
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(parent int, name string, seed int64) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Seed: seed, Start: l.now()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = l.now()
}

// exec records one execution span with its child totals.
// start is wallNS at the execution's start.
func (l *spanLog) exec(parent int, seed int64, start int64, dur int64, ch children) {
	if l == nil {
		return
	}
	if l.execs >= maxExecSpans {
		l.dropped++
		return
	}
	l.execs++
	s := start - int64(l.t0.Sub(epoch))
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: "execution", Seed: seed,
		Start: s, End: s + dur, Children: &ch})
}

// write stores the trace as JSON lines, one span a line, followed by a line
// counting the execution spans dropped beyond maxExecSpans.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintf(bw, "{\"dropped_execution_spans\":%d}\n", l.dropped)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
