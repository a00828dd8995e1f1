package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// The reference workload is a fixed piece of Go that shares nothing with
// the repository's code: channel handoffs between two goroutines, churn in
// a small map, short-lived allocations and random walks over a 1 MiB and a
// 16 MiB array, the kinds of work an execution does, at cache footprints
// below and above the workloads'. The host this benchmark runs on changes
// speed by up to 1.7× within minutes, in CPU time too, as other guests load
// the cores, caches and memory they share with it. An untraced run
// therefore takes a reading of the reference before and after every leg,
// and reports the leg's figures in reference ops: the CPU time one
// reference op took next to it. Host speed cancels out of that ratio; a
// change to the program does not.

const (
	// refReps is how many reference ops one reading times (about 60 ms).
	refReps = 4
	// nominalRefOpS states setup_s, which must be in seconds, at a nominal
	// host speed: the one at which a reference op takes 15 ms of CPU time,
	// about what it took on the 2-vCPU Xeon guest the benchmark was built
	// on.
	nominalRefOpS = 0.015
)

var refSink int

// refOp runs one reference op.
func refOp() {
	refWalk(1 << 17)
	refWalk(1 << 21)
}

// refWalk does 2000 handoffs, each followed by map churn, eight steps of a
// random walk over an array of n ints, and a small allocation.
func refWalk(n int) {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	m := map[int]int{}
	arr := make([]int, n)
	x := 12345
	var keep [][]byte
	for i := 0; i < 2000; i++ {
		ping <- i
		x += <-pong
		for j := 0; j < 8; j++ {
			x = x*1103515245 + 12345
			k := x & 1023
			m[k] += j
			if m[k] > 50 {
				delete(m, k)
			}
			arr[(x>>8)&(len(arr)-1)]++
		}
		keep = append(keep, make([]byte, 64+(x&255)))
		if len(keep) > 64 {
			keep = keep[:0]
		}
	}
	close(ping)
	<-pong
	refSink += x + len(m) + arr[x&(len(arr)-1)]
}

// refEnv, set in a process's environment, makes the benchmark binary (or its
// test binary) the reference process instead.
const refEnv = "PERFBENCH_REFERENCE"

// referenceMain is the reference process: one op to fault its memory in,
// then refReps timed ops on one P. It prints their CPU time per op in
// nanoseconds.
func referenceMain(w io.Writer) int {
	runtime.GOMAXPROCS(1)
	refOp()
	t0 := cpuNS()
	for i := 0; i < refReps; i++ {
		refOp()
	}
	fmt.Fprintln(w, float64(cpuNS()-t0)/refReps)
	return 0
}

// readReference takes one reading: it runs the reference in a process of
// its own, which inherits the benchmark's CPU, so that the reference shares
// neither heap, garbage collector nor peak resident set with the program
// under test. It returns the CPU time of one reference op in nanoseconds.
func readReference() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	ns, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference process printed %q", out)
	}
	return ns, nil
}

// inRefOps converts an untraced run's per-round figures into reference
// ops. refs holds the readings taken before the campaign leg, between the
// legs and after the raw leg of every round (2·rounds+1 of them); each leg
// is scaled by the mean of the two readings around it.
func inRefOps(refs []float64, camp *campaignLeg, raw *rawLeg) (campEPR, rawEPR, p50, p99 []float64) {
	for r := range camp.roundEPS {
		c, w := (refs[2*r]+refs[2*r+1])/2e9, (refs[2*r+1]+refs[2*r+2])/2e9
		campEPR = append(campEPR, camp.roundEPS[r]*c)
		rawEPR = append(rawEPR, raw.roundEPS[r]*w)
		p50 = append(p50, raw.roundP50[r]/1e9/w)
		p99 = append(p99, raw.roundP99[r]/1e9/w)
	}
	return campEPR, rawEPR, p50, p99
}
