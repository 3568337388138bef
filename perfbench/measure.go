package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest ranks (q = 0.5 is the usual median). NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// settle collects the garbage the previous step left, so every set-up and
// every measured window starts from the same heap whatever came before, and
// the peak RSS does not depend on when the collector last happened to run.
func settle() { runtime.GC() }

// window measures one stretch of load: its wall time and the process CPU
// it burned.
type window struct {
	start time.Time
	cpu0  time.Duration
	wall  time.Duration
	cpu   time.Duration
}

func startWindow() *window {
	settle()
	return &window{start: time.Now(), cpu0: cpuTime()}
}

func (w *window) stop() {
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu0
}

// sleepUntil waits until due and returns how late it woke. The last
// millisecond is spun rather than slept, so timer slack does not delay an
// open-loop send.
func sleepUntil(due time.Time) time.Duration {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return time.Since(due)
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}
