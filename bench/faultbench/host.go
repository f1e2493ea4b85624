package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time (user plus system, all threads) this process
// has used since it started. Unlike wall time it does not grow while
// the host runs other tenants, which on a shared machine moves wall
// times of one campaign by tens of percent from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident set (Linux 4.0 and later; elsewhere the mark keeps counting
// from process start).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// rssSampler records the resident-set high-water mark of successive
// intervals.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

// sampleRSS starts recording one peak per interval until stopped.
func sampleRSS(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peaks = append(s.peaks, peakRSSMiB())
				resetPeakRSS()
			}
		}
	}()
	return s
}

// finish stops the sampler, records the last partial interval's peak and
// returns every interval's peak.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return append(s.peaks, peakRSSMiB())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM)
// from /proc; 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest) // "12345 kB"
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
