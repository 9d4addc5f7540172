package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is one reading of the process-wide instruments that bracket a
// timed window. Every field is cumulative, so a window's cost is the
// difference of two readings.
type counters struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads of the process
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	syscr      int64 // read-class syscalls (/proc/self/io)
	syscw      int64 // write-class syscalls
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func readCounters() (counters, error) {
	var c counters
	var err error
	if c.cpu, err = cpuTime(); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.allocBytes = ms.TotalAlloc
	c.gcPause = time.Duration(ms.PauseTotalNs)
	io, err := procFields("/proc/self/io", "syscr", "syscw")
	if err != nil {
		return c, err
	}
	c.syscr, c.syscw = io[0], io[1]
	c.wall = time.Now()
	return c, nil
}

// peakRSSMiB is the process's resident-set high-water mark so far.
func peakRSSMiB() (float64, error) {
	v, err := procFields("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(v[0]) / 1024, nil // the kernel reports kB
}

// procFields reads the leading integer of the named "key: value" lines
// of a /proc text file, in the order asked.
func procFields(path string, keys ...string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]int64, len(keys))
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for i, k := range keys {
			if key != k {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return nil, fmt.Errorf("%s: %s has no value", path, k)
			}
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", path, k, err)
			}
			out[i] = n
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if found != len(keys) {
		return nil, fmt.Errorf("%s: found %d of %v", path, found, keys)
	}
	return out, nil
}

// quantile returns the q-quantile (nearest rank, q in [0,1]) of xs
// without modifying it. It panics on an empty slice: every caller has
// at least one sample by construction.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
