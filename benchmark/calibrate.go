package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calNominal is the calibration kernel's median duration, in seconds, on
// the host the bounds in BENCHMARK.json were set on (2 cores of an Intel
// Xeon, quiet).
const calNominal = 0.053

// calibrator is a fixed kernel of the benchmark's own, timed after every
// job and set-up: each of GOMAXPROCS goroutines fills half a million
// words from a xorshift generator and sorts them. No code of the repository runs in
// it, and its memory is mapped outside the Go heap, so a change to the
// program cannot change its time and it cannot change the program's GC.
// A shared host slows it in step with the jobs timed beside it: every
// reported time is scaled by calNominal over the kernel time measured
// right after it, which cancels the host's drift over tens of seconds.
type calibrator struct {
	mem   []byte
	words [][]uint64
}

// newCalibrator maps the kernel's memory. tiny shrinks the kernel for
// unit tests, whose times mean nothing.
func newCalibrator(tiny bool) (*calibrator, error) {
	n, words := runtime.GOMAXPROCS(0), 1<<19
	if tiny {
		words = 1 << 10
	}
	mem, err := syscall.Mmap(-1, 0, 8*n*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration kernel: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n*words)
	c := &calibrator{mem: mem}
	for g := 0; g < n; g++ {
		c.words = append(c.words, all[g*words:(g+1)*words])
	}
	c.run() // touches every page, so the kernel's memory is resident from here on
	return c, nil
}

// bytes is the resident size of the kernel's memory.
func (c *calibrator) bytes() float64 { return float64(len(c.mem)) }

func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

// run collects the garbage the measured work left behind, so no GC cycle
// overlaps the kernel, and returns the kernel's wall time in seconds.
func (c *calibrator) run() float64 {
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g, v := range c.words {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for i := range v {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				v[i] = x
			}
			slices.Sort(v)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
