// Package par provides small parallel-execution helpers used throughout the
// assembly pipeline: a blocked parallel for-loop and sharded mutexes. These
// stand in for the OpenMP constructs the paper's refined PaKman algorithm
// (§4.5) relies on (parallel sliding windows, per-thread vectors,
// omp_set_lock around shared MacroNode updates).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Threads returns the worker count to use: n if positive, otherwise
// GOMAXPROCS.
func Threads(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs body(lo, hi) over contiguous blocks of [0, n) on workers
// goroutines (GOMAXPROCS when workers <= 0) and waits for completion. Blocks
// are contiguous and near-equal, mirroring OpenMP's static schedule, which
// is what makes workload imbalance from long-tailed node sizes observable.
func For(n, workers int, body func(lo, hi int)) {
	w := Threads(workers)
	if w > n {
		w = n
	}
	if n <= 0 {
		return
	}
	if w <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForIdx runs body(i) for each i in [0, n) using a dynamic work queue;
// suitable when per-item cost varies wildly.
func ForIdx(n, workers int, body func(i int)) {
	w := Threads(workers)
	if w > n {
		w = n
	}
	if n <= 0 {
		return
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	// The dispatch counter is the one piece of shared state on this path;
	// claiming a batch with a single atomic add keeps the fine-grained
	// dispatch it exists for from serializing on a lock.
	var next atomic.Int64
	take := func(batch int) (int, int) {
		lo := int(next.Add(int64(batch))) - batch
		hi := lo + batch
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	var wg sync.WaitGroup
	batch := n / (w * 8)
	if batch < 1 {
		batch = 1
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi := take(batch)
				if lo >= n {
					return
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}
