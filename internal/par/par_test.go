package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, w := range []int{0, 1, 3, 16} {
			seen := make([]int32, n)
			For(n, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestForIdxCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, w := range []int{0, 1, 5} {
			seen := make([]int32, n)
			ForIdx(n, w, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestForBlocksAreContiguous(t *testing.T) {
	var mu sync.Mutex
	var blocks [][2]int
	For(100, 7, func(lo, hi int) {
		mu.Lock()
		blocks = append(blocks, [2]int{lo, hi})
		mu.Unlock()
	})
	total := 0
	for _, b := range blocks {
		if b[1] <= b[0] {
			t.Fatalf("empty or inverted block %v", b)
		}
		total += b[1] - b[0]
	}
	if total != 100 {
		t.Fatalf("blocks cover %d want 100", total)
	}
}

func TestThreads(t *testing.T) {
	if Threads(5) != 5 {
		t.Fatal("Threads(5) != 5")
	}
	if Threads(0) < 1 {
		t.Fatal("Threads(0) < 1")
	}
}
