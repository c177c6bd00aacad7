package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestCount(t *testing.T) {
	def := runtime.NumCPU()
	if def < 1 {
		def = 1
	}
	for _, tc := range []struct{ req, want int }{
		{0, def},
		{-1, def},
		{-8, def},
		{1, 1},
		{3, 3},
		{64, 64},
	} {
		if got := Count(tc.req); got != tc.want {
			t.Errorf("Count(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
}

// TestForEachVisitsEachIndexOnce fans n indices over each worker count
// and demands every index be visited exactly once — none dropped, none
// repeated — whether n is empty, one, below, or far above the pool.
func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, workers - 1, 1000} {
			hits := make([]int32, n)
			ForEach(workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForEachInline checks the one-worker (and one-item) path runs on
// the caller's goroutine, in index order: the unsynchronized append
// below is a data race under -race if any call ran concurrently.
func TestForEachInline(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 50}, {8, 1}} {
		var order []int
		ForEach(tc.workers, tc.n, func(i int) { order = append(order, i) })
		if len(order) != tc.n {
			t.Fatalf("workers=%d n=%d: %d calls", tc.workers, tc.n, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d n=%d: call %d got index %d, want in-order", tc.workers, tc.n, i, v)
			}
		}
	}
}

func TestGo(t *testing.T) {
	for _, k := range []int{1, 2, 8, 33} {
		hits := make([]int32, k)
		Go(k, func(s int) { atomic.AddInt32(&hits[s], 1) })
		for s, h := range hits {
			if h != 1 {
				t.Errorf("k=%d: shard %d ran %d times", k, s, h)
			}
		}
	}
	for _, k := range []int{0, -1} {
		Go(k, func(int) { t.Errorf("Go(%d) ran a shard", k) })
	}
}
