package experiments

import (
	"reflect"
	"testing"
)

// TestParallelGridMatchesSerial pins the parallel runner's determinism
// contract: the same seed must produce identical results (content and
// order) whether the 16 cells run serially or on 8 workers.
func TestParallelGridMatchesSerial(t *testing.T) {
	serial := RunGrid(3)
	parallel := gridCells(3, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel grid diverges from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if GridTable(serial) != GridTable(parallel) {
		t.Fatal("rendered grid tables differ between serial and parallel runs")
	}
}

// TestParallelAdaptiveMatchesSerial does the same for the E10 strategy
// sweep, which exercises the TCP/selector layers concurrently.
func TestParallelAdaptiveMatchesSerial(t *testing.T) {
	serial := RunAdaptive(5, true)
	parallel := adaptiveRows(5, true, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel adaptive diverges from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestFanOutCoversAllIndices checks the work-stealing loop computes every
// index exactly once, into its own slot, for worker counts below, at and
// above n.
func TestFanOutCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 50} {
		const n = 17
		hits := make([]int, n)
		out := fanOut(workers, n, func(i int) int { hits[i]++; return i * i })
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*i)
			}
		}
	}
}

func square(i int) int { return i * i }

// TestFanOutSerialRunsInline pins the workers <= 1 path to a plain loop:
// calls in index order and no allocation beyond the result slice (a
// goroutine, WaitGroup or shared counter would each add one). The serial
// entry points RunGrid and RunAdaptive ride on this path.
func TestFanOutSerialRunsInline(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		fanOut(workers, 5, func(i int) int { order = append(order, i); return i })
		if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
			t.Errorf("workers=%d: call order %v, want 0..4", workers, order)
		}
		if a := testing.AllocsPerRun(20, func() { fanOut(workers, 16, square) }); a != 1 {
			t.Errorf("workers=%d: %v allocations per serial fan-out, want 1 (the result slice)", workers, a)
		}
	}
}
