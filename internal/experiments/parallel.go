package experiments

import (
	"sync"
	"sync/atomic"
)

// Parallel trial execution. Every experiment in this package is a pure
// function of (scenario options, seed): each trial builds its own Sim,
// scheduler, tracer and RNG, and the only package-level state anywhere in
// the simulator is sync.Pool buffers. Independent trials therefore run
// safely on separate goroutines, and because each worker writes its result
// only at the trial's own index, the assembled slice is identical to what
// the serial loop produces — regardless of worker count or completion
// order. TestParallelGridMatchesSerial pins that equivalence.
//
// Note the virtual clock is untouched: parallelism here is across whole
// simulations, never within one, so determinism per seed is preserved.

// fanOut returns [fn(0), …, fn(n-1)], computed on at most workers
// goroutines. workers <= 1 runs the calls inline, in index order, with no
// goroutines. fn must not touch state shared with other trials (each call
// builds its own Sim).
func fanOut[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// eachTrial runs cfg.Trials independent trials (seeds cfg.Seed ..
// cfg.Seed+cfg.Trials-1) on up to cfg.Parallel workers, in seed order.
func eachTrial[T any](cfg Config, trial func(seed int64) T) []T {
	return fanOut(cfg.Parallel, cfg.Trials, func(i int) T { return trial(cfg.Seed + int64(i)) })
}
