package runtime

import (
	"sync"
	"testing"
	"time"
)

// TestChaosQueueRevocationSpeculationRace stresses the exactly-once
// guarantee at its sharpest corner: worker 0 grabs leases and goes
// silent (a crash with work in flight), a reclaimer revokes its leases
// and re-plans them onto survivors — concurrently with the survivors
// speculatively re-issuing those same leases and racing commits. Every
// interleaving must commit each output cell exactly once: a lease either
// keeps a surviving speculative holder or is re-planned, never both.
func TestChaosQueueRevocationSpeculationRace(t *testing.T) {
	const (
		workers = 4
		n       = 64
		iters   = 30
	)
	speeds := []float64{1, 2, 3, 4}
	for iter := 0; iter < iters; iter++ {
		// Half the domain owned by worker 0 (its private backlog is what
		// reclaim re-plans), half ownerless in the shared shards.
		grid, err := GridChunks(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if i%2 == 0 {
				grid[i].Owner = 0
			}
		}
		cq := NewLeaseTable(grid, workers, 1, 1e-9)
		start := time.Now()
		now := func() float64 { return time.Since(start).Seconds() }

		var mu sync.Mutex
		var wonChunks []Chunk

		var wg sync.WaitGroup
		// Worker 0: lease greedily, commit nothing, stop — in-flight work
		// that only revocation or speculation can recover.
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(time.Millisecond)
			for time.Now().Before(deadline) {
				if _, st := cq.Next(0, now()); st == LeaseDone {
					return
				}
			}
		}()
		// The reclaimer races the survivors' speculation on those leases.
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(300 * time.Microsecond)
			if _, _, over := cq.Reclaim(0, 100, cq.Replanner(speeds)); over != nil {
				t.Errorf("unexpected budget exhaustion on task %d", over.Task)
			}
		}()
		// Survivors: drain the queue, speculating on stale leases.
		for w := 1; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c, st := cq.Next(w, now())
					switch st {
					case LeaseDone:
						return
					case LeaseWait:
						time.Sleep(20 * time.Microsecond)
					case LeaseGot:
						if won, _ := cq.Commit(c.Task, w); won {
							mu.Lock()
							wonChunks = append(wonChunks, c)
							mu.Unlock()
						}
					}
				}
			}()
		}
		wg.Wait()

		// Exactly-once: the winning chunks tile the domain with no cell
		// committed twice and none lost.
		seen := make([]int, n*n)
		for _, c := range wonChunks {
			for i := c.RowLo; i < c.RowHi; i++ {
				for k := c.ColLo; k < c.ColHi; k++ {
					seen[i*n+k]++
				}
			}
		}
		for idx, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("iter %d: cell (%d,%d) committed %d times", iter, idx/n, idx%n, cnt)
			}
		}
	}
}
