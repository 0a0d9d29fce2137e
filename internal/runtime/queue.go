package runtime

import "sync"

// Chunk is one schedulable rectangle of the N×N computation domain: rows
// [RowLo,RowHi) over a̅, columns [ColLo,ColHi) over b̅.
type Chunk struct {
	// Task is the chunk's id, carried into the trace spans.
	Task int
	// RowLo, RowHi, ColLo, ColHi bound the rectangle on the integer grid.
	RowLo, RowHi, ColLo, ColHi int
	// Owner pins the chunk to one worker (Heterogeneous Blocks); -1 means
	// any worker may claim it (demand-driven).
	Owner int
}

// Cells returns the number of output cells the chunk covers.
func (c Chunk) Cells() int { return (c.RowHi - c.RowLo) * (c.ColHi - c.ColLo) }

// Data returns the number of input vector elements the chunk ships — its
// row span plus its column span, the (w+h)·N accounting of the paper.
func (c Chunk) Data() int { return (c.RowHi - c.RowLo) + (c.ColHi - c.ColLo) }

// shard is one lock-striped segment of the shared queue. Shards live in
// one contiguous array (not behind per-shard pointers), so each is padded
// out to 128 bytes: head and the mutex word are written on every pop, and
// with one stripe per worker adjacent shards belong to different workers —
// unpadded they would share cache lines and every uncontended pop would
// still pay cross-core coherence traffic.
type shard struct {
	mu    sync.Mutex
	items []Chunk
	head  int
	_     [88]byte // mu(8) + items(24) + head(8) = 40 → pad to 128
}

// pop takes the next chunk off the shard, if any.
func (s *shard) pop() (Chunk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head >= len(s.items) {
		return Chunk{}, false
	}
	c := s.items[s.head]
	s.head++
	return c, true
}

// privateLane is worker w's owned backlog. Only its owner advances head,
// so the lane needs no lock (under a LeaseTable, whose reclamation also
// appends to it, the table's mutex guards it) — but lanes sit in one
// contiguous array, so
// each is padded to 128 bytes to keep one worker's head bumps from
// false-sharing a line with its neighbour's.
type privateLane struct {
	items []Chunk
	head  int
	_     [96]byte // items(24) + head(8) = 32 → pad to 128
}

// workQueue distributes chunks to workers: owned chunks sit in per-worker
// private lanes (only their owner touches them, no locking), ownerless
// chunks are striped round-robin across shards that any worker may drain —
// home shard first, then stealing from the others.
type workQueue struct {
	shards []shard
	lanes  []privateLane
}

// newWorkQueue stripes the chunks over `shards` segments for `workers`
// workers. Chunk order is preserved within each stripe, so the demand
// process scans the domain in the scan order the planner emitted.
func newWorkQueue(chunks []Chunk, workers, shards int) *workQueue {
	if shards < 1 {
		shards = 1
	}
	q := &workQueue{
		shards: make([]shard, shards),
		lanes:  make([]privateLane, workers),
	}
	next := 0
	for _, c := range chunks {
		if c.Owner >= 0 && c.Owner < workers {
			q.lanes[c.Owner].items = append(q.lanes[c.Owner].items, c)
			continue
		}
		s := &q.shards[next%shards]
		s.items = append(s.items, c)
		next++
	}
	return q
}

// push appends chunks to home's shard — the reclamation entry point: a
// dead worker's lost chunks re-enter the shared pool here, where any
// survivor's ring steal will find them. Pushing to the dead worker's own
// home stripe (w % shards) keeps the stripe non-empty exactly until the
// reclaimed work is drained, so stealers keep scanning it until then and
// skip it (an O(1) mutex probe) only afterwards.
func (q *workQueue) push(home int, cs ...Chunk) {
	s := &q.shards[home%len(q.shards)]
	s.mu.Lock()
	s.items = append(s.items, cs...)
	s.mu.Unlock()
}

// pop returns worker w's next chunk: private lane first, then the home
// shard, then work stealing in ring order. ok=false means the whole queue
// is drained for this worker — though after a reclamation push a stripe
// that once read empty can refill, so resilient callers re-poll rather
// than trusting one false.
func (q *workQueue) pop(w int) (Chunk, bool) {
	lane := &q.lanes[w]
	if lane.head < len(lane.items) {
		c := lane.items[lane.head]
		lane.head++
		return c, true
	}
	n := len(q.shards)
	for i := 0; i < n; i++ {
		if c, ok := q.shards[(w+i)%n].pop(); ok {
			return c, true
		}
	}
	return Chunk{}, false
}
