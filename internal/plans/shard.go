package plans

import (
	"errors"
	"sync"
	"sync/atomic"

	"susc/internal/budget"
	"susc/internal/ring"
	"susc/internal/verify"
)

// The sharded parallel frontier BFS expands the shared state graph ahead
// of the replay fleet. Expansion is where the engine's real work lives —
// compiled-row lifting, monitor advances, successor interning — while a
// replay over an already-expanded graph is a cheap walk of prebuilt edges.
// Running the expansion frontier across all workers first means the
// replay fleet almost never blocks on a node's expansion mutex.
//
// The prefetch is semantics-free by construction: a node's groups are a
// pure function of the node (buildGroups draws only on the compiled rows
// and the node's monitor), so it does not matter which worker expands a
// node or in which order nodes are reached — every replay still observes
// the exact groups the sequential engine would have built lazily, and
// replay output stays byte-identical. Node indices assigned during a
// concurrent prefetch may differ between runs, but an fnode.idx only
// addresses scratch arrays (visited slots); no output derives from it.
//
// Sharding: worker w owns the nodes with idx ≡ w (mod workers). Every
// worker expands only nodes it owns, so the per-shard visited array needs
// no synchronisation; successors owned by other shards are handed off in
// batches through mutex-guarded ring queues (one inbox per shard).
// Publishing never blocks — the inboxes are unbounded rings, not bounded
// channels — so shards cannot deadlock on each other's hand-off.

// serialAssessThreshold is the work size below which the fused engine
// ignores Options.Workers and runs sequentially: spawning a worker fleet,
// the reorder buffer and the per-worker replayers cost more than assessing
// a few dozen plans outright (the BENCH_pr2 Hotels(32) regression, where
// workers=4 was slower than workers=1). Plan count is the proxy for work
// size: past ~64 plans the shared graph is large enough that the fleet
// amortises its setup.
const serialAssessThreshold = 64

// prefetchBatch is the hand-off granularity: a worker accumulates this
// many foreign-shard successors before publishing the batch, so the
// cross-shard traffic costs one mutex and one wakeup per batch instead of
// per node.
const prefetchBatch = 128

// prefetchMaxNodes caps the prefetch at the per-replay state bound. The
// union graph the prefetch walks (every candidate of every open) can
// exceed the region any single plan's replay visits; past this many nodes
// the prefetch stops and the replays expand what they actually need,
// lazily, exactly as the sequential engine does.
const prefetchMaxNodes = verify.MaxStates

// shardInbox is one shard's incoming hand-off queue: batches of nodes the
// shard owns, published by the other workers.
type shardInbox struct {
	mu      sync.Mutex
	batches ring.Queue[[]*fnode]
	// notify wakes the idle owner; capacity 1 makes the send non-blocking
	// while guaranteeing a waiter never misses a publication.
	notify chan struct{}
}

func (in *shardInbox) put(batch []*fnode) {
	in.mu.Lock()
	in.batches.Push(batch)
	in.mu.Unlock()
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

func (in *shardInbox) drainInto(q *ring.Queue[*fnode]) {
	in.mu.Lock()
	for in.batches.Len() > 0 {
		for _, n := range in.batches.Pop() {
			q.Push(n)
		}
	}
	in.mu.Unlock()
}

// expandSharded runs the sharded parallel frontier BFS from the start
// node, expanding the whole reachable graph (every candidate of every
// open) across Options.Workers goroutines. It is called only when the
// union call graph is acyclic (eng.cycleFree), which bounds the graph:
// with a cyclic union the nesting — and the graph — can be unbounded even
// though every individual plan is acyclic, and only the per-plan cycle
// precheck keeps replays away from the divergence.
//
// The prefetch is best-effort: budget exhaustion, cancellation, the node
// cap, or an isolated panic stop it early and the replay fleet picks up
// lazily from whatever was built. It never returns an error — a node's
// genuine expansion error is published on the node and every replay
// reaching it reports it exactly as the sequential engine would.
func (eng *fusedEngine) expandSharded() {
	workers := eng.opts.Workers
	inboxes := make([]*shardInbox, workers)
	for i := range inboxes {
		inboxes[i] = &shardInbox{notify: make(chan struct{}, 1)}
	}
	// pending counts nodes enqueued anywhere (a frontier, an inbox, an
	// unflushed batch) or being processed. It is incremented before a node
	// becomes visible and decremented after its successors are enqueued,
	// so it reaches zero exactly when no work remains anywhere.
	var pending atomic.Int64
	var expanded atomic.Int64
	done := make(chan struct{})
	var once sync.Once
	finish := func() { once.Do(func() { close(done) }) }

	pending.Store(1)
	inboxes[int(eng.start.idx)%workers].put([]*fnode{eng.start})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var frontier ring.Queue[*fnode]
			// seen dedups this shard's nodes, indexed by idx/workers. Only
			// the owner touches it, so it needs no lock; the prefetch runs
			// once per engine, so a plain byte per slot suffices (the
			// replayers' epoch-stamped arrays exist to be reused across
			// plans — nothing here is reused).
			var seen []bool
			out := make([][]*fnode, workers)
			flush := func() {
				for d, b := range out {
					if len(b) > 0 {
						inboxes[d].put(b)
						out[d] = nil
					}
				}
			}
			enqueue := func(s *fnode) {
				if s == nil || s.ready.Load() {
					return
				}
				pending.Add(1)
				d := int(s.idx) % workers
				if d == w {
					frontier.Push(s)
					return
				}
				out[d] = append(out[d], s)
				if len(out[d]) >= prefetchBatch {
					inboxes[d].put(out[d])
					out[d] = make([]*fnode, 0, prefetchBatch)
				}
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if frontier.Len() == 0 {
					flush()
					inboxes[w].drainInto(&frontier)
					if frontier.Len() == 0 {
						select {
						case <-inboxes[w].notify:
							continue
						case <-done:
							return
						}
					}
				}
				n := frontier.Pop()
				si := int(n.idx) / workers
				if si >= len(seen) {
					grown := make([]bool, si+1+len(seen))
					copy(grown, seen)
					seen = grown
				}
				if seen[si] || n.ready.Load() {
					if pending.Add(-1) == 0 {
						finish()
						return
					}
					continue
				}
				seen[si] = true
				if expanded.Add(1) > prefetchMaxNodes {
					finish()
					return
				}
				// The guard converts an isolated panic (injected or genuine)
				// into an error; the node stays unexpanded, and the replay
				// that needs it re-runs the expansion under the per-plan
				// guard — same isolation contract as the lazy path.
				err := budget.GuardLazy(
					func() string { return "prefetch " + n.ct.treeKey() },
					func() error { return n.ensureExpanded(eng) },
				)
				if err != nil {
					var e *budget.ExhaustedError
					if errors.As(err, &e) {
						finish()
						return
					}
					// A published node error or an isolated panic: replays
					// reaching the node handle it; the rest of the graph is
					// still worth prefetching.
				} else {
					for gi := range n.groups {
						g := &n.groups[gi]
						if g.next != nil {
							enqueue(g.next)
							continue
						}
						if g.ext != nil {
							for _, c := range g.ext.cnexts {
								enqueue(c)
							}
						}
					}
				}
				if pending.Add(-1) == 0 {
					finish()
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
