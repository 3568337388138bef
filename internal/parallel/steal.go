package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// The work-stealing scheduler. The fixed-chunk pool of parallel.go balances
// flat task lists whose sizes are known up front; it cannot balance
// *recursive* work — a depth-first mining subtree discovers its own size as
// it descends, and under the first-level fan-out a single skewed prefix
// (UH-Mine) or header item (UFP-growth) pins one worker for the whole tail
// of the run while the rest idle. RunStealing fixes that: tasks may Fork
// subtasks mid-flight, forked tasks land on the forking worker's own deque
// (LIFO — depth-first locality, the child's data is hot in that worker's
// cache), and an idle worker steals the *oldest* entry of a victim's deque
// (FIFO — the biggest pending subtree, amortizing the steal).
//
// Determinism is preserved by the same discipline as the fixed-chunk layer,
// restated for recursive work:
//
//   - decomposition never depends on the worker count: whether a subtree is
//     forked is the caller's decision and must be a function of the input
//     alone (e.g. "occurrence list at least N entries"), never of worker
//     availability or queue depth — the scheduler exposes nothing a task
//     could adapt to;
//   - every task's computation is self-contained: it owns its accumulators,
//     so which worker executes it (and when) cannot move a floating-point
//     bit;
//   - merges are commutative or ordered by the caller: result lists are
//     canonically sorted after the run, counters are integer sums, peaks are
//     maxima — all invariant under completion order.
//
// Hence a run with W workers, any steal interleaving included, is
// bit-identical to the serial run — which executes Fork inline as a direct
// call, exactly the recursion it replaces.

// StealStats counts scheduler activity during one RunStealing call. The
// counts are *observational*: Spawned depends on the fork cutoff (input
// only), but Stolen and Inline depend on timing and worker count, so they
// must never feed result data or core.MiningStats — they surface through
// core.ExecStats and the EXPLAIN plan instead.
type StealStats struct {
	// Spawned counts tasks submitted to the scheduler: roots plus forks.
	Spawned int64
	// Stolen counts tasks executed by a worker other than the one that
	// forked them (always 0 in a serial run).
	Stolen int64
	// Inline counts forks executed as direct calls because the run is
	// serial (workers <= 1), where Fork degenerates to recursion.
	Inline int64
}

// Task is one unit of stealable work. The Forker argument lets the task
// submit subtasks; it is valid only for the duration of the call and only on
// the calling goroutine.
type Task func(f *Forker)

// Forker is a task's handle into the scheduler: Fork submits a subtask onto
// the calling worker's deque. One Forker exists per worker goroutine; it
// must not be retained past the task call or shared across goroutines.
type Forker struct {
	s  *stealRun
	id int // owning worker
	// Serial-path state (s == nil): inline counts Fork calls executed as
	// direct recursion, done/canceled implement cancellation — a canceled
	// serial run drops further forks, mirroring the parallel drain. Only
	// touched on the serial path, where a single Forker exists.
	inline   int64
	done     <-chan struct{}
	canceled bool
}

// Fork submits a subtask. In a parallel run it is pushed onto the calling
// worker's deque — popped LIFO by the owner, stolen FIFO by idle workers. In
// a serial run it executes inline immediately (plain recursion), except
// after cancellation, when forks are dropped exactly as the parallel drain
// drops queued tasks. Fork never rejects work on a live run; the caller
// decides *what* to fork, the scheduler only decides *who* runs it.
func (f *Forker) Fork(t Task) {
	if f.s == nil {
		// Serial: Fork is the recursion it replaces, with a cancellation
		// poll standing in for the parallel loop's dispatch check.
		if !f.canceled && f.done != nil {
			select {
			case <-f.done:
				f.canceled = true
			default:
			}
		}
		if f.canceled {
			return
		}
		f.inline++
		t(f)
		return
	}
	f.s.spawned.Add(1)
	f.s.push(f.id, t)
}

// RunStealing executes the root tasks — and everything they fork — on a
// bounded pool of Resolve(workers) goroutines, returning when all submitted
// work has finished. Roots are seeded round-robin across the worker deques
// in index order, so large root sets start balanced without any stealing.
//
// Cancellation follows DoCtx's semantics: once ctx is done workers stop
// claiming queued tasks (running tasks finish — tasks should poll ctx at
// their own checkpoints to bound latency), the pool drains fully, and the
// call returns ctx.Err(); any partial output must be discarded.
func RunStealing(ctx context.Context, workers int, roots []Task) (StealStats, error) {
	n := len(roots)
	if n == 0 {
		return StealStats{}, ctx.Err()
	}
	// Workers are NOT capped at len(roots): forks create work mid-run, so
	// workers beyond the root count park briefly and then steal subtrees.
	w := Resolve(workers)
	if w <= 1 {
		f := &Forker{done: ctx.Done()}
		for _, t := range roots {
			if f.canceled {
				break
			}
			if f.done != nil {
				select {
				case <-f.done:
					f.canceled = true
				default:
				}
			}
			if f.canceled {
				break
			}
			t(f)
		}
		return StealStats{Spawned: int64(n), Inline: f.inline}, ctx.Err()
	}

	s := &stealRun{
		deques: make([]deque, w),
		done:   ctx.Done(),
	}
	s.spawned.Store(int64(n))
	s.pending.Store(int64(n))
	for i, t := range roots {
		s.deques[i%w].items = append(s.deques[i%w].items, t)
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(id int) {
			defer wg.Done()
			s.work(id)
		}(g)
	}
	wg.Wait()
	return StealStats{Spawned: s.spawned.Load(), Stolen: s.stolen.Load()}, ctx.Err()
}

// deque is one worker's task queue. A mutex-guarded slice, not a lock-free
// Chase-Lev deque: tasks here are chunky (a whole mining subtree each), so
// queue operations are rare next to task work and the mutex never becomes
// the bottleneck — while staying trivially race-clean under -race.
type deque struct {
	mu    sync.Mutex
	items []Task
}

// stealRun is the shared state of one RunStealing call.
type stealRun struct {
	deques  []deque
	pending atomic.Int64 // queued + running tasks; 0 means the run is over
	spawned atomic.Int64
	stolen  atomic.Int64
	done    <-chan struct{}
	// parked wakes idle workers when new work is forked. Guarded by mu.
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
}

// push adds a forked task to worker id's deque and wakes one parked worker.
func (s *stealRun) push(id int, t Task) {
	s.pending.Add(1)
	d := &s.deques[id]
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
	s.mu.Lock()
	if s.waiting > 0 && s.cond != nil {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// popOwn removes the newest task from worker id's own deque (LIFO:
// depth-first order, cache-warm data).
func (s *stealRun) popOwn(id int) (Task, bool) {
	d := &s.deques[id]
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil, false
	}
	t := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	return t, true
}

// steal removes the oldest task from the first non-empty victim deque,
// scanning from id+1 in fixed order (FIFO: the victim's biggest pending
// subtree, forked earliest).
func (s *stealRun) steal(id int) (Task, bool) {
	w := len(s.deques)
	for off := 1; off < w; off++ {
		d := &s.deques[(id+off)%w]
		d.mu.Lock()
		if len(d.items) > 0 {
			t := d.items[0]
			copy(d.items, d.items[1:])
			d.items[len(d.items)-1] = nil
			d.items = d.items[:len(d.items)-1]
			d.mu.Unlock()
			s.stolen.Add(1)
			return t, true
		}
		d.mu.Unlock()
	}
	return nil, false
}

// work is one worker's loop: drain own deque, then steal, then park until
// either new work is forked or the run completes.
func (s *stealRun) work(id int) {
	f := &Forker{s: s, id: id}
	for {
		if s.done != nil {
			select {
			case <-s.done:
				// Canceled: drop this worker's claimable work. Pending must
				// still reach zero so parked siblings wake; drain all deques'
				// unclaimed tasks exactly once from the first worker to
				// observe cancellation (the mutex makes multiple drainers
				// safe — each task is removed once).
				s.drainCanceled()
				return
			default:
			}
		}
		t, ok := s.popOwn(id)
		if !ok {
			t, ok = s.steal(id)
		}
		if ok {
			t(f)
			if s.pending.Add(-1) == 0 {
				s.wakeAll()
				return
			}
			continue
		}
		// Nothing claimable: park until a fork arrives or the run ends.
		if !s.park() {
			return
		}
	}
}

// drainCanceled discards every queued task after cancellation, keeping the
// pending count honest so all workers terminate.
func (s *stealRun) drainCanceled() {
	removed := int64(0)
	for i := range s.deques {
		d := &s.deques[i]
		d.mu.Lock()
		removed += int64(len(d.items))
		d.items = nil
		d.mu.Unlock()
	}
	if removed > 0 && s.pending.Add(-removed) == 0 {
		s.wakeAll()
		return
	}
	// This worker stops regardless; others wake via wakeAll when the last
	// running task (or drainer) brings pending to zero, or observe ctx
	// themselves after their park times out via the signal from wakeAll.
	s.wakeAll()
}

// park blocks until new work may be available or the run is over. Returns
// false when the worker should exit (run complete or canceled with nothing
// left to do).
func (s *stealRun) park() bool {
	s.mu.Lock()
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	for {
		if s.pending.Load() == 0 {
			s.mu.Unlock()
			return false
		}
		if s.done != nil {
			select {
			case <-s.done:
				s.mu.Unlock()
				return true // loop once more to run the cancel drain path
			default:
			}
		}
		if s.anyQueued() {
			s.mu.Unlock()
			return true
		}
		s.waiting++
		s.cond.Wait()
		s.waiting--
	}
}

// anyQueued reports whether any deque holds a claimable task.
func (s *stealRun) anyQueued() bool {
	for i := range s.deques {
		d := &s.deques[i]
		d.mu.Lock()
		n := len(d.items)
		d.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// wakeAll releases every parked worker (run completion or cancellation).
func (s *stealRun) wakeAll() {
	s.mu.Lock()
	if s.cond != nil {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}
