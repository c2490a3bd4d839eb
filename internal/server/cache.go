package server

import (
	"container/list"
	"context"
	"fmt"
	"strconv"

	"xbar/internal/core"
)

// Algorithm names accepted by the API (with the "algorithm1" /
// "algorithm2" long forms normalized in the handlers).
const (
	alg1 = "alg1"
	alg2 = "alg2"
)

// solverEntry is one cached operating point: a filled sweep solver
// for either Algorithm 1 or Algorithm 2. Exactly one of sweep and mva
// is non-nil.
//
// The sweep layers memoize their reads and the revenue analysis keeps
// re-solve scratch, neither of which is safe for concurrent use, so
// every read of an entry happens under mu. refs and doomed belong to
// the owning cache and are guarded by the cache lock, not mu.
type solverEntry struct {
	mu    chan struct{} // 1-slot semaphore: lockable with a context
	sweep *core.SweepSolver
	mva   *core.MVASweepSolver

	refs   int  // requests currently holding the entry (cache lock)
	doomed bool // evicted while referenced; recycle on last release
}

// lock acquires the entry's read lock, giving up when ctx expires —
// a request queued behind a long revenue-gradient read on the same
// operating point times out instead of hanging past its deadline.
func (e *solverEntry) lock(ctx context.Context) error {
	select {
	case e.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *solverEntry) unlock() { <-e.mu }

// resultAt reads the sub-switch measures off the retained lattice.
// Callers hold the entry lock.
func (e *solverEntry) resultAt(n1, n2 int) *core.Result {
	if e.sweep != nil {
		return e.sweep.ResultAt(n1, n2)
	}
	return e.mva.ResultAt(n1, n2)
}

// flight is one in-progress lattice fill that concurrent identical
// requests attach to instead of filling their own.
type flight struct {
	done chan struct{} // closed once e and err are final
	e    *solverEntry
	err  error

	// waiters and completed are guarded by the cache lock. waiters
	// counts the requests that will take a reference when the fill
	// lands; a waiter that abandons (context expiry) before completion
	// decrements it, one that abandons after releases its granted ref.
	waiters   int
	completed bool
}

// cacheItem is the LRU bookkeeping for one entry.
type cacheItem struct {
	key string
	e   *solverEntry
}

// solverCache is the LRU of filled solvers with single-flight
// deduplication and Reuse recycling. All maps and lists are guarded
// by mu; lattice fills run outside it.
type solverCache struct {
	mu      chan struct{} // 1-slot semaphore used as a plain mutex
	max     int
	ll      *list.List               // front = most recently used
	items   map[string]*list.Element // key -> element of ll
	flights map[string]*flight

	// free pools recycle the retained lattices of evicted entries:
	// the next miss of the same algorithm refills in place
	// (SweepSolver.Reuse) instead of allocating a fresh grid.
	freeAlg1 []*core.SweepSolver
	freeAlg2 []*core.MVASweepSolver

	fill    core.Options
	slots   slots // held by the miss leader around its fill
	metrics *Metrics
}

// maxFreeSolvers bounds each recycling pool: beyond this, evicted
// lattices are dropped to the GC rather than pinned forever.
const maxFreeSolvers = 4

func newSolverCache(maxEntries int, fill core.Options, sl slots, m *Metrics) *solverCache {
	c := &solverCache{
		mu:      make(chan struct{}, 1),
		max:     maxEntries,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		fill:    fill,
		slots:   sl,
		metrics: m,
	}
	return c
}

func (c *solverCache) lock()   { c.mu <- struct{}{} }
func (c *solverCache) unlock() { <-c.mu }

// cacheKey canonicalizes one operating point. Class names are
// deliberately excluded — they do not enter the numerics — and so is
// the fill schedule: results are bit-identical across worker counts
// and tile sizes (core's TestParallelFillBitIdentical), so a result
// computed under any schedule serves every schedule.
func cacheKey(alg string, sw core.Switch) string {
	b := make([]byte, 0, 32+80*len(sw.Classes))
	b = append(b, alg...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sw.N1), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(sw.N2), 10)
	for _, cl := range sw.Classes {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(cl.A), 10)
		b = append(b, ':')
		// 'x' (hexadecimal) formatting is exact: two keys collide only
		// for bit-identical parameters.
		b = strconv.AppendFloat(b, cl.Alpha, 'x', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, cl.Beta, 'x', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, cl.Mu, 'x', -1, 64)
	}
	return string(b)
}

// get returns the entry for (alg, sw) under its cacheKey key, filling
// the lattice on a miss.
// Concurrent identical requests share one fill. cached reports
// whether the entry came from the cache (or a shared in-flight fill)
// rather than a fill this call ran. The caller must release the
// entry with release once done reading it.
func (c *solverCache) get(ctx context.Context, key, alg string, sw core.Switch) (e *solverEntry, cached bool, err error) {
	c.lock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*cacheItem)
		c.ll.MoveToFront(el)
		it.e.refs++
		c.unlock()
		c.metrics.cacheHits.Add(1)
		return it.e, true, nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.unlock()
		c.metrics.cacheShared.Add(1)
		select {
		case <-f.done:
			// The close happens after e/err are final; our reference
			// was granted at completion (refs covered every registered
			// waiter), so on success the entry cannot have been
			// recycled out from under us.
			return f.e, true, f.err
		case <-ctx.Done():
			c.lock()
			if f.completed {
				if f.err == nil {
					c.releaseLocked(f.e)
				}
			} else {
				f.waiters--
			}
			c.unlock()
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.unlock()
	c.metrics.cacheMisses.Add(1)

	e, err = c.build(ctx, alg, sw)

	c.lock()
	delete(c.flights, key)
	f.e, f.err = e, err
	f.completed = true
	if err == nil {
		e.refs = 1 + f.waiters // this call's ref plus every waiter's
		el := c.ll.PushFront(&cacheItem{key: key, e: e})
		c.items[key] = el
		c.evictLocked()
	}
	c.unlock()
	close(f.done)
	return e, false, err
}

// release returns a reference taken by get. The last release of an
// entry that was evicted while referenced recycles its lattice — the
// caller must not read the entry (or Results served off it) after
// releasing.
//
//lint:pooled
func (c *solverCache) release(e *solverEntry) {
	c.lock()
	c.releaseLocked(e)
	c.unlock()
}

//lint:pooled
func (c *solverCache) releaseLocked(e *solverEntry) {
	e.refs--
	if e.refs == 0 && e.doomed {
		e.doomed = false
		c.recycleLocked(e)
	}
}

// evictLocked trims the LRU to capacity. Entries still referenced by
// in-flight requests are marked doomed and recycled on last release;
// recycling a lattice that a request is still reading would let the
// next miss refill it mid-read.
func (c *solverCache) evictLocked() {
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		it := oldest.Value.(*cacheItem)
		delete(c.items, it.key)
		c.metrics.cacheEvictions.Add(1)
		if it.e.refs > 0 {
			it.e.doomed = true
		} else {
			c.recycleLocked(it.e)
		}
	}
}

// recycleLocked returns an evicted entry's solver to its free pool.
//
//lint:pooled
func (c *solverCache) recycleLocked(e *solverEntry) {
	switch {
	case e.sweep != nil && len(c.freeAlg1) < maxFreeSolvers:
		c.freeAlg1 = append(c.freeAlg1, e.sweep)
	case e.mva != nil && len(c.freeAlg2) < maxFreeSolvers:
		c.freeAlg2 = append(c.freeAlg2, e.mva)
	}
}

// build fills a lattice for the operating point under a solver slot,
// recycling a pooled solver when one is available. Runs outside the
// cache lock — this is the expensive part single-flight protects. A
// slot wait that outlives ctx fails the flight with ctx's error.
func (c *solverCache) build(ctx context.Context, alg string, sw core.Switch) (*solverEntry, error) {
	release, err := c.slots.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	e := &solverEntry{mu: make(chan struct{}, 1)}
	switch alg {
	case alg1:
		e.sweep, err = refill(c, &c.freeAlg1, sw)
	case alg2:
		e.mva, err = refill(c, &c.freeAlg2, sw)
	default:
		err = fmt.Errorf("server: unknown algorithm %q", alg)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// refill fills sw's lattice in a solver taken from the free pool, or in
// a fresh one when the pool is empty.
func refill[T any, S interface {
	*T
	Reuse(core.Switch, ...core.Options) error
}](c *solverCache, free *[]S, sw core.Switch) (S, error) {
	c.lock()
	var s S
	if n := len(*free); n > 0 {
		s, *free = (*free)[n-1], (*free)[:n-1]
		c.metrics.solversRecycled.Add(1)
	} else {
		s = new(T)
	}
	c.unlock()
	if err := s.Reuse(sw, c.fill); err != nil {
		// Reuse validates before touching the lattice, so the solver is
		// still coherent; pool it again.
		c.lock()
		if len(*free) < maxFreeSolvers {
			*free = append(*free, s)
		}
		c.unlock()
		return nil, err
	}
	return s, nil
}

// len reports the number of cached entries (not counting in-flight
// fills).
func (c *solverCache) len() int {
	c.lock()
	defer c.unlock()
	return c.ll.Len()
}
