package exec

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"graql/internal/obs"
	"graql/internal/value"
)

// The script cache is what makes text execution the prepared path: a
// bounded LRU of compiled scripts keyed on the exact script text, so a
// repeated text skips lexing, parsing, identity and — through the plan
// slots of its statements — semantic analysis and planning. It is the
// engine's only statement or plan cache; prepared handles own their
// plans themselves (prepare.go) and never enter it.
//
// Keying. The key is the whole script text, byte for byte. Literal
// variants ("where price < 100" / "< 200") are different texts and own
// different entries: constant folding bakes literals into plans. An
// entry owns a private clone of its text, and its statements slice their
// identifiers out of that clone, so an entry never retains the caller's
// (possibly huge, possibly shared) script buffer.
//
// Admission. Only read-only scripts are cached. A script that can
// mutate the catalog — DDL, DML, ingest, output, select-into — is
// compiled, executed and dropped: such texts rarely repeat (every
// literal-distinct insert is its own text) and must not be retained.
//
// Invalidation. Entries are never invalidated; their plan slots are,
// when what the plan read has changed (fresh).

// defaultPlanCacheCap bounds the cache when Options.PlanCache is 0.
const defaultPlanCacheCap = 256

// scriptCache is shared by every shallow fork of an engine (one pointer,
// set at New). nil when Options.PlanCache is negative: nothing is reused
// then, and prepared handles re-analyze on every execute.
type scriptCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element // text (the entry's own clone) → element holding *Prepared
	lru *list.List               // front = most recently used

	// The counters price plan reuse, per cacheable select statement
	// executed (from text or from a handle): a hit found the statement's
	// plan slot fresh, a miss had to analyze. Evictions count scripts
	// dropped for capacity plus plan slots found stale. Always counted
	// (tests and EXPLAIN ANALYZE read them); exported as
	// graql_plancache_{hits,misses,evictions}_total under a registry.
	nhits, nmisses, nevicted atomic.Int64

	hits, misses, evictions *obs.Counter
}

func newScriptCache(capacity int, reg *obs.Registry) *scriptCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultPlanCacheCap
	}
	c := &scriptCache{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
	if reg != nil {
		c.hits = reg.Counter("graql_plancache_hits_total", "select statements served from their stored plan")
		c.misses = reg.Counter("graql_plancache_misses_total", "cacheable select statements that had to be analyzed")
		c.evictions = reg.Counter("graql_plancache_evictions_total", "compiled scripts dropped for capacity plus plans dropped because what they read changed")
	}
	return c
}

func (c *scriptCache) hit()     { c.nhits.Add(1); c.hits.Inc() }
func (c *scriptCache) miss()    { c.nmisses.Add(1); c.misses.Inc() }
func (c *scriptCache) evicted() { c.nevicted.Add(1); c.evictions.Inc() }

// get returns the compiled script cached for text, marking it most
// recently used unless peek is set.
func (c *scriptCache) get(text string, peek bool) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[text]
	if !ok {
		return nil
	}
	if !peek {
		c.lru.MoveToFront(el)
	}
	return el.Value.(*Prepared)
}

// put caches a compiled script under its own text and returns the
// entry to execute: p, or the one a concurrent compile of the same text
// stored first.
func (c *scriptCache) put(p *Prepared) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[p.src]; ok {
		return el.Value.(*Prepared)
	}
	c.m[p.src] = c.lru.PushFront(p)
	for len(c.m) > c.cap {
		victim := c.lru.Remove(c.lru.Back()).(*Prepared)
		delete(c.m, victim.src)
		c.evicted()
	}
	return p
}

// PlanCacheStats reports the engine's plan reuse counters: hits, misses,
// evictions (capacity plus stale plans dropped) and the number of compiled
// scripts currently cached. All zeros when caching is disabled.
func (e *Engine) PlanCacheStats() (hits, misses, evictions, size int64) {
	c := e.scripts
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return c.nhits.Load(), c.nmisses.Load(), c.nevicted.Load(), int64(n)
}

// compileCached returns the compiled form of script text: the cached
// entry when this exact text was compiled before, else a fresh compile,
// cached when the script is read-only.
func (e *Engine) compileCached(src string) (*Prepared, error) {
	if e.scripts == nil {
		return compileText(src)
	}
	if p := e.scripts.get(src, false); p != nil {
		return p, nil
	}
	// Compile a private clone: whether the script is cacheable is known
	// only after parsing, and a cached entry must own what it slices.
	p, err := compileText(strings.Clone(src))
	if err != nil || !p.ro {
		return p, err
	}
	return e.scripts.put(p), nil
}

// ExecScript compiles (through the script cache) and executes a GraQL
// script, returning one result per statement; on a failure, the results
// of the statements before the failing one. Parameters bind the script's
// %name% placeholders. A script that does not parse fails with an error
// matching ErrParse.
func (e *Engine) ExecScript(src string, params map[string]value.Value) ([]Result, error) {
	p, err := e.compileCached(src)
	if err != nil {
		return nil, err
	}
	return e.execCompiled(p, params)
}
