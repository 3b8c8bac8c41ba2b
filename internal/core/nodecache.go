package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sgtree/internal/storage"
)

// nodeCache is a sharded, version-stamped, read-through cache of decoded
// *node values keyed by primary page id. It sits above the buffer pool:
// the pool caches page bytes, this caches the result of assembling a page
// chain and running the signature codec over it, so hot directory nodes
// skip the codec entirely across queries and batch workers.
//
// Coherence protocol (copy-on-write MVCC, see snapshot.go):
//
//   - Only the query paths (executor.visitIn) read through the cache, each
//     over a pinned snapshot, without locking the tree. Cached nodes are
//     strictly read-only; their entry signatures alias one shared slab
//     (see node).
//   - Updates never modify a published page in place: writeNode relocates
//     every node it touches onto fresh pages, which no reader (and hence
//     no cache slot) can reach until the update publishes. A cached decode
//     therefore never goes stale while its page id is live.
//   - A page id only becomes dangerous when it returns to the free list
//     and can be recycled for different content. reclaimSnapshots
//     invalidates the slot immediately before each Discard, and a page is
//     reclaimed only once no pinned reader can reach it, so no concurrent
//     query can re-fill the slot with the old decode afterwards.
//   - Epoch stamping handles the bulk cases: dropping every entry at once
//     (update rollback, DropCaches) is a single atomic increment; stale
//     entries are recognized lazily on lookup and evicted.
//
// Hits, misses and LRU evictions are surfaced through Tree.Counters as
// NodeCacheHits / NodeCacheMisses / NodeCacheEvictions.
type nodeCache struct {
	epoch     atomic.Uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	shards    [nodeCacheShards]nodeCacheShard
}

const nodeCacheShards = 8

type nodeCacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[storage.PageID]*list.Element
	lru *list.List // front = most recently used
}

// cachedNode is one LRU element: the decoded node plus the cache epoch it
// was decoded under.
type cachedNode struct {
	id    storage.PageID
	epoch uint64
	n     *node
}

// newTreeNodeCache builds the tree's cache from its options, or nil when
// the cache is disabled.
func newTreeNodeCache(opts Options) *nodeCache {
	if opts.NodeCacheSize < 0 {
		return nil
	}
	return newNodeCache(opts.NodeCacheSize)
}

// newNodeCache builds a cache holding at most capacity decoded nodes
// across all shards. A capacity below the shard count is rounded up to one
// node per shard.
func newNodeCache(capacity int) *nodeCache {
	c := &nodeCache{}
	per := capacity / nodeCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].m = make(map[storage.PageID]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

func (c *nodeCache) shard(id storage.PageID) *nodeCacheShard {
	return &c.shards[uint32(id)%nodeCacheShards]
}

// get returns the cached decode of page id, or nil. Entries stamped with an
// old epoch are dropped on sight.
func (c *nodeCache) get(id storage.PageID) *node {
	s := c.shard(id)
	epoch := c.epoch.Load()
	s.mu.Lock()
	el, ok := s.m[id]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	cn := el.Value.(*cachedNode)
	if cn.epoch != epoch {
		s.lru.Remove(el)
		delete(s.m, id)
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	n := cn.n
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	c.hits.Add(1)
	return n
}

// put publishes a freshly decoded node. A full shard evicts its least
// recently used entry and reuses that entry's list element for the new
// node, so a miss on a full cache allocates only the decode itself.
// Concurrent readers may race to fill the same slot; last writer wins and
// the loser's decode is simply garbage. Cached entries are only read
// under the shard lock, so overwriting one in place is safe.
func (c *nodeCache) put(id storage.PageID, n *node) {
	s := c.shard(id)
	epoch := c.epoch.Load()
	s.mu.Lock()
	el, ok := s.m[id]
	if !ok && s.lru.Len() >= s.cap {
		el = s.lru.Back()
		delete(s.m, el.Value.(*cachedNode).id)
		s.m[id] = el
		c.evictions.Add(1)
	}
	if el != nil {
		*el.Value.(*cachedNode) = cachedNode{id: id, epoch: epoch, n: n}
		s.lru.MoveToFront(el)
	} else {
		s.m[id] = s.lru.PushFront(&cachedNode{id: id, epoch: epoch, n: n})
	}
	s.mu.Unlock()
}

// invalidate drops the cached decode of one page. Called under Tree.mu —
// by reclaimSnapshots just before the page id returns to the free list,
// or by the legacy in-place write path — so a recycled id can never serve
// a stale decode.
func (c *nodeCache) invalidate(id storage.PageID) {
	s := c.shard(id)
	s.mu.Lock()
	if el, ok := s.m[id]; ok {
		s.lru.Remove(el)
		delete(s.m, id)
	}
	s.mu.Unlock()
}

// invalidateAll drops every cached decode in O(1) by bumping the epoch;
// stale entries are evicted lazily by get.
func (c *nodeCache) invalidateAll() {
	c.epoch.Add(1)
}

// resetStats zeroes the hit/miss/eviction counters.
func (c *nodeCache) resetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// len returns the number of live cached nodes (stale-epoch entries still
// count until a lookup evicts them); used by tests.
func (c *nodeCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
