package storage

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// BufferPool caches pages above a Pager with LRU replacement and pin
// counting. Index structures read and write pages exclusively through a
// pool; its miss counter is the "random I/Os" statistic of the paper's
// experiments (every miss is a random page fetch from the store).
//
// The pool is sharded by page id so concurrent readers (e.g. parallel
// similarity queries on one tree) do not serialize on a single lock; each
// shard has its own LRU list and an even share of the capacity.
//
// A pool can run in two optional protection modes, independently:
//
//   - Durability (AttachWAL): every page write to the pager is preceded by
//     a synced before/after-image WAL record, FlushAll becomes an atomic
//     commit + checkpoint, and page frees are deferred to the checkpoint so
//     the free-list is never mutated mid-transaction.
//   - In-memory atomicity (BeginUndo/CommitUndo/RollbackUndo): pre-images
//     of pages touched by an update are captured in memory so a failed
//     update can be rolled back without any pager I/O.
type BufferPool struct {
	pager  Pager
	shards []*poolShard
	total  int

	wal *WAL // optional; non-nil after AttachWAL

	// pendingFrees are pages discarded while a WAL is attached or an undo
	// scope is active; they are released to the pager at the next commit
	// (WAL) or CommitUndo (no WAL), never mid-transaction.
	freeMu       sync.Mutex
	pendingFrees []PageID

	// Undo scope state. undoActive and undoCapture are read on every Get /
	// NewPage — including by lock-free snapshot readers — so they are
	// atomic flags checked before taking undoMu. undoCapture additionally
	// gates pre-image capture: copy-on-write writers pass
	// BeginUndo(false) because they never modify published pages in
	// place, so rollback needs no pre-images and concurrent readers'
	// Gets stay off undoMu entirely.
	undoActive  atomic.Bool
	undoCapture atomic.Bool
	undoMu      sync.Mutex
	undoPages   map[PageID][]byte // pre-images, first touch wins
	undoNew     map[PageID]bool   // pages allocated inside the scope
	undoMark    int               // len(pendingFrees) at BeginUndo
}

// poolShard is one independently locked slice of the pool.
type poolShard struct {
	mu       sync.Mutex
	pool     *BufferPool
	pager    Pager
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // of *frame; front = most recently used
	stats    BufferStats
}

type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	elem  *list.Element
}

// BufferStats counts logical and physical page accesses through the pool.
type BufferStats struct {
	Hits      int64 // requests served from the pool
	Misses    int64 // requests that read from the pager (random I/Os)
	Evictions int64 // frames evicted to make room
	Writes    int64 // dirty pages written back to the pager
}

func (s *BufferStats) add(o BufferStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writes += o.Writes
}

// Accesses returns the total number of logical page requests.
func (s BufferStats) Accesses() int64 { return s.Hits + s.Misses }

// poolShardCount balances lock contention against per-shard capacity
// granularity.
const poolShardCount = 8

// NewBufferPool returns a pool holding at most capacity pages (minimum 1).
func NewBufferPool(p Pager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	nShards := poolShardCount
	if capacity < nShards {
		nShards = 1
	}
	b := &BufferPool{pager: p, total: capacity}
	per := capacity / nShards
	extra := capacity % nShards
	for i := 0; i < nShards; i++ {
		c := per
		if i < extra {
			c++
		}
		b.shards = append(b.shards, &poolShard{
			pool:     b,
			pager:    p,
			capacity: c,
			frames:   make(map[PageID]*frame, c),
			lru:      list.New(),
		})
	}
	return b
}

func (b *BufferPool) shard(id PageID) *poolShard {
	return b.shards[int(id)%len(b.shards)]
}

// Pager returns the underlying pager.
func (b *BufferPool) Pager() Pager { return b.pager }

// Capacity returns the maximum number of cached pages.
func (b *BufferPool) Capacity() int { return b.total }

// PageSize returns the page size of the underlying pager.
func (b *BufferPool) PageSize() int { return b.pager.PageSize() }

// AttachWAL routes every subsequent pager write through the write-ahead
// log w: evictions and flushes append a synced before/after-image record
// first, and FlushAll becomes commit + checkpoint. Attach before the first
// write; the pool does not retroactively log already-dirty pages.
func (b *BufferPool) AttachWAL(w *WAL) {
	b.wal = w
}

// WAL returns the attached write-ahead log, or nil.
func (b *BufferPool) WAL() *WAL { return b.wal }

// WALStats returns the attached log's counters (zero without a WAL).
func (b *BufferPool) WALStats() WALStats {
	if b.wal == nil {
		return WALStats{}
	}
	return b.wal.Stats()
}

// Get pins the page and returns its buffer. The caller must Unpin it,
// passing dirty=true if the buffer was modified. The returned slice aliases
// the cached frame and is valid until Unpin.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	data, err := b.shard(id).get(id)
	if err == nil && b.undoCapture.Load() {
		b.captureUndo(id, data)
	}
	return data, err
}

func (s *poolShard) get(id PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		s.stats.Hits++
		f.pins++
		s.lru.MoveToFront(f.elem)
		return f.data, nil
	}
	s.stats.Misses++
	f, err := s.admit(id)
	if err != nil {
		return nil, err
	}
	if err := s.pager.ReadPage(id, f.data); err != nil {
		s.dropFrame(f)
		return nil, err
	}
	f.pins = 1
	return f.data, nil
}

// NewPage allocates a page in the pager and returns it pinned and zeroed.
func (b *BufferPool) NewPage() (PageID, []byte, error) {
	id, err := b.pager.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	s := b.shard(id)
	s.mu.Lock()
	f, err := s.admit(id)
	if err != nil {
		s.mu.Unlock()
		return InvalidPage, nil, err
	}
	for i := range f.data {
		f.data[i] = 0
	}
	f.pins = 1
	f.dirty = true
	s.mu.Unlock()
	if b.undoActive.Load() {
		b.undoMu.Lock()
		if b.undoActive.Load() {
			b.undoNew[id] = true
		}
		b.undoMu.Unlock()
	}
	return id, f.data, nil
}

// admit finds a frame for id, evicting if needed. Caller holds mu. The
// returned frame is unpinned, clean, most recently used, and its buffer
// holds stale bytes: every caller overwrites the whole page before anyone
// else can see it (get reads the page into it, NewPage zeroes it,
// restorePage copies a full pre-image over it).
//
// A full shard hands its LRU victim's frame — struct, list element and
// page buffer — straight to id, so a steady-state miss allocates nothing.
// Recycling the buffer is safe because a victim has no pins, and a page
// buffer is only ever referenced while pinned: Get's contract is that the
// slice is valid until Unpin, and every holder copies out before then —
// the tree's node and meta reads (internal/core/tree.go: decodeMeta,
// readNode's decodeBuf and chain assembly) decode or append the bytes
// into their own memory, the SG-table's bucket scans
// (internal/sgtable/table.go) decode entries into fresh signatures, and
// both write by filling the pinned frame and unpinning it.
// Inside the pool, captureUndo copies the pinned frame into a fresh
// pre-image, walWrite and commit hand the frame to the pager and the WAL,
// which copy it before returning, and RollbackUndo restores by copying
// a pre-image into a frame. Frames dropped by Discard, Clear, rollback
// or a failed read are not recycled; the garbage collector takes them.
func (s *poolShard) admit(id PageID) (*frame, error) {
	if len(s.frames) >= s.capacity {
		f, err := s.evictOne()
		if err != nil {
			return nil, err
		}
		delete(s.frames, f.id)
		f.id = id
		f.dirty = false
		s.lru.MoveToFront(f.elem)
		s.frames[id] = f
		return f, nil
	}
	f := &frame{id: id, data: make([]byte, s.pager.PageSize())}
	f.elem = s.lru.PushFront(f)
	s.frames[id] = f
	return f, nil
}

// evictOne picks the least recently used unpinned frame as the victim and
// returns it, still mapped under its old id, for admit to recycle. Caller
// holds mu. Dirty victims are "stolen": written back before commit, which
// is safe under a WAL because the write is logged (with its before-image)
// first.
func (s *poolShard) evictOne() (*frame, error) {
	for e := s.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			if err := s.pool.walWrite(f.id, f.data); err != nil {
				return nil, err
			}
			s.stats.Writes++
		}
		s.stats.Evictions++
		return f, nil
	}
	return nil, fmt.Errorf("storage: buffer pool shard of %d pages exhausted (all pinned)", s.capacity)
}

// walWrite writes one page image to the pager, appending (and syncing) a
// before/after-image WAL record first when a log is attached.
func (b *BufferPool) walWrite(id PageID, data []byte) error {
	if b.wal != nil {
		before := make([]byte, len(data))
		if err := b.pager.ReadPage(id, before); err != nil {
			return err
		}
		if err := b.wal.AppendUpdate(id, before, data); err != nil {
			return err
		}
		if err := b.wal.Sync(); err != nil {
			return err
		}
	}
	return b.pager.WritePage(id, data)
}

func (s *poolShard) dropFrame(f *frame) {
	s.lru.Remove(f.elem)
	delete(s.frames, f.id)
}

// Unpin releases one pin on the page, recording whether it was modified.
func (b *BufferPool) Unpin(id PageID, dirty bool) {
	s := b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("storage: Unpin of page %d that is not pinned", id))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// Discard removes the page from the pool without writing it back, then
// frees it in the pager. The page must not be pinned. Under a WAL or an
// active undo scope the pager free is deferred: it is applied at the next
// commit (respectively CommitUndo), so a crash or rollback mid-transaction
// never observes a half-updated free list.
func (b *BufferPool) Discard(id PageID) error {
	s := b.shard(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if f.pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: Discard of pinned page %d", id)
		}
		s.dropFrame(f)
	}
	s.mu.Unlock()
	if b.wal != nil || b.undoActive.Load() {
		b.freeMu.Lock()
		b.pendingFrees = append(b.pendingFrees, id)
		b.freeMu.Unlock()
		return nil
	}
	return b.pager.Free(id)
}

// Flush writes back the page if it is cached and dirty (logging the write
// when a WAL is attached). Prefer FlushAll: with a WAL only FlushAll
// commits and checkpoints.
func (b *BufferPool) Flush(id PageID) error {
	s := b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok || !f.dirty {
		return nil
	}
	if err := b.walWrite(f.id, f.data); err != nil {
		return err
	}
	s.stats.Writes++
	f.dirty = false
	return nil
}

// FlushAll writes back every dirty cached page. With a WAL attached it is
// an atomic commit: before/after images of every dirty page plus deferred
// frees are appended and fsynced, a commit record seals them, the pages are
// written to the pager, and a checkpoint (data fsync, header LSN, log
// truncation) retires the log. A crash anywhere in the sequence leaves the
// store recoverable to either the previous or the new commit point.
func (b *BufferPool) FlushAll() error {
	if b.wal != nil {
		return b.commit()
	}
	for _, s := range b.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if !f.dirty {
				continue
			}
			if err := s.pager.WritePage(f.id, f.data); err != nil {
				s.mu.Unlock()
				return err
			}
			s.stats.Writes++
			f.dirty = false
		}
		s.mu.Unlock()
	}
	return nil
}

// CheckpointPager is implemented by pagers (FilePager) that persist a
// checkpoint LSN, letting the pool truncate the WAL after a commit.
type CheckpointPager interface {
	Sync() error
	SetCheckpointLSN(lsn uint64) error
	CheckpointLSN() uint64
}

// commit runs the WAL commit protocol over all shards.
func (b *BufferPool) commit() error {
	for _, s := range b.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range b.shards {
			s.mu.Unlock()
		}
	}()

	type dirtyFrame struct {
		f *frame
		s *poolShard
	}
	var dirty []dirtyFrame
	for _, s := range b.shards {
		for _, f := range s.frames {
			if f.dirty {
				dirty = append(dirty, dirtyFrame{f, s})
			}
		}
	}
	// Deterministic log order (map iteration is not).
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].f.id < dirty[j].f.id })
	b.freeMu.Lock()
	frees := append([]PageID(nil), b.pendingFrees...)
	b.freeMu.Unlock()
	if len(dirty) == 0 && len(frees) == 0 {
		return nil
	}

	// 1. Log: before/after images, frees, then a synced commit record.
	before := make([]byte, b.pager.PageSize())
	for _, d := range dirty {
		if err := b.pager.ReadPage(d.f.id, before); err != nil {
			return err
		}
		if err := b.wal.AppendUpdate(d.f.id, before, d.f.data); err != nil {
			return err
		}
	}
	for _, id := range frees {
		if err := b.wal.AppendFree(id); err != nil {
			return err
		}
	}
	lsn, err := b.wal.AppendCommit()
	if err != nil {
		return err
	}
	if err := b.wal.Sync(); err != nil {
		return err
	}

	// 2. Apply: page writes and deferred frees. From here on the commit is
	// durable — a crash replays it from the log.
	for _, d := range dirty {
		if err := b.pager.WritePage(d.f.id, d.f.data); err != nil {
			return err
		}
		d.s.stats.Writes++
		d.f.dirty = false
	}
	for _, id := range frees {
		if err := b.pager.Free(id); err != nil {
			return err
		}
	}
	b.freeMu.Lock()
	b.pendingFrees = b.pendingFrees[len(frees):]
	b.freeMu.Unlock()

	// 3. Checkpoint: force the data, record the LSN, retire the log.
	if cp, ok := b.pager.(CheckpointPager); ok {
		if err := cp.Sync(); err != nil {
			return err
		}
		if err := cp.SetCheckpointLSN(lsn); err != nil {
			return err
		}
	}
	return b.wal.Reset(lsn)
}

// Clear flushes all dirty pages and empties the pool (simulating a cold
// cache, as the paper does before each measured query batch). It fails if
// any page is pinned.
func (b *BufferPool) Clear() error {
	for _, s := range b.shards {
		s.mu.Lock()
		pinned := PageID(InvalidPage)
		for _, f := range s.frames {
			if f.pins > 0 {
				pinned = f.id
				break
			}
		}
		s.mu.Unlock()
		if pinned != InvalidPage {
			return fmt.Errorf("storage: Clear with pinned page %d", pinned)
		}
	}
	if err := b.FlushAll(); err != nil {
		return err
	}
	for _, s := range b.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 {
				id := f.id
				s.mu.Unlock()
				return fmt.Errorf("storage: Clear with pinned page %d", id)
			}
		}
		for _, f := range s.frames {
			s.dropFrame(f)
		}
		s.mu.Unlock()
	}
	return nil
}

// BeginUndo opens an in-memory undo scope: until CommitUndo or
// RollbackUndo, the pool records pages allocated through NewPage and
// defers Discard frees. When capturePages is true it additionally captures
// a pre-image of every page first touched through Get, so rollback can
// restore in-place modifications. Copy-on-write writers pass false: they
// never modify a published page in place, so rollback only needs to free
// the scope's fresh pages — and skipping capture keeps concurrent
// lock-free readers' Gets from serializing on undoMu. Scopes protect
// single-writer updates (the tree holds its write lock); they do not nest.
func (b *BufferPool) BeginUndo(capturePages bool) {
	b.undoMu.Lock()
	defer b.undoMu.Unlock()
	if b.undoActive.Load() {
		panic("storage: nested BeginUndo")
	}
	b.undoPages = make(map[PageID][]byte)
	b.undoNew = make(map[PageID]bool)
	b.freeMu.Lock()
	b.undoMark = len(b.pendingFrees)
	b.freeMu.Unlock()
	b.undoActive.Store(true)
	b.undoCapture.Store(capturePages)
}

// captureUndo saves the page's current content if it is the first touch in
// the active scope. data is the pinned frame buffer, still unmodified: Get
// returns before the caller can write to it.
func (b *BufferPool) captureUndo(id PageID, data []byte) {
	b.undoMu.Lock()
	defer b.undoMu.Unlock()
	if !b.undoActive.Load() || b.undoNew[id] {
		return
	}
	if _, ok := b.undoPages[id]; ok {
		return
	}
	pre := make([]byte, len(data))
	copy(pre, data)
	b.undoPages[id] = pre
}

// CommitUndo closes the scope, keeping all changes. Without a WAL the
// frees deferred during the scope are applied now; with one they stay
// queued for the next commit.
func (b *BufferPool) CommitUndo() error {
	b.undoMu.Lock()
	b.undoActive.Store(false)
	b.undoCapture.Store(false)
	b.undoPages = nil
	b.undoNew = nil
	b.undoMu.Unlock()
	if b.wal != nil {
		return nil
	}
	b.freeMu.Lock()
	frees := append([]PageID(nil), b.pendingFrees...)
	b.pendingFrees = b.pendingFrees[:0]
	b.freeMu.Unlock()
	for _, id := range frees {
		if err := b.pager.Free(id); err != nil {
			return err
		}
	}
	return nil
}

// RollbackUndo closes the scope, restoring every touched page to its
// pre-image, releasing pages allocated inside the scope, and dropping the
// scope's deferred frees. Restores go into the cache (frames marked dirty),
// not the pager, so rollback succeeds even when the pager is failing — the
// cause of most rollbacks. No page touched by the scope may still be
// pinned.
func (b *BufferPool) RollbackUndo() error {
	b.undoMu.Lock()
	if !b.undoActive.Load() {
		b.undoMu.Unlock()
		return nil
	}
	captured := b.undoPages
	created := b.undoNew
	mark := b.undoMark
	b.undoActive.Store(false)
	b.undoCapture.Store(false)
	b.undoPages = nil
	b.undoNew = nil
	b.undoMu.Unlock()

	b.freeMu.Lock()
	if len(b.pendingFrees) > mark {
		b.pendingFrees = b.pendingFrees[:mark]
	}
	b.freeMu.Unlock()

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for id, pre := range captured {
		keep(b.restorePage(id, pre))
	}
	for id := range created {
		s := b.shard(id)
		s.mu.Lock()
		if f, ok := s.frames[id]; ok {
			if f.pins > 0 {
				s.mu.Unlock()
				keep(fmt.Errorf("storage: rollback of pinned page %d", id))
				continue
			}
			s.dropFrame(f)
		}
		s.mu.Unlock()
		keep(b.pager.Free(id))
	}
	return firstErr
}

// restorePage places pre as the cached content of id, marking it dirty.
func (b *BufferPool) restorePage(id PageID, pre []byte) error {
	s := b.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		var err error
		if f, err = s.admit(id); err != nil {
			return err
		}
	} else if f.pins > 0 {
		return fmt.Errorf("storage: rollback of pinned page %d", id)
	}
	copy(f.data, pre)
	f.dirty = true
	return nil
}

// Stats returns the cumulative counters summed over the shards.
func (b *BufferPool) Stats() BufferStats {
	var out BufferStats
	for _, s := range b.shards {
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters (between experiment phases).
func (b *BufferPool) ResetStats() {
	for _, s := range b.shards {
		s.mu.Lock()
		s.stats = BufferStats{}
		s.mu.Unlock()
	}
}
