package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// Tree is a signature tree: a paginated, height-balanced index over
// ⟨signature, tid⟩ pairs. All methods are safe for concurrent use by
// multiple goroutines: queries pin an immutable epoch snapshot (see
// snapshot.go) and run without locking the tree, while updates (Insert,
// Delete, BulkLoad) serialize on mu, build the new version out of fresh
// copy-on-write pages, and publish it atomically. Readers therefore never
// block writers and vice versa; each query sees exactly the tree as of
// the last publish before it started.
type Tree struct {
	mu     sync.Mutex // serializes updates; queries never take it
	opts   Options
	codec  signature.Codec
	layout nodeLayout
	pool   *storage.BufferPool

	// snap is the current published snapshot; readers pin it via
	// pinSnapshot. retireHead/retireTail chain superseded snapshots
	// oldest-first until reclaimSnapshots frees their deferred pages;
	// both are guarded by mu.
	snap       atomic.Pointer[treeSnapshot]
	retireHead *treeSnapshot
	retireTail *treeSnapshot

	// Copy-on-write state for the update in flight, guarded by mu and
	// alive only inside runUpdate. cowFresh marks pages allocated by this
	// update (safe to modify in place and to discard immediately);
	// cowFrees collects published pages the update replaced or deleted,
	// deferred to the retiring snapshot at publish time so pinned readers
	// keep seeing them.
	cowFresh map[storage.PageID]bool
	cowFrees []storage.PageID

	// ncache caches decoded nodes above the buffer pool for the query
	// paths; nil when disabled (NodeCacheSize < 0). Because updates are
	// copy-on-write, published page bytes never change; invalidation is
	// only needed when a page id is about to return to the free list
	// (reclaimSnapshots, rollback), before it can be recycled.
	ncache *nodeCache

	// observer receives traversal events from every query (see
	// SetObserver); held in an atomic box so lock-free queries can read
	// it. counters accumulate across queries atomically, since many
	// queries run concurrently.
	observer atomic.Pointer[observerBox]
	counters treeCounters

	metaPage storage.PageID
	root     storage.PageID // InvalidPage for an empty tree; guarded by mu (readers use snap)
	height   int            // levels; 1 = root is a leaf; 0 = empty; guarded by mu
	count    int            // indexed signatures; guarded by mu

	// Forced-reinsert state, alive only during one top-level Insert:
	// reinsertActive marks levels that already evicted this round and
	// reinsertQueue holds evicted entries awaiting re-insertion.
	reinsertActive map[int]bool
	reinsertQueue  []reinsertItem
}

// Meta page layout: magic | root | height | count | sigLen | flags.
const (
	treeMagic     = 0x53475431 // "SGT1"
	metaSize      = 4 + 4 + 4 + 8 + 4 + 4
	metaCompress  = 0x1
	metaCardStats = 0x2
)

// New creates an SG-tree over a fresh in-memory pager.
func New(opts Options) (*Tree, error) {
	return NewWithPager(storage.NewMemPager(opts.withDefaults().PageSize), opts)
}

// NewWithPager creates an SG-tree on an empty pager (its first allocation
// becomes the tree's meta page).
func NewWithPager(p storage.Pager, opts Options) (*Tree, error) {
	return NewWithPagerWAL(p, nil, opts)
}

// NewWithPagerWAL is NewWithPager with durability: when w is non-nil it is
// attached to the tree's buffer pool, making every Sync/Close an atomic,
// crash-recoverable commit (see storage.BufferPool.AttachWAL and
// storage.OpenFilePagerRecover).
func NewWithPagerWAL(p storage.Pager, w *storage.WAL, opts Options) (*Tree, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if p.PageSize() != opts.PageSize {
		return nil, fmt.Errorf("core: pager page size %d != options page size %d", p.PageSize(), opts.PageSize)
	}
	t := &Tree{
		opts:   opts,
		codec:  opts.codec(),
		layout: nodeLayout{codec: opts.codec(), cardStats: opts.CardStats, pageSize: opts.PageSize, maxPages: opts.MaxNodePages},
		pool:   storage.NewBufferPool(p, opts.BufferPages),
		ncache: newTreeNodeCache(opts),
	}
	if w != nil {
		if w.PageSize() != opts.PageSize {
			return nil, fmt.Errorf("core: WAL page size %d != options page size %d", w.PageSize(), opts.PageSize)
		}
		t.pool.AttachWAL(w)
	}
	id, page, err := t.pool.NewPage()
	if err != nil {
		return nil, err
	}
	t.metaPage = id
	t.encodeMeta(page)
	t.pool.Unpin(id, true)
	t.snap.Store(&treeSnapshot{root: t.root, height: t.height, count: t.count, epoch: 1})
	return t, nil
}

// Open reopens a tree previously created with NewWithPager on a persistent
// pager. The meta page is assumed to be the pager's first page. The options
// must match the ones the tree was created with (signature length and
// compression are verified against the stored meta).
func Open(p storage.Pager, metaPage storage.PageID, opts Options) (*Tree, error) {
	return OpenWithWAL(p, nil, metaPage, opts)
}

// OpenWithWAL is Open with durability (see NewWithPagerWAL). Recover the
// pager first (storage.OpenFilePagerRecover) if the previous process may
// have crashed: opening skips no recovery on its own.
func OpenWithWAL(p storage.Pager, w *storage.WAL, metaPage storage.PageID, opts Options) (*Tree, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	t := &Tree{
		opts:     opts,
		codec:    opts.codec(),
		layout:   nodeLayout{codec: opts.codec(), cardStats: opts.CardStats, pageSize: opts.PageSize, maxPages: opts.MaxNodePages},
		pool:     storage.NewBufferPool(p, opts.BufferPages),
		ncache:   newTreeNodeCache(opts),
		metaPage: metaPage,
	}
	if w != nil {
		if w.PageSize() != opts.PageSize {
			return nil, fmt.Errorf("core: WAL page size %d != options page size %d", w.PageSize(), opts.PageSize)
		}
		t.pool.AttachWAL(w)
	}
	page, err := t.pool.Get(metaPage)
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(metaPage, false)
	if err := t.decodeMeta(page); err != nil {
		return nil, err
	}
	t.snap.Store(&treeSnapshot{root: t.root, height: t.height, count: t.count, epoch: 1})
	return t, nil
}

func (t *Tree) encodeMeta(page []byte) {
	binary.LittleEndian.PutUint32(page[0:], treeMagic)
	binary.LittleEndian.PutUint32(page[4:], uint32(t.root))
	binary.LittleEndian.PutUint32(page[8:], uint32(t.height))
	binary.LittleEndian.PutUint64(page[12:], uint64(t.count))
	binary.LittleEndian.PutUint32(page[20:], uint32(t.opts.SignatureLength))
	var flags uint32
	if t.opts.Compress {
		flags |= metaCompress
	}
	if t.opts.CardStats {
		flags |= metaCardStats
	}
	binary.LittleEndian.PutUint32(page[24:], flags)
}

func (t *Tree) decodeMeta(page []byte) error {
	if len(page) < metaSize {
		return fmt.Errorf("core: meta page too small")
	}
	if binary.LittleEndian.Uint32(page[0:]) != treeMagic {
		return fmt.Errorf("core: not an SG-tree meta page")
	}
	t.root = storage.PageID(binary.LittleEndian.Uint32(page[4:]))
	t.height = int(binary.LittleEndian.Uint32(page[8:]))
	t.count = int(binary.LittleEndian.Uint64(page[12:]))
	gotLen := int(binary.LittleEndian.Uint32(page[20:]))
	if gotLen != t.opts.SignatureLength {
		return fmt.Errorf("core: stored signature length %d != configured %d", gotLen, t.opts.SignatureLength)
	}
	flags := binary.LittleEndian.Uint32(page[24:])
	if (flags&metaCompress != 0) != t.opts.Compress {
		return fmt.Errorf("core: stored compression flag differs from configured options")
	}
	if (flags&metaCardStats != 0) != t.opts.CardStats {
		return fmt.Errorf("core: stored cardinality-stats flag differs from configured options")
	}
	return nil
}

// flushMeta writes the meta fields through the pool.
func (t *Tree) flushMeta() error {
	page, err := t.pool.Get(t.metaPage)
	if err != nil {
		return err
	}
	t.encodeMeta(page)
	t.pool.Unpin(t.metaPage, true)
	return nil
}

// Close flushes all dirty state to the pager. It does not close the pager
// (the caller owns it when using NewWithPager; New's in-memory pager needs
// no closing).
func (t *Tree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncLocked()
}

// Sync flushes all dirty state to the pager. With a WAL attached this is
// the tree's commit point: the updates since the previous Sync become
// durable atomically — after a crash, recovery restores either all of them
// or none.
func (t *Tree) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncLocked()
}

func (t *Tree) syncLocked() error {
	if err := t.reclaimSnapshots(); err != nil {
		return err
	}
	if err := t.flushMeta(); err != nil {
		return err
	}
	return t.pool.FlushAll()
}

// runUpdate executes one mutating operation as a copy-on-write
// transaction. Reclaim runs first — before BeginUndo — so that deferred
// frees from fully-unpinned old epochs land below the undo scope's free
// mark and survive a rollback. The body then builds the new tree version
// out of fresh pages only (writeNode relocates every published node it
// touches), so published pages a pinned reader can see are never modified:
// the undo scope needs no pre-image capture (BeginUndo(false)), and a
// failed update rolls back by simply freeing the scope's fresh pages and
// restoring the in-memory root/height/count. On success the new version is
// published atomically and the replaced pages are attached to the retiring
// snapshot for deferred reclamation.
func (t *Tree) runUpdate(body func() error) error {
	if err := t.reclaimSnapshots(); err != nil {
		return err
	}
	t.pool.BeginUndo(false)
	t.cowFresh = make(map[storage.PageID]bool)
	t.cowFrees = nil
	root, height, count := t.root, t.height, t.count
	if err := body(); err != nil {
		t.root, t.height, t.count = root, height, count
		t.reinsertQueue = nil
		t.cowFresh = nil
		t.cowFrees = nil
		// Rollback frees the scope's fresh pages without passing through
		// freeNode; none of them were ever cached (only published pages
		// are), but bump the cache epoch as defense in depth so no decode
		// from the failed update can survive.
		if t.ncache != nil {
			t.ncache.invalidateAll()
		}
		if rbErr := t.pool.RollbackUndo(); rbErr != nil {
			return fmt.Errorf("%w (undo rollback also failed: %v)", err, rbErr)
		}
		return err
	}
	t.publishSnapshot()
	if err := t.pool.CommitUndo(); err != nil {
		return err
	}
	// Opportunistic reclaim: with no readers pinned (the common idle case)
	// the pages this update replaced return to the pager right away, so
	// space usage matches the in-place behavior. Errors are not surfaced —
	// the update itself committed, and an unreclaimed snapshot keeps its
	// remaining frees queued for the next reclaim point to retry.
	_ = t.reclaimSnapshots()
	return nil
}

// Options returns the tree's configuration (defaults applied).
func (t *Tree) Options() Options { return t.opts }

// Len returns the number of indexed signatures.
func (t *Tree) Len() int {
	return t.snap.Load().count
}

// Height returns the number of levels (0 when empty, 1 when the root is a leaf).
func (t *Tree) Height() int {
	return t.snap.Load().height
}

// Pool exposes the buffer pool for I/O accounting by benchmarks.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// DropCaches flushes dirty pages and then empties both read caches — the
// decoded-node cache and the buffer pool — so the next query starts
// entirely cold. The paper's I/O experiments call this between queries;
// clearing only the buffer pool would leave decoded nodes behind and
// report near-zero page misses.
//
// DropCaches requires quiescence on the buffer-pool side: pool.Clear
// fails if any page is still pinned, which includes pages held by
// in-flight lock-free queries. Call it between query batches, not
// concurrently with them.
func (t *Tree) DropCaches() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.reclaimSnapshots(); err != nil {
		return err
	}
	if t.ncache != nil {
		t.ncache.invalidateAll()
	}
	return t.pool.Clear()
}

// Refresh re-reads the meta page from the underlying store and publishes
// its root/height/count as a fresh snapshot, after emptying both read
// caches. It exists for replication followers: ApplyRedo rewrites the page
// file beneath the tree, so the buffer pool, decoded-node cache and
// current snapshot all hold the pre-apply version until Refresh installs
// the shipped one. Like DropCaches it requires quiescence — pool.Clear
// fails while any in-flight query still pins pages — so a follower must
// fence queries against apply (e.g. with an RWMutex) before calling it.
func (t *Tree) Refresh() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.reclaimSnapshots(); err != nil {
		return err
	}
	if t.ncache != nil {
		t.ncache.invalidateAll()
	}
	if err := t.pool.Clear(); err != nil {
		return err
	}
	page, err := t.pool.Get(t.metaPage)
	if err != nil {
		return err
	}
	derr := t.decodeMeta(page)
	t.pool.Unpin(t.metaPage, false)
	if derr != nil {
		return derr
	}
	t.publishSnapshot()
	return nil
}

// --- node I/O through the buffer pool ---
//
// A node occupies a primary page plus up to MaxNodePages-1 continuation
// pages chained through 4-byte next pointers; reading an L-page node costs
// L page accesses, which is how multipage nodes show up in the I/O metric.

// readNodeCached is the query-path node read: it consults the decoded-node
// cache before falling back to readNode, and publishes fresh decodes (whose
// area cache decodeBuf has already filled) to the cache. The returned
// node may be shared by concurrent queries and MUST NOT be mutated —
// update paths use readNode directly, which always hands out a private
// copy they may modify in place. Every node a query scans therefore comes
// straight from decodeBuf, with slab rows matching its entries.
func (t *Tree) readNodeCached(id storage.PageID) (*node, error) {
	if t.ncache != nil {
		if n := t.ncache.get(id); n != nil {
			return n, nil
		}
	}
	n, err := t.readNode(id)
	if err != nil {
		return nil, err
	}
	if t.ncache != nil {
		t.ncache.put(id, n)
	}
	return n, nil
}

// readNode assembles the node's logical byte string from its page chain
// and decodes it.
func (t *Tree) readNode(id storage.PageID) (*node, error) {
	page, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	next := storage.PageID(binary.LittleEndian.Uint32(page[nodeNextOff:]))
	var buf []byte
	if next == storage.InvalidPage {
		// Common case: single-page node, decode straight from the frame.
		n, err := t.layout.decodeBuf(id, page)
		t.pool.Unpin(id, false)
		return n, err
	}
	buf = append(buf, page...)
	t.pool.Unpin(id, false)
	var cont []storage.PageID
	for next != storage.InvalidPage {
		cid := next
		cpage, err := t.pool.Get(cid)
		if err != nil {
			return nil, err
		}
		next = storage.PageID(binary.LittleEndian.Uint32(cpage[:contHeaderSize]))
		buf = append(buf, cpage[contHeaderSize:]...)
		t.pool.Unpin(cid, false)
		cont = append(cont, cid)
		if len(cont) > t.opts.MaxNodePages {
			return nil, fmt.Errorf("core: node %d chain exceeds MaxNodePages %d", id, t.opts.MaxNodePages)
		}
	}
	n, err := t.layout.decodeBuf(id, buf)
	if err != nil {
		return nil, err
	}
	n.cont = cont
	return n, nil
}

// writeNode distributes the node's logical byte string over its page
// chain, growing or trimming continuation pages as the node's size moved.
//
// Inside a copy-on-write update (cowFresh non-nil) a node whose pages
// belong to a published snapshot is first relocated: its old primary and
// continuation pages are deferred to cowFrees — pinned readers keep
// traversing them unchanged — and the new bytes land on fresh pages. The
// caller observes the relocation through n.id; parent links are
// recomputed from it (parentEntry) or patched explicitly by the
// insert/delete paths.
func (t *Tree) writeNode(n *node) error {
	if t.cowFresh != nil {
		if !t.cowFresh[n.id] {
			t.cowFrees = append(t.cowFrees, n.id)
			t.cowFrees = append(t.cowFrees, n.cont...)
			n.cont = nil
			id, page, err := t.pool.NewPage()
			if err != nil {
				return err
			}
			_ = page
			t.pool.Unpin(id, true)
			t.cowFresh[id] = true
			n.id = id
		}
	} else if t.ncache != nil {
		// Legacy in-place path (no COW transaction running): the page's
		// bytes are about to change, so drop any cached decode first.
		t.ncache.invalidate(n.id)
	}
	buf, err := t.layout.encodeBuf(n)
	if err != nil {
		return err
	}
	if len(buf) > t.layout.budget() {
		return fmt.Errorf("core: node %d overflows node budget: %d > %d bytes", n.id, len(buf), t.layout.budget())
	}
	// How many continuation pages does this size need?
	needed := 0
	if len(buf) > t.opts.PageSize {
		rest := len(buf) - t.opts.PageSize
		chunk := t.opts.PageSize - contHeaderSize
		needed = (rest + chunk - 1) / chunk
	}
	// Grow or trim the chain.
	for len(n.cont) < needed {
		id, page, err := t.pool.NewPage()
		if err != nil {
			return err
		}
		_ = page
		t.pool.Unpin(id, true)
		n.cont = append(n.cont, id)
	}
	for len(n.cont) > needed {
		last := n.cont[len(n.cont)-1]
		if err := t.pool.Discard(last); err != nil {
			return err
		}
		n.cont = n.cont[:len(n.cont)-1]
	}
	// Primary page: header chunk with the chain pointer patched in.
	primary, err := t.pool.Get(n.id)
	if err != nil {
		return err
	}
	take := len(buf)
	if take > t.opts.PageSize {
		take = t.opts.PageSize
	}
	copy(primary, buf[:take])
	for i := take; i < t.opts.PageSize; i++ {
		primary[i] = 0
	}
	var firstCont storage.PageID
	if needed > 0 {
		firstCont = n.cont[0]
	}
	binary.LittleEndian.PutUint32(primary[nodeNextOff:], uint32(firstCont))
	t.pool.Unpin(n.id, true)
	// Continuation pages.
	pos := take
	for ci := 0; ci < needed; ci++ {
		cid := n.cont[ci]
		cpage, err := t.pool.Get(cid)
		if err != nil {
			return err
		}
		var next storage.PageID
		if ci+1 < needed {
			next = n.cont[ci+1]
		}
		binary.LittleEndian.PutUint32(cpage[:contHeaderSize], uint32(next))
		take := len(buf) - pos
		if max := t.opts.PageSize - contHeaderSize; take > max {
			take = max
		}
		copy(cpage[contHeaderSize:], buf[pos:pos+take])
		for i := contHeaderSize + take; i < t.opts.PageSize; i++ {
			cpage[i] = 0
		}
		pos += take
		t.pool.Unpin(cid, true)
	}
	return nil
}

func (t *Tree) allocNode(leaf bool, level int) (*node, error) {
	id, page, err := t.pool.NewPage()
	if err != nil {
		return nil, err
	}
	_ = page
	t.pool.Unpin(id, true)
	if t.cowFresh != nil {
		t.cowFresh[id] = true
	}
	n := &node{id: id, leaf: leaf, level: level}
	return n, t.writeNode(n)
}

// freeNode releases the node's primary page and its continuation chain.
// Under copy-on-write, pages of a published node are deferred to cowFrees
// (a pinned reader may still reach them); pages fresh to this update were
// never visible to any reader and are discarded immediately. A fresh
// node's continuation pages are always fresh too — writeNode relocates a
// published node's whole chain at once.
func (t *Tree) freeNode(n *node) error {
	if t.cowFresh != nil && !t.cowFresh[n.id] {
		t.cowFrees = append(t.cowFrees, n.id)
		t.cowFrees = append(t.cowFrees, n.cont...)
		n.cont = nil
		return nil
	}
	if t.cowFresh == nil && t.ncache != nil {
		t.ncache.invalidate(n.id)
	}
	for _, cid := range n.cont {
		if err := t.pool.Discard(cid); err != nil {
			return err
		}
	}
	n.cont = nil
	return t.pool.Discard(n.id)
}

// --- insertion (Figure 3) ---

// Insert adds a ⟨signature, tid⟩ pair to the tree. The signature is cloned,
// so the caller may reuse it.
func (t *Tree) Insert(sig signature.Signature, tid dataset.TID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkDataSignature(sig); err != nil {
		return err
	}
	return t.runUpdate(func() error {
		e := entry{sig: sig.Clone(), tid: tid}
		if t.opts.ForcedReinsert {
			t.reinsertActive = map[int]bool{}
			defer func() { t.reinsertActive = nil }()
		}
		if err := t.insertEntry(e, 0); err != nil {
			return err
		}
		if err := t.drainReinserts(); err != nil {
			return err
		}
		t.count++
		return nil
	})
}

func (t *Tree) checkDataSignature(sig signature.Signature) error {
	if sig.Len() != t.opts.SignatureLength {
		return fmt.Errorf("core: signature length %d != tree length %d", sig.Len(), t.opts.SignatureLength)
	}
	if fc := t.opts.FixedCardinality; fc > 0 && sig.Area() != fc {
		return fmt.Errorf("core: signature area %d violates fixed cardinality %d", sig.Area(), fc)
	}
	return nil
}

// insertEntry inserts e into a node at targetLevel, growing the tree as
// needed. Caller holds the lock and maintains count.
func (t *Tree) insertEntry(e entry, targetLevel int) error {
	if targetLevel == 0 {
		// Data entries carry their own cardinality as a degenerate range,
		// so ancestors can maintain [lo, hi] without re-deriving it.
		a := e.sig.Area()
		e.lo, e.hi = a, a
	}
	if t.root == storage.InvalidPage {
		if targetLevel != 0 {
			return fmt.Errorf("core: internal: reinsertion at level %d into an empty tree", targetLevel)
		}
		root, err := t.allocNode(true, 0)
		if err != nil {
			return err
		}
		root.entries = append(root.entries, e)
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = root.id
		t.height = 1
		return nil
	}
	rootNode, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	if targetLevel > rootNode.level {
		return fmt.Errorf("core: internal: reinsertion level %d above root level %d", targetLevel, rootNode.level)
	}
	right, err := t.insertRec(rootNode, e, targetLevel)
	if err != nil {
		return err
	}
	if right == nil {
		// Copy-on-write may have relocated the root node; republish its id.
		t.root = rootNode.id
		return nil
	}
	// Root split: grow a new root with two entries.
	newRoot, err := t.allocNode(false, rootNode.level+1)
	if err != nil {
		return err
	}
	newRoot.entries = []entry{
		rootNode.parentEntry(t.opts.SignatureLength),
		right.parentEntry(t.opts.SignatureLength),
	}
	if err := t.writeNode(newRoot); err != nil {
		return err
	}
	t.root = newRoot.id
	t.height++
	return nil
}

// insertRec implements the generic balanced-tree insertion of Figure 3.
// It returns the freshly created sibling if n was split, nil otherwise.
func (t *Tree) insertRec(n *node, e entry, targetLevel int) (*node, error) {
	if n.level == targetLevel {
		n.entries = append(n.entries, e)
		if t.overflows(n) {
			if ok, err := t.maybeForcedReinsert(n); err != nil {
				return nil, err
			} else if ok {
				return nil, nil
			}
			return t.splitNode(n)
		}
		return nil, t.writeNode(n)
	}
	idx := t.chooseSubtree(n, e.sig)
	child, err := t.readNode(n.entries[idx].child)
	if err != nil {
		return nil, err
	}
	right, err := t.insertRec(child, e, targetLevel)
	if err != nil {
		return nil, err
	}
	if right == nil {
		// No split below: the chosen entry just absorbs the new signature
		// and widens its cardinality range. Forced reinsertion can have
		// *shrunk* the child, so in that mode the cover is recomputed
		// exactly instead of merely enlarged. With compression the grown
		// cover can encode to more bytes, so the node may overflow the
		// page even without gaining an entry.
		if t.opts.ForcedReinsert {
			n.entries[idx] = child.parentEntry(t.opts.SignatureLength)
		} else {
			n.entries[idx].sig.Merge(e.sig)
			if e.lo < n.entries[idx].lo {
				n.entries[idx].lo = e.lo
			}
			if e.hi > n.entries[idx].hi {
				n.entries[idx].hi = e.hi
			}
			// The recursive writeNode may have relocated the child
			// (copy-on-write); the entry must track its new id.
			n.entries[idx].child = child.id
		}
		if t.overflows(n) {
			return t.splitNode(n)
		}
		return nil, t.writeNode(n)
	}
	// The child split: recompute its cover and add an entry for the sibling.
	n.entries[idx] = child.parentEntry(t.opts.SignatureLength)
	n.entries = append(n.entries, right.parentEntry(t.opts.SignatureLength))
	if t.overflows(n) {
		return t.splitNode(n)
	}
	return nil, t.writeNode(n)
}

// chooseSubtree picks the entry of directory node n to insert sig under,
// per Section 3.1. Three cases: a unique covering entry is taken directly;
// among several covering entries the one with minimum area wins (it is the
// most specific); with no covering entry, the configured heuristic decides.
func (t *Tree) chooseSubtree(n *node, sig signature.Signature) int {
	best := -1
	bestArea := 0
	for i := range n.entries {
		if n.entries[i].sig.Covers(sig) {
			a := n.entries[i].sig.Area()
			if best == -1 || a < bestArea {
				best, bestArea = i, a
			}
		}
	}
	if best >= 0 {
		return best
	}
	switch t.opts.Choose {
	case MinOverlap:
		return chooseMinOverlap(n, sig)
	default:
		return chooseMinEnlargement(n, sig)
	}
}

// chooseMinEnlargement picks the entry whose area grows least when
// absorbing sig; ties break on smaller area.
func chooseMinEnlargement(n *node, sig signature.Signature) int {
	best := 0
	bestEnl := n.entries[0].sig.Enlargement(sig)
	bestArea := n.entries[0].sig.Area()
	for i := 1; i < len(n.entries); i++ {
		enl := n.entries[i].sig.Enlargement(sig)
		area := n.entries[i].sig.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseMinOverlap picks the entry which, once extended with sig, has the
// minimum overlap increase with the remaining entries of the node. Ties
// break on enlargement, then area. This is the costlier alternative the
// paper evaluated: O(|node|²) bitmap intersections per level.
func chooseMinOverlap(n *node, sig signature.Signature) int {
	best := 0
	bestInc, bestEnl, bestArea := -1, 0, 0
	for i := range n.entries {
		extended := n.entries[i].sig.Union(sig)
		inc := 0
		for j := range n.entries {
			if j == i {
				continue
			}
			inc += extended.Intersect(n.entries[j].sig) - n.entries[i].sig.Intersect(n.entries[j].sig)
		}
		enl := n.entries[i].sig.Enlargement(sig)
		area := n.entries[i].sig.Area()
		if bestInc == -1 || inc < bestInc ||
			(inc == bestInc && (enl < bestEnl || (enl == bestEnl && area < bestArea))) {
			best, bestInc, bestEnl, bestArea = i, inc, enl, area
		}
	}
	return best
}
