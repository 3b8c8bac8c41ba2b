// Package storage provides the disk substrate under the signature tree and
// signature table: fixed-size pages, pagers (memory- and file-backed), and
// an LRU buffer pool with pin/unpin semantics and I/O accounting.
//
// The paper evaluates its indexes as disk-based, paginated structures and
// reports the number of random I/Os per query. In this reproduction a
// "random I/O" is a buffer-pool miss that reaches the underlying pager;
// hardware-independent but shaped like the paper's metric.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageID identifies a page within a pager. Zero is never a valid data page
// (file-backed pagers reserve it for their header), so it doubles as the
// nil pointer in index structures.
type PageID uint32

// InvalidPage is the zero PageID, used as a null pointer.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used when a configuration leaves it zero.
const DefaultPageSize = 4096

// ErrPageFreed is returned when reading or writing a page that has been freed.
var ErrPageFreed = errors.New("storage: page is freed")

// Pager is the raw page store. Implementations must be safe for use by a
// single goroutine; the BufferPool adds locking above it.
type Pager interface {
	// PageSize returns the fixed byte size of every page.
	PageSize() int
	// Allocate returns a new zeroed page.
	Allocate() (PageID, error)
	// ReadPage fills buf (which must be PageSize bytes) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (PageSize bytes) as the page contents.
	WritePage(id PageID, buf []byte) error
	// Free releases the page for reuse.
	Free(id PageID) error
	// NumPages returns the number of live (allocated, not freed) pages.
	NumPages() int
	// Stats returns cumulative physical I/O counters.
	Stats() PagerStats
	// Close releases underlying resources.
	Close() error
}

// PagerStats counts physical page transfers at the pager level.
type PagerStats struct {
	Reads  int64 // pages read
	Writes int64 // pages written
	Allocs int64 // pages allocated
	Frees  int64 // pages freed
}

// MemPager is an in-memory pager. It is the default substrate for tests and
// benchmarks: physical I/O is simulated, so the buffer pool's miss counters
// measure exactly what the paper's random-I/O plots measure. Reads take only
// a shared lock so concurrent queries through a sharded buffer pool scale.
type MemPager struct {
	mu       sync.RWMutex
	pageSize int
	pages    map[PageID][]byte
	next     PageID
	free     []PageID
	stats    PagerStats // Reads stays zero; Stats fills it from reads
	// reads counts ReadPage calls atomically, so a read, which otherwise
	// holds only the shared lock, never takes the exclusive one.
	reads atomic.Int64
}

// NewMemPager returns an in-memory pager with the given page size
// (DefaultPageSize if <= 0).
func NewMemPager(pageSize int) *MemPager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemPager{
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
		next:     1, // 0 is InvalidPage
	}
}

// PageSize returns the page size.
func (p *MemPager) PageSize() int { return p.pageSize }

// Allocate returns a fresh zeroed page, reusing freed ids first.
func (p *MemPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var id PageID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = p.next
		p.next++
	}
	p.pages[id] = make([]byte, p.pageSize)
	p.stats.Allocs++
	return id, nil
}

// ReadPage copies the page into buf.
func (p *MemPager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	pg, ok := p.pages[id]
	if !ok {
		p.mu.RUnlock()
		return fmt.Errorf("storage: read of page %d: %w", id, ErrPageFreed)
	}
	if len(buf) != p.pageSize {
		p.mu.RUnlock()
		return fmt.Errorf("storage: read buffer size %d != page size %d", len(buf), p.pageSize)
	}
	copy(buf, pg)
	p.mu.RUnlock()
	p.reads.Add(1)
	return nil
}

// WritePage stores buf as the page contents.
func (p *MemPager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pg, ok := p.pages[id]
	if !ok {
		return fmt.Errorf("storage: write of page %d: %w", id, ErrPageFreed)
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("storage: write buffer size %d != page size %d", len(buf), p.pageSize)
	}
	copy(pg, buf)
	p.stats.Writes++
	return nil
}

// Free releases the page for reuse.
func (p *MemPager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pages[id]; !ok {
		return fmt.Errorf("storage: free of page %d: %w", id, ErrPageFreed)
	}
	delete(p.pages, id)
	p.free = append(p.free, id)
	p.stats.Frees++
	return nil
}

// NumPages returns the number of live pages.
func (p *MemPager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pages)
}

// Stats returns the physical I/O counters.
func (p *MemPager) Stats() PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Reads = p.reads.Load()
	return st
}

// Close is a no-op for the memory pager.
func (p *MemPager) Close() error { return nil }
