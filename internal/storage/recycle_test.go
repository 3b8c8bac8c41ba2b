package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillPages allocates n pages in p, each filled with a pattern unique to
// its id, and returns the ids.
func fillPages(t testing.TB, p Pager, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	buf := make([]byte, p.PageSize())
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(int(id)*31 + j*7)
		}
		if err := p.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// pagerBytes reads id straight from the pager.
func pagerBytes(t *testing.T, p Pager, id PageID) []byte {
	t.Helper()
	buf := make([]byte, p.PageSize())
	if err := p.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestBufferPoolRecycledFrameHoldsPagerBytes drives a small pool far past
// its capacity, so nearly every Get re-admits a page into a frame
// recycled from another page's eviction. A clean page must come back as
// exactly the pager's bytes. Some pages are modified while pinned; their
// eviction must write the new bytes back, so every Get must return the
// page's latest content and never the bytes of the frame's previous page.
func TestBufferPoolRecycledFrameHoldsPagerBytes(t *testing.T) {
	p := NewMemPager(256)
	ids := fillPages(t, p, 40)
	model := make(map[PageID][]byte, len(ids))
	for _, id := range ids {
		model[id] = pagerBytes(t, p, id)
	}
	pool := NewBufferPool(p, 3)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 2000; step++ {
		id := ids[rng.Intn(len(ids))]
		data, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, model[id]) {
			t.Fatalf("step %d: page %d frame differs from the page's content", step, id)
		}
		dirty := step%5 == 0
		if dirty {
			data[rng.Intn(len(data))]++
			copy(model[id], data)
		}
		pool.Unpin(id, dirty)
	}
	st := pool.Stats()
	if st.Evictions == 0 || st.Misses < 1000 || st.Writes == 0 {
		t.Fatalf("pool never cycled dirty frames: %+v", st)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// After write-back the pager holds every page's latest content, and a
	// fresh pool re-admits exactly those bytes.
	check := NewBufferPool(p, 3)
	for _, id := range ids {
		if !bytes.Equal(pagerBytes(t, p, id), model[id]) {
			t.Fatalf("page %d: pager lost a write-back", id)
		}
		data, err := check.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, model[id]) {
			t.Fatalf("page %d: re-read frame differs from the pager", id)
		}
		check.Unpin(id, false)
	}
}

// TestBufferPoolPinnedFrameNeverRecycled holds one page pinned while every
// other page cycles through the rest of the pool: the pinned buffer must
// keep its page's bytes and never be handed to another page.
func TestBufferPoolPinnedFrameNeverRecycled(t *testing.T) {
	p := NewMemPager(256)
	ids := fillPages(t, p, 20)
	pool := NewBufferPool(p, 2)
	held := ids[0]
	pinned, err := pool.Get(held)
	if err != nil {
		t.Fatal(err)
	}
	want := pagerBytes(t, p, held)
	for round := 0; round < 5; round++ {
		for _, id := range ids[1:] {
			data, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if &data[0] == &pinned[0] {
				t.Fatalf("page %d was admitted into the frame pinned by page %d", id, held)
			}
			pool.Unpin(id, false)
		}
	}
	if !bytes.Equal(pinned, want) {
		t.Fatalf("pinned page %d changed while other pages cycled", held)
	}
	again, err := pool.Get(held)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &pinned[0] {
		t.Fatalf("pinned page %d left its frame", held)
	}
	pool.Unpin(held, false)
	pool.Unpin(held, false)
}

// TestBufferPoolMissAllocatesNothing is the allocation gate on the
// spill-read miss path: once the pool is full, a Get that misses, evicts
// the LRU frame and reads the page into it, followed by its Unpin, must
// not allocate.
func TestBufferPoolMissAllocatesNothing(t *testing.T) {
	p := NewMemPager(DefaultPageSize)
	ids := fillPages(t, p, 64)
	pool := NewBufferPool(p, 16)
	i := 0
	miss := func() {
		id := ids[i%len(ids)]
		i++
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	for range ids {
		miss() // fill the pool and size its maps
	}
	before := pool.Stats()
	allocs := testing.AllocsPerRun(1000, miss)
	st := pool.Stats()
	if st.Hits != before.Hits {
		t.Fatalf("cycling %d pages through 16 frames hit the pool %d times", len(ids), st.Hits-before.Hits)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Get miss + Unpin allocated %v times per op, want 0", allocs)
	}
}

// BenchmarkBufferPoolMiss measures one steady-state Get miss + Unpin over
// a memory pager (evict, read into the recycled frame, unpin).
func BenchmarkBufferPoolMiss(b *testing.B) {
	p := NewMemPager(DefaultPageSize)
	ids := fillPages(b, p, 64)
	pool := NewBufferPool(p, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if _, err := pool.Get(id); err != nil {
			b.Fatal(err)
		}
		pool.Unpin(id, false)
	}
}
