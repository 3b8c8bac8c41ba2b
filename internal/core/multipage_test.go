package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// multipageOptions exercises signatures far larger than the page: 4000-bit
// dense signatures (501 encoded bytes) on 1KB pages require nodes spanning
// several pages.
func multipageOptions() Options {
	return Options{
		SignatureLength: 4000,
		PageSize:        1024,
		BufferPages:     128,
		MaxNodeEntries:  12,
		MaxNodePages:    8,
	}
}

func bigSigData(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := dataset.New(4000)
	for i := 0; i < n; i++ {
		base := r.Intn(40) * 100
		items := make([]int, 0, 12)
		for len(items) < 12 {
			items = append(items, base+r.Intn(100))
		}
		d.Add(items...)
	}
	return d
}

func TestMultipageValidation(t *testing.T) {
	// Without multipage nodes, 4000-bit signatures cannot fit 1KB pages.
	bad := multipageOptions()
	bad.MaxNodePages = 1
	if err := bad.Validate(); err == nil {
		t.Error("oversized signatures accepted with single-page nodes")
	}
	if err := multipageOptions().Validate(); err != nil {
		t.Errorf("multipage options rejected: %v", err)
	}
	tooMany := multipageOptions()
	tooMany.MaxNodePages = 100
	if err := tooMany.Validate(); err == nil {
		t.Error("absurd MaxNodePages accepted")
	}
}

func TestMultipageLifecycle(t *testing.T) {
	d := bigSigData(t, 400, 3)
	tr := buildTree(t, d, multipageOptions())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Nodes must genuinely span pages: with ~500-byte entries and up to 12
	// per node, page count far exceeds node count.
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	pages := tr.Pool().Pager().NumPages()
	if pages < 2*st.Nodes {
		t.Errorf("%d pages for %d nodes; nodes do not span pages", pages, st.Nodes)
	}
	// Queries match the oracle.
	for _, qi := range []int{0, 200, 399} {
		q := d.Tx[qi]
		got, _, err := tr.KNN(sigOf(t, 4000, q), 5)
		if err != nil {
			t.Fatal(err)
		}
		want := linearKNN(d, q, 5)
		for i := range got {
			if got[i].Dist != want[i] {
				t.Fatalf("query %d rank %d: %v vs %v", qi, i, got[i].Dist, want[i])
			}
		}
	}
	// Deletes shrink chains and free pages.
	m := signature.NewDirectMapper(4000)
	for i := 0; i < 300; i++ {
		found, err := tr.Delete(signature.FromItems(m, d.Tx[i]), dataset.TID(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := tr.Pool().Pager().NumPages()
	if after >= pages {
		t.Errorf("pages did not shrink after deleting 75%%: %d -> %d", pages, after)
	}
}

func TestMultipagePersistence(t *testing.T) {
	opts := multipageOptions()
	p := storage.NewMemPager(opts.PageSize)
	tr, err := NewWithPager(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := bigSigData(t, 150, 7)
	m := signature.NewDirectMapper(4000)
	for i, tx := range d.Tx {
		if err := tr.Insert(signature.FromItems(m, tx), dataset.TID(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantNN, _, err := tr.NearestNeighbor(signature.FromItems(m, d.Tx[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(p, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	gotNN, _, err := re.NearestNeighbor(signature.FromItems(m, d.Tx[0]))
	if err != nil {
		t.Fatal(err)
	}
	if gotNN != wantNN {
		t.Errorf("NN after reopen: %+v vs %+v", gotNN, wantNN)
	}
}

func TestMultipageBulkLoadAndCompact(t *testing.T) {
	d := bigSigData(t, 300, 11)
	tr := mustTree(t, multipageOptions())
	if err := tr.BulkLoad(bulkItems(t, d)); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := d.Tx[42]
	got, _, err := tr.KNN(sigOf(t, 4000, q), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := linearKNN(d, q, 3)
	for i := range got {
		if got[i].Dist != want[i] {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Dist, want[i])
		}
	}
}

func TestMultipageIOAccounting(t *testing.T) {
	// Reading an L-page node must cost L page accesses.
	d := bigSigData(t, 200, 13)
	tr := buildTree(t, d, multipageOptions())
	if err := tr.Pool().Clear(); err != nil {
		t.Fatal(err)
	}
	tr.Pool().ResetStats()
	_, stats, err := tr.KNN(sigOf(t, 4000, d.Tx[0]), 1)
	if err != nil {
		t.Fatal(err)
	}
	misses := int(tr.Pool().Stats().Misses)
	if misses <= stats.NodesAccessed {
		t.Errorf("%d page misses for %d node accesses; chains not charged", misses, stats.NodesAccessed)
	}
}

// TestDecodeBoundsEntryCountByBuffer feeds decodeBuf a 512-byte leaf page
// whose header claims the format maximum of 0xFFFF entries under an
// 8000-bit codec. Sizing the slab from that count would allocate about
// 71 MB before the first entry failed to parse; the decoder must reject
// the count against the buffer first.
func TestDecodeBoundsEntryCountByBuffer(t *testing.T) {
	l := nodeLayout{codec: signature.Codec{Length: 8000}, pageSize: 512, maxPages: 1}
	buf := make([]byte, 512)
	buf[0] = flagLeaf
	binary.LittleEndian.PutUint16(buf[2:4], 0xFFFF)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := l.decodeBuf(7, buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded %d entries from a 512-byte page", len(n.entries))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the page allocated %d bytes", grew)
	}
}
