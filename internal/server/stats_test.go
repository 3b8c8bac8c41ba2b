package server

import (
	"encoding/json"
	"testing"

	"sgtree"
)

// TestShardStatsReportEvictions checks that /stats' per-shard cache blocks
// carry an evictions count: present (zero) for a shard whose nodes all
// fit the decoded-node cache, and equal to the pool's own count for the
// buffer pool.
func TestShardStatsReportEvictions(t *testing.T) {
	ix, err := sgtree.New(sgtree.Config{Universe: 50, BufferPages: 8, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := ix.Insert(uint32(i), []int{i % 50, (i * 7) % 50, (i * 13) % 50}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ix.KNN([]int{1, 2, 3}, 5); err != nil {
		t.Fatal(err)
	}
	st := shardStatsOf(ix)
	if st.NodeCache.Evictions != 0 {
		t.Fatalf("node cache evicted %d nodes of a tree that fits it", st.NodeCache.Evictions)
	}
	if want := ix.Tree().Pool().Stats().Evictions; st.BufferPool.Evictions != want || want == 0 {
		t.Fatalf("buffer_pool evictions %d, pool reports %d (want > 0)", st.BufferPool.Evictions, want)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		NodeCache  map[string]any `json:"node_cache"`
		BufferPool map[string]any `json:"buffer_pool"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.NodeCache["evictions"]; !ok {
		t.Fatalf("node_cache block has no evictions field: %s", raw)
	}
	if _, ok := doc.BufferPool["evictions"]; !ok {
		t.Fatalf("buffer_pool block has no evictions field: %s", raw)
	}
}
