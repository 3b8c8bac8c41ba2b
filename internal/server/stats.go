package server

import (
	"sort"
	"sync"
	"time"

	"sgtree"
)

// Per-endpoint latency tracking: a fixed ring of recent samples per
// endpoint, from which /stats derives recent QPS and latency percentiles.
// Rings are small (the service is a query server, not a metrics store);
// counts and errors are cumulative.

const latencyRingSize = 1024

type sample struct {
	at time.Time
	ms float64
}

type endpointMetric struct {
	count  int64
	errors int64
	ring   [latencyRingSize]sample
	pos    int
	filled bool
}

type metrics struct {
	mu    sync.Mutex
	start time.Time
	by    map[string]*endpointMetric
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), by: map[string]*endpointMetric{}}
}

func (m *metrics) record(endpoint string, d time.Duration, isErr bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.by[endpoint]
	if em == nil {
		em = &endpointMetric{}
		m.by[endpoint] = em
	}
	em.count++
	if isErr {
		em.errors++
	}
	em.ring[em.pos] = sample{at: time.Now(), ms: float64(d.Microseconds()) / 1000.0}
	em.pos++
	if em.pos == latencyRingSize {
		em.pos, em.filled = 0, true
	}
}

// EndpointStats is the /stats view of one endpoint.
type EndpointStats struct {
	Count        int64   `json:"count"`
	Errors       int64   `json:"errors"`
	RecentQPS    float64 `json:"recent_qps"`
	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	LatencyMsMax float64 `json:"latency_ms_max"`
}

func (m *metrics) snapshot() map[string]EndpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	out := make(map[string]EndpointStats, len(m.by))
	for name, em := range m.by {
		n := em.pos
		if em.filled {
			n = latencyRingSize
		}
		lat := make([]float64, 0, n)
		oldest := now
		for i := 0; i < n; i++ {
			s := em.ring[i]
			lat = append(lat, s.ms)
			if s.at.Before(oldest) {
				oldest = s.at
			}
		}
		sort.Float64s(lat)
		st := EndpointStats{
			Count:        em.count,
			Errors:       em.errors,
			LatencyMsP50: percentile(lat, 0.50),
			LatencyMsP90: percentile(lat, 0.90),
			LatencyMsP99: percentile(lat, 0.99),
			LatencyMsMax: percentile(lat, 1),
		}
		if window := now.Sub(oldest).Seconds(); window > 0 && n > 0 {
			st.RecentQPS = float64(n) / window
		}
		out[name] = st
	}
	return out
}

// percentile returns the p-quantile of sorted (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// /stats JSON document.

type cacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Evictions int64   `json:"evictions"`
}

func cacheOf(hits, misses, evictions int64) cacheStats {
	cs := cacheStats{Hits: hits, Misses: misses, Evictions: evictions}
	if hits+misses > 0 {
		cs.HitRate = float64(hits) / float64(hits+misses)
	}
	return cs
}

// ShardStats is the /stats view of one shard tree.
type ShardStats struct {
	Len           int        `json:"len"`
	Height        int        `json:"height"`
	Queries       int64      `json:"queries"`
	NodesRead     int64      `json:"nodes_read"`
	EntriesPruned int64      `json:"entries_pruned"`
	DataCompared  int64      `json:"data_compared"`
	Cancellations int64      `json:"cancellations"`
	BufferPool    cacheStats `json:"buffer_pool"`
	NodeCache     cacheStats `json:"node_cache"`
	WALRecords    int64      `json:"wal_records,omitempty"`
	WALCommits    int64      `json:"wal_commits,omitempty"`
	CommitLSN     uint64     `json:"commit_lsn,omitempty"`
	AppliedLSN    uint64     `json:"applied_lsn,omitempty"` // replicas
	PrimaryLSN    uint64     `json:"primary_lsn,omitempty"` // replicas
	Lag           uint64     `json:"lag"`                   // replicas: primary − applied
	LastError     string     `json:"last_error,omitempty"`  // replicas
}

// FollowerStats is the primary's view of one attached follower.
type FollowerStats struct {
	// AppliedLSNs holds the follower's last reported position per shard.
	AppliedLSNs []uint64 `json:"applied_lsns"`
	// Lag sums the per-shard distance to the primary's commit LSNs.
	Lag uint64 `json:"lag"`
}

// CollectionStats is the /stats view of one collection.
type CollectionStats struct {
	Shards    int                      `json:"shards"`
	Partition string                   `json:"partition"`
	Durable   bool                     `json:"durable"`
	Len       int                      `json:"len"`
	Shard     []ShardStats             `json:"shard"`
	Followers map[string]FollowerStats `json:"followers,omitempty"`
}

// StatsReport is the full /stats document.
type StatsReport struct {
	Role          string                     `json:"role"` // "primary" | "replica"
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats   `json:"endpoints"`
	Collections   map[string]CollectionStats `json:"collections"`
	// ReplicationLagTotal sums lag over every replicated shard; on a
	// healthy caught-up follower it is 0. Present only in replica mode.
	ReplicationLagTotal *uint64 `json:"replication_lag_total,omitempty"`
}

// shardStatsOf summarizes one primary shard index.
func shardStatsOf(ix *sgtree.Index) ShardStats {
	c := ix.Counters()
	ps := ix.Tree().Pool().Stats()
	st := ShardStats{
		Len:           ix.Len(),
		Height:        ix.Height(),
		Queries:       c.Queries,
		NodesRead:     c.NodesRead,
		EntriesPruned: c.EntriesPruned,
		DataCompared:  c.DataCompared,
		Cancellations: c.Cancellations,
		BufferPool:    cacheOf(ps.Hits, ps.Misses, ps.Evictions),
		NodeCache:     cacheOf(c.NodeCacheHits, c.NodeCacheMisses, c.NodeCacheEvictions),
		WALRecords:    c.WALRecords,
		WALCommits:    c.WALCommits,
	}
	if w := ix.Tree().Pool().WAL(); w != nil {
		st.CommitLSN = w.LastCommitLSN()
	}
	return st
}
