package stats

import "repro/internal/metrics"

// RegisterMetrics exports every field of the cache/TLB statistics block as
// a function-backed counter under prefix ("l1d", "stlb", ...). The struct
// stays the component's working storage; the registry samples it at
// snapshot time, so the hot path is unchanged.
func (s *CacheStats) RegisterMetrics(r *metrics.Registry, prefix string) {
	reg := func(name string, f *uint64) {
		r.CounterFunc(prefix+"."+name, func() uint64 { return *f })
	}
	reg("demand_accesses", &s.DemandAccesses)
	reg("demand_hits", &s.DemandHits)
	reg("demand_misses", &s.DemandMisses)
	reg("prefetch_hits", &s.PrefetchHits)
	reg("prefetch_fills", &s.PrefetchFills)
	reg("useful_prefetches", &s.UsefulPrefetches)
	reg("useless_prefetches", &s.UselessPrefetches)
	reg("evictions", &s.Evictions)
	reg("writebacks", &s.Writebacks)
	reg("demand_latency_sum", &s.DemandLatencySum)
	reg("mshr_full_waits", &s.MSHRFullWaits)
	reg("mshr_drop_prefetch", &s.MSHRDropPrefetch)
	reg("pgc_issued", &s.PGCIssued)
	reg("pgc_useful", &s.PGCUseful)
	reg("pgc_useless", &s.PGCUseless)
	reg("pgc_dropped", &s.PGCDropped)
}

// RegisterMetrics exports the core statistics block under prefix ("core").
func (s *CoreStats) RegisterMetrics(r *metrics.Registry, prefix string) {
	reg := func(name string, f *uint64) {
		r.CounterFunc(prefix+"."+name, func() uint64 { return *f })
	}
	reg("cycles", &s.Cycles)
	reg("instructions", &s.Instructions)
	reg("loads", &s.Loads)
	reg("stores", &s.Stores)
	reg("rob_stall_cycles", &s.ROBStallCycles)
	reg("rob_occupancy_sum", &s.ROBOccupancy)
	reg("branches", &s.Branches)
	reg("mispredicts", &s.Mispredicts)
}

// RegisterMetrics exports the page-walker statistics block under prefix
// ("ptw").
func (s *PTWStats) RegisterMetrics(r *metrics.Registry, prefix string) {
	reg := func(name string, f *uint64) {
		r.CounterFunc(prefix+"."+name, func() uint64 { return *f })
	}
	reg("walks", &s.Walks)
	reg("speculative_walks", &s.SpeculativeWalks)
	reg("walk_mem_accesses", &s.WalkMemAccesses)
	reg("psc_hits", &s.PSCHits)
}
