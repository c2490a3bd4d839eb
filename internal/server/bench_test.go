package server

import "testing"

// BenchmarkForwardedVsLocalHit prices the forwarding hop: the same
// warm cache hit served locally by the key's owner versus proxied to
// the owner from a non-owner peer (one extra loopback HTTP round trip
// over the persistent transport). The gap is the per-request cost of
// consistent-hash ownership; docs/PERFORMANCE.md §10 tracks it.
func BenchmarkForwardedVsLocalHit(b *testing.B) {
	if testing.Short() {
		// At -benchtime 1x the single request measures fleet boot,
		// transport dial and first-touch costs, not a warm hit — noise
		// the bench-short gate would misread as a regression.
		b.Skip("request-level benchmark is warmup-dominated at one iteration")
	}
	f := newTestFleet(b, 2, nil)
	spec := paperSpec(16)
	owner := f.ownerOf(b, spec)
	other := f.nonOwner(b, owner)
	// One real fill, so both paths below are pure cache hits.
	if st, _, _ := f.post(b, owner, "/v1/blocking", spec, nil); st != 200 {
		b.Fatalf("warm fill: status %d", st)
	}
	for _, bc := range []struct {
		name string
		id   string
	}{{"local", owner}, {"forwarded", other}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if st, _, _ := f.post(b, bc.id, "/v1/blocking", spec, nil); st != 200 {
					b.Fatalf("status %d", st)
				}
			}
		})
	}
}

// BenchmarkClusterAggregateHitRate drives a zipf-ish repeated workload
// (8 distinct switches, requests round-robined across a 3-node fleet)
// and reports the fleet-wide aggregate hit rate as hits/op. With
// consistent-hash ownership every distinct key fills exactly once
// fleet-wide, so the aggregate hit rate approaches 1 - 8/requests;
// without forwarding each node would fill its own copy (3x the misses
// and a hit rate flat in node count — the regression this PR removes).
func BenchmarkClusterAggregateHitRate(b *testing.B) {
	if testing.Short() {
		// One iteration is one request — a guaranteed miss plus fleet
		// boot; there is no hit rate to measure.
		b.Skip("hit-rate benchmark is meaningless at one iteration")
	}
	f := newTestFleet(b, 3, nil)
	specs := make([]SwitchSpec, 8)
	for i := range specs {
		specs[i] = paperSpec(4 + 2*i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := f.ids[i%len(f.ids)]
		if st, _, _ := f.post(b, id, "/v1/blocking", specs[i%len(specs)], nil); st != 200 {
			b.Fatalf("status %d", st)
		}
	}
	b.StopTimer()
	var hits, misses int64
	for _, s := range f.srvs {
		hits += s.metrics.cacheHits.Load() + s.metrics.cacheShared.Load()
		misses += s.metrics.cacheMisses.Load()
	}
	if misses > int64(len(specs)) {
		b.Fatalf("fleet misses = %d, want <= %d (one fill per distinct key)", misses, len(specs))
	}
	b.ReportMetric(float64(hits)/float64(hits+misses), "hitrate")
}
