package metrics

// Restore rewinds the registry to a snapshot previously taken from it.
//
// Instruments are never recreated: callers cache *Counter/*Gauge/
// *Histogram pointers at construction, so Restore writes the recorded
// values back into the live instruments in place, through the
// instrument pointers the snapshot recorded. Series that were registered
// after the snapshot was taken (and therefore have no point in it) are
// zeroed rather than deleted — their cached pointers stay valid and
// simply read as never-touched, which is exactly the state a fresh run
// would see at the snapshot instant. The shared sink instruments are
// left alone: their values are never published, so they cannot affect
// snapshot byte-identity. Restore builds no map and allocates nothing.
//
// Restore participates in node-level snapshot/fork (DESIGN.md §11); it
// is not meant as a general-purpose reset. A snapshot of another
// registry panics.
func (r *Registry) Restore(s *Snapshot) {
	if s.reg != r {
		panic("metrics: Restore of a snapshot taken from another registry")
	}
	for i, c := range s.counters {
		c.v = s.Counters[i].Value
	}
	for i, g := range s.gauges {
		g.v = s.Gauges[i].Value
	}
	for i, h := range s.hists {
		p := &s.Histograms[i]
		copy(h.buckets, p.Buckets)
		h.under, h.over, h.observed = p.Under, p.Over, p.Observed
	}
	// Registration order is append-only, so the series registered after
	// the snapshot are exactly those past its instrument counts.
	for _, c := range r.counterSeq[len(s.counters):] {
		c.v = 0
	}
	for _, g := range r.gaugeSeq[len(s.gauges):] {
		g.v = 0
	}
	for _, h := range r.histSeq[len(s.hists):] {
		clear(h.buckets)
		h.under, h.over, h.observed = 0, 0, 0
	}
	r.dropped = s.DroppedSeries
}
