package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Key   Key    `json:"key"`
	Value uint64 `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Key   Key     `json:"key"`
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot.
type HistogramPoint struct {
	Key      Key      `json:"key"`
	Lo       float64  `json:"lo"`
	Hi       float64  `json:"hi"`
	Under    uint64   `json:"under"`
	Over     uint64   `json:"over"`
	Buckets  []uint64 `json:"buckets"`
	Observed uint64   `json:"observed"`
}

// Snapshot is a point-in-time, canonically ordered copy of a registry.
// Equal registries produce byte-identical WriteText/WriteJSON output,
// which is what the determinism gate diffs.
type Snapshot struct {
	Counters      []CounterPoint   `json:"counters"`
	Gauges        []GaugePoint     `json:"gauges"`
	Histograms    []HistogramPoint `json:"histograms"`
	DroppedSeries uint64           `json:"dropped_series"`

	// reg is the registry the snapshot read, and counters, gauges and
	// hists are the instruments behind the points, index for index:
	// Registry.Restore writes the values back through them.
	reg      *Registry
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// Snapshot copies every series out of the registry in canonical
// (subsystem, name, vm, core) order.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{DroppedSeries: r.dropped, reg: r}
	for _, k := range r.sortedCounterKeys() {
		c := r.counters[k]
		s.Counters = append(s.Counters, CounterPoint{Key: k, Value: c.v})
		s.counters = append(s.counters, c)
	}
	for _, k := range r.sortedGaugeKeys() {
		g := r.gauges[k]
		s.Gauges = append(s.Gauges, GaugePoint{Key: k, Value: g.v})
		s.gauges = append(s.gauges, g)
	}
	for _, k := range r.sortedHistKeys() {
		h := r.hists[k]
		s.Histograms = append(s.Histograms, HistogramPoint{
			Key: k, Lo: h.Lo, Hi: h.Hi, Under: h.under, Over: h.over,
			Buckets: h.Buckets(), Observed: h.observed,
		})
		s.hists = append(s.hists, h)
	}
	return s
}

// Counter finds a counter point by key; ok is false if absent.
func (s *Snapshot) Counter(k Key) (uint64, bool) {
	for _, p := range s.Counters {
		if p.Key == k {
			return p.Value, true
		}
	}
	return 0, false
}

// Gauge finds a gauge point by key; ok is false if absent.
func (s *Snapshot) Gauge(k Key) (float64, bool) {
	for _, p := range s.Gauges {
		if p.Key == k {
			return p.Value, true
		}
	}
	return 0, false
}

// WriteText emits the snapshot in a deterministic line-oriented format,
// one series per line, made for diffing and for the figure sidecars:
//
//	counter el2.world_switches{vm=job} 42
//	gauge tlb.hits{core=0} 1234
//	hist shmring.push_bytes{vm=producer} lo=0 hi=65536 under=0 over=0 n=12 buckets=3|9
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, p := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", p.Key, p.Value); err != nil {
			return err
		}
	}
	for _, p := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", p.Key, p.Value); err != nil {
			return err
		}
	}
	for _, p := range s.Histograms {
		cells := make([]string, len(p.Buckets))
		for i, b := range p.Buckets {
			cells[i] = fmt.Sprintf("%d", b)
		}
		_, err := fmt.Fprintf(w, "hist %s lo=%g hi=%g under=%d over=%d n=%d buckets=%s\n",
			p.Key, p.Lo, p.Hi, p.Under, p.Over, p.Observed, strings.Join(cells, "|"))
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "dropped_series %d\n", s.DroppedSeries)
	return err
}

// Text renders WriteText to a string.
func (s *Snapshot) Text() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}

// WriteJSON emits the snapshot as indented JSON (struct-based, so field
// order is fixed and the output is deterministic).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
