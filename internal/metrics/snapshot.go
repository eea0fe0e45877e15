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

// Snapshot is a point-in-time, canonically ordered copy of a registry.
// Equal registries produce byte-identical WriteText/WriteJSON output,
// which is what the determinism gate diffs.
type Snapshot struct {
	Counters      []CounterPoint `json:"counters"`
	Gauges        []GaugePoint   `json:"gauges"`
	DroppedSeries uint64         `json:"dropped_series"`

	// reg is the registry the snapshot read, and counters and gauges are
	// the instruments behind the points, index for index:
	// Registry.Restore writes the values back through them.
	reg      *Registry
	counters []*Counter
	gauges   []*Gauge
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
//	gauge tlb.invalidations{core=0} 3
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
