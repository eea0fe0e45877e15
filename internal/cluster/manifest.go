package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"khsim/internal/net"
	"khsim/internal/sim"
)

// ManifestFault is one scheduled fault in a cluster manifest: a VM kill
// or a network fault, fired at an absolute offset from boot. Targets:
//
//	crash      "leader" (resolved at fire time), "follower", or "node<N>"
//	partition  "node<N>", "leader" or "follower" (resolved at fire time)
//	heal       "node<N>" or "partitioned" (every partitioned node)
//	netdrop    "node<N>" (+ count)
//	netdelay   "node<N>" (+ extra_us, window_ms)
type ManifestFault struct {
	Kind   string
	Target string
	At     sim.Duration
	Count  int
	Extra  sim.Duration
	Window sim.Duration
}

// ClusterManifest is the parsed form of a cluster manifest: rack shape,
// link and protocol parameters, the per-node Hafnium partition plan
// (embedded [vm ...] sections, identical on every node), and the fault
// schedule.
type ClusterManifest struct {
	Nodes        int
	Link         net.LinkConfig
	Protocol     Config // Seed is filled in by the runner
	ReplicaVM    string
	Run          sim.Duration
	ProposeEvery sim.Duration
	// SpinChunk, when positive, chunks each replica VM's spin workload at
	// this granularity (noise.Selfish.ChunkTime) instead of one long
	// burn, giving every node a dense event stream (the cluster
	// benchmark's 8-node shape uses 40 µs); zero keeps the sparse
	// default.
	SpinChunk sim.Duration
	// NodePlan is the embedded per-node Hafnium manifest text.
	NodePlan string
	Faults   []ManifestFault
}

var manifestFaultKinds = map[string]bool{
	"crash": true, "partition": true, "heal": true, "netdrop": true, "netdelay": true,
}

// ParseManifest reads the cluster manifest format: a [cluster] section
// with rack/link/protocol keys, ordinary [vm ...] sections forming the
// per-node partition plan, and [fault <kind>] sections scheduling the
// failure campaign:
//
//	[cluster]
//	nodes = 3
//	link_latency_us = 50
//	link_bandwidth_mbps = 1000
//	replica_vm = attest
//	run_ms = 1500
//
//	[vm primary]
//	class = primary
//	...
//
//	[fault partition]
//	target = node2
//	at_ms = 500
//
// Comments start with '#'. The [vm ...] sections pass through verbatim
// to hafnium.ParseManifest on every node.
func ParseManifest(text string) (*ClusterManifest, error) {
	m := &ClusterManifest{
		Nodes:        3,
		Link:         net.DefaultLink(),
		Protocol:     DefaultConfig(0),
		ReplicaVM:    "attest",
		Run:          sim.FromSeconds(1.5),
		ProposeEvery: sim.FromMicros(10000),
	}
	var plan strings.Builder
	section := "" // "", "cluster", "vm", or "fault"
	var fault *ManifestFault
	flushFault := func() {
		if fault != nil {
			m.Faults = append(m.Faults, *fault)
			fault = nil
		}
	}
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("cluster: manifest line %d: unterminated section", ln+1)
			}
			flushFault()
			parts := strings.Fields(strings.Trim(line, "[]"))
			switch {
			case len(parts) == 1 && parts[0] == "cluster":
				section = "cluster"
			case len(parts) == 2 && parts[0] == "vm":
				section = "vm"
				fmt.Fprintf(&plan, "\n%s\n", line)
			case len(parts) == 2 && parts[0] == "fault":
				if !manifestFaultKinds[parts[1]] {
					return nil, fmt.Errorf("cluster: manifest line %d: unknown fault kind %q", ln+1, parts[1])
				}
				section = "fault"
				fault = &ManifestFault{Kind: parts[1]}
			default:
				return nil, fmt.Errorf("cluster: manifest line %d: expected [cluster], [vm <name>] or [fault <kind>]", ln+1)
			}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: manifest line %d: expected key = value", ln+1)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch section {
		case "vm":
			fmt.Fprintf(&plan, "%s = %s\n", key, val)
		case "cluster":
			if err := m.clusterKey(key, val); err != nil {
				return nil, fmt.Errorf("cluster: manifest line %d: %w", ln+1, err)
			}
		case "fault":
			if err := faultKey(fault, key, val); err != nil {
				return nil, fmt.Errorf("cluster: manifest line %d: %w", ln+1, err)
			}
		default:
			return nil, fmt.Errorf("cluster: manifest line %d: key %q outside any section", ln+1, key)
		}
	}
	flushFault()
	m.NodePlan = plan.String()
	if m.NodePlan == "" {
		return nil, fmt.Errorf("cluster: manifest has no [vm ...] sections")
	}
	if m.Nodes < 2 {
		return nil, fmt.Errorf("cluster: manifest needs at least 2 nodes, got %d", m.Nodes)
	}
	for i, f := range m.Faults {
		if f.At <= 0 {
			return nil, fmt.Errorf("cluster: fault %d (%s) needs a positive at_ms", i, f.Kind)
		}
		if f.At > m.Run {
			return nil, fmt.Errorf("cluster: fault %d (%s) fires at %v, after the %v run", i, f.Kind, f.At, m.Run)
		}
	}
	return m, nil
}

func (m *ClusterManifest) clusterKey(key, val string) error {
	switch key {
	case "nodes":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("nodes: %v", err)
		}
		m.Nodes = n
	case "link_latency_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Link.Latency = sim.FromMicros(v)
	case "link_bandwidth_mbps":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Link.Bandwidth = v * 1e6
	case "election_timeout_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Protocol.ElectionMin = sim.FromMicros(v)
	case "election_jitter_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Protocol.ElectionJitter = sim.FromMicros(v)
	case "heartbeat_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Protocol.Heartbeat = sim.FromMicros(v)
	case "rpc_timeout_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Protocol.RPCTimeout = sim.FromMicros(v)
	case "replica_vm":
		m.ReplicaVM = val
	case "run_ms":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.Run = sim.FromMicros(v * 1000)
	case "propose_interval_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.ProposeEvery = sim.FromMicros(v)
	case "spin_chunk_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		m.SpinChunk = sim.FromMicros(v)
	default:
		return fmt.Errorf("unknown [cluster] key %q", key)
	}
	return nil
}

// positive parses a manifest number that must be finite and above zero.
// ParseFloat accepts NaN and the infinities, and NaN fails every
// comparison, so "v <= 0" alone lets it through; every value here
// becomes a simulated duration or a link rate.
func positive(key, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return 0, fmt.Errorf("%s: want a positive number, got %q", key, val)
	}
	return v, nil
}

func faultKey(f *ManifestFault, key, val string) error {
	switch key {
	case "target":
		f.Target = val
	case "at_ms":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		f.At = sim.FromMicros(v * 1000)
	case "count":
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return fmt.Errorf("count: want a positive integer, got %q", val)
		}
		f.Count = n
	case "extra_us":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		f.Extra = sim.FromMicros(v)
	case "window_ms":
		v, err := positive(key, val)
		if err != nil {
			return err
		}
		f.Window = sim.FromMicros(v * 1000)
	default:
		return fmt.Errorf("unknown [fault] key %q", key)
	}
	return nil
}
