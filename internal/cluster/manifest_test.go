package cluster

import (
	"strings"
	"testing"

	"khsim/internal/sim"
)

const sampleManifest = `
# example rack
[cluster]
nodes = 3
link_latency_us = 25
link_bandwidth_mbps = 500
election_timeout_us = 5000
heartbeat_us = 1000
replica_vm = attest
run_ms = 250
propose_interval_us = 2000

[vm primary]
class = primary
vcpus = 2
memory_mb = 128

[vm attest]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
restart_backoff_us = 20000

[fault crash]
target = leader
at_ms = 100

[fault partition]
target = node2
at_ms = 150

[fault netdelay]
target = node1
at_ms = 50
extra_us = 200
window_ms = 2
`

func TestParseManifest(t *testing.T) {
	m, err := ParseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 3 || m.ReplicaVM != "attest" {
		t.Fatalf("nodes=%d replica=%q", m.Nodes, m.ReplicaVM)
	}
	if m.Link.Latency != sim.FromMicros(25) || m.Link.Bandwidth != 500e6 {
		t.Fatalf("link = %+v", m.Link)
	}
	if m.Protocol.ElectionMin != sim.FromMicros(5000) || m.Protocol.Heartbeat != sim.FromMicros(1000) {
		t.Fatalf("protocol = %+v", m.Protocol)
	}
	if m.Run != sim.FromMicros(250000) || m.ProposeEvery != sim.FromMicros(2000) {
		t.Fatalf("run=%v every=%v", m.Run, m.ProposeEvery)
	}
	if len(m.Faults) != 3 {
		t.Fatalf("faults = %+v", m.Faults)
	}
	if f := m.Faults[0]; f.Kind != "crash" || f.Target != "leader" || f.At != sim.FromMicros(100000) {
		t.Fatalf("fault 0 = %+v", f)
	}
	if f := m.Faults[2]; f.Extra != sim.FromMicros(200) || f.Window != sim.FromMicros(2000) {
		t.Fatalf("fault 2 = %+v", f)
	}
	// The embedded node plan survives verbatim (comments aside).
	for _, want := range []string{"[vm primary]", "[vm attest]", "restart_backoff_us = 20000"} {
		if !strings.Contains(m.NodePlan, want) {
			t.Fatalf("node plan missing %q:\n%s", want, m.NodePlan)
		}
	}
}

func TestParseManifestRejects(t *testing.T) {
	cases := map[string]string{
		"no vm sections":   "[cluster]\nnodes = 3\n",
		"one node":         "[cluster]\nnodes = 1\n[vm primary]\nclass = primary\n",
		"unknown kind":     "[vm primary]\nclass = primary\n[fault meteor]\nat_ms = 1\n",
		"unknown key":      "[cluster]\nwat = 1\n[vm primary]\nclass = primary\n",
		"key outside":      "nodes = 3\n[vm primary]\nclass = primary\n",
		"fault without at": "[vm primary]\nclass = primary\n[fault crash]\ntarget = leader\n",
		"fault past end":   "[cluster]\nrun_ms = 10\n[vm primary]\nclass = primary\n[fault crash]\nat_ms = 50\n",
		"bad number":       "[cluster]\nrun_ms = banana\n[vm primary]\nclass = primary\n",
	}
	for name, text := range cases {
		if _, err := ParseManifest(text); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}

// TestParseManifestRejectsNonFinite feeds NaN and both infinities to
// every float key. ParseFloat accepts all three, and NaN slips past a
// plain "v <= 0" check, so each key needs its own rejection.
func TestParseManifestRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ section, key string }{
		{"[cluster]", "link_latency_us"},
		{"[cluster]", "link_bandwidth_mbps"},
		{"[cluster]", "election_timeout_us"},
		{"[cluster]", "election_jitter_us"},
		{"[cluster]", "heartbeat_us"},
		{"[cluster]", "rpc_timeout_us"},
		{"[cluster]", "run_ms"},
		{"[cluster]", "propose_interval_us"},
		{"[cluster]", "spin_chunk_us"},
		{"[fault netdelay]", "at_ms"},
		{"[fault netdelay]", "extra_us"},
		{"[fault netdelay]", "window_ms"},
	} {
		for _, val := range []string{"NaN", "Inf", "-Inf"} {
			line := tc.key + " = " + val
			text := strings.Replace(sampleManifest, tc.section+"\n", tc.section+"\n"+line+"\n", 1)
			_, err := ParseManifest(text)
			if err == nil || !strings.Contains(err.Error(), tc.key) {
				t.Errorf("%s %q: err = %v, want a rejection naming %s", tc.section, line, err, tc.key)
			}
		}
	}
}
