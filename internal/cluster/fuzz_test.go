package cluster

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"khsim/internal/sim"
)

// FuzzParseManifest parses arbitrary text as a cluster manifest. It must
// not panic, and every manifest it accepts must keep the bounds the
// parser documents: at least two nodes, a non-empty node plan, a positive
// finite value behind every [cluster] and [fault] number, and every
// fault of a known kind, firing after boot and no later than the run's
// end. The seed corpus is every shipped manifest and the package's test
// manifest; run the fuzzer with make fuzz.
func FuzzParseManifest(f *testing.F) {
	f.Add(sampleManifest)
	paths, err := filepath.Glob("../../manifests/*.manifest")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped manifests found (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseManifest(text)
		if err != nil {
			return
		}
		if err := manifestBounds(m); err != "" {
			t.Fatalf("accepted manifest breaks a bound: %s\n%s", err, text)
		}
	})
}

// manifestBounds names the first documented bound m breaks, or "".
func manifestBounds(m *ClusterManifest) string {
	switch {
	case m.Nodes < 2:
		return "fewer than 2 nodes"
	case m.NodePlan == "":
		return "empty node plan"
	case math.IsNaN(m.Link.Bandwidth) || math.IsInf(m.Link.Bandwidth, 0) || m.Link.Bandwidth <= 0:
		return "link bandwidth not positive and finite"
	case m.SpinChunk < 0:
		return "negative spin chunk"
	}
	for name, d := range map[string]sim.Duration{
		"link latency": m.Link.Latency, "election timeout": m.Protocol.ElectionMin,
		"election jitter": m.Protocol.ElectionJitter, "heartbeat": m.Protocol.Heartbeat,
		"rpc timeout": m.Protocol.RPCTimeout, "run": m.Run, "propose interval": m.ProposeEvery,
	} {
		if d <= 0 {
			return name + " not positive"
		}
	}
	for _, f := range m.Faults {
		switch {
		case !manifestFaultKinds[f.Kind]:
			return "unknown fault kind " + f.Kind
		case f.At <= 0 || f.At > m.Run:
			return "fault " + f.Kind + " fires outside the run"
		case f.Count < 0 || f.Extra < 0 || f.Window < 0:
			return "fault " + f.Kind + " has a negative parameter"
		}
	}
	return ""
}
