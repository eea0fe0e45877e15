package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// profLayers maps a leaf frame's package to the layer its self time is
// charged to; packages not listed count as "other".
var profLayers = map[string]string{
	"khsim/internal/sim":      "sim",
	"khsim/internal/machine":  "machine",
	"khsim/internal/gic":      "machine",
	"khsim/internal/timer":    "machine",
	"khsim/internal/mem":      "machine",
	"khsim/internal/device":   "machine",
	"khsim/internal/mmu":      "mmu",
	"khsim/internal/hafnium":  "hafnium",
	"khsim/internal/kernel":   "kernel",
	"khsim/internal/kitten":   "kernel",
	"khsim/internal/linuxos":  "kernel",
	"khsim/internal/osapi":    "kernel",
	"khsim/internal/workload": "workload",
	"khsim/internal/noise":    "workload",
	"khsim/internal/serve":    "serve",
	"khsim/internal/cluster":  "cluster",
	"khsim/internal/net":      "cluster",
	"khsim/internal/tz":       "crypto",
}

// profSelf lists the self-time buckets in report order.
var profSelf = []string{"sim", "machine", "mmu", "hafnium", "kernel", "workload", "serve", "cluster", "crypto", "map", "gc", "other"}

// profCum are the cumulative shares: the part of all samples with at
// least one frame the predicate accepts anywhere on the stack.
var profCum = []struct {
	name string
	in   func(frame string) bool
}{
	{"construct", func(f string) bool {
		switch f {
		case "khsim/internal/core.NewSecureNode", "khsim/internal/core.NewNativeNode",
			"khsim/internal/core.(*SecureNode).AttachGuest", "khsim/internal/core.(*SecureNode).Boot",
			"khsim/internal/machine.New", "khsim/internal/machine.NewCluster", "khsim/internal/serve.NewPool":
			return true
		}
		return false
	}},
	{"sign", func(f string) bool {
		return strings.HasPrefix(f, "crypto/ed25519.") || strings.HasPrefix(f, "crypto/internal/fips140/ed25519.")
	}},
	{"snapshot", func(f string) bool {
		switch f {
		case "khsim/internal/machine.(*Node).Snapshot", "khsim/internal/machine.(*Node).Restore",
			"khsim/internal/machine.(*Node).Fork", "khsim/internal/machine.(*Cluster).Snapshot",
			"khsim/internal/machine.(*Cluster).Restore":
			return true
		}
		return false
	}},
}

// profSample is one stack of a CPU profile with the time it was sampled.
type profSample struct {
	weight time.Duration
	stack  []string // leaf first
}

// profileShares buckets a CPU profile with the local toolchain's
// `go tool pprof -traces` into the prof.* metrics.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	samples, perr := parseTraces(stdout)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, stderr.String())
	}
	if perr != nil {
		return nil, perr
	}
	return bucketSamples(samples), nil
}

// parseTraces reads `go tool pprof -traces` output: a header, then one
// block per distinct stack, separated by dashed lines, whose first line
// carries the sampled time and the leaf frame and whose further lines are
// the callers.
func parseTraces(r io.Reader) ([]profSample, error) {
	var (
		out []profSample
		cur *profSample
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case cur == nil && len(fields) >= 2 && strings.HasPrefix(line, " "):
			w, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace line %q: %v", line, err)
			}
			out = append(out, profSample{weight: w, stack: []string{fields[1]}})
			cur = &out[len(out)-1]
		case cur != nil:
			cur.stack = append(cur.stack, fields[0])
		}
	}
	return out, sc.Err()
}

// bucketSamples turns samples into prof.* percentages: the self buckets
// sum to 100.
func bucketSamples(samples []profSample) map[string]float64 {
	var total time.Duration
	self := make(map[string]time.Duration)
	cum := make(map[string]time.Duration)
	for _, s := range samples {
		total += s.weight
		self[layerOf(s.stack)] += s.weight
		for _, c := range profCum {
			for _, f := range s.stack {
				if c.in(f) {
					cum[c.name] += s.weight
					break
				}
			}
		}
	}
	out := make(map[string]float64)
	pct := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	for _, b := range profSelf {
		out["prof."+b+"_pct"] = pct(self[b])
	}
	for _, c := range profCum {
		out["prof.cum."+c.name+"_pct"] = pct(cum[c.name])
	}
	return out
}

// layerOf charges a stack's self time: to gc when the garbage collector
// is anywhere on it, to map for the runtime's map internals, and
// otherwise by the leaf frame's package.
func layerOf(stack []string) string {
	for _, f := range stack {
		if isGC(f) {
			return "gc"
		}
	}
	leaf := stack[0]
	for _, p := range []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.aeshash", "aeshashbody",
		"runtime.strhash", "runtime.evacuate", "runtime.growWork", "runtime.hashGrow", "runtime.makemap", "runtime.(*hmap)"} {
		if strings.HasPrefix(leaf, p) {
			return "map"
		}
	}
	pkg := packageOf(leaf)
	if l, ok := profLayers[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "crypto/") {
		return "crypto"
	}
	return "other"
}

// isGC reports whether a frame belongs to the garbage collector, write
// barriers included.
func isGC(f string) bool {
	switch f {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.GC":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.(*gc") ||
		strings.HasPrefix(f, "runtime.markroot") || strings.HasPrefix(f, "runtime.scanobject") ||
		strings.HasPrefix(f, "gcWriteBarrier") || strings.HasPrefix(f, "runtime.wbBuf")
}

// packageOf is a function name's package path:
// "khsim/internal/hafnium.(*Hypervisor).buildVM" → "khsim/internal/hafnium".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}
