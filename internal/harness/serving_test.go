package harness

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"khsim/internal/serve"
	"khsim/internal/sim"
)

// TestShippedServingManifest keeps manifests/serving.manifest in sync
// with the built-in scenario: same parse, same plan, same rates.
func TestShippedServingManifest(t *testing.T) {
	b, err := os.ReadFile("../../manifests/serving.manifest")
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := serve.ParseManifest(string(b))
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := serve.ParseManifest(ServingManifestText)
	if err != nil {
		t.Fatal(err)
	}
	if shipped.NodePlan != builtin.NodePlan || len(shipped.Rates) != len(builtin.Rates) ||
		shipped.TTL != builtin.TTL || shipped.WarmPool != builtin.WarmPool {
		t.Fatal("shipped serving manifest drifted from the built-in scenario")
	}
}

// TestShippedServingCrashManifest keeps manifests/serving-crash.manifest
// in sync with the built-in scenario: the same configuration with the
// crash campaign on at a 20 ms mean. Its seed-1 sweep replays jobs and
// passes Check.
func TestShippedServingCrashManifest(t *testing.T) {
	b, err := os.ReadFile("../../manifests/serving-crash.manifest")
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := serve.ParseManifest(string(b))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.ParseManifest(ServingManifestText)
	if err != nil {
		t.Fatal(err)
	}
	want.CrashMean = sim.FromMicros(20000)
	if !reflect.DeepEqual(shipped, want) {
		t.Fatal("shipped serving-crash manifest is not the built-in scenario with crash_mean_ms = 20")
	}
	r, err := RunServingManifest(string(b), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Summary())
	}
	replayed := 0
	for _, c := range r.Cells {
		replayed += c.Report.Stats.Replayed
	}
	if replayed == 0 {
		t.Fatalf("the crash campaign replayed no job:\n%s", r.Summary())
	}
}

// TestServingSweep is the headline serving experiment: both primary
// kernels, every arrival rate, jobs flowing end to end through the
// login-VM admission hop into the recycled environment pool, with the
// warm fork beating the cold boot across the sweep.
func TestServingSweep(t *testing.T) {
	r, err := RunServingSweep(42)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("%v\n%s", err, r.Summary())
	}
	if len(r.Cells) != 2*len(r.Rates) {
		t.Fatalf("sweep produced %d cells for %d rates", len(r.Cells), len(r.Rates))
	}
	if !strings.Contains(r.Artifact(), "cell primary=linux") {
		t.Fatal("artifact lost the linux half of the sweep")
	}
	// Higher arrival rates must complete more jobs within the fixed run
	// window, for both primaries.
	for _, prim := range []string{"kitten", "linux"} {
		last := -1
		for _, c := range r.Cells {
			if c.Primary != prim {
				continue
			}
			if c.Report.Stats.Completed <= last {
				t.Fatalf("%s: completions not increasing with rate:\n%s", prim, r.Summary())
			}
			last = c.Report.Stats.Completed
		}
	}
}

// TestServingSweepSignedLedger pins the signed-pool contract in the
// sweep: every cell's boot/reap/crash records went through the TEE
// signing path and verified record by record.
func TestServingSweepSignedLedger(t *testing.T) {
	r, err := RunServingSweep(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		s := c.Report.Stats
		if s.SigVerified == 0 {
			t.Fatalf("cell %s/%g: no record went through the signing path", c.Primary, c.Rate)
		}
		if s.SigFailed != 0 {
			t.Fatalf("cell %s/%g: %d records failed verification", c.Primary, c.Rate, s.SigFailed)
		}
		if c.Report.LedgerLen == 0 {
			t.Fatalf("cell %s/%g: empty attestation ledger", c.Primary, c.Rate)
		}
	}
}
