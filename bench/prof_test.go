package main

import (
	"math"
	"os"
	"testing"
)

func TestBucketCannedTraces(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("parsed %d stacks, want 8", len(samples))
	}
	got := bucketSamples(samples)
	want := map[string]float64{
		"prof.map_pct":           30,
		"prof.crypto_pct":        20,
		"prof.gc_pct":            10,
		"prof.sim_pct":           10,
		"prof.hafnium_pct":       20,
		"prof.other_pct":         10,
		"prof.machine_pct":       0,
		"prof.cum.construct_pct": 30,
		"prof.cum.sign_pct":      20,
		"prof.cum.snapshot_pct":  20,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	sum := 0.0
	for _, b := range profSelf {
		sum += got["prof."+b+"_pct"]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self buckets sum to %v, want 100", sum)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"khsim/internal/hafnium.(*Hypervisor).buildVM": "khsim/internal/hafnium",
		"runtime.mallocgc": "runtime",
		"crypto/internal/fips140/edwards25519/field.feMulGeneric":              "crypto/internal/fips140/edwards25519/field",
		"slices.SortFunc[go.shape.[]*khsim/internal/sim.slot,go.shape.*uint8]": "slices",
		"main.main": "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
