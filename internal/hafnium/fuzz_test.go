package hafnium

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzParseManifest parses arbitrary text as a partition manifest. An
// accepted manifest must pass Validate, and Format must render it as
// text that parses back to the same manifest once both VM lists are in
// Format's class order. The seed corpus is every shipped manifest, the
// package's test manifests and testdata/fuzz/FuzzParseManifest; run the
// fuzzer with make fuzz.
func FuzzParseManifest(f *testing.F) {
	for _, text := range []string{
		sampleManifest, basicManifest, twoSecondaryManifest, watchdogManifest,
		quarantineNowManifest, unlimitedRestartManifest, shareManifest,
		migStandbyManifest, recycleManifest, warmRestartManifest,
	} {
		f.Add(text)
	}
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
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v\n%s", err, text)
		}
		out := m.Format()
		back, err := ParseManifest(out)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\ninput:\n%s\nformatted:\n%s", err, text, out)
		}
		if want, got := inClassOrder(m), inClassOrder(back); !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip changed the manifest:\nparsed    %+v\nreparsed  %+v\nformatted:\n%s", want, got, out)
		}
	})
}

// inClassOrder is a copy of m with its VMs stably sorted by class, the
// order Format writes them in.
func inClassOrder(m *Manifest) Manifest {
	c := *m
	c.VMs = append([]VMSpec(nil), m.VMs...)
	sort.SliceStable(c.VMs, func(i, j int) bool { return c.VMs[i].Class < c.VMs[j].Class })
	return c
}
