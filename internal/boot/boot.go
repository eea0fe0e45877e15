// Package boot models the trusted boot chain the paper's security
// argument rests on (§II-b): BL1 → BL2 → BL31 (EL3 monitor) → Hafnium
// (EL2) → primary VM, each stage measuring the next before handing off.
// It also implements the paper's §VII future-work proposal: verifying VM
// images supplied after boot against a public key baked into the trusted
// chain, so dynamically launched partitions keep a provenance guarantee.
package boot

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
)

// Stage names the links of the chain in boot order.
type Stage int

// Boot chain stages.
const (
	BL1       Stage = iota // boot ROM
	BL2                    // trusted firmware loader
	BL31                   // EL3 secure monitor
	SPM                    // Hafnium at EL2
	PrimaryVM              // the scheduling VM (Kitten in our architecture)
	numStages
)

// String names the stage as the boot chain does: "BL1", "BL2", "BL31",
// "SPM" or "PrimaryVM".
func (s Stage) String() string {
	switch s {
	case BL1:
		return "BL1"
	case BL2:
		return "BL2"
	case BL31:
		return "BL31"
	case SPM:
		return "SPM"
	case PrimaryVM:
		return "PrimaryVM"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Image is a loadable payload with optional signature.
type Image struct {
	Name      string
	Payload   []byte
	Signature []byte // ed25519 over the payload digest; empty = unsigned
}

// Digest returns the image's sha256 measurement.
func (im Image) Digest() [32]byte { return sha256.Sum256(im.Payload) }

// MeasurementLog records what was measured into the chain, TPM-style.
type MeasurementLog struct {
	Entries []LogEntry
}

// LogEntry is one extend operation.
type LogEntry struct {
	Stage  Stage
	Name   string
	Digest [32]byte
}

// Chain is a measured boot in progress: a running hash extended by each
// stage, and the stage currently in control.
type Chain struct {
	current Stage
	pcr     [32]byte
	log     MeasurementLog
	rootKey ed25519.PublicKey // provisioned in BL1: verifies late-loaded VM images
	sealed  bool
}

// NewChain starts a boot at BL1. rootKey (may be nil) is the public key
// the chain will trust for post-boot VM image verification.
func NewChain(rootKey ed25519.PublicKey) *Chain {
	return &Chain{current: BL1, rootKey: rootKey}
}

// Current reports the stage in control.
func (c *Chain) Current() Stage { return c.current }

// PCR reports the running measurement (hash chain of everything loaded).
func (c *Chain) PCR() [32]byte { return c.pcr }

// Log returns the measurement log.
func (c *Chain) Log() MeasurementLog { return c.log }

// Sealed reports whether HandOff reached the primary VM.
func (c *Chain) Sealed() bool { return c.sealed }

// extend folds a digest into the PCR: pcr' = H(pcr || digest).
func (c *Chain) extend(stage Stage, name string, digest [32]byte) {
	h := sha256.New()
	h.Write(c.pcr[:])
	h.Write(digest[:])
	copy(c.pcr[:], h.Sum(nil))
	c.log.Entries = append(c.log.Entries, LogEntry{Stage: stage, Name: name, Digest: digest})
}

// HandOff measures next's image and transfers control to it. Stages must
// run strictly in order; once the primary VM is reached the chain seals.
func (c *Chain) HandOff(next Stage, img Image) error {
	if c.sealed {
		return fmt.Errorf("boot: chain already sealed")
	}
	if next != c.current+1 {
		return fmt.Errorf("boot: cannot hand off %v → %v (stages must be sequential)", c.current, next)
	}
	if len(img.Payload) == 0 {
		return fmt.Errorf("boot: empty image for stage %v", next)
	}
	c.extend(next, img.Name, img.Digest())
	c.current = next
	if next == PrimaryVM {
		c.sealed = true
	}
	return nil
}

// Attestation is the evidence a verifier checks: the final PCR and log.
type Attestation struct {
	PCR [32]byte
	Log MeasurementLog
}

// Attest produces the chain's attestation. Only a sealed chain attests.
func (c *Chain) Attest() (Attestation, error) {
	if !c.sealed {
		return Attestation{}, fmt.Errorf("boot: attestation before boot completes")
	}
	return Attestation{PCR: c.pcr, Log: c.log}, nil
}

// ReplayLog recomputes the PCR from a log; a verifier compares it to the
// attested PCR to validate the log's integrity.
func ReplayLog(log MeasurementLog) [32]byte {
	var pcr [32]byte
	for _, e := range log.Entries {
		h := sha256.New()
		h.Write(pcr[:])
		h.Write(e.Digest[:])
		copy(pcr[:], h.Sum(nil))
	}
	return pcr
}

// VerifyImage checks a post-boot VM image against the chain's provisioned
// root key — the paper's proposed mechanism for launching VMs supplied
// after the system has booted. It returns the image digest on success so
// the caller can log it.
func (c *Chain) VerifyImage(img Image) ([32]byte, error) {
	if c.rootKey == nil {
		return [32]byte{}, fmt.Errorf("boot: no root key provisioned; late VM launch unavailable")
	}
	if len(img.Signature) == 0 {
		return [32]byte{}, fmt.Errorf("boot: image %q is unsigned", img.Name)
	}
	d := img.Digest()
	if !ed25519.Verify(c.rootKey, d[:], img.Signature) {
		return [32]byte{}, fmt.Errorf("boot: image %q signature invalid", img.Name)
	}
	return d, nil
}

// SignImage signs an image payload with the vendor's private key,
// producing the Signature field VerifyImage expects. Used by tooling and
// tests; a real deployment signs offline.
func SignImage(priv ed25519.PrivateKey, img *Image) {
	d := img.Digest()
	img.Signature = ed25519.Sign(priv, d[:])
}
