package tz

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Signed attestation records. The paper's trusted launch path has the
// secure world vouch for what runs on a node; here each node's secure
// monitor holds a deterministic ed25519 identity key and signs the
// lifecycle payloads it proposes to the replicated attestation ledger —
// in particular the migration records, so a migrated VM's provenance
// chain ("released on node 1, admitted on node 2") carries a verifiable
// signature from each side. Ed25519 signing is deterministic (RFC 8032),
// so signed payloads preserve the byte-identical-runs property.
//
// A node re-attests a ledger that has not changed as often as one that
// has, so the same payload often comes to be signed, and then verified,
// again and again. Signer and Keyring each remember their last answer
// per identity and give it again for the same bytes. Both answers are
// exact: a Signer's remembered signature is the one ed25519.Sign would
// compute again, and a Keyring remembers only a record that passed a
// full ed25519.Verify, byte for byte.

// Signer is a node's attestation signing identity. It remembers the
// last payload it signed and that payload's signature, in its own
// copies. A Signer is not safe for concurrent use.
type Signer struct {
	priv ed25519.PrivateKey

	// payload is the last payload signed and sig its signature; sig is
	// nil until the first Sign.
	payload, sig []byte
	// signs counts the ed25519 signatures computed.
	signs int
}

// NewSigner derives node id's identity key from the cluster seed. The
// derivation is deterministic — same seed, same keys — which stands in
// for a provisioned per-device key in real hardware.
func NewSigner(seed uint64, node int) *Signer {
	var material [32]byte
	binary.LittleEndian.PutUint64(material[0:], seed)
	binary.LittleEndian.PutUint64(material[8:], uint64(node))
	copy(material[16:], "khsim-attest-key")
	sum := sha256.Sum256(material[:])
	return &Signer{priv: ed25519.NewKeyFromSeed(sum[:])}
}

// Public returns the verifying key to register with the cluster's
// verifier set.
func (s *Signer) Public() ed25519.PublicKey {
	return s.priv.Public().(ed25519.PublicKey)
}

// Sign produces the detached signature for one ledger payload. A payload
// equal to the last one signed gets the remembered signature, which is
// the one ed25519 would compute again. The caller owns the returned
// slice and may keep changing payload afterwards.
func (s *Signer) Sign(payload []byte) []byte {
	if s.sig == nil || !bytes.Equal(payload, s.payload) {
		s.payload = append(s.payload[:0], payload...)
		s.sig = ed25519.Sign(s.priv, payload)
		s.signs++
	}
	return bytes.Clone(s.sig)
}

// SignedRecord is a ledger payload plus its provenance: which node
// signed it and the signature bytes.
type SignedRecord struct {
	Node    int
	Payload []byte
	Sig     []byte
}

// SignRecord wraps a payload with node id's signature.
func SignRecord(s *Signer, node int, payload []byte) SignedRecord {
	return SignedRecord{Node: node, Payload: payload, Sig: s.Sign(payload)}
}

// Verify checks the record against pub.
func (r SignedRecord) Verify(pub ed25519.PublicKey) error {
	if len(r.Sig) != ed25519.SignatureSize {
		return fmt.Errorf("tz: signature is %d bytes, want %d", len(r.Sig), ed25519.SignatureSize)
	}
	if !ed25519.Verify(pub, r.Payload, r.Sig) {
		return fmt.Errorf("tz: bad signature on record from node %d", r.Node)
	}
	return nil
}

// Keyring is the verifier set: one verifying key per node, node i's at
// index i. Per node it remembers the last record it accepted, in its own
// copies, and accepts the same payload and signature again without
// recomputing; any other record gets a full verify against the key of
// the node it names. A Keyring is not safe for concurrent use.
type Keyring struct {
	nodes []keyringNode
	// verifies counts the ed25519 verifications computed.
	verifies int
}

// keyringNode is one node's key and its last accepted record; sig is
// nil until a record is accepted.
type keyringNode struct {
	pub          ed25519.PublicKey
	payload, sig []byte
}

// NewKeyring returns a keyring holding keys[i] as node i's verifying key.
func NewKeyring(keys ...ed25519.PublicKey) *Keyring {
	k := &Keyring{nodes: make([]keyringNode, len(keys))}
	for i, pub := range keys {
		k.nodes[i].pub = bytes.Clone(pub)
	}
	return k
}

// Verify checks rec against the key of the node rec names. It never
// trusts a signer's memory: a record that differs from the node's last
// accepted one in any byte of payload or signature is verified in full.
func (k *Keyring) Verify(rec SignedRecord) error {
	if rec.Node < 0 || rec.Node >= len(k.nodes) {
		return fmt.Errorf("tz: no key for node %d", rec.Node)
	}
	n := &k.nodes[rec.Node]
	if n.sig != nil && bytes.Equal(rec.Sig, n.sig) && bytes.Equal(rec.Payload, n.payload) {
		return nil
	}
	k.verifies++
	if err := rec.Verify(n.pub); err != nil {
		return err
	}
	n.payload = append(n.payload[:0], rec.Payload...)
	n.sig = append(n.sig[:0], rec.Sig...)
	return nil
}
