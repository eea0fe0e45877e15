package tz

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignerDeterministicAndVerifies(t *testing.T) {
	a := NewSigner(42, 1)
	b := NewSigner(42, 1)
	if !bytes.Equal(a.Public(), b.Public()) {
		t.Fatal("same (seed, node) derived different keys")
	}
	if bytes.Equal(NewSigner(42, 2).Public(), a.Public()) {
		t.Fatal("different nodes share a key")
	}
	if bytes.Equal(NewSigner(43, 1).Public(), a.Public()) {
		t.Fatal("different seeds share a key")
	}

	payload := []byte("lifecycle n1 migrate-out vm=job restarts=0")
	r := SignRecord(a, 1, payload)
	if err := r.Verify(a.Public()); err != nil {
		t.Fatal(err)
	}
	// Ed25519 is deterministic: a fresh signer for the same (seed, node)
	// computes the same signature bytes.
	if !bytes.Equal(r.Sig, b.Sign(payload)) {
		t.Fatal("signing is not deterministic")
	}
	// Tampered payload, truncated signature, wrong key: all rejected.
	bad := r
	bad.Payload = []byte("lifecycle n1 migrate-out vm=job restarts=1")
	if bad.Verify(a.Public()) == nil {
		t.Fatal("verified a tampered payload")
	}
	short := r
	short.Sig = r.Sig[:10]
	if short.Verify(a.Public()) == nil {
		t.Fatal("verified a truncated signature")
	}
	if r.Verify(NewSigner(42, 2).Public()) == nil {
		t.Fatal("verified under the wrong node's key")
	}
}

func TestSignerMemoIsExact(t *testing.T) {
	s := NewSigner(7, 0)
	a, b := []byte("attest n0 ledger=3"), []byte("attest n0 ledger=4")
	for i, p := range [][]byte{a, a, b, a, b, b} {
		if got, want := s.Sign(p), ed25519.Sign(s.priv, p); !bytes.Equal(got, want) {
			t.Fatalf("sign %d (%q): signature differs from ed25519.Sign", i, p)
		}
	}
	// A A B A B B: only the three switches and the first sign compute.
	if s.signs != 4 {
		t.Fatalf("computed %d signatures for A A B A B B, want 4", s.signs)
	}

	// The caller owns what it passes in and gets back.
	want := ed25519.Sign(s.priv, b)
	sig := s.Sign(b)
	sig[0] ^= 0xff
	if got := s.Sign(b); !bytes.Equal(got, want) {
		t.Fatal("changing a returned signature changed the next one")
	}
	buf := bytes.Clone(a)
	s.Sign(buf)
	buf[0] ^= 0xff
	n := s.signs
	if got := s.Sign(a); !bytes.Equal(got, ed25519.Sign(s.priv, a)) || s.signs != n {
		t.Fatal("changing the payload buffer after Sign changed the remembered payload")
	}
	if got := s.Sign(buf); !bytes.Equal(got, ed25519.Sign(s.priv, buf)) {
		t.Fatal("the changed payload buffer got a stale signature")
	}
}

func TestKeyringRejectsAndKeepsTheGoodRecord(t *testing.T) {
	s0, s1 := NewSigner(9, 0), NewSigner(9, 1)
	k := NewKeyring(s0.Public(), s1.Public())
	good := SignRecord(s0, 0, []byte("attest n0 ledger=5 head=abcd"))
	if err := k.Verify(good); err != nil {
		t.Fatal(err)
	}
	clone := func(r SignedRecord) SignedRecord {
		return SignedRecord{Node: r.Node, Payload: bytes.Clone(r.Payload), Sig: bytes.Clone(r.Sig)}
	}
	flipSig := clone(good)
	flipSig.Sig[17] ^= 0x01
	tampered := clone(good)
	tampered.Payload[len(tampered.Payload)-1] ^= 0x01
	short := clone(good)
	short.Sig = short.Sig[:ed25519.SignatureSize-1]
	otherNode := clone(good)
	otherNode.Node = 1
	unknown := clone(good)
	unknown.Node = 2
	negative := clone(good)
	negative.Node = -1
	for name, r := range map[string]SignedRecord{
		"remembered payload, flipped signature byte": flipSig,
		"tampered payload, remembered signature":     tampered,
		"truncated signature":                        short,
		"names another node":                         otherNode,
		"names an unknown node":                      unknown,
		"names a negative node":                      negative,
	} {
		if k.Verify(r) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A rejected record never replaces the remembered one: the good
	// record is accepted again through the memo.
	n := k.verifies
	if err := k.Verify(good); err != nil {
		t.Fatalf("good record rejected after the rejects: %v", err)
	}
	if k.verifies != n {
		t.Fatal("good record was verified again instead of matching the memo")
	}

	// An accepted record changed in place afterwards is rejected: the
	// keyring kept its own copy.
	live := SignRecord(s1, 1, []byte("lifecycle n1 restart vm=attest restarts=1"))
	if err := k.Verify(live); err != nil {
		t.Fatal(err)
	}
	live.Payload[0] ^= 0x20
	if k.Verify(live) == nil {
		t.Fatal("accepted a record changed in place after it was accepted")
	}
	live.Payload[0] ^= 0x20
	live.Sig[3] ^= 0x80
	if k.Verify(live) == nil {
		t.Fatal("accepted a signature changed in place after it was accepted")
	}
	live.Sig[3] ^= 0x80
	n = k.verifies
	if err := k.Verify(live); err != nil || k.verifies != n {
		t.Fatalf("restored record: err %v, %d verifications, want nil through the memo", err, k.verifies-n)
	}
}

// TestQuickSignerKeyringMatchEd25519 drives three nodes' signers and one
// keyring through random sequences over a small payload alphabet, so
// payloads repeat and interleave, and tampers in place with the buffers
// the caller holds. After every step the signer must return what
// ed25519.Sign computes and the keyring must accept exactly what
// ed25519.Verify accepts for the key of the node the record names.
func TestQuickSignerKeyringMatchEd25519(t *testing.T) {
	const nodes = 3
	alphabet := [][]byte{
		nil,
		[]byte("boot n pcr=0011223344556677"),
		[]byte("attest n ledger=1 head=aa restarts=0"),
		[]byte("attest n ledger=2 head=bb restarts=0"),
		[]byte("attest n ledger=2 head=bb restarts=1"),
	}
	check := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		signers := make([]*Signer, nodes)
		keys := make([]ed25519.PublicKey, nodes)
		for i := range signers {
			signers[i] = NewSigner(uint64(seed), i)
			keys[i] = signers[i].Public()
		}
		k := NewKeyring(keys...)
		// held[i] is node i's last record, in the caller's own buffers.
		held := make([]SignedRecord, nodes)
		for i := range held {
			held[i].Node = i
		}
		for step := 0; step < int(steps%64)+16; step++ {
			i := rng.Intn(nodes)
			r := &held[i]
			switch op := rng.Intn(6); op {
			case 0, 1: // sign a payload from the alphabet, or the held buffer again
				if op == 0 || r.Sig == nil {
					r.Payload = bytes.Clone(alphabet[rng.Intn(len(alphabet))])
				}
				r.Sig = signers[i].Sign(r.Payload)
				if !bytes.Equal(r.Sig, ed25519.Sign(signers[i].priv, r.Payload)) {
					t.Logf("seed %d step %d: node %d signed %q wrong", seed, step, i, r.Payload)
					return false
				}
			case 2: // flip a byte of the held payload
				if len(r.Payload) > 0 {
					r.Payload[rng.Intn(len(r.Payload))] ^= byte(1 + rng.Intn(255))
				}
			case 3: // flip a byte of the held signature
				if len(r.Sig) > 0 {
					r.Sig[rng.Intn(len(r.Sig))] ^= byte(1 + rng.Intn(255))
				}
			case 4: // swap in another payload under the held signature
				r.Payload = bytes.Clone(alphabet[rng.Intn(len(alphabet))])
			case 5: // verify, maybe truncated or naming another node
				rec := *r
				switch rng.Intn(4) {
				case 1:
					rec.Sig = rec.Sig[:rng.Intn(len(rec.Sig)+1)]
				case 2:
					rec.Node = rng.Intn(nodes + 1)
				}
				want := rec.Node < nodes && len(rec.Sig) == ed25519.SignatureSize &&
					ed25519.Verify(keys[rec.Node], rec.Payload, rec.Sig)
				if got := k.Verify(rec) == nil; got != want {
					t.Logf("seed %d step %d: keyring said %v for a record naming node %d held by node %d, ed25519 says %v",
						seed, step, got, rec.Node, i, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
