package crypto

import (
	"errors"
	"math/rand"
	"testing"

	"snd/internal/nodeid"
)

func newTestMaster(t *testing.T) *MasterKey {
	t.Helper()
	k, err := NewMasterKey(nil)
	if err != nil {
		t.Fatalf("NewMasterKey: %v", err)
	}
	return k
}

func TestVerificationKeyDeterministicPerNode(t *testing.T) {
	k := newTestMaster(t)
	a1, err := k.VerificationKey(1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := k.VerificationKey(1)
	b, _ := k.VerificationKey(2)
	if a1 != a2 {
		t.Error("verification key not deterministic")
	}
	if a1 == b {
		t.Error("different nodes share a verification key")
	}
}

func TestBindingCommitmentBindsAllInputs(t *testing.T) {
	k := newTestMaster(t)
	base, err := k.BindingCommitment(1, 0, []nodeid.ID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Insertion order must not matter once the list is canonical.
	same, _ := k.BindingCommitment(1, 0, nodeid.Canonical([]nodeid.ID{3, 2, 3}))
	if !base.Equal(same) {
		t.Error("commitment depends on list insertion order")
	}
	// Changing any input changes the commitment.
	if c, _ := k.BindingCommitment(2, 0, []nodeid.ID{2, 3}); c.Equal(base) {
		t.Error("commitment ignores node id")
	}
	if c, _ := k.BindingCommitment(1, 1, []nodeid.ID{2, 3}); c.Equal(base) {
		t.Error("commitment ignores version")
	}
	if c, _ := k.BindingCommitment(1, 0, []nodeid.ID{2, 4}); c.Equal(base) {
		t.Error("commitment ignores neighbor list")
	}
	// A different master key yields a different commitment.
	k2 := newTestMaster(t)
	if c, _ := k2.BindingCommitment(1, 0, []nodeid.ID{2, 3}); c.Equal(base) {
		t.Error("commitment ignores master key")
	}
}

// encodeSet is the set-based neighbor-list encoding binding commitments
// were first defined over: the 4-byte encodings of the set's IDs in
// ascending order. It is the reference form for the streamed commitment.
func encodeSet(s nodeid.Set) []byte {
	out := make([]byte, 0, 4*s.Len())
	for _, id := range s.Sorted() {
		out = append(out, id.Bytes()...)
	}
	return out
}

// TestBindingCommitmentMatchesSetEncoding pins every streamed commitment
// over a canonical slice to the digest of the set-encoded form, so the
// change of neighbor-list representation changed no bit of any C(u).
func TestBindingCommitmentMatchesSetEncoding(t *testing.T) {
	k := newTestMaster(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		set := nodeid.NewSet()
		// Trial 0 is the empty set; sizes reach past the framer's buffer.
		for i := 0; i < trial%170; i++ {
			set.Add(nodeid.ID(rng.Intn(1000) + 1))
		}
		u := nodeid.ID(rng.Intn(1000) + 1)
		version := uint32(rng.Intn(4))
		got, err := k.BindingCommitment(u, version, set.Sorted())
		if err != nil {
			t.Fatal(err)
		}
		want := referenceHash([]byte(tagBindingCommitment), k.key, uint32Bytes(version), encodeSet(set), u.Bytes())
		if !got.Equal(want) {
			t.Fatalf("trial %d (|N|=%d): streamed commitment %v != set-encoded %v", trial, set.Len(), got, want)
		}
	}
}

func TestRelationEvidenceDirectional(t *testing.T) {
	k := newTestMaster(t)
	uv, err := k.RelationEvidence(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	vu, _ := k.RelationEvidence(2, 1, 0)
	if uv.Equal(vu) {
		t.Error("E(u,v) must differ from E(v,u)")
	}
	v1, _ := k.RelationEvidence(1, 2, 1)
	if uv.Equal(v1) {
		t.Error("evidence ignores version")
	}
}

func TestEraseBlocksEverything(t *testing.T) {
	k := newTestMaster(t)
	k.Erase()
	if !k.Erased() {
		t.Fatal("Erased() = false after Erase")
	}
	if _, err := k.VerificationKey(1); !errors.Is(err, ErrErased) {
		t.Errorf("VerificationKey err = %v, want ErrErased", err)
	}
	if _, err := k.BindingCommitment(1, 0, []nodeid.ID{2}); !errors.Is(err, ErrErased) {
		t.Errorf("BindingCommitment err = %v, want ErrErased", err)
	}
	if _, err := k.RelationEvidence(1, 2, 0); !errors.Is(err, ErrErased) {
		t.Errorf("RelationEvidence err = %v, want ErrErased", err)
	}
	// Erase is idempotent.
	k.Erase()
	if !k.Erased() {
		t.Error("second Erase undid erasure")
	}
}

func TestCloneIndependentErasure(t *testing.T) {
	k := newTestMaster(t)
	c := k.Clone()
	// Clones agree before erasure.
	kv, _ := k.VerificationKey(5)
	cv, _ := c.VerificationKey(5)
	if kv != cv {
		t.Fatal("clone disagrees with original")
	}
	// Erasing one does not erase the other (separate physical copies).
	k.Erase()
	if c.Erased() {
		t.Error("erasing original erased the clone")
	}
	if _, err := c.VerificationKey(5); err != nil {
		t.Errorf("clone unusable after original erased: %v", err)
	}
	// Cloning an erased key yields an erased key.
	if e := k.Clone(); !e.Erased() {
		t.Error("clone of erased key is not erased")
	}
}

func TestRelationCommitmentVerification(t *testing.T) {
	k := newTestMaster(t)
	// v keeps K_v from initialization; a newly deployed u computes C(u,v).
	kv, err := k.VerificationKey(2)
	if err != nil {
		t.Fatal(err)
	}
	c := kv.RelationCommitment(1)
	if !kv.VerifyRelationCommitment(1, c) {
		t.Error("valid relation commitment rejected")
	}
	if kv.VerifyRelationCommitment(3, c) {
		t.Error("commitment verified for wrong sender")
	}
	// A commitment built from the wrong verification key fails.
	kw, _ := k.VerificationKey(3)
	if kv.VerifyRelationCommitment(1, kw.RelationCommitment(1)) {
		t.Error("commitment under K_w verified under K_v")
	}
}

func TestMasterKeyFromBytesCopies(t *testing.T) {
	raw := []byte("seed material for the master key")
	k := MasterKeyFromBytes(raw)
	raw[0] ^= 0xff
	k2 := MasterKeyFromBytes([]byte("seed material for the master key"))
	a, _ := k.VerificationKey(1)
	b, _ := k2.VerificationKey(1)
	if a != b {
		t.Error("MasterKeyFromBytes aliased caller's buffer")
	}
}

func BenchmarkBindingCommitment(b *testing.B) {
	k, err := NewMasterKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	var neighbors []nodeid.ID
	for i := nodeid.ID(1); i <= 150; i++ {
		neighbors = append(neighbors, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.BindingCommitment(200, 0, neighbors); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelationCommitment(b *testing.B) {
	k, err := NewMasterKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	kv, _ := k.VerificationKey(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kv.RelationCommitment(1)
	}
}
