package crypto

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"snd/internal/nodeid"
)

// ErrErased is returned when an operation needs the master key after it has
// been deleted. The protocol's security hinges on this: once a node erases
// K, even full compromise of the node yields nothing that can forge new
// binding records or relation evidence.
var ErrErased = errors.New("crypto: master key has been erased")

// Domain-separation tags for the protocol's hash roles.
const (
	tagVerificationKey   = "snd/vkey"    // K_u = H(K‖u)
	tagBindingCommitment = "snd/binding" // C(u) = H(K‖i‖N(u)‖u)
	tagRelationCommit    = "snd/relcom"  // C(u,v) = H(K_v‖u)
	tagRelationEvidence  = "snd/relev"   // E(u,v) = H(K‖u‖v‖i)
)

// MasterKey is the network-wide random key K pre-distributed to every node
// before deployment (Section 4.1, Initialization). It is designed around
// the paper's erasure requirement: Erase zeroizes the key material, and
// every subsequent use fails with ErrErased.
//
// MasterKey is not safe for concurrent use; each simulated node holds its
// own copy (see Clone) exactly as each physical node holds its own flash
// copy.
type MasterKey struct {
	key    []byte
	erased bool
}

// NewMasterKey generates a fresh master key from the given entropy source,
// or crypto/rand when rng is nil.
func NewMasterKey(rng io.Reader) (*MasterKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key := make([]byte, DigestSize)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("crypto: generate master key: %w", err)
	}
	return &MasterKey{key: key}, nil
}

// MasterKeyFromBytes builds a master key from existing material (used by
// tests and by the attacker model when it captures K before erasure).
func MasterKeyFromBytes(b []byte) *MasterKey {
	key := make([]byte, len(b))
	copy(key, b)
	return &MasterKey{key: key}
}

// Clone returns an independent copy of the key, modeling the pre-deployment
// loading of K onto another node. Cloning an erased key yields an erased
// key: erasure is irreversible per the paper's assumption that deleted
// secrets cannot be recovered.
func (k *MasterKey) Clone() *MasterKey {
	if k.erased {
		return &MasterKey{erased: true}
	}
	c := make([]byte, len(k.key))
	copy(c, k.key)
	return &MasterKey{key: c}
}

// Erase zeroizes the key material. The paper suggests erase-and-rewrite
// with random values; in this in-memory model a single overwrite plus the
// erased flag captures the semantics. Erase is idempotent.
func (k *MasterKey) Erase() {
	for i := range k.key {
		k.key[i] = 0
	}
	k.key = nil
	k.erased = true
}

// Erased reports whether the key has been deleted.
func (k *MasterKey) Erased() bool { return k.erased }

// VerificationKey computes K_u = H(K‖u). A node computes its own
// verification key during initialization, before any chance of compromise,
// and keeps it after erasing K (K_u reveals nothing about K).
func (k *MasterKey) VerificationKey(u nodeid.ID) (VerificationKey, error) {
	if k.erased {
		return VerificationKey{}, ErrErased
	}
	return VerificationKey(hashTagged(tagVerificationKey, k.key, u.Bytes())), nil
}

// BindingCommitment computes C(u) = H(K‖i‖N(u)‖u) over the tentative
// neighbor list, which must be canonical (ascending, duplicate-free; see
// nodeid.Canonical): N(u) is hashed as the one part holding the IDs'
// 4-byte encodings in that order. The version number i is part of the
// commitment so that the update extension's records are distinguishable
// across versions.
func (k *MasterKey) BindingCommitment(u nodeid.ID, version uint32, neighbors []nodeid.ID) (Digest, error) {
	if k.erased {
		return Digest{}, ErrErased
	}
	f := newFramer()
	f.part([]byte(tagBindingCommitment))
	f.part(k.key)
	f.part(uint32Bytes(version))
	f.ids(neighbors)
	f.part(u.Bytes())
	return f.sum(), nil
}

// RelationEvidence computes E(u,v) = H(K‖u‖v‖i): node u's proof, issued
// while u still held K, that u considers v a tentative neighbor under v's
// binding-record version i (Section 4.4, update extension).
func (k *MasterKey) RelationEvidence(u, v nodeid.ID, version uint32) (Digest, error) {
	if k.erased {
		return Digest{}, ErrErased
	}
	return hashTagged(tagRelationEvidence, k.key, u.Bytes(), v.Bytes(), uint32Bytes(version)), nil
}

// VerificationKey is K_v = H(K‖v). Only newly deployed nodes (which still
// hold K) can compute it for an arbitrary v; node v itself retains its own
// K_v forever to verify incoming relation commitments.
type VerificationKey Digest

// IsZero reports whether the key is unset.
func (vk VerificationKey) IsZero() bool { return Digest(vk).IsZero() }

// RelationCommitment computes C(u,v) = H(K_v‖u), where vk is K_v and from
// is u. Producing this value proves the producer is (or was) a newly
// deployed node, since K_v is derivable only from K.
func (vk VerificationKey) RelationCommitment(from nodeid.ID) Digest {
	return hashTagged(tagRelationCommit, vk[:], from.Bytes())
}

// VerifyRelationCommitment checks C(u,v) against this verification key in
// constant time.
func (vk VerificationKey) VerifyRelationCommitment(from nodeid.ID, c Digest) bool {
	return vk.RelationCommitment(from).Equal(c)
}
