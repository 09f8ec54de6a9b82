// Package core implements the paper's contribution: the localized neighbor
// validation protocol of Section 4. Each node is pre-loaded with a
// network-wide master key K and a threshold t; right after deployment —
// within the window where the node is trusted — it discovers its tentative
// neighbor list N(u), binds itself to that list with the commitment
// C(u) = H(K‖i‖N(u)‖u), validates each tentative neighbor v by checking
// |N(u) ∩ N(v)| ≥ t+1 against v's authenticated record, issues the relation
// commitments C(u,v) = H(K_v‖u) and evidences E(u,v) = H(K‖u‖v‖i), and then
// irreversibly erases K.
//
// With at most t compromised nodes the protocol guarantees the 2R-safety
// property (Theorem 3); with the binding-record update extension and at
// most m updates per record it guarantees (m+1)R-safety (Theorem 4). The
// safety auditor in this package turns those guarantees into measurable
// quantities over a simulated deployment.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// BindingRecord is R(u) = {i, N(u), C(u)}: a node's versioned, committed
// tentative neighbor list. The record "binds node u to the place defined by
// the set of nodes in N(u)".
type BindingRecord struct {
	Node    nodeid.ID
	Version uint32
	// Neighbors is N(u) in canonical form — ascending, duplicate-free —
	// fixed when the record is committed: the order C(u) hashes and the
	// wire carries. Holders treat it as read-only.
	Neighbors  []nodeid.ID
	Commitment crypto.Digest
}

// Clone returns an independent copy of the record.
func (r BindingRecord) Clone() BindingRecord {
	r.Neighbors = slices.Clone(r.Neighbors)
	return r
}

// StorageBytes estimates the record's in-flash footprint: 4 (id) +
// 4 (version) + 4·|N(u)| + 32 (commitment).
func (r BindingRecord) StorageBytes() int {
	return 4 + 4 + 4*len(r.Neighbors) + crypto.DigestSize
}

// wireLen is the length of the record's encoding.
func (r BindingRecord) wireLen() int { return 12 + 4*len(r.Neighbors) + crypto.DigestSize }

// Encode serializes the record: id(4) ‖ version(4) ‖ count(4) ‖ ids ‖
// commitment(32).
func (r BindingRecord) Encode() []byte {
	return r.appendTo(make([]byte, 0, r.wireLen()))
}

func (r BindingRecord) appendTo(out []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(r.Node))
	out = binary.BigEndian.AppendUint32(out, r.Version)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Neighbors)))
	for _, id := range r.Neighbors {
		out = binary.BigEndian.AppendUint32(out, uint32(id))
	}
	return append(out, r.Commitment[:]...)
}

// DecodeBindingRecord parses the encoding produced by Encode. The neighbor
// list comes back canonical: a list sent out of order or with repeats is
// sorted and de-duplicated (it names the same set N(u), so it verifies
// against the same commitment), while an already canonical list — every
// honest encoding — is taken as parsed.
func DecodeBindingRecord(b []byte) (BindingRecord, error) {
	var r BindingRecord
	if len(b) < 12+crypto.DigestSize {
		return r, errors.New("core: binding record truncated")
	}
	r.Node = nodeid.ID(binary.BigEndian.Uint32(b[0:4]))
	r.Version = binary.BigEndian.Uint32(b[4:8])
	count := int(binary.BigEndian.Uint32(b[8:12]))
	want := 12 + 4*count + crypto.DigestSize
	if len(b) != want {
		return r, fmt.Errorf("core: binding record length %d, want %d for %d neighbors", len(b), want, count)
	}
	ids := make([]nodeid.ID, count)
	canonical := true
	for i := range ids {
		ids[i] = nodeid.ID(binary.BigEndian.Uint32(b[12+4*i:]))
		if i > 0 && ids[i] <= ids[i-1] {
			canonical = false
		}
	}
	if !canonical {
		ids = nodeid.Canonical(ids)
	}
	r.Neighbors = ids
	copy(r.Commitment[:], b[12+4*count:])
	return r, nil
}

// RelationCommitment is C(u,v), carried from a newly deployed node u to a
// functional neighbor v.
type RelationCommitment struct {
	From   nodeid.ID
	To     nodeid.ID
	Digest crypto.Digest
}

// RelationEvidence is E(u,v) = H(K‖u‖v‖i): u's proof that it considers v a
// tentative neighbor, bound to v's record version i. Old nodes buffer
// these to justify later binding-record updates.
type RelationEvidence struct {
	From    nodeid.ID
	To      nodeid.ID
	Version uint32
	Digest  crypto.Digest
}

// UpdateRequest is an old node's plea to a newly deployed node: replace my
// binding record, justified by these evidences (Section 4.4, extension).
type UpdateRequest struct {
	Record    BindingRecord
	Evidences []RelationEvidence
}
