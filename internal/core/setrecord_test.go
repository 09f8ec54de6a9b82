package core

import (
	"encoding/binary"
	"errors"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// setRecord and the decoders below are the reference forms the wire
// decoders are tested against: the binding record as it was first
// modelled, with N(u) a nodeid.Set, decoded by filling the set ID by ID.
// A list's order and repeats are invisible to a set, so these accept
// exactly the byte strings the wire format defines, whatever the list
// order.
type setRecord struct {
	Node       nodeid.ID
	Version    uint32
	Neighbors  nodeid.Set
	Commitment crypto.Digest
}

func decodeSetRecord(b []byte) (setRecord, error) {
	var r setRecord
	if len(b) < 12+crypto.DigestSize {
		return r, errors.New("truncated")
	}
	r.Node = nodeid.ID(binary.BigEndian.Uint32(b[0:4]))
	r.Version = binary.BigEndian.Uint32(b[4:8])
	count := int(binary.BigEndian.Uint32(b[8:12]))
	if len(b) != 12+4*count+crypto.DigestSize {
		return r, errors.New("length")
	}
	r.Neighbors = nodeid.NewSet()
	for i := 0; i < count; i++ {
		r.Neighbors.Add(nodeid.ID(binary.BigEndian.Uint32(b[12+4*i:])))
	}
	copy(r.Commitment[:], b[12+4*count:])
	return r, nil
}

// decodeSetEnvelopeRecord is the reference acceptance rule of
// DecodeEnvelope for the frames that carry a binding record (hello,
// record, update reply, update request). It returns the carried record;
// ok reports whether the reference accepts the frame, and carries
// reports whether the frame type carries a record at all.
func decodeSetEnvelopeRecord(b []byte) (r setRecord, carries, ok bool) {
	if len(b) < 1 {
		return r, false, false
	}
	body := b[1:]
	switch MsgType(b[0]) {
	case MsgHello, MsgRecord, MsgUpdateReply:
		r, err := decodeSetRecord(body)
		return r, true, err == nil
	case MsgUpdateRequest:
		if len(body) < 4 {
			return r, true, false
		}
		recLen := int(binary.BigEndian.Uint32(body[0:4]))
		body = body[4:]
		if recLen < 0 || len(body) < recLen+4 {
			return r, true, false
		}
		r, err := decodeSetRecord(body[:recLen])
		if err != nil {
			return r, true, false
		}
		body = body[recLen:]
		count := int(binary.BigEndian.Uint32(body[0:4]))
		return r, true, len(body[4:]) == count*evidenceWireLen
	default:
		return r, false, false
	}
}

// sameRecord reports whether a decoded record carries exactly the
// reference record: same header and commitment, and the set's IDs in
// ascending order.
func sameRecord(got BindingRecord, want setRecord) bool {
	ids := want.Neighbors.Sorted()
	if got.Node != want.Node || got.Version != want.Version ||
		!got.Commitment.Equal(want.Commitment) || len(got.Neighbors) != len(ids) {
		return false
	}
	for i := range ids {
		if got.Neighbors[i] != ids[i] {
			return false
		}
	}
	return true
}
