package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

// MsgType discriminates protocol messages on the wire.
type MsgType byte

// Protocol message types.
const (
	// MsgHello announces a newly deployed node and carries its binding
	// record, soliciting neighbors' records in return.
	MsgHello MsgType = iota + 1
	// MsgRecord carries a binding record in response to a hello.
	MsgRecord
	// MsgCommitment carries a relation commitment C(u,v).
	MsgCommitment
	// MsgEvidence carries a relation evidence E(u,v).
	MsgEvidence
	// MsgUpdateRequest carries an old node's binding-record update request.
	MsgUpdateRequest
	// MsgUpdateReply carries the re-issued binding record.
	MsgUpdateReply
)

// ErrMalformed is returned when a message fails to decode.
var ErrMalformed = errors.New("core: malformed message")

// Envelope is a decoded protocol message. Exactly the fields implied by
// Type are meaningful.
type Envelope struct {
	Type       MsgType
	Record     BindingRecord      // MsgHello, MsgRecord, MsgUpdateReply
	Commitment RelationCommitment // MsgCommitment
	Evidence   RelationEvidence   // MsgEvidence
	Update     UpdateRequest      // MsgUpdateRequest
}

// Encode serializes the envelope for transmission.
func (e Envelope) Encode() ([]byte, error) {
	out := []byte{byte(e.Type)}
	switch e.Type {
	case MsgHello, MsgRecord, MsgUpdateReply:
		out = make([]byte, 1, 1+e.Record.wireLen())
		out[0] = byte(e.Type)
		return e.Record.appendTo(out), nil
	case MsgCommitment:
		out = append(out, e.Commitment.From.Bytes()...)
		out = append(out, e.Commitment.To.Bytes()...)
		out = append(out, e.Commitment.Digest[:]...)
		return out, nil
	case MsgEvidence:
		out = append(out, encodeEvidence(e.Evidence)...)
		return out, nil
	case MsgUpdateRequest:
		out = binary.BigEndian.AppendUint32(out, uint32(e.Update.Record.wireLen()))
		out = e.Update.Record.appendTo(out)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Update.Evidences)))
		for _, ev := range e.Update.Evidences {
			out = append(out, encodeEvidence(ev)...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: encode unknown message type %d", e.Type)
	}
}

const evidenceWireLen = 4 + 4 + 4 + crypto.DigestSize

func encodeEvidence(ev RelationEvidence) []byte {
	out := make([]byte, 0, evidenceWireLen)
	out = append(out, ev.From.Bytes()...)
	out = append(out, ev.To.Bytes()...)
	out = binary.BigEndian.AppendUint32(out, ev.Version)
	out = append(out, ev.Digest[:]...)
	return out
}

func decodeEvidence(b []byte) (RelationEvidence, error) {
	var ev RelationEvidence
	if len(b) != evidenceWireLen {
		return ev, fmt.Errorf("%w: evidence length %d", ErrMalformed, len(b))
	}
	ev.From, _ = nodeid.FromBytes(b[0:4])
	ev.To, _ = nodeid.FromBytes(b[4:8])
	ev.Version = binary.BigEndian.Uint32(b[8:12])
	copy(ev.Digest[:], b[12:])
	return ev, nil
}

// DecodeEnvelope parses a received protocol message.
func DecodeEnvelope(b []byte) (Envelope, error) {
	var e Envelope
	if len(b) < 1 {
		return e, fmt.Errorf("%w: empty", ErrMalformed)
	}
	e.Type = MsgType(b[0])
	body := b[1:]
	switch e.Type {
	case MsgHello, MsgRecord, MsgUpdateReply:
		rec, err := DecodeBindingRecord(body)
		if err != nil {
			return e, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		e.Record = rec
		return e, nil
	case MsgCommitment:
		if len(body) != 8+crypto.DigestSize {
			return e, fmt.Errorf("%w: commitment length %d", ErrMalformed, len(body))
		}
		e.Commitment.From, _ = nodeid.FromBytes(body[0:4])
		e.Commitment.To, _ = nodeid.FromBytes(body[4:8])
		copy(e.Commitment.Digest[:], body[8:])
		return e, nil
	case MsgEvidence:
		ev, err := decodeEvidence(body)
		if err != nil {
			return e, err
		}
		e.Evidence = ev
		return e, nil
	case MsgUpdateRequest:
		if len(body) < 4 {
			return e, fmt.Errorf("%w: update request header", ErrMalformed)
		}
		recLen := int(binary.BigEndian.Uint32(body[0:4]))
		body = body[4:]
		if recLen < 0 || len(body) < recLen+4 {
			return e, fmt.Errorf("%w: update request record", ErrMalformed)
		}
		rec, err := DecodeBindingRecord(body[:recLen])
		if err != nil {
			return e, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		e.Update.Record = rec
		body = body[recLen:]
		count := int(binary.BigEndian.Uint32(body[0:4]))
		body = body[4:]
		if len(body) != count*evidenceWireLen {
			return e, fmt.Errorf("%w: update request evidences", ErrMalformed)
		}
		for i := 0; i < count; i++ {
			ev, err := decodeEvidence(body[i*evidenceWireLen : (i+1)*evidenceWireLen])
			if err != nil {
				return e, err
			}
			e.Update.Evidences = append(e.Update.Evidences, ev)
		}
		return e, nil
	default:
		return e, fmt.Errorf("%w: unknown type %d", ErrMalformed, e.Type)
	}
}
