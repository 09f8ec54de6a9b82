package core

import (
	"testing"

	"snd/internal/nodeid"
)

// Native fuzz targets for the wire decoders: arbitrary bytes must never
// panic, a frame must decode exactly when the set-based reference decoder
// (setrecord_test.go) accepts it, yielding that set's IDs in ascending
// order, and anything that decodes must re-encode/decode to the same
// meaning. `go test` runs the seed corpus; `go test -fuzz=Fuzz...`
// explores further.

// unorderedLists are neighbor lists an honest encoder never emits —
// permuted, repeated, or both — which the decoders must canonicalize.
var unorderedLists = [][]nodeid.ID{
	{9, 2, 5},
	{2, 2, 5},
	{7, 3, 7, 1, 1},
	{4, 4},
}

func FuzzDecodeBindingRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 44))
	f.Add(BindingRecord{Node: 3, Version: 1}.Encode())
	rec := sampleRecord()
	f.Add(rec.Encode())
	corrupted := rec.Encode()
	corrupted[9] ^= 0xff
	f.Add(corrupted)
	for _, ids := range unorderedLists {
		f.Add(BindingRecord{Node: 6, Version: 1, Neighbors: ids}.Encode())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBindingRecord(data)
		ref, refErr := decodeSetRecord(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode err = %v, set-based reference err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameRecord(got, ref) {
			t.Fatalf("decoded %v, reference set %v", got.Neighbors, ref.Neighbors.Sorted())
		}
		// Round trip must be stable.
		again, err := DecodeBindingRecord(got.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameRecord(again, ref) {
			t.Fatal("round trip changed the record")
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(MsgHello)})
	for _, typ := range []MsgType{MsgHello, MsgRecord, MsgUpdateReply} {
		if b, err := (Envelope{Type: typ, Record: sampleRecord()}).Encode(); err == nil {
			f.Add(b)
		}
	}
	if b, err := (Envelope{Type: MsgCommitment, Commitment: RelationCommitment{From: 1, To: 2}}).Encode(); err == nil {
		f.Add(b)
	}
	if b, err := (Envelope{Type: MsgUpdateRequest, Update: UpdateRequest{Record: sampleRecord()}}).Encode(); err == nil {
		f.Add(b)
	}
	for _, ids := range unorderedLists {
		rec := BindingRecord{Node: 6, Neighbors: ids}
		if b, err := (Envelope{Type: MsgRecord, Record: rec}).Encode(); err == nil {
			f.Add(b)
		}
		ev := RelationEvidence{From: 2, To: 6}
		if b, err := (Envelope{Type: MsgUpdateRequest, Update: UpdateRequest{Record: rec, Evidences: []RelationEvidence{ev}}}).Encode(); err == nil {
			f.Add(b)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if ref, carries, ok := decodeSetEnvelopeRecord(data); carries {
			if (err == nil) != ok {
				t.Fatalf("decode err = %v, set-based reference accepts = %v", err, ok)
			}
			got := env.Record
			if env.Type == MsgUpdateRequest {
				got = env.Update.Record
			}
			if ok && !sameRecord(got, ref) {
				t.Fatalf("decoded %v, reference set %v", got.Neighbors, ref.Neighbors.Sorted())
			}
		}
		if err != nil {
			return
		}
		// Whatever decodes must re-encode.
		b, err := env.Encode()
		if err != nil {
			t.Fatalf("decoded envelope failed to encode: %v", err)
		}
		if _, err := DecodeEnvelope(b); err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
	})
}
