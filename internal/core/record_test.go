package core

import (
	"slices"
	"testing"
	"testing/quick"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

func TestBindingRecordEncodeDecodeRoundTrip(t *testing.T) {
	r := BindingRecord{
		Node:       7,
		Version:    3,
		Neighbors:  []nodeid.ID{1, 2, 9},
		Commitment: crypto.Hash([]byte("c")),
	}
	got, err := DecodeBindingRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != r.Node || got.Version != r.Version {
		t.Errorf("header mismatch: %+v", got)
	}
	if !slices.Equal(got.Neighbors, r.Neighbors) {
		t.Errorf("neighbors = %v", got.Neighbors)
	}
	if !got.Commitment.Equal(r.Commitment) {
		t.Error("commitment mismatch")
	}
}

func TestBindingRecordRoundTripProperty(t *testing.T) {
	f := func(node uint32, version uint32, raw []uint32) bool {
		if node == 0 {
			node = 1
		}
		set := nodeid.NewSet()
		for _, v := range raw {
			if v != 0 {
				set.Add(nodeid.ID(v))
			}
		}
		r := BindingRecord{
			Node:       nodeid.ID(node),
			Version:    version,
			Neighbors:  set.Sorted(),
			Commitment: crypto.Hash([]byte{byte(node)}),
		}
		got, err := DecodeBindingRecord(r.Encode())
		return err == nil && got.Node == r.Node && got.Version == r.Version &&
			slices.Equal(got.Neighbors, r.Neighbors) && got.Commitment.Equal(r.Commitment)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeBindingRecordRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"short", make([]byte, 10)},
		{"count overruns", func() []byte {
			r := BindingRecord{Node: 1, Neighbors: []nodeid.ID{2, 3}}
			b := r.Encode()
			b[11] = 200 // inflate neighbor count
			return b
		}()},
		{"truncated tail", func() []byte {
			r := BindingRecord{Node: 1, Neighbors: []nodeid.ID{2, 3}}
			b := r.Encode()
			return b[:len(b)-5]
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBindingRecord(tt.give); err == nil {
				t.Error("garbage decoded successfully")
			}
		})
	}
}

func TestBindingRecordCloneIndependent(t *testing.T) {
	r := BindingRecord{Node: 1, Neighbors: []nodeid.ID{2}}
	c := r.Clone()
	c.Neighbors[0] = 3
	if r.Neighbors[0] != 2 {
		t.Error("clone shares neighbor list")
	}
}

func TestBindingRecordStorageBytes(t *testing.T) {
	r := BindingRecord{Node: 1, Neighbors: []nodeid.ID{2, 3, 4}}
	// 4 + 4 + 3*4 + 32 = 52.
	if got := r.StorageBytes(); got != 52 {
		t.Errorf("StorageBytes = %d, want 52", got)
	}
}

// TestDecodeBindingRecordCanonicalizes: a list sent out of order or with
// repeats names the same N(u) and decodes to its canonical form; a
// canonical list decodes as sent.
func TestDecodeBindingRecordCanonicalizes(t *testing.T) {
	tests := []struct {
		give, want []nodeid.ID
	}{
		{[]nodeid.ID{9, 2, 5}, []nodeid.ID{2, 5, 9}},
		{[]nodeid.ID{2, 2, 5, 5, 5}, []nodeid.ID{2, 5}},
		{[]nodeid.ID{7, 3, 7, 1}, []nodeid.ID{1, 3, 7}},
		{[]nodeid.ID{1, 4, 8}, []nodeid.ID{1, 4, 8}},
		{[]nodeid.ID{}, []nodeid.ID{}},
	}
	for _, tt := range tests {
		// Encode writes the list exactly as given, canonical or not.
		b := BindingRecord{Node: 1, Neighbors: tt.give}.Encode()
		got, err := DecodeBindingRecord(b)
		if err != nil {
			t.Fatalf("%v: %v", tt.give, err)
		}
		if !slices.Equal(got.Neighbors, tt.want) {
			t.Errorf("decode %v = %v, want %v", tt.give, got.Neighbors, tt.want)
		}
	}
}
