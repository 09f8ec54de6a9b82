package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// referenceHash is the framing Hash is defined by, written the plain way:
// one length prefix and one write per part, straight into SHA-256.
func referenceHash(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// TestHashMatchesReferenceFraming checks the buffered framer against the
// plain framing, with parts long enough to cross its buffer boundary.
func TestHashMatchesReferenceFraming(t *testing.T) {
	f := func(a, b []byte, n uint16) bool {
		long := make([]byte, int(n)%1500)
		for i := range long {
			long[i] = byte(i * 7)
		}
		return Hash(a, long, b).Equal(referenceHash(a, long, b)) &&
			hashTagged("t", b, a).Equal(referenceHash([]byte("t"), b, a)) &&
			Hash().Equal(referenceHash())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("hello"), []byte("world"))
	if !a.Equal(b) {
		t.Error("same inputs hashed differently")
	}
}

func TestHashFramingPreventsSplicing(t *testing.T) {
	// H(a‖b) must differ from H(a'‖b') when the concatenations are equal
	// but the splits differ — the classic ambiguity a naive H(a||b) has.
	a := Hash([]byte("ab"), []byte("c"))
	b := Hash([]byte("a"), []byte("bc"))
	if a.Equal(b) {
		t.Error("length framing failed: different splits collide")
	}
	// Also differs from the single-part hash of the concatenation.
	c := Hash([]byte("abc"))
	if a.Equal(c) || b.Equal(c) {
		t.Error("part count not bound into hash")
	}
}

func TestHashPropertyDistinctInputs(t *testing.T) {
	f := func(x, y []byte) bool {
		if string(x) == string(y) {
			return true
		}
		return !Hash(x).Equal(Hash(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedDomainsDisjoint(t *testing.T) {
	in := []byte("same input")
	a := hashTagged("role-a", in)
	b := hashTagged("role-b", in)
	if a.Equal(b) {
		t.Error("different tags produced equal digests")
	}
}

func TestDigestIsZero(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Error("zero digest not IsZero")
	}
	if Hash([]byte("x")).IsZero() {
		t.Error("real digest reported zero")
	}
}

func TestDigestStringShort(t *testing.T) {
	d := Hash([]byte("x"))
	if len(d.String()) != 12 {
		t.Errorf("String() = %q, want 12 hex chars", d.String())
	}
}
