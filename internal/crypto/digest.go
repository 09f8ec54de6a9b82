// Package crypto provides the cryptographic substrate assumed by the paper:
// the one-way hash H behind all commitments, an erasable master key K with
// the verification keys K_u = H(K‖u), binding commitments
// C(u) = H(K‖N(u)‖u), relation commitments C(u,v) = H(K_v‖u), relation
// evidence E(u,v) = H(K‖u‖v‖i), several pairwise key predistribution schemes
// (the paper assumes "every two nodes in the field can establish a pairwise
// key" via schemes like Eschenauer–Gligor or polynomial-based
// predistribution), and an authenticated, replay-protected channel.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"

	"snd/internal/nodeid"
)

// DigestSize is the size in bytes of every digest and key in this package.
const DigestSize = sha256.Size

// Digest is the output of the one-way hash H.
type Digest [DigestSize]byte

// String renders a short hex prefix of the digest for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:6]) }

// IsZero reports whether the digest is all zero (the reserved "no digest"
// value, also what an erased key region reads as).
func (d Digest) IsZero() bool {
	var zero Digest
	return d == zero
}

// Equal compares two digests in constant time, as required for commitment
// verification.
func (d Digest) Equal(e Digest) bool {
	return hmac.Equal(d[:], e[:])
}

// Hash computes H over the concatenation of parts with unambiguous
// length-prefixed framing, so that H(a‖b) can never collide with H(a'‖b')
// for a different split of the same bytes.
func Hash(parts ...[]byte) Digest {
	f := newFramer()
	for _, p := range parts {
		f.part(p)
	}
	return f.sum()
}

// hashTagged is Hash with a leading domain-separation tag, so digests from
// different protocol roles (verification key, binding commitment, ...) live
// in disjoint codomains.
func hashTagged(tag string, parts ...[]byte) Digest {
	f := newFramer()
	f.part([]byte(tag))
	for _, p := range parts {
		f.part(p)
	}
	return f.sum()
}

// framer streams length-prefixed parts into SHA-256 — the framing behind
// Hash — batching small writes through one buffer. Framers are pooled:
// sum returns the framer to the pool, so it is the last call on one.
type framer struct {
	h   hash.Hash
	n   int
	buf [256]byte
}

var framers = sync.Pool{New: func() any { return &framer{h: sha256.New()} }}

func newFramer() *framer { return framers.Get().(*framer) }

func (f *framer) flush() {
	f.h.Write(f.buf[:f.n])
	f.n = 0
}

func (f *framer) uint32(v uint32) {
	if f.n+4 > len(f.buf) {
		f.flush()
	}
	binary.BigEndian.PutUint32(f.buf[f.n:], v)
	f.n += 4
}

// part writes len(p) as a 4-byte big-endian prefix, then p.
func (f *framer) part(p []byte) {
	f.uint32(uint32(len(p)))
	for len(p) > 0 {
		if f.n == len(f.buf) {
			f.flush()
		}
		c := copy(f.buf[f.n:], p)
		f.n += c
		p = p[c:]
	}
}

// ids writes the part whose bytes are the 4-byte big-endian encodings of
// ids in order, without materializing it.
func (f *framer) ids(ids []nodeid.ID) {
	f.uint32(uint32(4 * len(ids)))
	for _, id := range ids {
		f.uint32(uint32(id))
	}
}

func (f *framer) sum() Digest {
	f.flush()
	var d Digest
	copy(d[:], f.h.Sum(f.buf[:0]))
	// Pooled framers must not carry key material between hashes.
	f.buf = [len(f.buf)]byte{}
	f.h.Reset()
	framers.Put(f)
	return d
}

func uint32Bytes(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}
