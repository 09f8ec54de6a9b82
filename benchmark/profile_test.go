package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) { p.varint(uint64(field) << 3); p.varint(x) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes a CPU profile over the given stacks (function
// names, leaf first) with the given CPU nanoseconds each. Every function
// gets its own location, except that a name containing "+" is a location
// whose first function was inlined into the second. The samples at the
// labelled indices carry the probeLabel label.
func syntheticProfile(t *testing.T, stacks [][]string, nanos []int64, packed bool, labelled ...int) []byte {
	t.Helper()
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		prof.bytes(fieldProfileSampleType, m.b)
	}
	funcs := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var m pb
		m.uint(fieldFunctionID, id)
		m.uint(fieldFunctionName, str(name))
		prof.bytes(fieldProfileFunction, m.b)
		return id
	}
	locID := uint64(0)
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			var m pb
			m.uint(fieldLocationID, locID)
			for _, name := range splitInlined(frame) {
				var line pb
				line.uint(fieldLineFunction, fn(name))
				m.bytes(fieldLocationLine, line.b)
			}
			prof.bytes(fieldProfileLocation, m.b)
			locs = append(locs, locID)
		}
		var s pb
		if packed {
			s.packed(fieldSampleLocation, locs...)
			s.packed(fieldSampleValue, 1, uint64(nanos[i]))
		} else {
			for _, l := range locs {
				s.uint(fieldSampleLocation, l)
			}
			s.uint(fieldSampleValue, 1)
			s.uint(fieldSampleValue, uint64(nanos[i]))
		}
		for _, l := range labelled {
			if l == i {
				var m pb
				m.uint(fieldLabelKey, str(probeLabel))
				m.uint(fieldLabelStr, str("verify.tentative"))
				s.bytes(fieldSampleLabel, m.b)
			}
		}
		prof.bytes(fieldProfileSample, s.b)
	}
	for _, s := range strs {
		prof.bytes(fieldProfileStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func splitInlined(frame string) []string {
	for i := 0; i < len(frame); i++ {
		if frame[i] == '+' {
			return []string{frame[:i], frame[i+1:]}
		}
	}
	return []string{frame}
}

func TestSelfByLayerAttributesSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// Own code of core.
		{"snd/internal/core.(*Node).FinishDiscovery", "snd/internal/sim.(*Simulation).runDiscovery", "main.main"},
		// Standard-library sort under nodeid counts as nodeid.
		{"sort.insertionSort", "sort.Sort", "snd/internal/nodeid.EncodeList", "snd/internal/core.(*Node).Record"},
		// Hashing inlined into crypto counts as crypto.
		{"crypto/sha256.block+snd/internal/crypto.(*MasterKey).Derive", "snd/internal/core.NewNode"},
		// A GC assist inside radio is GC, not radio.
		{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "snd/internal/radio.(*Medium).transmit"},
		// Background mark worker.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// Nested package path: obs/trace is attributed to obs.
		{"snd/internal/obs/trace.(*Span).End"},
		// Nothing of the program's: other.
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
		// The benchmark's own labelled probe counts nowhere.
		{"snd/internal/verify.TentativeGraph", "main.(*trialRec).probeTentative"},
	}
	nanos := []int64{10e6, 20e6, 5e6, 7e6, 3e6, 1e6, 2e6, 4e6}
	want := map[string]float64{"core": 10, "nodeid": 20, "crypto": 5, "runtime.gc": 10, "obs": 1, "other": 2}
	for _, packed := range []bool{true, false} {
		p, err := parseProfile(syntheticProfile(t, stacks, nanos, packed, len(stacks)-1))
		if err != nil {
			t.Fatalf("packed=%v: %v", packed, err)
		}
		got := p.selfByLayer()
		if len(got) != len(want) {
			t.Errorf("packed=%v: layers %v, want %v", packed, got, want)
		}
		for layer, ms := range want {
			if math.Abs(got[layer]-ms) > 1e-9 {
				t.Errorf("packed=%v: %s = %g ms, want %g", packed, layer, got[layer], ms)
			}
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated message parsed without error")
	}
	var noCPU pb
	noCPU.bytes(fieldProfileStringTable, []byte(""))
	if _, err := parseProfile(noCPU.b); err == nil {
		t.Error("profile without a cpu sample type parsed without error")
	}
}
