package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile in the pprof protobuf format (runtime/pprof and
// net/http/pprof both write it gzipped), decoded just far enough to
// attribute samples to packages. The standard library has no reader and
// the repository takes no dependencies, so the few fields needed are
// parsed here.
type profile struct {
	cpuIndex  int                 // which sample value holds CPU nanoseconds
	samples   []profileSample     // one per distinct stack
	locations map[uint64][]string // location id → function names, innermost (inlined) first
}

type profileSample struct {
	stack  []uint64 // location ids, leaf first
	values []int64
	labels map[string]string // string labels (pprof.Do), key → value
}

// Protobuf field numbers of the pprof profile.proto messages used here.
const (
	fieldProfileSampleType  = 1
	fieldProfileSample      = 2
	fieldProfileLocation    = 4
	fieldProfileFunction    = 5
	fieldProfileStringTable = 6

	fieldValueTypeType = 1

	fieldSampleLocation = 1
	fieldSampleValue    = 2
	fieldSampleLabel    = 3

	fieldLabelKey = 1
	fieldLabelStr = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

// parseProfile decodes a gzipped (or raw) pprof CPU profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		typeIdx   []int64 // sample_type[i].type string index
		samples   []profileSample
		labelIdx  [][][2]int64            // per sample: (key, str) string indices
		funcNames = map[uint64]int64{}    // function id → name string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSampleType:
			var t int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == fieldValueTypeType {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case fieldProfileSample:
			var s profileSample
			var labels [][2]int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldSampleLabel:
					var kv [2]int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case fieldLabelKey:
							kv[0] = int64(v)
						case fieldLabelStr:
							kv[1] = int64(v)
						}
						return nil
					})
					labels = append(labels, kv)
					return err
				case fieldSampleLocation:
					return appendVarints(&s.stack, wire, v, b)
				case fieldSampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			labelIdx = append(labelIdx, labels)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fieldProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{cpuIndex: -1, samples: samples, locations: map[uint64][]string{}}
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for i, labels := range labelIdx {
		for _, kv := range labels {
			if p.samples[i].labels == nil {
				p.samples[i].labels = map[string]string{}
			}
			p.samples[i].labels[str(kv[0])] = str(kv[1])
		}
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcRoots are the runtime functions GC work runs under: background mark
// workers, mutator assists, the background sweeper and the scavenger.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "snd/internal/"

// layerOf attributes one stack (function names, leaf first) to a layer:
// "runtime.gc" when any frame is GC machinery, else the innermost frame in
// one of the program's internal packages — so standard-library and
// runtime work (hashing, sorting, map operations, allocation) counts
// against the package that asked for it — else "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, r := range gcRoots {
			if fn == r {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// probeLabel is the pprof label key under which the benchmark runs work
// of its own inside a profiled replay; selfByLayer leaves it out.
const probeLabel = "benchmark"

// selfByLayer sums CPU time per layer, in milliseconds, leaving out
// samples labelled as the benchmark's own work.
func (p *profile) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if p.cpuIndex >= len(s.values) || s.labels[probeLabel] != "" {
			continue
		}
		var stack []string
		for _, loc := range s.stack {
			stack = append(stack, p.locations[loc]...)
		}
		out[layerOf(stack)] += float64(s.values[p.cpuIndex]) / 1e6
	}
	return out
}
