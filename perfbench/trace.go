package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer, or a
// phase of a service request derived from the service's lifecycle events.
// Spans of one pass or request share ID; Parent indexes the span list (-1
// for a root). Times are nanoseconds from the start of the timed phase.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// setSelfTimes sets each span's self time: its duration minus the part of
// it that its children cover.
func setSelfTimes(spans []span) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k[0], reach), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// writeTrace writes the traced run's spans (with self times and the
// provenance) and its raw CPU profile, for `go tool pprof`.
func (o *outcome) writeTrace(p params) error {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	setSelfTimes(o.spans)
	selfByName := map[string]int64{}
	for _, s := range o.spans {
		selfByName[s.Name] += s.Self
	}
	doc := struct {
		Workload   string           `json:"workload"`
		Seed       int64            `json:"seed"`
		Provenance string           `json:"provenance"`
		SelfByName map[string]int64 `json:"self_ns_by_name"`
		Spans      []span           `json:"spans"`
	}{p.workload, p.seed, provenance(p.root), selfByName, o.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	base := filepath.Join(p.outDir, fmt.Sprintf("%s-seed%d", p.workload, p.seed))
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", o.profile, 0o644)
}

// cpuProfile is a running CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() ([]byte, error) {
	pprof.StopCPUProfile()
	if p.buf.Len() == 0 {
		return nil, errors.New("empty CPU profile")
	}
	return p.buf.Bytes(), nil
}

// cpuByBucket decodes a CPU profile (gzipped profile.proto) and sums its
// CPU nanoseconds by bucket(leaf function, whether the stack is GC work).
func cpuByBucket(data []byte, bucket func(leaf string, gc bool) string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	var (
		strs        []string
		sampleTypes []uint64                // string index of each value's type
		samples     [][2][]uint64           // location ids, values
		locFuncs    = map[uint64][]uint64{} // innermost function first
		funcName    = map[uint64]uint64{}   // function id -> string index
	)
	err = pbFields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := pbFields(b, func(num, wire int, v uint64, b []byte) error {
				if num == 1 || num == 2 {
					return pbUints(&s[num-1], wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s[1]) || len(s[0]) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s[0] {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		if len(stack) == 0 {
			continue
		}
		gc := slices.ContainsFunc(stack, isGCFrame)
		out[bucket(stack[0], gc)] += int64(s[1][cpu])
	}
	return out, nil
}

// gcFramePrefixes mark the runtime's garbage-collection work: background
// and assist marking, sweeping and scavenging.
var gcFramePrefixes = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.markroot", "runtime.scanobject",
	"runtime.(*gcWork)"}

func isGCFrame(fn string) bool {
	for _, p := range gcFramePrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// pkgOf is the import path of a symbol such as
// "pimdsm/internal/sim.(*Resource).Acquire" or "encoding/json.Marshal".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths of their own
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// simBucket files a CPU sample under a simulator package.
func simBucket(leaf string, gc bool) string {
	if gc {
		return "runtime_gc"
	}
	pkg := pkgOf(leaf)
	if name, ok := strings.CutPrefix(pkg, "pimdsm/internal/"); ok && slices.Contains(simPackages, name) {
		return name
	}
	if isRuntime(pkg) {
		return "runtime_other"
	}
	return "other"
}

// svcBucket files a CPU sample under a service-path layer.
func svcBucket(leaf string, gc bool) string {
	pkg := pkgOf(leaf)
	switch {
	case gc:
		return "runtime_gc"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net/textproto":
		return "net_http"
	case pkg == "pimdsm/internal/serve":
		return "serve"
	case pkg == "pimdsm/internal/obs/svclog":
		return "svclog"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall":
		return "syscall"
	case pkg == "main" || pkg == "pimdsm/perfbench": // the latter under go test
		return "bench"
	case isRuntime(pkg):
		return "runtime_other"
	}
	return "other"
}

var errProto = errors.New("malformed protobuf")

// pbFields calls fn for each field of a protobuf message: v holds varint
// and fixed-width values, b the bytes of length-delimited ones.
func pbFields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends one occurrence of a repeated integer field, packed or not.
func pbUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// elapsedNS is t's offset from the start of the timed phase.
func elapsedNS(t, start time.Time) int64 { return t.Sub(start).Nanoseconds() }
