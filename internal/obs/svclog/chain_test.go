package svclog

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"
	"time"
)

// FuzzEventLogChain holds the packed chain to the events Append returned:
// the fuzz bytes drive Appends across one to four interleaved jobs, and
// after every one Job must rebuild each job's events element by element
// with ==, before and after its terminal event. Seeds live in
// testdata/fuzz/FuzzEventLogChain.
func FuzzEventLogChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := chainGen{data: data}
		jobs := 1 + int(g.byte()%4)
		l := NewEventLog(2)
		want := make([][]JobEvent, jobs)
		for n := 0; len(g.data) > 0 && n < 64; n++ {
			j := int(g.byte()) % jobs
			var prev JobEvent
			if len(want[j]) > 0 {
				prev = want[j][len(want[j])-1]
			}
			want[j] = append(want[j], l.Append(g.event("j-00000"+strconv.Itoa(j+1), prev)))
			for k, evs := range want {
				got := l.Job("j-00000" + strconv.Itoa(k+1))
				if len(got) != len(evs) {
					t.Fatalf("after append %d: job %d has %d events, want %d", n, k+1, len(got), len(evs))
				}
				for i := range got {
					if got[i] != evs[i] {
						t.Fatalf("after append %d: job %d event %d:\n got %#v\nwant %#v", n, k+1, i, got[i], evs[i])
					}
				}
			}
		}
	})
}

// chainGen reads events from fuzz bytes; once they run out it reads zeros.
type chainGen struct {
	data []byte
}

func (g *chainGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *chainGen) bytes(n int) []byte {
	n = min(n, len(g.data))
	b := g.data[:n]
	g.data = g.data[n:]
	return b
}

func (g *chainGen) u64() uint64 {
	var b [8]byte
	copy(b[:], g.bytes(8))
	return binary.LittleEndian.Uint64(b[:])
}

func (g *chainGen) int64() int64 {
	switch g.byte() % 6 {
	case 0:
		return 0
	case 1:
		return -1
	case 2:
		return math.MaxInt64
	case 3:
		return math.MinInt64
	case 4:
		return int64(int8(g.byte()))
	}
	return int64(g.u64())
}

func (g *chainGen) uint64() uint64 {
	switch g.byte() % 4 {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return uint64(g.byte())
	}
	return g.u64()
}

func (g *chainGen) kind() JobEventKind {
	switch k := int(g.byte()) % (len(knownKinds) + 3); k {
	case len(knownKinds):
		return "rebalanced"
	case len(knownKinds) + 1:
		return ""
	case len(knownKinds) + 2:
		return JobEventKind(g.bytes(int(g.byte() % 8)))
	default:
		return knownKinds[k]
	}
}

// text returns an empty, repeated, fixed, invalid-UTF-8 or fuzzed string.
func (g *chainGen) text(prev string) string {
	switch g.byte() % 6 {
	case 0:
		return ""
	case 1:
		return prev
	case 2:
		return "acme"
	case 3:
		return "globex"
	case 4:
		return "\xff\xfe\xc0"
	}
	return string(g.bytes(int(g.byte() % 16)))
}

// time returns a time with a monotonic reading, one without, one in UTC or
// one in a fixed zone.
func (g *chainGen) time() time.Time {
	switch g.byte() % 4 {
	case 0:
		return time.Now()
	case 1:
		return time.Unix(g.int64(), int64(g.u64()%1e9))
	case 2:
		return time.Now().UTC()
	}
	return time.Unix(g.int64(), 0).In(time.FixedZone("Z", int(int32(g.u64())%86400)))
}

func (g *chainGen) event(job string, prev JobEvent) JobEvent {
	return JobEvent{
		Job:           job,
		Kind:          g.kind(),
		At:            g.time(),
		SinceSubmitUS: g.int64(),
		QueueDepth:    int(g.int64()),
		Running:       int(g.int64()),
		Config:        int(g.int64()),
		Cycles:        g.uint64(),
		Tenant:        g.text(prev.Tenant),
		Detail:        g.text(prev.Detail),
	}
}

// fig6Chain is the chain of an all-hit Figure-6 batch: submitted, queued,
// started, seven cache hits and done, each stamped when it is built.
func fig6Chain(job string) []JobEvent {
	submitted := time.Now()
	evs := make([]JobEvent, 0, 11)
	add := func(kind JobEventKind, config int, detail string) {
		now := time.Now()
		evs = append(evs, JobEvent{Job: job, Kind: kind, At: now,
			SinceSubmitUS: now.Sub(submitted).Microseconds(), Running: 1,
			Config: config, Detail: detail})
	}
	add(EvSubmitted, -1, "fig6-fft")
	add(EvQueued, -1, "")
	add(EvStarted, -1, "")
	for i := range 7 {
		add(EvCacheHit, i, "")
	}
	add(EvDone, -1, "")
	return evs
}

// BenchmarkEventLogChain measures a Figure-6 job's chain in the event log:
// append records one 11-event chain per op into a log that holds up to
// 1,024 finished chains, and job rebuilds one with Job.
func BenchmarkEventLogChain(b *testing.B) {
	const jobs = 1024
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = "j-" + strconv.Itoa(1000000 + i)[1:]
	}
	chain := fig6Chain("")
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var l *EventLog
		for i := 0; i < b.N; i++ {
			if i%jobs == 0 {
				b.StopTimer()
				l = NewEventLog(0)
				b.StartTimer()
			}
			for _, ev := range chain {
				ev.Job = ids[i%jobs]
				l.Append(ev)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(chain)), "ns/event")
	})
	b.Run("job", func(b *testing.B) {
		l := NewEventLog(0)
		for _, ev := range chain {
			ev.Job = ids[0]
			l.Append(ev)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(l.Job(ids[0])) != len(chain) {
				b.Fatal("chain lost events")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(chain)), "ns/event")
	})
}
