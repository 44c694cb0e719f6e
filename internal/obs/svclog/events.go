package svclog

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"pimdsm/internal/jsonwire"
)

// JobEventKind names one step of a job's path through the service.
type JobEventKind string

// The job lifecycle state machine (DESIGN.md §11): submitted → queued →
// started → {cache_hit | joined | simulated [→ persisted]} per config →
// done | failed, or aborted straight from queued during a drain.
const (
	EvSubmitted JobEventKind = "submitted"
	EvQueued    JobEventKind = "queued"
	EvStarted   JobEventKind = "started"
	EvCacheHit  JobEventKind = "cache_hit"
	EvJoined    JobEventKind = "joined"
	EvSimulated JobEventKind = "simulated"
	EvPersisted JobEventKind = "persisted"
	EvDone      JobEventKind = "done"
	EvFailed    JobEventKind = "failed"
	EvAborted   JobEventKind = "aborted"
)

// JobEvent is one lifecycle event. Seq is the event log's global sequence
// number — strictly increasing, dense, and the SSE Last-Event-ID cursor.
// Config is the index of the configuration the event concerns, -1 for
// job-level events. SinceSubmitUS and QueueDepth are the wall-time and
// backlog attribution: where the job's latency actually went.
type JobEvent struct {
	Seq           uint64       `json:"seq"`
	Job           string       `json:"job"`
	Kind          JobEventKind `json:"kind"`
	At            time.Time    `json:"at"`
	SinceSubmitUS int64        `json:"since_submit_us"`
	QueueDepth    int          `json:"queue_depth"`
	Running       int          `json:"running"`
	Config        int          `json:"config"`
	Cycles        uint64       `json:"cycles,omitempty"`
	Tenant        string       `json:"tenant,omitempty"`
	Detail        string       `json:"detail,omitempty"`
}

// AppendJobEvent appends ev's JSON encoding to dst, byte-identical to
// json.Marshal(ev): the members follow JobEvent's field order and omitempty
// tags. An event the jsonwire writer cannot encode as encoding/json would
// goes to json.Marshal itself, whose error is returned.
func AppendJobEvent(dst []byte, ev JobEvent) ([]byte, error) {
	o := jsonwire.Begin(dst, false)
	o.Uint("seq", ev.Seq)
	o.String("job", ev.Job)
	o.String("kind", string(ev.Kind))
	o.Time("at", ev.At)
	o.Int("since_submit_us", ev.SinceSubmitUS)
	o.Int("queue_depth", int64(ev.QueueDepth))
	o.Int("running", int64(ev.Running))
	o.Int("config", int64(ev.Config))
	if ev.Cycles != 0 {
		o.Uint("cycles", ev.Cycles)
	}
	if ev.Tenant != "" {
		o.String("tenant", ev.Tenant)
	}
	if ev.Detail != "" {
		o.String("detail", ev.Detail)
	}
	if b, ok := o.End(); ok {
		return b, nil
	}
	js, err := json.Marshal(ev)
	if err != nil {
		return dst, err
	}
	return append(dst, js...), nil
}

// jobEventKeys are JobEvent's JSON member names.
var jobEventKeys = []string{"seq", "job", "kind", "at", "since_submit_us",
	"queue_depth", "running", "config", "cycles", "tenant", "detail"}

// DecodeJobEvent decodes one JSON-encoded event. The event and whether an
// error comes back always equal json.Unmarshal's into a zero JobEvent: a
// body of the plain shape jsonwire.Reader takes, with known keys each at
// most once, is read directly, and anything else goes to json.Unmarshal.
func DecodeJobEvent(b []byte) (JobEvent, error) {
	var ev JobEvent
	r := jsonwire.NewReader(b)
	var seen uint64
	for more := r.Object(); more; more = r.More('}') {
		switch r.Member(jobEventKeys, &seen) {
		case "seq":
			ev.Seq = r.Uint()
		case "job":
			ev.Job = r.String()
		case "kind":
			ev.Kind = JobEventKind(r.String())
		case "at":
			ev.At = r.Time()
		case "since_submit_us":
			ev.SinceSubmitUS = r.Int64()
		case "queue_depth":
			ev.QueueDepth = r.Int()
		case "running":
			ev.Running = r.Int()
		case "config":
			ev.Config = r.Int()
		case "cycles":
			ev.Cycles = r.Uint()
		case "tenant":
			ev.Tenant = r.String()
		case "detail":
			ev.Detail = r.String()
		}
	}
	if r.Done() {
		return ev, nil
	}
	ev = JobEvent{}
	err := json.Unmarshal(b, &ev)
	return ev, err
}

// EventLogStats counts the log's traffic.
type EventLogStats struct {
	Appended    uint64 `json:"appended"`
	Dropped     uint64 `json:"dropped"`
	Subscribers int    `json:"subscribers"`
}

type subscriber struct {
	ch chan JobEvent
}

// EventLog is the service's lifecycle event hub: a bounded global ring (the
// SSE replay window), every job's complete event chain, and live
// subscribers. A chain keeps each event's time whole and varint-packs the
// rest into one byte stream, without its job id (see chain), and is trimmed
// to length when the terminal event lands.
// Appends assign the global sequence; a subscriber that falls behind its
// buffer has events dropped — its consumer detects the sequence gap and
// resyncs from the ring, exactly what an SSE client reconnecting with
// Last-Event-ID does.
type EventLog struct {
	mu      sync.Mutex
	seq     uint64
	ring    []JobEvent // ring[(seq-1) % len] once seq > 0
	perJob  map[string]chain
	subs    map[*subscriber]struct{}
	dropped uint64
}

// NewEventLog returns an event log whose replay ring holds ringSize events
// (default 4096 when ringSize <= 0).
func NewEventLog(ringSize int) *EventLog {
	if ringSize <= 0 {
		ringSize = 4096
	}
	return &EventLog{
		ring:   make([]JobEvent, 0, ringSize),
		perJob: make(map[string]chain),
		subs:   make(map[*subscriber]struct{}),
	}
}

// Append assigns the next sequence number to ev, records it, and fans it out
// to subscribers (non-blocking: a full subscriber buffer drops the event for
// that subscriber only). Returns the event with Seq set.
func (l *EventLog) Append(ev JobEvent) JobEvent {
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[(ev.Seq-1)%uint64(cap(l.ring))] = ev
	}
	l.perJob[ev.Job] = l.perJob[ev.Job].append(ev)
	for s := range l.subs {
		select {
		case s.ch <- ev:
		default:
			l.dropped++
		}
	}
	l.mu.Unlock()
	return ev
}

// Seq returns the last assigned sequence number (0 before any event).
func (l *EventLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Since returns, in sequence order, every event with Seq > after that the
// ring still holds, plus the current head sequence. A caller that finds
// events[0].Seq > after+1 knows the ring rotated past part of its gap.
func (l *EventLog) Since(after uint64) ([]JobEvent, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq <= after {
		return nil, l.seq
	}
	oldest := uint64(1)
	if n := uint64(len(l.ring)); l.seq > n {
		oldest = l.seq - n + 1
	}
	from := after + 1
	if from < oldest {
		from = oldest
	}
	out := make([]JobEvent, 0, l.seq-from+1)
	for s := from; s <= l.seq; s++ {
		out = append(out, l.ring[(s-1)%uint64(cap(l.ring))])
	}
	return out, l.seq
}

// Job returns job id's complete event chain in sequence order, each event
// equal to the one Append returned (empty for an unknown id).
func (l *EventLog) Job(id string) []JobEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.perJob[id].events(id)
}

// Subscribe registers a live listener with the given channel buffer
// (default 256 when buf <= 0). Cancel unregisters and closes the channel.
func (l *EventLog) Subscribe(buf int) (<-chan JobEvent, func()) {
	if buf <= 0 {
		buf = 256
	}
	s := &subscriber{ch: make(chan JobEvent, buf)}
	l.mu.Lock()
	l.subs[s] = struct{}{}
	l.mu.Unlock()
	cancel := func() {
		l.mu.Lock()
		if _, ok := l.subs[s]; ok {
			delete(l.subs, s)
			close(s.ch)
		}
		l.mu.Unlock()
	}
	return s.ch, cancel
}

// Stats snapshots the log's counters.
func (l *EventLog) Stats() EventLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return EventLogStats{Appended: l.seq, Dropped: l.dropped, Subscribers: len(l.subs)}
}

// WriteChromeJSON renders lifecycle events as Chrome trace_event JSON
// (chrome://tracing, Perfetto), the same viewer target as the simulator's
// protocol traces. Timestamps are microseconds since the first event; each
// job gets its own thread track; terminal events additionally emit a
// complete ("X") span covering the job's whole submit→finish life.
func WriteChromeJSON(w io.Writer, events []JobEvent) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	var t0 time.Time
	if len(events) > 0 {
		t0 = events[0].At
	}
	tids := map[string]int{}
	tid := func(job string) int {
		id, ok := tids[job]
		if !ok {
			id = len(tids) + 1
			tids[job] = id
		}
		return id
	}
	first := true
	emit := func(v map[string]any) error {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for _, ev := range events {
		ts := float64(ev.At.Sub(t0).Microseconds())
		args := map[string]any{
			"seq": ev.Seq, "job": ev.Job,
			"queue_depth": ev.QueueDepth, "running": ev.Running,
			"since_submit_us": ev.SinceSubmitUS,
		}
		if ev.Config >= 0 {
			args["config"] = ev.Config
		}
		if ev.Cycles > 0 {
			args["cycles"] = ev.Cycles
		}
		if ev.Tenant != "" {
			args["tenant"] = ev.Tenant
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		if err := emit(map[string]any{
			"name": string(ev.Kind), "cat": "job", "ph": "i", "s": "t",
			"ts": ts, "pid": 0, "tid": tid(ev.Job), "args": args,
		}); err != nil {
			return err
		}
		if terminal(ev.Kind) {
			if err := emit(map[string]any{
				"name": ev.Job, "cat": "job", "ph": "X",
				"ts": ts - float64(ev.SinceSubmitUS), "dur": float64(ev.SinceSubmitUS),
				"pid": 0, "tid": tid(ev.Job),
				"args": map[string]any{"outcome": string(ev.Kind)},
			}); err != nil {
				return err
			}
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
