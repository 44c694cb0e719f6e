package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"pimdsm/internal/hashmap"
	"pimdsm/internal/obs"
)

// The flight recorder: a telemetry job carries every deep observer at once —
// metrics registry, span recorder, and a per-config profiler — and persists
// the merged record as three artifacts when the job finishes:
//
//	profile.json    obs.ProfileSnapshot — cycle attribution (P-node classes,
//	                D-node handler classes, mesh busy/queued), merged across
//	                the configurations this job simulated
//	folded.txt      folded flamegraph stacks (concatenation is valid folded
//	                input, so multi-config jobs collapse naturally)
//	decompose.json  obs.SpanBreakdown — per-phase latency decomposition
//
// Artifacts are content-addressed by the job's configuration keys plus seed,
// not by job id: the record outlives the job table, survives daemon restarts
// through the ArtifactStore index, and resubmitting the same configurations
// after a restart finds the original flight record even though every result
// came from the cache. Like spans, the record only covers configurations the
// job actually simulated — cache hits recorded nothing, which is exactly
// what "record-only" means.

// Artifact kinds, as they appear in endpoint paths.
const (
	ArtifactProfile   = "profile"
	ArtifactFolded    = "folded"
	ArtifactDecompose = "decompose"
)

// artifactFile maps an endpoint kind to the stored file suffix.
func artifactFile(kind string) (string, bool) {
	switch kind {
	case ArtifactProfile:
		return "profile.json", true
	case ArtifactFolded:
		return "folded.txt", true
	case ArtifactDecompose:
		return "decompose.json", true
	}
	return "", false
}

// artifactDigest content-addresses a job's flight record: the sorted config
// keys plus the seed. Sorting makes the address insensitive to batch order —
// the merged record is, too.
func artifactDigest(spec JobSpec) uint64 {
	keys := make([]uint64, len(spec.Configs))
	for i, cs := range spec.Configs {
		keys[i] = cs.Key(spec.Seed)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	var d hashmap.Digest
	d.WriteUint64(KeyVersion)
	d.WriteUint64(spec.Seed)
	for _, k := range keys {
		d.WriteUint64(k)
	}
	return d.Sum64()
}

// artifactName is the stored object name for one kind of a job's record.
func artifactName(spec JobSpec, kind string) string {
	file, _ := artifactFile(kind)
	return fmt.Sprintf("%016x-%s", artifactDigest(spec), file)
}

// Artifact fetch errors, mapped to actionable 404 bodies by the HTTP layer.
var (
	// ErrArtifactNotRecorded: the job never opted into telemetry, or has not
	// finished yet — the parity twin of the metrics/spans 404s.
	ErrArtifactNotRecorded = errors.New("serve: job has no flight-recorder artifact")
	// ErrArtifactUnavailable: the job was telemetry but the artifact is not
	// in the store — evicted by the byte bound, or the job simulated nothing
	// (every config was a cache hit) so there was nothing to record.
	ErrArtifactUnavailable = errors.New("serve: flight-recorder artifact not in store")
)

// Artifact returns one of a finished telemetry job's flight-recorder
// artifacts. With an ArtifactStore configured the store is authoritative
// (every read exercises the LRU, and a restarted daemon serves records for
// re-submitted configurations); without one, artifacts live on the Job.
func (s *Server) Artifact(j *Job, kind string) ([]byte, error) {
	if _, ok := artifactFile(kind); !ok {
		return nil, fmt.Errorf("serve: unknown artifact kind %q", kind)
	}
	s.mu.Lock()
	telemetry, done := j.telemetry, j.state == JobDone
	// Presence is the map key, not slice length: a legitimately empty record
	// (say, a folded file when nothing simulated) is still a recorded one.
	mem, memOK := j.artifacts[kind]
	s.mu.Unlock()
	if !telemetry || !done {
		return nil, ErrArtifactNotRecorded
	}
	if s.artifacts != nil {
		b, ok, err := s.artifacts.Get(artifactName(j.spec, kind))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrArtifactUnavailable
		}
		return b, nil
	}
	if !memOK {
		return nil, ErrArtifactUnavailable
	}
	return mem, nil
}

// ArtifactStore exposes the bounded on-disk store (nil when not configured).
func (s *Server) ArtifactStore() *ArtifactStore { return s.artifacts }

// recordFlight builds a finished telemetry job's three artifacts and either
// persists them to the store (when configured and the job simulated at least
// one configuration — a pure cache-hit job would overwrite a real record
// with an empty one) or parks them on the Job. Called from runJob after a
// successful run, before the job flips to done; j's telemetry fields are no
// longer written by anyone else at that point.
func (s *Server) recordFlight(j *Job) {
	snap := j.profSnap
	if snap == nil {
		snap = &obs.ProfileSnapshot{}
	}
	breakdown := obs.SnapshotSpans(j.spans)
	breakdown.Label = j.id

	encode := map[string]func(io.Writer) error{
		ArtifactProfile: func(w io.Writer) error {
			return json.NewEncoder(w).Encode(snap)
		},
		ArtifactFolded: func(w io.Writer) error {
			_, err := w.Write(j.folded)
			return err
		},
		ArtifactDecompose: func(w io.Writer) error {
			return json.NewEncoder(w).Encode(breakdown)
		},
	}

	// Artifact bytes are part of the tenant's bill: count what actually got
	// written, whichever home the record ends up in.
	var artifactBytes uint64

	if s.artifacts != nil {
		if j.simulated == 0 {
			return
		}
		for kind, enc := range encode {
			name := artifactName(j.spec, kind)
			written := func(w io.Writer) error {
				cw := &countingWriter{w: w}
				err := enc(cw)
				artifactBytes += cw.n
				return err
			}
			if err := s.artifacts.Put(name, written); err != nil {
				s.opt.Log.Error("artifact_write_failed", "job", j.id, "artifact", name, "err", err.Error())
			}
		}
		s.m.artifactBytes.With(j.spec.Tenant).Add(artifactBytes)
		return
	}
	arts := make(map[string][]byte, len(encode))
	for kind, enc := range encode {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			s.opt.Log.Error("artifact_encode_failed", "job", j.id, "kind", kind, "err", err.Error())
			continue
		}
		arts[kind] = buf.Bytes()
		artifactBytes += uint64(buf.Len())
	}
	s.mu.Lock()
	j.artifacts = arts
	s.mu.Unlock()
	s.m.artifactBytes.With(j.spec.Tenant).Add(artifactBytes)
}

// countingWriter counts bytes on their way through to w.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// ArtifactsStatus renders the store listing for the dashboard's artifacts
// section: counters plus the resident records, most recently used first.
func (s *Server) ArtifactsStatus() string {
	if s.artifacts == nil {
		return "artifact store disabled (run with -artifact-dir)\n"
	}
	st := s.artifacts.Stats()
	var b bytes.Buffer
	fmt.Fprintf(&b, "flight-recorder artifacts: %d resident, %d/%d bytes (%d puts, %d hits, %d misses, %d evicted)\n",
		st.Count, st.Bytes, st.Limit, st.Puts, st.Hits, st.Misses, st.Evictions)
	for _, a := range s.artifacts.List() {
		fmt.Fprintf(&b, "  %-44s %8d bytes\n", a.Name, a.Size)
	}
	return b.String()
}
