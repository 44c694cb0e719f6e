package serve

import (
	"bytes"
	"encoding/json"
	"errors"

	"pimdsm/internal/jsonwire"
)

// The hand-written codecs of the wire types a cache hit moves: JobStatus
// (the submit and status replies, and the job member of the result
// envelope) and JobSpec (the submission). Encoders write exactly
// encoding/json's bytes; decoders return exactly encoding/json's value and
// error. Both take a fast path only for what jsonwire handles and give
// everything else to encoding/json, which the fuzz targets in wire_test.go
// hold them to.

// appendJobStatus appends st's JSON encoding to dst: json.Marshal(st), or
// with indent json.MarshalIndent(st, "", "  ") (the API's reply bodies,
// less json.Encoder's trailing newline). The members follow JobStatus's
// field order and omitempty tags.
func appendJobStatus(dst []byte, st JobStatus, indent bool) ([]byte, error) {
	o := jsonwire.Begin(dst, indent)
	o.String("id", st.ID)
	if st.Name != "" {
		o.String("name", st.Name)
	}
	o.String("state", string(st.State))
	if st.Priority != 0 {
		o.Int("priority", int64(st.Priority))
	}
	o.Int("total", int64(st.Total))
	o.Int("done", int64(st.Done))
	o.Int("cache_hits", int64(st.CacheHits))
	o.Int("simulated", int64(st.Simulated))
	o.Int("singleflight_joins", int64(st.Joins))
	if st.Forwarded != 0 {
		o.Int("forwarded", int64(st.Forwarded))
	}
	if st.Telemetry {
		o.Bool("telemetry", true)
	}
	if st.Tenant != "" {
		o.String("tenant", st.Tenant)
	}
	if st.Error != "" {
		o.String("error", st.Error)
	}
	o.Time("submitted_at", st.SubmittedAt)
	if st.StartedAt != nil {
		o.Time("started_at", *st.StartedAt)
	}
	if st.FinishedAt != nil {
		o.Time("finished_at", *st.FinishedAt)
	}
	if b, ok := o.End(); ok {
		return b, nil
	}
	var js []byte
	var err error
	if indent {
		js, err = json.MarshalIndent(st, "", "  ")
	} else {
		js, err = json.Marshal(st)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, js...), nil
}

// jobStatusKeys are JobStatus's JSON member names.
var jobStatusKeys = []string{"id", "name", "state", "priority", "total", "done",
	"cache_hits", "simulated", "singleflight_joins", "forwarded", "telemetry",
	"tenant", "error", "submitted_at", "started_at", "finished_at"}

// decodeJobStatus decodes a JobStatus. The status and whether an error comes
// back always equal json.Unmarshal's into a zero JobStatus.
func decodeJobStatus(b []byte) (JobStatus, error) {
	var st JobStatus
	r := jsonwire.NewReader(b)
	var seen uint64
	for more := r.Object(); more; more = r.More('}') {
		switch r.Member(jobStatusKeys, &seen) {
		case "id":
			st.ID = r.String()
		case "name":
			st.Name = r.String()
		case "state":
			st.State = JobState(r.String())
		case "priority":
			st.Priority = r.Int()
		case "total":
			st.Total = r.Int()
		case "done":
			st.Done = r.Int()
		case "cache_hits":
			st.CacheHits = r.Int()
		case "simulated":
			st.Simulated = r.Int()
		case "singleflight_joins":
			st.Joins = r.Int()
		case "forwarded":
			st.Forwarded = r.Int()
		case "telemetry":
			st.Telemetry = r.Bool()
		case "tenant":
			st.Tenant = r.String()
		case "error":
			st.Error = r.String()
		case "submitted_at":
			st.SubmittedAt = r.Time()
		case "started_at":
			t := r.Time()
			st.StartedAt = &t
		case "finished_at":
			t := r.Time()
			st.FinishedAt = &t
		}
	}
	if r.Done() {
		return st, nil
	}
	st = JobStatus{}
	err := json.Unmarshal(b, &st)
	return st, err
}

// appendJobSpec appends spec's JSON encoding to dst, byte-identical to
// json.Marshal(spec).
func appendJobSpec(dst []byte, spec JobSpec) ([]byte, error) {
	o := jsonwire.Begin(dst, false)
	if spec.Name != "" {
		o.String("name", spec.Name)
	}
	if spec.Priority != 0 {
		o.Int("priority", int64(spec.Priority))
	}
	if spec.Seed != 0 {
		o.Uint("seed", spec.Seed)
	}
	if spec.Metrics {
		o.Bool("metrics", true)
	}
	if spec.Spans {
		o.Bool("spans", true)
	}
	if spec.Telemetry {
		o.Bool("telemetry", true)
	}
	if spec.Tenant != "" {
		o.String("tenant", spec.Tenant)
	}
	o.Key("configs")
	if spec.Configs == nil {
		o.B = append(o.B, "null"...)
	} else {
		o.B = append(o.B, '[')
		for i := range spec.Configs {
			if i > 0 {
				o.B = append(o.B, ',')
			}
			var ok bool
			o.B, ok = appendConfigSpec(o.B, &spec.Configs[i])
			o.OK = o.OK && ok
		}
		o.B = append(o.B, ']')
	}
	if b, ok := o.End(); ok {
		return b, nil
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return dst, err
	}
	return append(dst, js...), nil
}

// appendConfigSpec appends cs as json.Marshal does, false when that needs
// encoding/json itself.
func appendConfigSpec(dst []byte, cs *ConfigSpec) ([]byte, bool) {
	o := jsonwire.Begin(dst, false)
	o.String("arch", cs.Arch)
	o.String("app", cs.App)
	if cs.Scale != 0 {
		o.Float("scale", cs.Scale)
	}
	o.Int("threads", int64(cs.Threads))
	o.Float("pressure", cs.Pressure)
	if cs.DRatio != 0 {
		o.Int("dratio", int64(cs.DRatio))
	}
	if cs.DNodes != 0 {
		o.Int("dnodes", int64(cs.DNodes))
	}
	if cs.PMemBytes != 0 {
		o.Uint("pmem_bytes", cs.PMemBytes)
	}
	if cs.DMemTotal != 0 {
		o.Uint("dmem_total", cs.DMemTotal)
	}
	if cs.OnChipFraction != 0 {
		o.Float("on_chip_fraction", cs.OnChipFraction)
	}
	if cs.SharedMinFrac != 0 {
		o.Float("shared_min_frac", cs.SharedMinFrac)
	}
	if cs.HandlerScale != 0 {
		o.Float("handler_scale", cs.HandlerScale)
	}
	if cs.DMemSetAssoc != 0 {
		o.Int("dmem_set_assoc", int64(cs.DMemSetAssoc))
	}
	return o.End()
}

// JobSpec's and ConfigSpec's JSON member names.
var (
	jobSpecKeys = []string{"name", "priority", "seed", "metrics", "spans",
		"telemetry", "tenant", "configs"}
	configSpecKeys = []string{"arch", "app", "scale", "threads", "pressure",
		"dratio", "dnodes", "pmem_bytes", "dmem_total", "on_chip_fraction",
		"shared_min_frac", "handler_scale", "dmem_set_assoc"}
)

// errTrailingData rejects a submission with bytes after its one JSON value.
var errTrailingData = errors.New("data after the JSON value")

// decodeJobSpec decodes a submission body: exactly one JSON value, read as a
// json.Decoder with DisallowUnknownFields reads it, then nothing but
// whitespace. The spec and whether an error comes back always equal that
// decoder's, with a trailing value an error.
func decodeJobSpec(b []byte) (JobSpec, error) {
	var spec JobSpec
	r := jsonwire.NewReader(b)
	var seen uint64
	for more := r.Object(); more; more = r.More('}') {
		switch r.Member(jobSpecKeys, &seen) {
		case "name":
			spec.Name = r.String()
		case "priority":
			spec.Priority = r.Int()
		case "seed":
			spec.Seed = r.Uint()
		case "metrics":
			spec.Metrics = r.Bool()
		case "spans":
			spec.Spans = r.Bool()
		case "telemetry":
			spec.Telemetry = r.Bool()
		case "tenant":
			spec.Tenant = r.String()
		case "configs":
			spec.Configs = []ConfigSpec{}
			for more := r.Array(); more; more = r.More(']') {
				spec.Configs = append(spec.Configs, readConfigSpec(&r))
			}
		}
	}
	if r.Done() {
		return spec, nil
	}
	spec = JobSpec{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if jsonwire.SkipSpace(b, int(dec.InputOffset())) != len(b) {
		return spec, errTrailingData
	}
	return spec, nil
}

// readConfigSpec reads one ConfigSpec object.
func readConfigSpec(r *jsonwire.Reader) ConfigSpec {
	var cs ConfigSpec
	var seen uint64
	for more := r.Object(); more; more = r.More('}') {
		switch r.Member(configSpecKeys, &seen) {
		case "arch":
			cs.Arch = r.String()
		case "app":
			cs.App = r.String()
		case "scale":
			cs.Scale = r.Float()
		case "threads":
			cs.Threads = r.Int()
		case "pressure":
			cs.Pressure = r.Float()
		case "dratio":
			cs.DRatio = r.Int()
		case "dnodes":
			cs.DNodes = r.Int()
		case "pmem_bytes":
			cs.PMemBytes = r.Uint()
		case "dmem_total":
			cs.DMemTotal = r.Uint()
		case "on_chip_fraction":
			cs.OnChipFraction = r.Float()
		case "shared_min_frac":
			cs.SharedMinFrac = r.Float()
		case "handler_scale":
			cs.HandlerScale = r.Float()
		case "dmem_set_assoc":
			cs.DMemSetAssoc = r.Int()
		}
	}
	return cs
}
