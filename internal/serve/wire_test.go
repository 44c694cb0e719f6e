package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzJobStatusCodec holds the JobStatus codec to encoding/json: compact
// output equals json.Marshal, indented output plus a newline equals
// json.Encoder with SetIndent("", "  "), and decodeJobStatus returns
// json.Unmarshal's status and error-ness on that encoding and on arbitrary
// bytes. zone is the times' UTC offset in seconds. Seeds live in
// testdata/fuzz/FuzzJobStatusCodec.
func FuzzJobStatusCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, id, name, state, tenant, errMsg string,
		priority, total, done, hits, simulated, joins, forwarded int, telemetry bool,
		sec, nsec int64, zone int, started, finished bool, data []byte) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", zone))
		st := JobStatus{ID: id, Name: name, State: JobState(state), Priority: priority,
			Total: total, Done: done, CacheHits: hits, Simulated: simulated, Joins: joins,
			Forwarded: forwarded, Telemetry: telemetry, Tenant: tenant, Error: errMsg,
			SubmittedAt: at}
		if started {
			st.StartedAt = &at
		}
		if finished {
			later := at.Add(time.Duration(nsec))
			st.FinishedAt = &later
		}

		got, gotErr := appendJobStatus([]byte(`{"job":`), st, false)
		want, wantErr := json.Marshal(st)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("compact: error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, append([]byte(`{"job":`), want...)) {
			t.Fatalf("compact:\n %s\njson.Marshal:\n {\"job\":%s", got, want)
		}
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		encErr := e.Encode(st)
		got, gotErr = appendJobStatus(nil, st, true)
		if (gotErr == nil) != (encErr == nil) {
			t.Fatalf("indented: error %v, json.Encoder error %v", gotErr, encErr)
		}
		if encErr == nil && !bytes.Equal(append(got, '\n'), enc.Bytes()) {
			t.Fatalf("indented:\n %s\njson.Encoder:\n %s", got, enc.Bytes())
		}

		for _, b := range [][]byte{want, enc.Bytes(), data} {
			if len(b) == 0 {
				continue
			}
			got, gotErr := decodeJobStatus(b)
			var want JobStatus
			wantErr := json.Unmarshal(b, &want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: decode error %v, json.Unmarshal error %v", b, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: decoded\n %+v\njson.Unmarshal\n %+v", b, got, want)
			}
		}
	})
}

// decodeJobSpecReference is the submission decoder decodeJobSpec must
// equal: a json.Decoder with DisallowUnknownFields reads one value, and
// anything but whitespace after it is an error.
func decodeJobSpecReference(b []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errTrailingData
	}
	return spec, nil
}

// FuzzJobSpecDecode holds decodeJobSpec to decodeJobSpecReference on
// arbitrary bytes, in the decoded spec and in error-ness. Every spec that
// decodes is then encoded, and appendJobSpec must equal json.Marshal.
// Seeds live in testdata/fuzz/FuzzJobSpecDecode.
func FuzzJobSpecDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeJobSpec(data)
		want, wantErr := decodeJobSpecReference(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeJobSpec error %v, json.Decoder error %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeJobSpec\n %+v\njson.Decoder\n %+v", data, got, want)
		}
		if gotErr != nil {
			return
		}
		enc, encErr := appendJobSpec(nil, got)
		ref, refErr := json.Marshal(got)
		if (encErr == nil) != (refErr == nil) || !bytes.Equal(enc, ref) {
			t.Fatalf("appendJobSpec %s (%v), json.Marshal %s (%v)", enc, encErr, ref, refErr)
		}
	})
}

// TestAppendJobSpecMatchesJSON pins the submission encoder on the float
// formats encoding/json switches between (the 1e-6 and 1e21 cutoffs, the
// e-0X clean-up), on values it rejects, and on the shapes of the configs
// member.
func TestAppendJobSpecMatchesJSON(t *testing.T) {
	cs := func(f float64) ConfigSpec {
		return ConfigSpec{Arch: "agg", App: "fft", Scale: f, Threads: 8, Pressure: f, HandlerScale: f}
	}
	specs := []JobSpec{
		{},
		{Configs: []ConfigSpec{}},
		{Name: `x<y>&"z"`, Tenant: "t ", Configs: []ConfigSpec{cs(0.02)}},
		{Name: "all", Priority: -3, Metrics: true, Spans: true, Telemetry: true,
			Tenant: "acme", Configs: fig6Batch("fft", 32, 0.02)},
		{Configs: []ConfigSpec{{Arch: "agg", App: "lu", Threads: 4, Pressure: 0.5, DRatio: 2, DNodes: 3,
			PMemBytes: 1 << 40, DMemTotal: 7, OnChipFraction: 0.25, SharedMinFrac: 0.125, DMemSetAssoc: 4}}},
	}
	for _, f := range []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		1e-7, 1e-9, 1.5e-10, 1e20, 1e22, 123456789.125, -0.0, math.Copysign(0, -1), -1e-6,
		5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		specs = append(specs, JobSpec{Configs: []ConfigSpec{cs(f)}})
	}
	for _, spec := range specs {
		got, gotErr := appendJobSpec([]byte("x"), spec)
		want, wantErr := json.Marshal(spec)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%+v: error %v, json.Marshal error %v", spec, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("appendJobSpec wrote\n %s\njson.Marshal\n x%s", got, want)
		}
	}
}
