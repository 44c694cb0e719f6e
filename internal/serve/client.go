package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimdsm/internal/jsonwire"
	"pimdsm/internal/obs/svclog"
)

// Client talks to an aggsimd daemon over its JSON/HTTP API. Against a
// clustered daemon it follows ownership redirects transparently: a 421
// Misdirected Request repoints the client at the named peer, and all later
// requests (status, wait, result) go there too, so the job is watched on the
// node that actually holds it. Use by pointer, not value.
type Client struct {
	// Base is the daemon address: "host:port" or a full "http://..." URL.
	Base string
	// HTTP overrides the transport (nil means http.DefaultClient).
	HTTP *http.Client
	// APIKey, when non-empty, authenticates every request as a tenant
	// (Authorization: Bearer). Required against a daemon running with
	// -tenants-file; ignored by an anonymous daemon.
	APIKey string

	// mu guards peerBase, the sticky cluster-redirect target (empty until a
	// 421 arrives; reset to Base by ResetPeer).
	mu       sync.Mutex
	peerBase string

	// sleep and rnd are test seams for SubmitRetry's jittered backoff: sleep
	// replaces the context-aware wait, rnd the uniform [0,1) draw. Nil means
	// the real thing.
	sleep func(time.Duration)
	rnd   func() float64
}

// NewClient returns a client for the daemon at addr.
func NewClient(addr string) *Client { return &Client{Base: addr} }

// base returns the address requests go to: the last cluster redirect target,
// or Base before any redirect.
func (c *Client) base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.peerBase != "" {
		return c.peerBase
	}
	return c.Base
}

// setPeer repoints the client at a cluster peer.
func (c *Client) setPeer(addr string) {
	c.mu.Lock()
	c.peerBase = addr
	c.mu.Unlock()
}

// ResetPeer forgets any cluster redirect, returning to Base.
func (c *Client) ResetPeer() { c.setPeer("") }

func (c *Client) url(path string) string {
	base := c.base()
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/") + path
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// newRequest builds a request with the client's API key attached (when set).
func (c *Client) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	var req *http.Request
	var err error
	if ctx != nil {
		req, err = http.NewRequestWithContext(ctx, method, url, body)
	} else {
		req, err = http.NewRequest(method, url, body)
	}
	if err != nil {
		return nil, err
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	return req, nil
}

// apiError decodes a non-2xx response into an error; 429 becomes *BusyError
// (carrying the server's tenant/reason attribution when present). 401/403
// stay plain errors, so SubmitRetry never retries an auth failure.
func apiError(resp *http.Response, body []byte) error {
	var eb errorBody
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		sec := eb.RetryAfterSec
		if sec < 1 {
			sec = 1
		}
		return &BusyError{
			RetryAfter: time.Duration(sec) * time.Second,
			Tenant:     eb.Tenant,
			Reason:     eb.Reason,
		}
	}
	return fmt.Errorf("serve: %s: %s", resp.Status, msg)
}

// maxPresizedBody caps the buffer readBody allocates up front on the
// server's word (Content-Length); a larger body still reads, just grown.
const maxPresizedBody = 64 << 20

// readBody reads a response body into one buffer sized from Content-Length
// when the server sent one. It reads to EOF either way, so the connection is
// reused.
func readBody(resp *http.Response) ([]byte, error) {
	return readSized(resp.Body, resp.ContentLength, maxPresizedBody)
}

// readSized reads rd to EOF into one buffer sized for the n bytes the peer
// announced, when 0 < n <= max, instead of growing it step by step through
// io.ReadAll.
func readSized(rd io.Reader, n, max int64) ([]byte, error) {
	if n <= 0 || n > max {
		return io.ReadAll(rd)
	}
	var buf bytes.Buffer
	buf.Grow(int(n) + bytes.MinRead)
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

func (c *Client) get(path string, out any) error {
	body, err := c.raw(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// Submit posts a job. A full admission window surfaces as *BusyError with
// the server's retry-after hint. Cluster ownership redirects (421) are
// followed transparently, at most maxRedirectHops times; the follow-up
// submission carries X-Aggsimd-Forwarded so the receiving node serves it
// rather than bouncing again, and the redirect target sticks for the
// client's later status/result calls.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	var st JobStatus
	buf, err := appendJobSpec(nil, spec)
	if err != nil {
		return st, err
	}
	const maxRedirectHops = 3
	forwarded := false
	for hop := 0; ; hop++ {
		req, err := c.newRequest(nil, "POST", c.url("/api/v1/jobs"), bytes.NewReader(buf))
		if err != nil {
			return st, err
		}
		req.Header.Set("Content-Type", "application/json")
		if forwarded {
			req.Header.Set(forwardedHeader, "1")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return st, err
		}
		body, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			return st, err
		}
		if resp.StatusCode == http.StatusMisdirectedRequest && hop < maxRedirectHops {
			var eb errorBody
			if json.Unmarshal(body, &eb) == nil && eb.Peer != "" {
				c.setPeer(eb.Peer)
				forwarded = true
				continue
			}
		}
		if resp.StatusCode != http.StatusAccepted {
			return st, apiError(resp, body)
		}
		return decodeJobStatus(body)
	}
}

// SubmitRetry posts a job, honoring admission-control pushback with capped
// exponential backoff and full jitter: on the nth consecutive 429 the client
// sleeps uniform(0, min(cap, hint·2ⁿ)) — the server's Retry-After hint is
// the base, maxSleep the cap (a non-positive maxSleep uses 30s) — then
// resubmits, up to maxRetries retries. Full jitter decorrelates a fleet of
// pushed-back clients: without it every client that got the same hint
// returns in the same instant and the window fills again before anyone
// lands. Any other error is returned immediately. The returned count is how
// many 429s were absorbed.
func (c *Client) SubmitRetry(ctx context.Context, spec JobSpec, maxRetries int, maxSleep time.Duration) (JobStatus, int, error) {
	cap := maxSleep
	if cap <= 0 {
		cap = 30 * time.Second
	}
	retries := 0
	for {
		st, err := c.Submit(spec)
		var be *BusyError
		if err == nil || !errors.As(err, &be) {
			return st, retries, err
		}
		if retries >= maxRetries {
			return st, retries, err
		}
		window := backoffWindow(be.RetryAfter, retries, cap)
		retries++
		rnd := c.rnd
		if rnd == nil {
			rnd = rand.Float64
		}
		sleep := time.Duration(rnd() * float64(window))
		if c.sleep != nil {
			c.sleep(sleep)
			if err := ctx.Err(); err != nil {
				return st, retries, err
			}
			continue
		}
		select {
		case <-ctx.Done():
			return st, retries, ctx.Err()
		case <-time.After(sleep):
		}
	}
}

// backoffWindow is the jitter window for the nth retry (0-based): the
// server's hint doubled n times, capped. The shift saturates instead of
// overflowing.
func backoffWindow(hint time.Duration, n int, cap time.Duration) time.Duration {
	if hint <= 0 {
		hint = time.Second
	}
	if n > 62 {
		n = 62
	}
	w := hint
	for i := 0; i < n; i++ {
		w *= 2
		if w >= cap || w < 0 {
			return cap
		}
	}
	if w > cap {
		return cap
	}
	return w
}

// Status fetches one job's status.
func (c *Client) Status(id string) (JobStatus, error) {
	body, err := c.raw("/api/v1/jobs/" + id)
	if err != nil {
		return JobStatus{}, err
	}
	return decodeJobStatus(body)
}

// Jobs lists every job on the daemon.
func (c *Client) Jobs() ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err := c.get("/api/v1/jobs", &out)
	return out.Jobs, err
}

// Result fetches a finished job's results. The returned raw messages are
// the canonical result JSON, byte-identical to what a direct run encodes;
// they are sub-slices of the one response buffer, not copies.
func (c *Client) Result(id string) (JobStatus, []json.RawMessage, error) {
	body, err := c.raw("/api/v1/jobs/" + id + "/result")
	if err != nil {
		return JobStatus{}, nil, err
	}
	env, err := decodeResultEnvelope(body)
	if err != nil {
		return JobStatus{}, nil, err
	}
	return env.Job, env.Results, nil
}

// decodeResultEnvelope decodes a GET .../result body in one pass:
// scanResultEnvelope checks the whole body and finds the two members in the
// same walk, the results become sub-slices of body, and only the small job
// object goes through decodeJobStatus. Invalid JSON, or any shape other than
// the one the server writes — another, repeated or escaped key, a results
// that is not an array — falls back to json.Unmarshal, so the outcome always
// equals json.Unmarshal(body, &env).
func decodeResultEnvelope(body []byte) (resultEnvelope, error) {
	var env resultEnvelope
	if job, results, ok := scanResultEnvelope(body); ok {
		var err error
		if job != nil {
			env.Job, err = decodeJobStatus(job)
		}
		if err == nil {
			env.Results = results
			return env, nil
		}
		env = resultEnvelope{} // a job type mismatch: let Unmarshal report it
	}
	err := json.Unmarshal(body, &env)
	return env, err
}

// scanResultEnvelope checks that b is one valid JSON document and finds the
// "job" and "results" members of its top-level object in the same walk. ok
// is false for invalid JSON and for anything but an object whose keys are
// exactly "job" and "results", each at most once, with an array for
// results; ok implies json.Valid(b). The results are capacity-capped
// sub-slices of b. A missing member comes back nil, as json.Unmarshal
// leaves it; an empty results array is a non-nil empty slice, as
// json.Unmarshal makes it.
func scanResultEnvelope(b []byte) (job []byte, results []json.RawMessage, ok bool) {
	i := jsonwire.SkipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, nil, false
	}
	i = jsonwire.SkipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil, nil, jsonwire.SkipSpace(b, i+1) == len(b)
	}
	var seenJob, seenResults bool
	for {
		if i == len(b) || b[i] != '"' {
			return nil, nil, false
		}
		end := jsonwire.ScanString(b, i)
		if end < 0 {
			return nil, nil, false
		}
		key := b[i+1 : end-1]
		if i = jsonwire.SkipSpace(b, end); i == len(b) || b[i] != ':' {
			return nil, nil, false
		}
		i = jsonwire.SkipSpace(b, i+1)
		switch string(key) {
		case "job":
			if seenJob {
				return nil, nil, false
			}
			seenJob = true
			if end = jsonwire.ScanValue(b, i, 1); end >= 0 {
				job = b[i:end]
			}
		case "results":
			if seenResults || i == len(b) || b[i] != '[' {
				return nil, nil, false
			}
			seenResults = true
			results = []json.RawMessage{}
			end = jsonwire.ScanArray(b, i, 2, &results)
		default:
			return nil, nil, false
		}
		if end < 0 {
			return nil, nil, false
		}
		if i = jsonwire.SkipSpace(b, end); i == len(b) {
			return nil, nil, false
		}
		switch b[i] {
		case ',':
			i = jsonwire.SkipSpace(b, i+1)
		case '}':
			if jsonwire.SkipSpace(b, i+1) != len(b) {
				return nil, nil, false
			}
			return job, results, true
		default:
			return nil, nil, false
		}
	}
}

// Metrics fetches a finished job's metrics registry JSON.
func (c *Client) Metrics(id string) ([]byte, error) {
	return c.raw("/api/v1/jobs/" + id + "/metrics")
}

// Spans fetches a finished job's span recorder in PDS1 binary form.
func (c *Client) Spans(id string) ([]byte, error) {
	return c.raw("/api/v1/jobs/" + id + "/spans")
}

// Profile fetches a telemetry job's merged profile snapshot
// (obs.ProfileSnapshot JSON).
func (c *Client) Profile(id string) ([]byte, error) {
	return c.raw("/api/v1/jobs/" + id + "/profile")
}

// Folded fetches a telemetry job's folded flamegraph stacks.
func (c *Client) Folded(id string) ([]byte, error) {
	return c.raw("/api/v1/jobs/" + id + "/folded")
}

// Decompose fetches a telemetry job's span decomposition
// (obs.SpanBreakdown JSON).
func (c *Client) Decompose(id string) ([]byte, error) {
	return c.raw("/api/v1/jobs/" + id + "/decompose")
}

// raw GETs path and returns the 2xx body; any other status becomes an
// apiError.
func (c *Client) raw(path string) ([]byte, error) {
	req, err := c.newRequest(nil, "GET", c.url(path), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp, body)
	}
	return body, nil
}

// Stats fetches the server counters.
func (c *Client) Stats() (ServerStats, error) {
	var st ServerStats
	err := c.get("/api/v1/stats", &st)
	return st, err
}

// Tenants lists every tenant's quotas and usage (404 against an anonymous
// daemon).
func (c *Client) Tenants() ([]TenantSnapshot, error) {
	var out struct {
		Tenants []TenantSnapshot `json:"tenants"`
	}
	err := c.get("/api/v1/tenants", &out)
	return out.Tenants, err
}

// Usage fetches one tenant's usage: process-lifetime counters plus the
// cumulative restart-surviving ledger.
func (c *Client) Usage(name string) (TenantSnapshot, error) {
	var snap TenantSnapshot
	err := c.get("/api/v1/tenants/"+url.PathEscape(name)+"/usage", &snap)
	return snap, err
}

// Wait polls until the job reaches a terminal state (or ctx expires) and
// returns the final status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case JobDone, JobFailed, JobAborted:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// JobEvents fetches the complete lifecycle event chain for one job.
func (c *Client) JobEvents(id string) ([]svclog.JobEvent, error) {
	var out struct {
		Events []svclog.JobEvent `json:"events"`
	}
	err := c.get("/api/v1/jobs/"+id+"/events", &out)
	return out.Events, err
}

// StreamEvents subscribes to the daemon's SSE event stream and invokes fn
// for every lifecycle event received. lastID resumes after a previously seen
// sequence number (0 means from now on); job filters to one job and tenant
// to one tenant's jobs when non-empty. It returns the last sequence number
// delivered, so a caller can reconnect with it after a dropped connection.
// The stream ends when ctx is canceled or the server closes the connection.
func (c *Client) StreamEvents(ctx context.Context, lastID uint64, job, tenant string, fn func(svclog.JobEvent)) (uint64, error) {
	q := url.Values{}
	if job != "" {
		q.Set("job", job)
	}
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	u := c.url("/api/v1/events")
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := c.newRequest(ctx, "GET", u, nil)
	if err != nil {
		return lastID, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return lastID, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return lastID, apiError(resp, body)
	}

	// Minimal SSE frame parser: frames are separated by blank lines; we
	// care about "id:" and "data:" fields and ignore comment keepalives.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data, frameID []byte
	flush := func() error {
		defer func() { data, frameID = data[:0], frameID[:0] }()
		if len(data) == 0 {
			return nil
		}
		ev, err := svclog.DecodeJobEvent(data)
		if err != nil {
			return fmt.Errorf("serve: bad SSE event payload: %w", err)
		}
		if id, err := strconv.ParseUint(string(frameID), 10, 64); err == nil {
			lastID = id
		} else if ev.Seq > 0 {
			lastID = ev.Seq
		}
		fn(ev)
		return nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if err := flush(); err != nil {
				return lastID, err
			}
		case line[0] == ':':
			// keepalive comment
		case bytes.HasPrefix(line, sseID):
			frameID = append(frameID[:0], bytes.TrimSpace(line[len(sseID):])...)
		case bytes.HasPrefix(line, sseData):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimSpace(line[len(sseData):])...)
		}
	}
	if err := flush(); err != nil {
		return lastID, err
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return lastID, err
	}
	return lastID, ctx.Err()
}

// The SSE field prefixes StreamEvents reads.
var sseID, sseData = []byte("id:"), []byte("data:")

// StreamProgress copies the job's plain-text progress stream to w until the
// job finishes or ctx is canceled.
func (c *Client) StreamProgress(ctx context.Context, id string, w io.Writer) error {
	req, err := c.newRequest(ctx, "GET", c.url("/api/v1/jobs/"+id+"/progress"), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return apiError(resp, body)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
