package serve

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Tenant identity and attribution (DESIGN.md §14). A Tenants registry is the
// service's multi-tenant edge: API-key authentication (constant-time), a
// per-tenant token bucket and concurrency/queue quotas gating admission in
// front of the shared window, and the `tenant` label dimension of the
// server's metrics registry, which feeds /metrics.prom, the usage views and
// the persisted usage ledger.
//
// The tenant set is fixed at startup from the tenants file, which is what
// bounds the `tenant` label cardinality in the Prometheus exposition: labels
// only ever take values from that finite, operator-controlled list.

// Tenant is one registered identity, as declared in the tenants file.
type Tenant struct {
	// Name is the tenant's stable identifier; it becomes the `tenant` label
	// value in metrics, the tenant= key in logs and events, and the path
	// element of /api/v1/tenants/{name}/usage.
	Name string `json:"name"`
	// Key is the tenant's API key (Authorization: Bearer <key> or
	// X-API-Key). Compared in constant time; never exposed by any endpoint.
	Key string `json:"key"`
	// MaxPriority caps JobSpec.Priority: a submission above the ceiling is
	// rejected with 403 (0 = only priority 0 allowed; negative priorities
	// always pass).
	MaxPriority int `json:"max_priority,omitempty"`
	// RatePerSec refills the tenant's token bucket: sustained submissions
	// per second (0 = no rate limit).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: RatePerSec rounded up, minimum
	// 1). Ignored when RatePerSec is 0.
	Burst int `json:"burst,omitempty"`
	// MaxQueued bounds the tenant's jobs waiting to run (0 = only the shared
	// admission window applies).
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxActive bounds the tenant's queued+running jobs (0 = unbounded).
	MaxActive int `json:"max_active,omitempty"`
}

// TenantUsage is one tenant's resource-consumption counters. The same shape
// serves two horizons: the process-lifetime counters (a read of the
// tenant's series in the server's metrics registry, the same series the
// per-tenant Prometheus families render), and the cumulative ledger
// persisted across restarts.
type TenantUsage struct {
	Requests uint64 `json:"requests"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsAborted   uint64 `json:"jobs_aborted"`

	RejectedRate        uint64 `json:"rejected_rate"`
	RejectedQueueQuota  uint64 `json:"rejected_queue_quota"`
	RejectedActiveQuota uint64 `json:"rejected_active_quota"`
	RejectedWindow      uint64 `json:"rejected_window"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Joins       uint64 `json:"singleflight_joins"`

	SimulatedRuns uint64 `json:"simulated_runs"`
	EngineCycles  uint64 `json:"engine_cycles"`

	ResultBytes   uint64 `json:"result_bytes"`
	ArtifactBytes uint64 `json:"artifact_bytes"`
}

// counters lists u's counters in declaration order.
func (u *TenantUsage) counters() []*uint64 {
	return []*uint64{&u.Requests, &u.JobsSubmitted, &u.JobsDone, &u.JobsFailed, &u.JobsAborted,
		&u.RejectedRate, &u.RejectedQueueQuota, &u.RejectedActiveQuota, &u.RejectedWindow,
		&u.CacheHits, &u.CacheMisses, &u.Joins, &u.SimulatedRuns, &u.EngineCycles, &u.ResultBytes, &u.ArtifactBytes}
}

// add accumulates o into u (ledger merge).
func (u *TenantUsage) add(o TenantUsage) {
	oc := o.counters()
	for i, p := range u.counters() {
		*p += *oc[i]
	}
}

// Rejected is the tenant's total rejection count across all reasons.
func (u TenantUsage) Rejected() uint64 {
	return u.RejectedRate + u.RejectedQueueQuota + u.RejectedActiveQuota + u.RejectedWindow
}

// TenantSnapshot is the wire view of one tenant: declared quotas, live
// scheduling state, and both usage horizons. The key is never included.
type TenantSnapshot struct {
	Name        string  `json:"name"`
	MaxPriority int     `json:"max_priority,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Burst       int     `json:"burst,omitempty"`
	MaxQueued   int     `json:"max_queued,omitempty"`
	MaxActive   int     `json:"max_active,omitempty"`

	Queued  int `json:"queued"`
	Running int `json:"running"`

	// Usage counts this daemon process's activity: the tenant's series of
	// the per-tenant Prometheus families, which across all tenants sum to
	// the global counters when all traffic is authenticated. Total adds the
	// ledger restored from a previous process: the tenant's cumulative,
	// restart-surviving consumption.
	Usage TenantUsage `json:"usage"`
	Total TenantUsage `json:"total"`
}

// Admission-rejection reasons, used as BusyError.Reason and as the `reason`
// label on aggsimd_tenant_rejected_total.
const (
	RejectWindow      = "admission window full"
	RejectRate        = "rate limited"
	RejectQueueQuota  = "queue quota exceeded"
	RejectActiveQuota = "concurrency quota exceeded"
)

// ForbiddenError rejects a submission the tenant is authenticated but not
// authorized to make (today: priority above the tenant's ceiling). The HTTP
// layer maps it to 403.
type ForbiddenError struct {
	Tenant string
	Msg    string
}

func (e *ForbiddenError) Error() string {
	return fmt.Sprintf("serve: tenant %s: %s", e.Tenant, e.Msg)
}

// tenantState is one tenant's live scheduling state, guarded by the
// registry mutex.
type tenantState struct {
	t Tenant

	queued     int
	running    int
	ewmaJobSec float64

	// Token bucket: tokens refill continuously at RatePerSec up to Burst;
	// each admitted submission consumes one.
	tokens     float64
	lastRefill time.Time

	base TenantUsage // restored ledger from previous processes
}

// Tenants is the registry: the tenant set plus per-tenant live state (usage
// is counted by the Server, into its metrics registry). The set is fixed
// between reloads — Reload swaps in a revalidated tenants file
// atomically (generation counts the swaps), which is what bounds the
// `tenant` label cardinality in the Prometheus exposition: labels only ever
// take values from the operator-controlled file.
// Lock order: Server.mu may be held when registry methods are called, never
// the reverse.
type Tenants struct {
	mu         sync.Mutex
	order      []string
	states     map[string]*tenantState
	generation uint64
	now        func() time.Time // test seam for the token bucket
}

// tenantsFile is the on-disk shape of the -tenants-file.
type tenantsFile struct {
	Tenants []Tenant `json:"tenants"`
}

// LoadTenants reads and validates a tenants file: {"tenants":[{...}]}.
func LoadTenants(path string) (*Tenants, error) {
	list, err := readTenantsFile(path)
	if err != nil {
		return nil, err
	}
	return NewTenants(list)
}

// readTenantsFile reads a tenants file and validates its declared list
// (normalizeTenants). LoadTenants and ReloadFile both read through it, so
// startup and reload accept exactly the same files.
func readTenantsFile(path string) ([]Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: tenants file: %w", err)
	}
	var tf tenantsFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("serve: tenants file %s: %w", path, err)
	}
	if len(tf.Tenants) == 0 {
		return nil, fmt.Errorf("serve: tenants file %s declares no tenants", path)
	}
	list, err := normalizeTenants(tf.Tenants)
	if err != nil {
		return nil, fmt.Errorf("serve: tenants file %s: %w", path, err)
	}
	return list, nil
}

// normalizeTenants validates a declared tenant list and applies defaults:
// names and keys must be unique, names non-empty, keys at least 8
// characters, every quota non-negative, and a rate-limited tenant with no
// declared burst gets RatePerSec rounded up (minimum 1). install runs it for
// NewTenants and Reload alike, so a reloaded list passes exactly the startup
// checks; it is idempotent, so readTenantsFile runs it first to name the
// file in its error.
func normalizeTenants(list []Tenant) ([]Tenant, error) {
	out := make([]Tenant, 0, len(list))
	names := make(map[string]bool, len(list))
	keys := make(map[string]string, len(list))
	for i, t := range list {
		if t.Name == "" {
			return nil, fmt.Errorf("tenant %d: empty name", i)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("tenant %q: duplicate name", t.Name)
		}
		names[t.Name] = true
		if len(t.Key) < 8 {
			return nil, fmt.Errorf("tenant %q: key shorter than 8 characters", t.Name)
		}
		if other, dup := keys[t.Key]; dup {
			return nil, fmt.Errorf("tenant %q: key duplicates tenant %q", t.Name, other)
		}
		keys[t.Key] = t.Name
		if t.RatePerSec < 0 || t.Burst < 0 || t.MaxQueued < 0 || t.MaxActive < 0 {
			return nil, fmt.Errorf("tenant %q: negative quota", t.Name)
		}
		if t.RatePerSec > 0 && t.Burst == 0 {
			t.Burst = int(t.RatePerSec)
			if float64(t.Burst) < t.RatePerSec {
				t.Burst++
			}
			if t.Burst < 1 {
				t.Burst = 1
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// NewTenants builds a registry from a validated tenant list (see
// normalizeTenants for the rules).
func NewTenants(list []Tenant) (*Tenants, error) {
	r := &Tenants{now: time.Now}
	if err := r.install(list); err != nil {
		return nil, err
	}
	return r, nil
}

// Reload swaps the registry's tenant set for a new declared list, atomically
// and all-or-nothing: a list that fails validation changes NOTHING (the old
// registry keeps serving) and the error says why. Tenants present in both
// sets keep their live scheduling state and restored ledger under the new
// declaration (tokens clamp to a shrunk burst; a newly rate-limited tenant
// starts with a full bucket). Removed tenants drop out — their keys stop
// authenticating on the next request, their families stop rendering, and
// their in-flight jobs finish normally (the accounting paths tolerate an
// unregistered name). Added tenants start with fresh scheduling state; their
// process-lifetime usage is whatever the server's registry has counted
// under the name.
func (r *Tenants) Reload(list []Tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.install(list); err != nil {
		return err
	}
	r.generation++
	return nil
}

// install validates list and makes it the tenant set, building each
// tenant's state: a tenant already registered keeps its own under the new
// declaration, any other starts fresh. A list that fails validation
// changes nothing. Caller holds r.mu (or is single-threaded setup).
func (r *Tenants) install(list []Tenant) error {
	list, err := normalizeTenants(list)
	if err != nil {
		return err
	}
	states := make(map[string]*tenantState, len(list))
	order := make([]string, 0, len(list))
	for _, t := range list {
		st := r.states[t.Name]
		if st == nil {
			st = &tenantState{t: t}
			if t.RatePerSec > 0 {
				st.tokens = float64(t.Burst) // a fresh tenant starts with a full bucket
			}
		} else {
			wasLimited := st.t.RatePerSec > 0
			st.t = t
			switch {
			case t.RatePerSec <= 0:
				st.tokens, st.lastRefill = 0, time.Time{}
			case !wasLimited:
				st.tokens = float64(t.Burst) // newly limited: full bucket
				st.lastRefill = time.Time{}
			case st.tokens > float64(t.Burst):
				st.tokens = float64(t.Burst) // burst shrank: clamp
			}
		}
		states[t.Name] = st
		order = append(order, t.Name)
	}
	r.states = states
	r.order = order
	return nil
}

// ReloadFile re-reads a tenants file into the registry via Reload (same
// all-or-nothing contract; a missing or malformed file leaves the registry
// untouched).
func (r *Tenants) ReloadFile(path string) error {
	list, err := readTenantsFile(path)
	if err != nil {
		return err
	}
	return r.Reload(list)
}

// Generation counts successful Reloads (0 until the first).
func (r *Tenants) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// Len returns the number of registered tenants.
func (r *Tenants) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// Names returns the tenant names in file order.
func (r *Tenants) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Authenticate resolves an API key to a tenant name. Every registered key is
// compared with crypto/subtle regardless of earlier matches, so the scan's
// timing does not depend on which tenant (if any) matched; only key lengths
// are observable, and keys are not secrets of each other's length.
func (r *Tenants) Authenticate(key string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kb := []byte(key)
	match := ""
	for _, name := range r.order {
		if subtle.ConstantTimeCompare(kb, []byte(r.states[name].t.Key)) == 1 && match == "" {
			match = name
		}
	}
	return match, match != ""
}

// refillLocked advances the token bucket to now.
func (st *tenantState) refillLocked(now time.Time) {
	if st.t.RatePerSec <= 0 {
		return
	}
	if !st.lastRefill.IsZero() {
		st.tokens += now.Sub(st.lastRefill).Seconds() * st.t.RatePerSec
		if max := float64(st.t.Burst); st.tokens > max {
			st.tokens = max
		}
	}
	st.lastRefill = now
}

// retryAfterLocked estimates when the tenant's own backlog frees a slot:
// its queued+running jobs per simulation slot times its EWMA job duration
// (falling back to the server-wide EWMA, then 1s), floored at one second.
// This is the per-tenant Retry-After — a noisy tenant's pushback grows with
// its own backlog, independent of the shared window's estimate.
func (st *tenantState) retryAfterLocked(slots int, globalEwma float64) time.Duration {
	per := st.ewmaJobSec
	if per <= 0 {
		per = globalEwma
	}
	return retryAfter(per, st.queued+st.running+1, slots)
}

// gate checks the tenant's admission constraints without committing
// anything: priority ceiling (403), token bucket, queue quota, concurrency
// quota (each a per-tenant 429 carrying the tenant's own Retry-After). A nil
// return means the submission may proceed to the shared window, after which
// the caller commits.
func (r *Tenants) gate(name string, priority, slots int, globalEwma float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.states[name]
	if !ok {
		return fmt.Errorf("serve: unknown tenant %q", name)
	}
	if priority > st.t.MaxPriority {
		return &ForbiddenError{
			Tenant: name,
			Msg:    fmt.Sprintf("priority %d above ceiling %d", priority, st.t.MaxPriority),
		}
	}
	now := r.now()
	st.refillLocked(now)
	if st.t.RatePerSec > 0 && st.tokens < 1 {
		// Time until the bucket holds one token again.
		wait := time.Duration((1 - st.tokens) / st.t.RatePerSec * float64(time.Second))
		return &BusyError{RetryAfter: max(wait, time.Second).Round(time.Second), Tenant: name, Reason: RejectRate}
	}
	if st.t.MaxQueued > 0 && st.queued >= st.t.MaxQueued {
		return &BusyError{
			RetryAfter: st.retryAfterLocked(slots, globalEwma),
			Tenant:     name, Reason: RejectQueueQuota,
		}
	}
	if st.t.MaxActive > 0 && st.queued+st.running >= st.t.MaxActive {
		return &BusyError{
			RetryAfter: st.retryAfterLocked(slots, globalEwma),
			Tenant:     name, Reason: RejectActiveQuota,
		}
	}
	return nil
}

// commit records an admission that passed both the tenant gate and the
// shared window: consumes one token, counts the job as queued.
func (r *Tenants) commit(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.states[name]
	if st == nil {
		return
	}
	if st.t.RatePerSec > 0 {
		st.refillLocked(r.now())
		if st.tokens >= 1 {
			st.tokens--
		} else {
			st.tokens = 0
		}
	}
	st.queued++
}

// move shifts one of the tenant's jobs between its queued and running
// counts: start is (-1, +1) and an abort (-1, 0). A nil registry or an
// unregistered name is a no-op, so callers need not check for tenancy.
func (r *Tenants) move(name string, dQueued, dRunning int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.states[name]; st != nil {
		st.queued += dQueued
		st.running += dRunning
	}
}

// finished retires one running job and folds its wall time into the
// tenant's EWMA (the basis of its personal Retry-After); sec < 0 folds
// nothing. Like move, a no-op without the tenant.
func (r *Tenants) finished(name string, sec float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.states[name]
	if st == nil {
		return
	}
	st.running--
	if sec >= 0 {
		st.ewmaJobSec = ewma(st.ewmaJobSec, sec)
	}
}

// live returns one tenant's queued and running job counts.
func (r *Tenants) live(name string) (queued, running int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.states[name]; st != nil {
		return st.queued, st.running
	}
	return 0, 0
}

// snapshot copies every tenant's declaration and live state in file order,
// with Total holding only the restored ledger; the Server adds the usage
// (tenantSnapshots).
func (r *Tenants) snapshot() []TenantSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(r.order))
	for _, name := range r.order {
		st := r.states[name]
		out = append(out, TenantSnapshot{
			Name:        st.t.Name,
			MaxPriority: st.t.MaxPriority,
			RatePerSec:  st.t.RatePerSec,
			Burst:       st.t.Burst,
			MaxQueued:   st.t.MaxQueued,
			MaxActive:   st.t.MaxActive,
			Queued:      st.queued,
			Running:     st.running,
			Total:       st.base,
		})
	}
	return out
}

// restoreUsage installs a previously persisted ledger (rows[i] is
// names[i]'s) as each tenant's base. Ledger entries for tenants no longer in
// the file are dropped (their history ends with their registration).
func (r *Tenants) restoreUsage(names []string, rows []TenantUsage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, name := range names {
		if st := r.states[name]; st != nil {
			st.base = rows[i]
		}
	}
}
