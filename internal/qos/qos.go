// Package qos turns the flat scavenged store into a multi-tenant economy
// (Memtrade/Memshare direction; see PAPERS.md): tenants get namespaces,
// memory quotas, weighted-fair bandwidth shares, and priority classes that
// order reclamation under pressure, while victim capacity is brokered as
// leases carrying an eviction-notice SLO (lease.go).
//
// The package is deliberately below internal/core in the import graph:
// core threads a *Registry through its data path (attribution, quota,
// pacing) and the Broker calls back into core only through the small
// Evacuator interface, so the marketplace rides the graduated revocation
// protocol without an import cycle.
package qos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memfss/internal/container"
	"memfss/internal/obs"
)

// Priority orders tenants for reclamation: when a store runs out of space
// or reports pressure, lower-priority tenants' data drains first, so a
// high-priority tenant only degrades after everything cheaper is gone.
type Priority int

const (
	// PriorityLow data is first out under pressure.
	PriorityLow Priority = iota
	// PriorityNormal is the default, and the class of unattributed data.
	PriorityNormal
	// PriorityHigh data drains only when nothing lower remains.
	PriorityHigh
)

// String names the priority for flags, logs, and metric labels.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// ParsePriority is the inverse of String, for CLI flags.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return PriorityNormal, fmt.Errorf("qos: unknown priority %q (want low|normal|high)", s)
}

// ErrQuotaExceeded rejects a write that would grow a tenant past its
// memory quota. It is a store-of-record answer, not unavailability: the
// same write fails identically on every replica until the tenant frees
// space, so callers must not retry it.
var ErrQuotaExceeded = errors.New("qos: tenant memory quota exceeded")

// ErrUnknownTenant reports an operation naming a tenant the registry has
// never seen.
var ErrUnknownTenant = errors.New("qos: unknown tenant")

// TenantRootDir is the namespace directory tenant trees live under.
// Attribution is by path prefix: everything below TenantRootDir/<name>
// belongs to tenant <name>; everything else is unattributed.
const TenantRootDir = "/tenants"

// TenantRoot returns the namespace root of one tenant.
func TenantRoot(name string) string { return TenantRootDir + "/" + name }

// TenantSpec declares one tenant.
type TenantSpec struct {
	// Name identifies the tenant; it is also the namespace directory name
	// under TenantRootDir, so it must be a single path element.
	Name string `json:"name"`
	// QuotaBytes caps the tenant's total file bytes (0 = unlimited).
	QuotaBytes int64 `json:"quota_bytes"`
	// Weight is the tenant's share of the aggregate bandwidth budget
	// (default 1). Shares are strict reservations — rate_i = total *
	// w_i/Σw over all registered tenants — so one tenant's saturation
	// cannot eat into another's share.
	Weight float64 `json:"weight"`
	// Priority orders reclamation; see Priority.
	Priority Priority `json:"priority"`
}

// Validate reports whether the spec is well-formed.
func (s TenantSpec) Validate() error {
	if s.Name == "" || strings.ContainsAny(s.Name, "/ \t\n") {
		return fmt.Errorf("qos: tenant name %q must be a single non-empty path element", s.Name)
	}
	if s.QuotaBytes < 0 {
		return fmt.Errorf("qos: tenant %s: negative quota %d", s.Name, s.QuotaBytes)
	}
	if s.Weight < 0 {
		return fmt.Errorf("qos: tenant %s: negative weight %v", s.Name, s.Weight)
	}
	if s.Priority < PriorityLow || s.Priority > PriorityHigh {
		return fmt.Errorf("qos: tenant %s: unknown priority %d", s.Name, int(s.Priority))
	}
	return nil
}

// Options configures a Registry.
type Options struct {
	// TotalBandwidth is the aggregate scavenging-bandwidth budget in
	// bytes/sec, split across tenants by weight. 0 disables pacing
	// entirely (attribution and quotas still apply).
	TotalBandwidth int64
	// Obs, when set, receives the per-tenant metric families. Per-tenant
	// label cardinality is bounded by MaxTenantSeries; overflow tenants
	// aggregate into the "other" label value instead of dropping.
	Obs *obs.Registry
	// MaxTenantSeries caps how many distinct tenants get their own label
	// value (default 32).
	MaxTenantSeries int
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	spec TenantSpec
	used atomic.Int64        // quota accounting: bytes of file data attributed
	th   *container.Throttle // bandwidth share; nil when pacing is off
}

// Registry is the tenant directory plus the weighted-fair bandwidth
// scheduler in front of the store clients. A nil *Registry is a valid
// no-op: every method admits immediately and attributes nothing — the
// single-tenant deployments of earlier PRs are the nil case.
type Registry struct {
	opts Options

	mu      sync.RWMutex
	tenants map[string]*tenantState

	labels *labelMap

	// Lazily-registered per-tenant series (bounded by labels).
	bytesCounters sync.Map // label+"/"+op -> *obs.Counter
	waitHists     sync.Map // label -> *obs.Histogram
	quotaRejects  sync.Map // label -> *obs.Counter
	reclaims      sync.Map // priority -> *obs.Counter
}

// NewRegistry builds a tenant registry.
func NewRegistry(opts Options) *Registry {
	if opts.MaxTenantSeries <= 0 {
		opts.MaxTenantSeries = defaultMaxTenantSeries
	}
	r := &Registry{
		opts:    opts,
		tenants: make(map[string]*tenantState),
		labels:  newLabelMap(opts.MaxTenantSeries),
	}
	if opts.Obs != nil {
		opts.Obs.Gauge("memfss_qos_tenants",
			"Registered tenants.", nil, func() float64 {
				r.mu.RLock()
				defer r.mu.RUnlock()
				return float64(len(r.tenants))
			})
	}
	return r
}

// Add registers a tenant, or updates its spec if the name is already
// registered (quota usage carries over). Bandwidth shares of every tenant
// are recomputed; blocked waiters observe their new rate on the next
// wake-up (container.Throttle.SetRate).
func (r *Registry) Add(spec TenantSpec) error {
	if r == nil {
		return errors.New("qos: nil registry")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Weight == 0 {
		spec.Weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts, ok := r.tenants[spec.Name]; ok {
		ts.spec = spec
	} else {
		r.tenants[spec.Name] = &tenantState{spec: spec}
	}
	r.rebalanceLocked()
	return nil
}

// Remove unregisters a tenant and recomputes the remaining shares. Its
// label slot is not reclaimed (cardinality stays monotonic by design).
func (r *Registry) Remove(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, ok := r.tenants[name]
	if !ok {
		return false
	}
	delete(r.tenants, name)
	ts.th.Close()
	ts.th = nil
	r.rebalanceLocked()
	return true
}

// rebalanceLocked recomputes every tenant's strict bandwidth share:
// rate_i = TotalBandwidth * w_i / Σw. Existing throttles are resized in
// place so waiters blocked mid-Take pick up the new rate.
func (r *Registry) rebalanceLocked() {
	total := r.opts.TotalBandwidth
	if total <= 0 {
		return
	}
	var sum float64
	for _, ts := range r.tenants {
		sum += ts.spec.Weight
	}
	if sum <= 0 {
		return
	}
	for _, ts := range r.tenants {
		rate := int64(float64(total) * ts.spec.Weight / sum)
		if rate < 1 {
			rate = 1
		}
		if ts.th == nil {
			th, err := container.NewThrottle(rate)
			if err != nil {
				continue
			}
			ts.th = th
		} else if err := ts.th.SetRate(rate); err != nil {
			// A closed throttle (racing Remove) stays closed.
			continue
		}
	}
}

// List returns every tenant spec, sorted by name.
func (r *Registry) List() []TenantSpec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]TenantSpec, 0, len(r.tenants))
	for _, ts := range r.tenants {
		out = append(out, ts.spec)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Rate returns a tenant's current bandwidth share in bytes/sec (0 when
// pacing is off or the tenant is unknown).
func (r *Registry) Rate(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ts, ok := r.tenants[name]; ok {
		return ts.th.Rate()
	}
	return 0
}

// ResolveTenant attributes a file-system path: TenantRootDir/<name>/...
// belongs to <name> when that tenant is registered; everything else is
// unattributed ("").
func (r *Registry) ResolveTenant(path string) string {
	if r == nil {
		return ""
	}
	rest, ok := strings.CutPrefix(path, TenantRootDir+"/")
	if !ok {
		return ""
	}
	name := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		name = rest[:i]
	}
	r.mu.RLock()
	_, registered := r.tenants[name]
	r.mu.RUnlock()
	if !registered {
		return ""
	}
	return name
}

// PriorityFor returns the reclamation priority of a path's owner.
// Unattributed data is PriorityNormal: scavenged space must stay usable
// without tenant bookkeeping, and normal keeps legacy data from being
// either the first sacrifice or a squatter that never drains.
func (r *Registry) PriorityFor(path string) Priority {
	if r == nil {
		return PriorityNormal
	}
	name := r.ResolveTenant(path)
	if name == "" {
		return PriorityNormal
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ts, ok := r.tenants[name]; ok {
		return ts.spec.Priority
	}
	return PriorityNormal
}

// Charge reserves n bytes of a tenant's quota, rejecting with
// ErrQuotaExceeded when the reservation would cross it. Unattributed
// ("") charges always succeed. Concurrent writers race the check
// optimistically: the add is atomic and rolled back on rejection, so the
// quota can overshoot by at most the in-flight writes of one race window.
func (r *Registry) Charge(name string, n int64) error {
	if r == nil || name == "" || n <= 0 {
		return nil
	}
	r.mu.RLock()
	ts := r.tenants[name]
	r.mu.RUnlock()
	if ts == nil {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	if q := ts.spec.QuotaBytes; q > 0 && ts.used.Add(n) > q {
		ts.used.Add(-n)
		r.quotaReject(name).Inc()
		return fmt.Errorf("%w: tenant %s (quota %d bytes)", ErrQuotaExceeded, name, q)
	}
	return nil
}

// Credit returns n bytes to a tenant's quota (file removal, truncation,
// rolled-back writes). The floor is 0: double credits must not bank
// negative usage a later charge could spend.
func (r *Registry) Credit(name string, n int64) {
	if r == nil || name == "" || n <= 0 {
		return
	}
	r.mu.RLock()
	ts := r.tenants[name]
	r.mu.RUnlock()
	if ts == nil {
		return
	}
	if v := ts.used.Add(-n); v < 0 {
		// Clamp; a concurrent charge that lands between the add and the
		// store re-reserves correctly because Charge re-checks the sum.
		ts.used.CompareAndSwap(v, 0)
	}
}

// SetUsed overwrites a tenant's quota usage unconditionally — the
// restart-priming path: a fresh registry knows nothing about bytes
// written by previous processes, so the embedder walks the tenant's
// namespace once and installs the durable total here. No quota check:
// existing data is a fact, not a request.
func (r *Registry) SetUsed(name string, n int64) {
	if r == nil || name == "" {
		return
	}
	if n < 0 {
		n = 0
	}
	r.mu.RLock()
	ts := r.tenants[name]
	r.mu.RUnlock()
	if ts != nil {
		ts.used.Store(n)
	}
}

// Used returns a tenant's current quota usage in bytes.
func (r *Registry) Used(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ts, ok := r.tenants[name]; ok {
		return ts.used.Load()
	}
	return 0
}

// Take meters n bytes of tenant traffic for op ("read"/"write"): the
// per-tenant bytes counter always counts, and when pacing is on the call
// blocks until the tenant's weighted-fair share admits the bytes. A nil
// registry, unattributed traffic, and unregistered tenants admit
// immediately — QoS never makes single-tenant deployments slower.
func (r *Registry) Take(name, op string, n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.RLock()
	ts := r.tenants[name]
	r.mu.RUnlock()
	label := unattributedLabel
	if name != "" {
		label = r.labels.labelFor(name)
	}
	if c := r.bytesCounter(label, op); c != nil {
		c.Add(n)
	}
	if ts == nil || ts.th == nil {
		return nil
	}
	if h := r.waitHist(label); h != nil {
		start := time.Now()
		err := ts.th.Take(n)
		h.Observe(time.Since(start))
		return err
	}
	return ts.th.Take(n)
}

// NoteReclaim counts keys drained off pressured stores on behalf of the
// priority-ordered reclamation path.
func (r *Registry) NoteReclaim(p Priority, keys int) {
	if r == nil || keys <= 0 || r.opts.Obs == nil {
		return
	}
	if c, ok := r.reclaims.Load(p); ok {
		c.(*obs.Counter).Add(int64(keys))
		return
	}
	c := r.opts.Obs.Counter("memfss_qos_reclaimed_keys_total",
		"Data keys drained off pressured stores, by owner priority (low drains first).",
		obs.L("priority", p.String()))
	r.reclaims.Store(p, c)
	c.Add(int64(keys))
}

// Close releases every tenant's throttle, unblocking paced waiters with
// container.ErrThrottleClosed.
func (r *Registry) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ts := range r.tenants {
		ts.th.Close()
	}
}

// unattributedLabel is the metric label value for traffic outside every
// tenant namespace.
const unattributedLabel = "none"

// bytesCounter resolves the per-tenant traffic counter (nil without obs).
func (r *Registry) bytesCounter(label, op string) *obs.Counter {
	if r.opts.Obs == nil {
		return nil
	}
	key := label + "/" + op
	if c, ok := r.bytesCounters.Load(key); ok {
		return c.(*obs.Counter)
	}
	c := r.opts.Obs.Counter("memfss_qos_bytes_total",
		"Payload bytes through the data path, attributed per tenant (overflow tenants aggregate as \"other\").",
		obs.L("tenant", label, "op", op))
	r.bytesCounters.Store(key, c)
	return c
}

// waitHist resolves the per-tenant scheduler-wait histogram (nil without
// obs) — the time writes/reads spent blocked on the tenant's bandwidth
// share, i.e. the price of fairness.
func (r *Registry) waitHist(label string) *obs.Histogram {
	if r.opts.Obs == nil {
		return nil
	}
	if h, ok := r.waitHists.Load(label); ok {
		return h.(*obs.Histogram)
	}
	h := r.opts.Obs.Histogram("memfss_qos_sched_wait_seconds",
		"Time operations spent blocked on the tenant's weighted-fair bandwidth share.",
		obs.L("tenant", label), nil)
	r.waitHists.Store(label, h)
	return h
}

// quotaReject resolves the per-tenant quota-rejection counter. Unlike the
// traffic series it still counts without obs (standalone counter) so
// tests and embedders can observe rejections either way.
func (r *Registry) quotaReject(name string) *obs.Counter {
	label := r.labels.labelFor(name)
	if c, ok := r.quotaRejects.Load(label); ok {
		return c.(*obs.Counter)
	}
	var c *obs.Counter
	if r.opts.Obs != nil {
		c = r.opts.Obs.Counter("memfss_qos_quota_rejections_total",
			"Writes rejected because they would grow a tenant past its memory quota.",
			obs.L("tenant", label))
	} else {
		c = obs.NewCounter()
	}
	r.quotaRejects.Store(label, c)
	return c
}
