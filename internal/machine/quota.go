// Per-tenant device-memory quotas: a MemGovernor arbitrates device
// allocations across concurrently running machines, so one tenant of a
// multi-tenant service cannot claim the whole device. The governor sits
// under AllocDevice — the fallible allocator the resilient runtime
// already knows how to handle — so a quota denial looks exactly like
// capacity OOM: the runtime evicts the tenant's own cached units first
// and degrades that run to lossless CPU fallback if the working set
// truly does not fit. Other tenants' machines never observe any of it.
package machine

import (
	"fmt"
	"sync"
)

// MemGovernor arbitrates device-memory reservations across machines.
// Reserve is called before a device allocation is created (with the
// aligned size the machine will charge) and may deny it; Release is
// called when the allocation is freed. Implementations must be safe for
// concurrent use: one governor typically backs many machines.
type MemGovernor interface {
	Reserve(bytes int64) error
	Release(bytes int64)
}

// SetMemGovernor attaches a governor to the machine (nil detaches).
// Only AllocDevice consults it, mirroring SetGPUCapacity: plain Alloc
// stays infallible for code predating the fault model.
func (m *Machine) SetMemGovernor(g MemGovernor) {
	m.gov = g
	if g != nil && m.govBytes == nil {
		m.govBytes = make(map[uint64]int64)
	}
}

// QuotaPool tracks per-tenant device-memory quotas and live usage
// across any number of concurrently running machines. Governor hands
// out the per-tenant view a run attaches via SetMemGovernor.
type QuotaPool struct {
	mu       sync.Mutex
	def      int64 // default per-tenant quota (0 = unlimited)
	quota    map[string]int64
	used     map[string]int64
	peak     map[string]int64
	denials  map[string]int64
	reserves map[string]int64
}

// NewQuotaPool returns a pool whose tenants default to defaultQuota
// bytes of device memory each (0 = unlimited).
func NewQuotaPool(defaultQuota int64) *QuotaPool {
	return &QuotaPool{
		def:      defaultQuota,
		quota:    make(map[string]int64),
		used:     make(map[string]int64),
		peak:     make(map[string]int64),
		denials:  make(map[string]int64),
		reserves: make(map[string]int64),
	}
}

// SetQuota overrides one tenant's quota (0 = unlimited).
func (p *QuotaPool) SetQuota(tenant string, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quota[tenant] = bytes
}

// Quota returns the tenant's effective quota (0 = unlimited).
func (p *QuotaPool) Quota(tenant string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quotaLocked(tenant)
}

func (p *QuotaPool) quotaLocked(tenant string) int64 {
	if q, ok := p.quota[tenant]; ok {
		return q
	}
	return p.def
}

// Usage reports the tenant's live reserved bytes, high-water mark, and
// denied reservation count.
func (p *QuotaPool) Usage(tenant string) (used, peak, denials int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used[tenant], p.peak[tenant], p.denials[tenant]
}

// Governor returns the tenant's MemGovernor view of the pool. All runs
// of one tenant share one ledger: concurrent runs compete for the same
// quota, and the pool aggregates their usage.
func (p *QuotaPool) Governor(tenant string) MemGovernor {
	return &tenantGov{p: p, tenant: tenant}
}

type tenantGov struct {
	p      *QuotaPool
	tenant string
}

// Reserve charges n bytes to the tenant, denying the reservation when
// it would push the tenant over quota. The error is advisory text: the
// machine wraps it into a capacity-style DeviceError, which the
// resilient runtime handles with its evict/degrade ladder.
func (g *tenantGov) Reserve(n int64) error {
	p := g.p
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.quotaLocked(g.tenant)
	if q > 0 && p.used[g.tenant]+n > q {
		p.denials[g.tenant]++
		return fmt.Errorf("tenant %q over device-memory quota: %d bytes reserved of %d, need %d",
			g.tenant, p.used[g.tenant], q, n)
	}
	p.used[g.tenant] += n
	p.reserves[g.tenant]++
	if p.used[g.tenant] > p.peak[g.tenant] {
		p.peak[g.tenant] = p.used[g.tenant]
	}
	return nil
}

// Release returns n bytes to the tenant's quota, clamping at zero so a
// stray release can never manufacture headroom.
func (g *tenantGov) Release(n int64) {
	p := g.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.used[g.tenant] -= n
	if p.used[g.tenant] < 0 {
		p.used[g.tenant] = 0
	}
}
