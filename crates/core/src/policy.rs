//! Tenant leases and admission control (DESIGN.md §13).
//!
//! The paper's runtime multiplexes one node's GPUs among many applications,
//! and PR 5's multiplexed transport lets thousands of clients reach it — but
//! nothing bounded what any one of them could take. This module is the
//! policy layer: every tenant holds a [`GpuLease`] fixing its device-memory
//! quota, context cap, lifetime and priority, and the [`LeaseBook`] is the
//! admission controller the service layer consults before any allocation or
//! context adoption touches runtime state.
//!
//! Identity model: a context starts life as its own *anonymous* tenant
//! under the default lease; `cudaSetApplication` (§4.8) re-keys it onto the
//! application's tenant, which is where per-application quotas and context
//! caps bite. Charges move with the context.
//!
//! Determinism: all state lives in `BTreeMap`s under one ranked lock, TTL
//! expiry reads only the runtime's [`Clock`] (never the wall clock), and
//! every verdict is a pure function of (lease, charges, virtual now) — so
//! policy decisions replay bit-for-bit under the seeded harness.

use crate::ctx::CtxId;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_simtime::{lock_rank, RankedMutex, Shadow, SimDuration, SimInstant};
use serde::Serialize;
use std::collections::BTreeMap;

/// One tenant's resource lease (per the Guardian/MTVGPU sharing model):
/// how much device memory it may hold, how many contexts it may run, how
/// long the lease lives, and how important its work is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GpuLease {
    /// Device-memory quota in MiB (declared allocation sizes). `0` means
    /// unlimited.
    pub mem_mb: u64,
    /// Concurrent contexts the tenant may hold. `0` means unlimited.
    pub max_contexts: u32,
    /// Lease lifetime in seconds of *virtual* time from the first grant.
    /// `0` means the lease never expires.
    pub ttl_s: u64,
    /// Scheduling priority: higher values may preempt lower ones under
    /// memory pressure.
    pub priority: u8,
}

impl GpuLease {
    /// The permissive default: unlimited memory and contexts, no expiry,
    /// mid-scale priority. Attaching this to unconfigured tenants keeps
    /// the policy layer invisible until an operator opts a tenant in.
    pub fn unlimited() -> Self {
        GpuLease { mem_mb: 0, max_contexts: 0, ttl_s: 0, priority: 100 }
    }

    /// Builder-style priority override.
    #[must_use]
    pub fn with_priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// The memory quota in bytes, `u64::MAX` when unlimited.
    pub fn mem_bytes(&self) -> u64 {
        if self.mem_mb == 0 {
            u64::MAX
        } else {
            self.mem_mb << 20
        }
    }

    /// The TTL as a virtual duration, `None` when the lease never expires.
    pub fn ttl(&self) -> Option<SimDuration> {
        (self.ttl_s > 0).then(|| SimDuration::from_secs(self.ttl_s))
    }
}

impl Default for GpuLease {
    fn default() -> Self {
        GpuLease::unlimited()
    }
}

/// Node-wide tenant-policy configuration ([`crate::RuntimeConfig`] carries
/// it as `Option`: `None` disables the policy layer entirely).
#[derive(Debug, Clone, Default, Serialize)]
pub struct TenantPolicyConfig {
    /// Lease attached to tenants with no explicit entry (including every
    /// anonymous per-context tenant).
    pub default_lease: GpuLease,
    /// Per-application leases, keyed by the `cudaSetApplication` id.
    /// Kept as a sorted list (not a map) so the wire form and iteration
    /// order are canonical.
    pub tenant_leases: Vec<(u64, GpuLease)>,
    /// Node-wide cap on the sum of all tenants' charged bytes; `None`
    /// disables the global backstop.
    pub global_mem_bytes: Option<u64>,
}

impl TenantPolicyConfig {
    /// Builder-style default-lease override.
    #[must_use]
    pub fn with_default_lease(mut self, lease: GpuLease) -> Self {
        self.default_lease = lease;
        self
    }

    /// Builder-style per-application lease entry (kept sorted by id).
    #[must_use]
    pub fn with_tenant_lease(mut self, app_id: u64, lease: GpuLease) -> Self {
        self.tenant_leases.retain(|(id, _)| *id != app_id);
        self.tenant_leases.push((app_id, lease));
        self.tenant_leases.sort_by_key(|(id, _)| *id);
        self
    }

    /// Builder-style global memory backstop.
    #[must_use]
    pub fn with_global_mem_bytes(mut self, cap: u64) -> Self {
        self.global_mem_bytes = Some(cap);
        self
    }

    /// The lease configured for `app_id`, or the default.
    pub fn lease_for(&self, app_id: u64) -> GpuLease {
        self.tenant_leases
            .iter()
            .find(|(id, _)| *id == app_id)
            .map(|(_, l)| *l)
            .unwrap_or(self.default_lease)
    }
}

/// A tenant identity: an application (via `cudaSetApplication`) or a lone
/// context that never declared one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TenantKey {
    /// An application id shared by all of the application's contexts.
    App(u64),
    /// A context that never joined an application: its own tenant.
    Anon(u64),
}

#[derive(Debug, Clone)]
struct TenantState {
    lease: GpuLease,
    /// Virtual instant the lease was granted (tenant first seen). The TTL
    /// counts from here; context churn does not reset it.
    granted_at: SimInstant,
    /// TTL elapsed: the tenant is condemned, awaiting (or past) reaping.
    expired: bool,
    /// Charged bytes per member context.
    charges: BTreeMap<CtxId, u64>,
}

impl TenantState {
    fn used(&self) -> u64 {
        self.charges.values().sum()
    }
}

#[derive(Debug)]
struct Book {
    tenants: BTreeMap<TenantKey, TenantState>,
    by_ctx: BTreeMap<CtxId, TenantKey>,
    /// Cluster-wide charged bytes. Shadowed so mtcheck's happens-before
    /// detector audits every read/write against the lease-book lock.
    global_used: Shadow<u64>,
}

impl Default for Book {
    fn default() -> Self {
        Book {
            tenants: BTreeMap::new(),
            by_ctx: BTreeMap::new(),
            global_used: Shadow::new("policy.lease.global_used", 0),
        }
    }
}

/// A snapshot of one tenant's standing, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantUsage {
    pub used_bytes: u64,
    pub contexts: usize,
    pub expired: bool,
    pub priority: u8,
}

/// The admission controller: every tenant's lease, charges and expiry
/// state, under one ranked lock. All mutating entry points are no-ops (or
/// unconditional grants) when the policy layer is disabled.
pub struct LeaseBook {
    cfg: Option<TenantPolicyConfig>,
    state: RankedMutex<Book>,
}

impl LeaseBook {
    /// A lease book; `None` disables the policy layer.
    pub fn new(cfg: Option<TenantPolicyConfig>) -> Self {
        LeaseBook { cfg, state: RankedMutex::new(lock_rank::TENANT_POLICY, Book::default()) }
    }

    /// Whether the policy layer is active.
    pub fn enabled(&self) -> bool {
        self.cfg.is_some()
    }

    /// Registers a fresh context as its own anonymous tenant under the
    /// default lease, granted at `now`.
    pub fn register_ctx(&self, ctx: CtxId, now: SimInstant) {
        let Some(cfg) = &self.cfg else { return };
        let mut book = self.state.lock();
        let key = TenantKey::Anon(ctx.0);
        book.by_ctx.insert(ctx, key);
        book.tenants.entry(key).or_insert_with(|| TenantState {
            lease: cfg.default_lease,
            granted_at: now,
            expired: false,
            charges: BTreeMap::new(),
        });
        if let Some(t) = book.tenants.get_mut(&key) {
            t.charges.entry(ctx).or_insert(0);
        }
    }

    /// Moves `ctx` (and its charges) onto application `app_id`'s tenant,
    /// creating that tenant — lease granted at `now` — on first sight.
    /// Rejects when the target lease is expired, over its context cap, or
    /// cannot absorb the context's already-charged bytes.
    pub fn adopt(&self, ctx: CtxId, app_id: u64, now: SimInstant) -> CudaResult<()> {
        let Some(cfg) = &self.cfg else { return Ok(()) };
        let mut book = self.state.lock();
        let from = match book.by_ctx.get(&ctx) {
            Some(k) => *k,
            None => return Err(CudaError::LeaseExpired),
        };
        let to = TenantKey::App(app_id);
        if from == to {
            return Ok(());
        }
        let moved = book.tenants.get(&from).and_then(|t| t.charges.get(&ctx)).copied().unwrap_or(0);
        book.tenants.entry(to).or_insert_with(|| TenantState {
            lease: cfg.lease_for(app_id),
            granted_at: now,
            expired: false,
            charges: BTreeMap::new(),
        });
        {
            let target = book.tenants.get(&to).expect("target tenant just ensured");
            if target.expired {
                return Err(CudaError::LeaseExpired);
            }
            let cap = target.lease.max_contexts;
            if cap > 0 && target.charges.len() as u32 >= cap {
                return Err(CudaError::QuotaExceeded(format!(
                    "application {app_id} is at its {cap}-context cap"
                )));
            }
            if target.used() + moved > target.lease.mem_bytes() {
                return Err(CudaError::QuotaExceeded(format!(
                    "application {app_id} cannot absorb {moved} charged bytes"
                )));
            }
        }
        if let Some(old) = book.tenants.get_mut(&from) {
            old.charges.remove(&ctx);
        }
        if matches!(from, TenantKey::Anon(_))
            && book.tenants.get(&from).is_some_and(|t| t.charges.is_empty())
        {
            book.tenants.remove(&from);
        }
        book.tenants.get_mut(&to).expect("target tenant exists").charges.insert(ctx, moved);
        book.by_ctx.insert(ctx, to);
        Ok(())
    }

    /// Admits an allocation of `bytes` for `ctx`: the tenant must be live
    /// and stay inside both its own `mem_mb` quota and the global cap. On
    /// success the bytes are charged; the caller must [`Self::uncharge`]
    /// if the underlying allocation then fails.
    pub fn try_charge(&self, ctx: CtxId, bytes: u64) -> CudaResult<()> {
        let Some(cfg) = &self.cfg else { return Ok(()) };
        let mut book = self.state.lock();
        let key = match book.by_ctx.get(&ctx) {
            Some(k) => *k,
            None => return Err(CudaError::LeaseExpired),
        };
        let global_used = *book.global_used;
        let tenant = book.tenants.get_mut(&key).expect("tenant of registered ctx");
        if tenant.expired {
            return Err(CudaError::LeaseExpired);
        }
        let used = tenant.used();
        if used.saturating_add(bytes) > tenant.lease.mem_bytes() {
            return Err(CudaError::QuotaExceeded(format!(
                "allocation of {bytes} bytes exceeds the tenant's {} MiB lease ({used} in use)",
                tenant.lease.mem_mb
            )));
        }
        if let Some(cap) = cfg.global_mem_bytes {
            if global_used.saturating_add(bytes) > cap {
                return Err(CudaError::QuotaExceeded(format!(
                    "allocation of {bytes} bytes exceeds the node's {cap}-byte admission cap \
                     ({global_used} in use)"
                )));
            }
        }
        *tenant.charges.entry(ctx).or_insert(0) += bytes;
        *book.global_used += bytes;
        Ok(())
    }

    /// Returns `bytes` of charge (free, failed allocation rollback).
    pub fn uncharge(&self, ctx: CtxId, bytes: u64) {
        if self.cfg.is_none() {
            return;
        }
        let mut book = self.state.lock();
        let Some(key) = book.by_ctx.get(&ctx).copied() else { return };
        if let Some(c) = book.tenants.get_mut(&key).and_then(|t| t.charges.get_mut(&ctx)) {
            let credited = bytes.min(*c);
            *c -= credited;
            *book.global_used = book.global_used.saturating_sub(credited);
        }
    }

    /// Whether `ctx`'s tenant may still submit work (lease not expired).
    pub fn check_active(&self, ctx: CtxId) -> CudaResult<()> {
        if self.cfg.is_none() {
            return Ok(());
        }
        let book = self.state.lock();
        match book.by_ctx.get(&ctx).and_then(|k| book.tenants.get(k)) {
            Some(t) if t.expired => Err(CudaError::LeaseExpired),
            Some(_) => Ok(()),
            None => Err(CudaError::LeaseExpired),
        }
    }

    /// The lease priority of `ctx`'s tenant (the default lease's priority
    /// when the policy layer is off or the context is unknown).
    pub fn priority_of(&self, ctx: CtxId) -> u8 {
        let Some(cfg) = &self.cfg else { return GpuLease::unlimited().priority };
        let book = self.state.lock();
        book.by_ctx
            .get(&ctx)
            .and_then(|k| book.tenants.get(k))
            .map(|t| t.lease.priority)
            .unwrap_or(cfg.default_lease.priority)
    }

    /// Removes `ctx` from its tenant, returning exactly the bytes that
    /// were charged to it. Idempotent. Empty anonymous tenants vanish;
    /// application tenants persist (their TTL keeps counting).
    pub fn release_ctx(&self, ctx: CtxId) -> u64 {
        if self.cfg.is_none() {
            return 0;
        }
        let mut book = self.state.lock();
        let Some(key) = book.by_ctx.remove(&ctx) else { return 0 };
        let freed = book.tenants.get_mut(&key).and_then(|t| t.charges.remove(&ctx)).unwrap_or(0);
        *book.global_used = book.global_used.saturating_sub(freed);
        if matches!(key, TenantKey::Anon(_))
            && book.tenants.get(&key).is_some_and(|t| t.charges.is_empty())
        {
            book.tenants.remove(&key);
        }
        freed
    }

    /// Marks every tenant whose TTL elapsed by `now` as expired and
    /// returns `(newly expired tenants, their member contexts)` — the reap
    /// list the runtime's monitor acts on. Deterministic: tenants and
    /// contexts come out in key order.
    pub fn tick(&self, now: SimInstant) -> (u64, Vec<CtxId>) {
        if self.cfg.is_none() {
            return (0, Vec::new());
        }
        let mut book = self.state.lock();
        let mut expired_tenants = 0;
        let mut doomed = Vec::new();
        for t in book.tenants.values_mut() {
            if t.expired {
                continue;
            }
            if let Some(ttl) = t.lease.ttl() {
                if now.duration_since(t.granted_at) >= ttl {
                    t.expired = true;
                    expired_tenants += 1;
                    doomed.extend(t.charges.keys().copied());
                }
            }
        }
        doomed.sort_unstable();
        (expired_tenants, doomed)
    }

    /// One tenant's standing, by application id.
    pub fn app_usage(&self, app_id: u64) -> Option<TenantUsage> {
        self.usage(TenantKey::App(app_id))
    }

    /// One tenant's standing.
    pub fn usage(&self, key: TenantKey) -> Option<TenantUsage> {
        let book = self.state.lock();
        book.tenants.get(&key).map(|t| TenantUsage {
            used_bytes: t.used(),
            contexts: t.charges.len(),
            expired: t.expired,
            priority: t.lease.priority,
        })
    }

    /// Sum of all tenants' charged bytes.
    pub fn global_used(&self) -> u64 {
        if self.cfg.is_none() {
            return 0;
        }
        *self.state.lock().global_used
    }
}

impl std::fmt::Debug for LeaseBook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseBook").field("enabled", &self.enabled()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_simtime::Clock;

    const MB: u64 = 1 << 20;

    fn book(cfg: TenantPolicyConfig) -> LeaseBook {
        LeaseBook::new(Some(cfg))
    }

    fn now(clock: &Clock) -> SimInstant {
        clock.now()
    }

    #[test]
    fn disabled_book_admits_everything() {
        let clock = Clock::virtual_clock();
        let b = LeaseBook::new(None);
        b.register_ctx(CtxId(1), now(&clock));
        assert!(b.try_charge(CtxId(1), u64::MAX).is_ok());
        assert!(b.adopt(CtxId(1), 7, now(&clock)).is_ok());
        assert_eq!(b.release_ctx(CtxId(1)), 0);
        assert_eq!(b.tick(now(&clock)), (0, Vec::new()));
    }

    #[test]
    fn mem_quota_is_enforced_and_credits_restore_headroom() {
        let clock = Clock::virtual_clock();
        let b = book(TenantPolicyConfig::default().with_default_lease(GpuLease {
            mem_mb: 4,
            max_contexts: 0,
            ttl_s: 0,
            priority: 50,
        }));
        b.register_ctx(CtxId(1), now(&clock));
        b.try_charge(CtxId(1), 3 * MB).unwrap();
        assert!(matches!(b.try_charge(CtxId(1), 2 * MB), Err(CudaError::QuotaExceeded(_))));
        b.uncharge(CtxId(1), 2 * MB);
        b.try_charge(CtxId(1), 2 * MB).unwrap();
        assert_eq!(b.release_ctx(CtxId(1)), 3 * MB);
        assert_eq!(b.global_used(), 0);
    }

    #[test]
    fn global_cap_bounds_the_sum_of_tenants() {
        let clock = Clock::virtual_clock();
        let b = book(TenantPolicyConfig::default().with_global_mem_bytes(5 * MB));
        b.register_ctx(CtxId(1), now(&clock));
        b.register_ctx(CtxId(2), now(&clock));
        b.try_charge(CtxId(1), 3 * MB).unwrap();
        assert!(matches!(b.try_charge(CtxId(2), 3 * MB), Err(CudaError::QuotaExceeded(_))));
        b.try_charge(CtxId(2), 2 * MB).unwrap();
        assert_eq!(b.global_used(), 5 * MB);
    }

    #[test]
    fn context_cap_bites_on_adoption() {
        let clock = Clock::virtual_clock();
        let b =
            book(TenantPolicyConfig::default().with_tenant_lease(
                9,
                GpuLease { mem_mb: 0, max_contexts: 2, ttl_s: 0, priority: 10 },
            ));
        for i in 1..=3 {
            b.register_ctx(CtxId(i), now(&clock));
        }
        b.adopt(CtxId(1), 9, now(&clock)).unwrap();
        b.adopt(CtxId(2), 9, now(&clock)).unwrap();
        assert!(matches!(b.adopt(CtxId(3), 9, now(&clock)), Err(CudaError::QuotaExceeded(_))));
        // Releasing a member frees a slot.
        assert_eq!(b.release_ctx(CtxId(1)), 0);
        b.adopt(CtxId(3), 9, now(&clock)).unwrap();
        assert_eq!(b.app_usage(9).unwrap().contexts, 2);
    }

    #[test]
    fn adoption_moves_charges_and_enforces_target_quota() {
        let clock = Clock::virtual_clock();
        let b =
            book(TenantPolicyConfig::default().with_tenant_lease(
                4,
                GpuLease { mem_mb: 2, max_contexts: 0, ttl_s: 0, priority: 10 },
            ));
        b.register_ctx(CtxId(1), now(&clock));
        b.try_charge(CtxId(1), 3 * MB).unwrap();
        // 3 MiB cannot move into a 2 MiB lease.
        assert!(matches!(b.adopt(CtxId(1), 4, now(&clock)), Err(CudaError::QuotaExceeded(_))));
        b.uncharge(CtxId(1), 2 * MB);
        b.adopt(CtxId(1), 4, now(&clock)).unwrap();
        assert_eq!(b.app_usage(4).unwrap().used_bytes, MB);
        // Repeated SetApplication with the same id is a no-op.
        b.adopt(CtxId(1), 4, now(&clock)).unwrap();
        assert_eq!(b.global_used(), MB);
    }

    #[test]
    fn ttl_expiry_condemns_the_tenant_deterministically() {
        let clock = Clock::virtual_clock();
        let b =
            book(TenantPolicyConfig::default().with_tenant_lease(
                2,
                GpuLease { mem_mb: 0, max_contexts: 0, ttl_s: 5, priority: 10 },
            ));
        b.register_ctx(CtxId(1), now(&clock));
        b.adopt(CtxId(1), 2, now(&clock)).unwrap();
        b.try_charge(CtxId(1), MB).unwrap();
        clock.advance(SimDuration::from_secs(4));
        assert_eq!(b.tick(now(&clock)), (0, Vec::new()));
        clock.advance(SimDuration::from_secs(1));
        assert_eq!(b.tick(now(&clock)), (1, vec![CtxId(1)]));
        // Expired tenants refuse further work with the typed error...
        assert_eq!(b.try_charge(CtxId(1), 1), Err(CudaError::LeaseExpired));
        assert_eq!(b.check_active(CtxId(1)), Err(CudaError::LeaseExpired));
        // ...and a second tick reports nothing new (reap once).
        assert_eq!(b.tick(now(&clock)), (0, Vec::new()));
        // Reaping frees exactly the charged bytes.
        assert_eq!(b.release_ctx(CtxId(1)), MB);
        assert_eq!(b.global_used(), 0);
    }

    #[test]
    fn priorities_come_from_the_lease() {
        let clock = Clock::virtual_clock();
        let b = book(
            TenantPolicyConfig::default()
                .with_default_lease(GpuLease::unlimited().with_priority(10))
                .with_tenant_lease(1, GpuLease::unlimited().with_priority(200)),
        );
        b.register_ctx(CtxId(1), now(&clock));
        b.register_ctx(CtxId(2), now(&clock));
        b.adopt(CtxId(1), 1, now(&clock)).unwrap();
        assert_eq!(b.priority_of(CtxId(1)), 200);
        assert_eq!(b.priority_of(CtxId(2)), 10);
    }
}
