//! Multi-tenant admission control for the query plane.
//!
//! The cluster serves many tenants, and overload must degrade
//! *truthfully* rather than surface as late timeouts. Every query that
//! carries a tenant context
//! ([`QueryOpts::ctx`](crate::QueryOpts::ctx) on
//! [`QueryPlane::query`](crate::QueryPlane::query)) passes through one
//! [`AdmissionControl`] gate before any sub-query is scattered. The gate enforces three per-tenant budgets
//! plus one cluster-wide saturation bound:
//!
//! * **Ops/s token bucket** — each admitted query spends one token;
//!   an empty bucket rejects fast with a retry-after hint
//!   ([`StcamError::AdmissionRejected`]). Quotas are hard: no priority
//!   overdraws the ops bucket.
//! * **Bytes/s budget** — wire bytes are metered *post-hoc* (a query's
//!   cost is only known after the gather), so the balance may go
//!   negative. A tenant in byte debt is rejected until the debt is
//!   repaid by refill — except [`Priority::Bulk`] work within one burst
//!   of debt, which is admitted *shed*: `Strict` downgrades to
//!   `BestEffort` and the answer carries
//!   [`ShedReason::OverBudget`].
//! * **Concurrent scatter width** — a per-tenant cap on sub-queries in
//!   flight; exceeding it rejects fast (tiny retry-after) so one tenant
//!   cannot monopolise the worker read pools.
//! * **Cluster saturation** — when the *global* in-flight scatter width
//!   crosses the configured threshold, non-[`High`](Priority::High)
//!   work is shed (`Strict` → `BestEffort` with
//!   [`ShedReason::Saturated`]); past twice the threshold,
//!   [`Bulk`](Priority::Bulk) work is rejected outright. High-priority
//!   work is never saturation-shed — that is the whole point of the
//!   priority.
//!
//! Deadlines compose with the gate: a query whose [`Deadline`] already
//! expired is rejected before any traffic; a live deadline is threaded
//! into the executor, where no sub-query waits past it, so a mid-flight
//! expiry surfaces as missing shards in the answer's `Completeness`
//! (tagged [`ShedReason::Deadline`]) — never as an overrun.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::error::StcamError;
use crate::exec::QueryMode;

/// Identifies one tenant (billing/quota principal) of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Scheduling class of a query. Ordered: `Bulk < Normal < High`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background/batch work: first to shed, first to reject under
    /// saturation.
    Bulk,
    /// Interactive default.
    #[default]
    Normal,
    /// Latency-sensitive work that is never saturation-shed (per-tenant
    /// quotas still apply).
    High,
}

/// An absolute completion deadline carried by a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// The remaining budget (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }
}

/// Why an answer was degraded by admission control rather than by
/// infrastructure failure. Carried in
/// [`Completeness::shed`](crate::Completeness::shed) so a degraded
/// answer is always attributable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The cluster's in-flight scatter width crossed the saturation
    /// threshold; non-high-priority strict work was downgraded.
    Saturated,
    /// The tenant was in byte debt; bulk work was admitted degraded
    /// instead of rejected.
    OverBudget,
    /// The query's deadline expired mid-flight and cut the waits for
    /// some shards off, leaving them unanswered.
    Deadline,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Saturated => write!(f, "cluster saturated"),
            ShedReason::OverBudget => write!(f, "tenant over byte budget"),
            ShedReason::Deadline => write!(f, "deadline expired mid-flight"),
        }
    }
}

/// Per-tenant rate/width budget. All limits are optional; the default
/// ([`unlimited`](Self::unlimited)) enforces nothing but still meters
/// usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantBudget {
    /// Admitted queries per second (token bucket); `None` = unlimited.
    pub ops_per_sec: Option<f64>,
    /// Ops bucket capacity (burst allowance).
    pub ops_burst: f64,
    /// Wire bytes per second (sent + received, post-hoc metered);
    /// `None` = unlimited.
    pub bytes_per_sec: Option<f64>,
    /// Byte bucket capacity, and the debt bound past which even bulk
    /// work is rejected instead of shed.
    pub bytes_burst: f64,
    /// Max concurrent scatter width (sub-queries in flight across the
    /// tenant's admitted queries); `None` = unlimited.
    pub max_scatter: Option<usize>,
}

impl TenantBudget {
    /// No limits: every query admits, usage is still metered.
    pub fn unlimited() -> Self {
        TenantBudget {
            ops_per_sec: None,
            ops_burst: 0.0,
            bytes_per_sec: None,
            bytes_burst: 0.0,
            max_scatter: None,
        }
    }

    /// Caps admitted queries at `rate`/s with a one-second burst.
    pub fn with_ops_per_sec(mut self, rate: f64) -> Self {
        self.ops_per_sec = Some(rate.max(f64::MIN_POSITIVE));
        self.ops_burst = rate.max(1.0);
        self
    }

    /// Caps wire bytes at `rate`/s with a one-second burst.
    pub fn with_bytes_per_sec(mut self, rate: f64) -> Self {
        self.bytes_per_sec = Some(rate.max(f64::MIN_POSITIVE));
        self.bytes_burst = rate.max(1.0);
        self
    }

    /// Caps the tenant's concurrent scatter width.
    pub fn with_max_scatter(mut self, width: usize) -> Self {
        self.max_scatter = Some(width.max(1));
        self
    }
}

impl Default for TenantBudget {
    fn default() -> Self {
        TenantBudget::unlimited()
    }
}

/// Cumulative per-tenant accounting, attributable wire bytes included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantUsage {
    /// Queries admitted (shed ones included).
    pub admitted: u64,
    /// Admitted queries that were shed (downgraded or annotated).
    pub shed: u64,
    /// Queries rejected at the gate.
    pub rejected: u64,
    /// Wire bytes (sent + received) attributed to this tenant.
    pub bytes_charged: u64,
}

/// The query context every multi-tenant entry point carries: who is
/// asking, how urgent, and by when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCtx {
    /// The tenant to account and budget against.
    pub tenant: TenantId,
    /// Scheduling class.
    pub priority: Priority,
    /// Optional completion deadline.
    pub deadline: Option<Deadline>,
}

impl QueryCtx {
    /// A normal-priority, deadline-free context for `tenant`.
    pub fn new(tenant: TenantId) -> Self {
        QueryCtx {
            tenant,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `budget` from now.
    pub fn deadline_within(self, budget: Duration) -> Self {
        self.with_deadline(Deadline::within(budget))
    }
}

/// One tenant's live gate state: refillable buckets plus in-flight
/// width and usage counters.
#[derive(Debug)]
struct TenantState {
    budget: TenantBudget,
    ops_tokens: f64,
    byte_balance: f64,
    last_refill: Instant,
    inflight_width: usize,
    usage: TenantUsage,
}

impl TenantState {
    fn new(budget: TenantBudget) -> Self {
        TenantState {
            budget,
            ops_tokens: budget.ops_burst,
            byte_balance: budget.bytes_burst,
            last_refill: Instant::now(),
            inflight_width: 0,
            usage: TenantUsage::default(),
        }
    }

    /// Refills both buckets by elapsed time, capped at burst.
    fn refill(&mut self) {
        let dt = self.last_refill.elapsed().as_secs_f64();
        self.last_refill = Instant::now();
        if let Some(rate) = self.budget.ops_per_sec {
            self.ops_tokens = (self.ops_tokens + rate * dt).min(self.budget.ops_burst);
        }
        if let Some(rate) = self.budget.bytes_per_sec {
            self.byte_balance = (self.byte_balance + rate * dt).min(self.budget.bytes_burst);
        }
    }
}

/// Milliseconds (rounded up, at least 1) a client should wait for
/// `deficit` units to refill at `rate`/s.
fn retry_after_ms(deficit: f64, rate: f64) -> u64 {
    ((deficit / rate * 1000.0).ceil() as u64).max(1)
}

/// The multi-tenant admission gate in front of the query plane. One per
/// [`QueryPlane`](crate::QueryPlane); all entry points consult it
/// before scattering.
#[derive(Debug)]
pub struct AdmissionControl {
    tenants: Mutex<HashMap<TenantId, TenantState>>,
    /// Sub-queries in flight across every admitted query, cluster-wide.
    inflight_width: AtomicUsize,
    /// Global width past which non-high-priority work sheds (and past
    /// twice which bulk work rejects). Zero disables saturation
    /// shedding.
    saturation_width: AtomicUsize,
}

impl AdmissionControl {
    /// A gate with no registered tenants and saturation shedding
    /// disabled. Unknown tenants are auto-registered with
    /// [`TenantBudget::unlimited`].
    pub fn new() -> Self {
        AdmissionControl {
            tenants: Mutex::new(HashMap::new()),
            inflight_width: AtomicUsize::new(0),
            saturation_width: AtomicUsize::new(0),
        }
    }

    /// Registers (or replaces) a tenant's budget. Usage counters
    /// survive re-registration; buckets reset to the new burst.
    pub fn register(&self, tenant: TenantId, budget: TenantBudget) {
        let mut tenants = self.tenants.lock();
        let usage = tenants.get(&tenant).map(|s| s.usage).unwrap_or_default();
        let inflight = tenants.get(&tenant).map(|s| s.inflight_width).unwrap_or(0);
        let mut state = TenantState::new(budget);
        state.usage = usage;
        state.inflight_width = inflight;
        tenants.insert(tenant, state);
    }

    /// Sets the cluster saturation width (0 disables shedding).
    pub fn set_saturation_width(&self, width: usize) {
        self.saturation_width.store(width, Ordering::Relaxed);
    }

    /// The configured saturation width.
    pub fn saturation_width(&self) -> usize {
        self.saturation_width.load(Ordering::Relaxed)
    }

    /// Sub-queries currently in flight across all admitted queries.
    pub fn inflight_width(&self) -> usize {
        self.inflight_width.load(Ordering::Relaxed)
    }

    /// A tenant's cumulative usage (zeros when never seen).
    pub fn usage(&self, tenant: TenantId) -> TenantUsage {
        self.tenants
            .lock()
            .get(&tenant)
            .map(|s| s.usage)
            .unwrap_or_default()
    }

    /// Gates one query of scatter width `width` issued as `mode` under
    /// `ctx`. On admission, returns a ticket holding the (possibly
    /// downgraded) effective mode, the shed reason if any, and the
    /// in-flight width reservation — released when the ticket drops.
    ///
    /// # Errors
    ///
    /// [`StcamError::AdmissionRejected`] with a retry-after hint when a
    /// budget is exhausted, the tenant's scatter cap is reached, the
    /// cluster is severely saturated (bulk only), or the deadline
    /// already expired.
    pub fn admit(
        &self,
        ctx: &QueryCtx,
        mode: QueryMode,
        width: usize,
    ) -> Result<AdmissionTicket<'_>, StcamError> {
        let mut shed = None;
        {
            let mut tenants = self.tenants.lock();
            let state = tenants
                .entry(ctx.tenant)
                .or_insert_with(|| TenantState::new(TenantBudget::unlimited()));
            state.refill();
            if ctx.deadline.is_some_and(|d| d.expired()) {
                state.usage.rejected += 1;
                return Err(StcamError::AdmissionRejected {
                    retry_after_ms: 0,
                    reason: "deadline already expired",
                });
            }
            if let Some(rate) = state.budget.ops_per_sec {
                if state.ops_tokens < 1.0 {
                    state.usage.rejected += 1;
                    return Err(StcamError::AdmissionRejected {
                        retry_after_ms: retry_after_ms(1.0 - state.ops_tokens, rate),
                        reason: "ops budget exhausted",
                    });
                }
            }
            if let Some(rate) = state.budget.bytes_per_sec {
                if state.byte_balance < 0.0 {
                    // Bulk work within one burst of debt continues
                    // degraded; anything deeper (or more urgent, which
                    // must not burn its budget on degraded answers)
                    // waits out the debt.
                    let deep = state.byte_balance < -state.budget.bytes_burst;
                    if ctx.priority == Priority::Bulk && !deep {
                        shed = Some(ShedReason::OverBudget);
                    } else {
                        state.usage.rejected += 1;
                        return Err(StcamError::AdmissionRejected {
                            retry_after_ms: retry_after_ms(-state.byte_balance, rate),
                            reason: "byte budget exhausted",
                        });
                    }
                }
            }
            if let Some(cap) = state.budget.max_scatter {
                // A single query wider than the cap still admits when
                // nothing else is in flight — rejecting it would
                // livelock, since retrying never shrinks the fan-out.
                if state.inflight_width > 0 && state.inflight_width + width > cap {
                    state.usage.rejected += 1;
                    return Err(StcamError::AdmissionRejected {
                        retry_after_ms: 1,
                        reason: "scatter width cap reached",
                    });
                }
            }
            let sat = self.saturation_width.load(Ordering::Relaxed);
            let global = self.inflight_width.load(Ordering::Relaxed);
            if sat > 0 && global >= sat && ctx.priority != Priority::High {
                if ctx.priority == Priority::Bulk && global >= sat.saturating_mul(2) {
                    state.usage.rejected += 1;
                    return Err(StcamError::AdmissionRejected {
                        retry_after_ms: 2,
                        reason: "cluster saturated",
                    });
                }
                shed = shed.or(Some(ShedReason::Saturated));
            }
            if state.budget.ops_per_sec.is_some() {
                state.ops_tokens -= 1.0;
            }
            state.inflight_width += width;
            state.usage.admitted += 1;
            if shed.is_some() {
                state.usage.shed += 1;
            }
        }
        self.inflight_width.fetch_add(width, Ordering::Relaxed);
        let effective = if shed.is_some() {
            QueryMode::BestEffort
        } else {
            mode
        };
        Ok(AdmissionTicket {
            gate: self,
            tenant: ctx.tenant,
            width,
            mode: effective,
            shed,
            deadline: ctx.deadline,
        })
    }
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl::new()
    }
}

/// Proof of admission for one query: carries the effective mode and
/// shed reason, accepts the post-hoc byte charge, and releases the
/// in-flight width reservation on drop.
#[derive(Debug)]
pub struct AdmissionTicket<'a> {
    gate: &'a AdmissionControl,
    tenant: TenantId,
    width: usize,
    mode: QueryMode,
    shed: Option<ShedReason>,
    deadline: Option<Deadline>,
}

impl AdmissionTicket<'_> {
    /// The effective query mode (`BestEffort` when shed).
    pub fn mode(&self) -> QueryMode {
        self.mode
    }

    /// Why the query was shed, when it was.
    pub fn shed(&self) -> Option<ShedReason> {
        self.shed
    }

    /// The deadline to thread into the executor, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Books `bytes` wire bytes against the tenant (post-hoc: the
    /// balance may go negative, gating future admissions).
    pub fn charge_bytes(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(state) = self.gate.tenants.lock().get_mut(&self.tenant) {
            state.usage.bytes_charged += bytes;
            if state.budget.bytes_per_sec.is_some() {
                state.byte_balance -= bytes as f64;
            }
        }
    }
}

impl Drop for AdmissionTicket<'_> {
    fn drop(&mut self) {
        self.gate
            .inflight_width
            .fetch_sub(self.width, Ordering::Relaxed);
        if let Some(state) = self.gate.tenants.lock().get_mut(&self.tenant) {
            state.inflight_width = state.inflight_width.saturating_sub(self.width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VIP: TenantId = TenantId(1);
    const BULK: TenantId = TenantId(2);

    #[test]
    fn unlimited_tenant_always_admits_and_meters() {
        let gate = AdmissionControl::new();
        let ctx = QueryCtx::new(VIP);
        for _ in 0..100 {
            let ticket = gate.admit(&ctx, QueryMode::Strict, 8).unwrap();
            assert_eq!(ticket.mode(), QueryMode::Strict);
            assert!(ticket.shed().is_none());
            ticket.charge_bytes(1_000);
        }
        let usage = gate.usage(VIP);
        assert_eq!(usage.admitted, 100);
        assert_eq!(usage.rejected, 0);
        assert_eq!(usage.shed, 0);
        assert_eq!(usage.bytes_charged, 100_000);
        assert_eq!(gate.inflight_width(), 0, "tickets must release width");
    }

    #[test]
    fn ops_bucket_rejects_with_retry_after() {
        let gate = AdmissionControl::new();
        gate.register(BULK, TenantBudget::unlimited().with_ops_per_sec(2.0));
        let ctx = QueryCtx::new(BULK);
        assert!(gate.admit(&ctx, QueryMode::Strict, 1).is_ok());
        assert!(gate.admit(&ctx, QueryMode::Strict, 1).is_ok());
        match gate.admit(&ctx, QueryMode::Strict, 1) {
            Err(StcamError::AdmissionRejected {
                retry_after_ms,
                reason,
            }) => {
                assert!(retry_after_ms >= 1, "hint must be actionable");
                assert!(retry_after_ms <= 1_000, "hint past one refill period");
                assert_eq!(reason, "ops budget exhausted");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(gate.usage(BULK).rejected, 1);
    }

    #[test]
    fn byte_debt_sheds_bulk_and_rejects_normal() {
        let gate = AdmissionControl::new();
        gate.register(BULK, TenantBudget::unlimited().with_bytes_per_sec(1_000.0));
        let bulk = QueryCtx::new(BULK).with_priority(Priority::Bulk);
        // Burn through the burst into mild debt.
        let t = gate.admit(&bulk, QueryMode::Strict, 1).unwrap();
        t.charge_bytes(1_500);
        drop(t);
        // Bulk continues degraded, truthfully marked.
        let t = gate.admit(&bulk, QueryMode::Strict, 1).unwrap();
        assert_eq!(t.mode(), QueryMode::BestEffort);
        assert_eq!(t.shed(), Some(ShedReason::OverBudget));
        drop(t);
        // Normal priority in debt waits it out.
        let normal = QueryCtx::new(BULK);
        assert!(matches!(
            gate.admit(&normal, QueryMode::Strict, 1),
            Err(StcamError::AdmissionRejected {
                reason: "byte budget exhausted",
                ..
            })
        ));
        assert_eq!(gate.usage(BULK).shed, 1);
    }

    #[test]
    fn deep_byte_debt_rejects_even_bulk() {
        let gate = AdmissionControl::new();
        gate.register(BULK, TenantBudget::unlimited().with_bytes_per_sec(1_000.0));
        let bulk = QueryCtx::new(BULK).with_priority(Priority::Bulk);
        let t = gate.admit(&bulk, QueryMode::Strict, 1).unwrap();
        t.charge_bytes(10_000); // far past one burst of debt
        drop(t);
        assert!(matches!(
            gate.admit(&bulk, QueryMode::Strict, 1),
            Err(StcamError::AdmissionRejected { .. })
        ));
    }

    #[test]
    fn scatter_cap_rejects_concurrent_width_but_admits_wide_singletons() {
        let gate = AdmissionControl::new();
        gate.register(VIP, TenantBudget::unlimited().with_max_scatter(8));
        let ctx = QueryCtx::new(VIP);
        // Wider than the cap alone: admits (rejecting would livelock).
        let wide = gate.admit(&ctx, QueryMode::Strict, 16).unwrap();
        // But concurrent work on top of it is over the cap.
        assert!(matches!(
            gate.admit(&ctx, QueryMode::Strict, 1),
            Err(StcamError::AdmissionRejected {
                reason: "scatter width cap reached",
                ..
            })
        ));
        drop(wide);
        assert!(gate.admit(&ctx, QueryMode::Strict, 8).is_ok());
    }

    #[test]
    fn saturation_sheds_normal_and_rejects_bulk_but_spares_high() {
        let gate = AdmissionControl::new();
        gate.set_saturation_width(4);
        let vip = QueryCtx::new(VIP).with_priority(Priority::High);
        let bulk = QueryCtx::new(BULK).with_priority(Priority::Bulk);
        let normal = QueryCtx::new(TenantId(3));
        // Fill the cluster to the threshold.
        let _hold = gate.admit(&bulk, QueryMode::Strict, 4).unwrap();
        // Normal priority sheds Strict to BestEffort, truthfully.
        let t = gate.admit(&normal, QueryMode::Strict, 4).unwrap();
        assert_eq!(t.mode(), QueryMode::BestEffort);
        assert_eq!(t.shed(), Some(ShedReason::Saturated));
        // High priority is untouched.
        let t2 = gate.admit(&vip, QueryMode::Strict, 4).unwrap();
        assert_eq!(t2.mode(), QueryMode::Strict);
        assert!(t2.shed().is_none());
        // Past 2x the threshold, bulk rejects fast.
        assert!(matches!(
            gate.admit(&bulk, QueryMode::Strict, 4),
            Err(StcamError::AdmissionRejected {
                reason: "cluster saturated",
                ..
            })
        ));
    }

    #[test]
    fn expired_deadline_rejects_before_any_traffic() {
        let gate = AdmissionControl::new();
        let ctx = QueryCtx::new(VIP).deadline_within(Duration::ZERO);
        assert!(matches!(
            gate.admit(&ctx, QueryMode::Strict, 1),
            Err(StcamError::AdmissionRejected {
                retry_after_ms: 0,
                reason: "deadline already expired",
            })
        ));
        let live = QueryCtx::new(VIP).deadline_within(Duration::from_secs(60));
        let t = gate.admit(&live, QueryMode::Strict, 1).unwrap();
        assert!(t.deadline().is_some());
        assert!(!t.deadline().unwrap().expired());
    }

    #[test]
    fn reregistration_keeps_usage() {
        let gate = AdmissionControl::new();
        gate.register(VIP, TenantBudget::unlimited().with_ops_per_sec(100.0));
        let t = gate
            .admit(&QueryCtx::new(VIP), QueryMode::Strict, 1)
            .unwrap();
        t.charge_bytes(50);
        drop(t);
        gate.register(VIP, TenantBudget::unlimited());
        let usage = gate.usage(VIP);
        assert_eq!(usage.admitted, 1);
        assert_eq!(usage.bytes_charged, 50);
    }
}
