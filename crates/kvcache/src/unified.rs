//! The unified distributed KV cache pool.
//!
//! LoongServe treats the KV memory of all elastic instances as one pool
//! (paper §3, §4): a request's tokens can live on any subset of instances at
//! single-token granularity, which removes the locality constraint that
//! causes fragmentation in grouped designs (Figure 4). This module tracks
//! slot usage across instances, commits placement plans, grows requests
//! during decoding, migrates spans between instances, and evicts requests.

use crate::host::HostKvPool;
use crate::placement::{plan_placement, PlacementPlan, PlacementStrategy};
use crate::pool::{InstanceKvPool, KvError};
use crate::prefix::{PrefixCache, PrefixCacheConfig, PrefixDemand};
use loong_simcore::ids::{ConversationId, InstanceId, RequestId};
use loong_simcore::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A KV migration of part of one request between two instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvMove {
    /// Request whose tokens move.
    pub request: RequestId,
    /// Source instance.
    pub from: InstanceId,
    /// Destination instance.
    pub to: InstanceId,
    /// Number of tokens moved.
    pub tokens: u64,
}

/// The cross-instance pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnifiedKvPool {
    pools: Vec<InstanceKvPool>,
    /// Per-request residency index: which instances hold how many of each
    /// request's tokens, kept sorted by instance id. Maintained on every
    /// mutation so `locations_of`/`tokens_of` cost O(#locations) instead of
    /// a scan over all instances, and `resident_requests` costs O(n)
    /// instead of O(n²). The `BTreeMap` keeps iteration deterministic.
    residency: BTreeMap<RequestId, Vec<(InstanceId, u64)>>,
    /// The optional host-DRAM swap tier. `None` (the default) keeps every
    /// device-side operation on its pre-existing path — the zero-cost-when-
    /// disabled invariant the golden digests pin.
    host: Option<HostKvPool>,
    /// The optional prefix-cache tier. `None` (the default) keeps finished
    /// requests on the release path and adds no lookups anywhere — the same
    /// zero-cost-when-disabled contract as the host tier.
    prefix: Option<PrefixCache>,
}

impl UnifiedKvPool {
    /// Creates a pool over `instances` instances, each with `capacity`
    /// token slots.
    pub fn new(instances: usize, capacity_per_instance: u64) -> Self {
        UnifiedKvPool {
            pools: (0..instances)
                .map(|i| InstanceKvPool::new(InstanceId::from(i), capacity_per_instance))
                .collect(),
            residency: BTreeMap::new(),
            host: None,
            prefix: None,
        }
    }

    /// Creates a pool with per-instance capacities (useful for heterogeneous
    /// scenarios and tests).
    pub fn with_capacities(capacities: &[u64]) -> Self {
        UnifiedKvPool {
            pools: capacities
                .iter()
                .enumerate()
                .map(|(i, &c)| InstanceKvPool::new(InstanceId::from(i), c))
                .collect(),
            residency: BTreeMap::new(),
            host: None,
            prefix: None,
        }
    }

    /// Number of instances in the pool.
    pub fn num_instances(&self) -> usize {
        self.pools.len()
    }

    /// The per-instance pool for `instance`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is out of range.
    pub fn instance(&self, instance: InstanceId) -> &InstanceKvPool {
        &self.pools[instance.index()]
    }

    /// Free slots on each instance, as `(instance, free)` pairs.
    pub fn free_slots(&self) -> Vec<(InstanceId, u64)> {
        self.pools.iter().map(|p| (p.instance, p.free())).collect()
    }

    /// Free slots on a subset of instances.
    pub fn free_slots_on(&self, instances: &[InstanceId]) -> Vec<(InstanceId, u64)> {
        instances
            .iter()
            .map(|&i| (i, self.pools[i.index()].free()))
            .collect()
    }

    /// Total free slots across all instances.
    pub fn total_free(&self) -> u64 {
        self.pools.iter().map(|p| p.free()).sum()
    }

    /// Total used slots across all instances.
    pub fn total_used(&self) -> u64 {
        self.pools.iter().map(|p| p.used()).sum()
    }

    /// Total capacity across all instances.
    pub fn total_capacity(&self) -> u64 {
        self.pools.iter().map(|p| p.capacity()).sum()
    }

    /// Tokens `request` holds on each instance, sorted by instance id.
    /// Served from the residency index in O(#locations).
    pub fn locations_of(&self, request: RequestId) -> Vec<(InstanceId, u64)> {
        self.residency.get(&request).cloned().unwrap_or_default()
    }

    /// Like [`Self::locations_of`] but without cloning: a borrowed view of
    /// the request's residency, sorted by instance id.
    pub fn locations_ref(&self, request: RequestId) -> &[(InstanceId, u64)] {
        self.residency
            .get(&request)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total tokens `request` holds across the pool, in O(#locations).
    pub fn tokens_of(&self, request: RequestId) -> u64 {
        self.locations_ref(request).iter().map(|&(_, t)| t).sum()
    }

    /// Records `tokens` more slots for `request` on `instance` in the
    /// residency index, keeping each per-request vector sorted by instance.
    fn residency_add(&mut self, request: RequestId, instance: InstanceId, tokens: u64) {
        if tokens == 0 {
            return;
        }
        let locations = self.residency.entry(request).or_default();
        match locations.binary_search_by_key(&instance, |&(i, _)| i) {
            Ok(pos) => locations[pos].1 += tokens,
            Err(pos) => locations.insert(pos, (instance, tokens)),
        }
    }

    /// Removes `tokens` slots of `request` on `instance` from the residency
    /// index, dropping empty entries.
    fn residency_sub(&mut self, request: RequestId, instance: InstanceId, tokens: u64) {
        if tokens == 0 {
            return;
        }
        let locations = self
            .residency
            .get_mut(&request)
            .expect("residency index tracks every resident request");
        let pos = locations
            .binary_search_by_key(&instance, |&(i, _)| i)
            .expect("residency index tracks every location");
        assert!(
            locations[pos].1 >= tokens,
            "residency index underflow for {request} on {instance}"
        );
        locations[pos].1 -= tokens;
        if locations[pos].1 == 0 {
            locations.remove(pos);
        }
        if locations.is_empty() {
            self.residency.remove(&request);
        }
    }

    /// Plans a placement of `tokens` for `request` restricted to
    /// `candidates`, without committing it.
    pub fn plan(
        &self,
        request: RequestId,
        tokens: u64,
        candidates: &[InstanceId],
        strategy: PlacementStrategy,
    ) -> Option<PlacementPlan> {
        plan_placement(request, tokens, &self.free_slots_on(candidates), strategy)
    }

    /// Commits a placement plan, allocating its spans.
    pub fn commit(&mut self, plan: &PlacementPlan) -> Result<(), KvError> {
        plan.validate()
            .expect("placement plans are validated at construction");
        self.ensure_not_swapped(plan.request)?;
        // Two-phase: check everything fits before mutating so a failed
        // commit leaves the pool untouched.
        for &(inst, tokens) in &plan.spans {
            let pool = &self.pools[inst.index()];
            if tokens > pool.free() {
                return Err(KvError::InsufficientCapacity {
                    instance: inst,
                    requested: tokens,
                    free: pool.free(),
                });
            }
        }
        for &(inst, tokens) in &plan.spans {
            self.pools[inst.index()]
                .allocate(plan.request, tokens)
                .expect("checked above");
            self.residency_add(plan.request, inst, tokens);
        }
        Ok(())
    }

    /// Appends `tokens` newly generated KV slots for `request` on a specific
    /// instance (the master that generated them during decoding).
    pub fn append(
        &mut self,
        request: RequestId,
        instance: InstanceId,
        tokens: u64,
    ) -> Result<(), KvError> {
        self.ensure_not_swapped(request)?;
        self.pools[instance.index()].allocate(request, tokens)?;
        self.residency_add(request, instance, tokens);
        Ok(())
    }

    /// Releases every slot held by `request`, returning the total freed.
    /// Only the instances the residency index names are touched.
    pub fn release(&mut self, request: RequestId) -> u64 {
        let Some(locations) = self.residency.remove(&request) else {
            return 0;
        };
        locations
            .iter()
            .map(|&(inst, _)| self.pools[inst.index()].release(request))
            .sum()
    }

    /// Applies a migration: moves `tokens` of `request` from one instance to
    /// another. Returns the move record for communication accounting.
    pub fn migrate(
        &mut self,
        request: RequestId,
        from: InstanceId,
        to: InstanceId,
        tokens: u64,
    ) -> Result<KvMove, KvError> {
        if tokens == 0 {
            return Ok(KvMove {
                request,
                from,
                to,
                tokens: 0,
            });
        }
        let held = self.pools[from.index()].used_by(request);
        if held < tokens {
            return Err(KvError::UnknownRequest {
                instance: from,
                request,
            });
        }
        // Destination must have room before we release the source.
        if self.pools[to.index()].free() < tokens {
            return Err(KvError::InsufficientCapacity {
                instance: to,
                requested: tokens,
                free: self.pools[to.index()].free(),
            });
        }
        self.pools[from.index()].release_partial(request, tokens)?;
        self.pools[to.index()]
            .allocate(request, tokens)
            .expect("capacity checked above");
        self.residency_sub(request, from, tokens);
        self.residency_add(request, to, tokens);
        Ok(KvMove {
            request,
            from,
            to,
            tokens,
        })
    }

    /// Moves everything `request` holds on `from` to other instances with
    /// room, preferring the instances with the most free slots. Used when
    /// the global manager drains an instance so the prefill phase can claim
    /// it (paper §5.2). Returns the moves performed, or `None` if the rest
    /// of the pool cannot absorb the tokens (in which case nothing changes).
    pub fn drain_instance(&mut self, request: RequestId, from: InstanceId) -> Option<Vec<KvMove>> {
        let to_move = self.pools[from.index()].used_by(request);
        if to_move == 0 {
            return Some(Vec::new());
        }
        let mut targets: Vec<(InstanceId, u64)> = self
            .pools
            .iter()
            .filter(|p| p.instance != from)
            .map(|p| (p.instance, p.free()))
            .collect();
        targets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let available: u64 = targets.iter().map(|(_, f)| f).sum();
        if available < to_move {
            return None;
        }
        let mut moves = Vec::new();
        let mut remaining = to_move;
        for (to, free) in targets {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(free);
            if take == 0 {
                continue;
            }
            let mv = self
                .migrate(request, from, to, take)
                .expect("capacity verified above");
            moves.push(mv);
            remaining -= take;
        }
        Some(moves)
    }

    /// All requests resident anywhere in the pool, sorted by id. Served
    /// from the residency index in O(n) — no per-id dedup scan.
    pub fn resident_requests(&self) -> Vec<RequestId> {
        self.residency.keys().copied().collect()
    }

    /// Checks bookkeeping invariants on every instance pool, and that the
    /// residency index agrees exactly with the per-instance pools.
    pub fn check_invariants(&self) -> Result<(), String> {
        for p in &self.pools {
            p.check_invariants()?;
        }
        // Every indexed location must match the owning pool...
        for (&request, locations) in &self.residency {
            if locations.is_empty() {
                return Err(format!("residency index holds empty entry for {request}"));
            }
            let mut prev: Option<InstanceId> = None;
            for &(inst, tokens) in locations {
                if prev.is_some_and(|p| p >= inst) {
                    return Err(format!("residency of {request} not sorted by instance"));
                }
                prev = Some(inst);
                let actual = self.pools[inst.index()].used_by(request);
                if tokens == 0 || actual != tokens {
                    return Err(format!(
                        "residency index says {request} holds {tokens} on {inst}, pool says {actual}"
                    ));
                }
            }
        }
        // ...and every pool holding must be indexed (no stale omissions).
        for p in &self.pools {
            for (request, tokens) in p.residents() {
                let indexed = self
                    .residency
                    .get(&request)
                    .and_then(|l| {
                        l.binary_search_by_key(&p.instance, |&(i, _)| i)
                            .ok()
                            .map(|pos| l[pos].1)
                    })
                    .unwrap_or(0);
                if indexed != tokens {
                    return Err(format!(
                        "{}: {request} holds {tokens} slots but residency index says {indexed}",
                        p.instance
                    ));
                }
            }
        }
        // The host tier, when enabled, must be internally consistent and
        // disjoint from device residency (swap is whole-request).
        if let Some(host) = &self.host {
            host.check_invariants()?;
            for request in host.swapped_requests() {
                if self.residency.contains_key(&request) {
                    return Err(format!(
                        "{request} is both device-resident and swapped to the host tier"
                    ));
                }
            }
        }
        // The prefix tier, when enabled, must name device-resident owners
        // whose holdings match the index exactly, each owner at most once,
        // and never an owner parked on the host tier (retention and swap
        // are disjoint by construction).
        if let Some(cache) = &self.prefix {
            cache.check_invariants()?;
            let mut owners: Vec<RequestId> = Vec::new();
            for (conv, entry) in cache.entries() {
                let held = self.tokens_of(entry.owner);
                if held != entry.tokens {
                    return Err(format!(
                        "prefix entry for {conv} says {} holds {} tokens, pool says {held}",
                        entry.owner, entry.tokens
                    ));
                }
                if self.host.as_ref().is_some_and(|h| h.hosts(entry.owner)) {
                    return Err(format!(
                        "prefix owner {} of {conv} is parked on the host tier",
                        entry.owner
                    ));
                }
                if owners.contains(&entry.owner) {
                    return Err(format!("prefix owner {} retained twice", entry.owner));
                }
                owners.push(entry.owner);
            }
        }
        Ok(())
    }

    /// Per-instance utilisation in `[0, 1]`, sorted by instance id.
    ///
    /// Returns a sorted `Vec` rather than a `HashMap` so callers that
    /// iterate it (reports, schedulers) see a deterministic order.
    pub fn utilization(&self) -> Vec<(InstanceId, f64)> {
        self.pools
            .iter()
            .map(|p| {
                let u = if p.capacity() == 0 {
                    1.0
                } else {
                    p.used() as f64 / p.capacity() as f64
                };
                (p.instance, u)
            })
            .collect()
    }

    // ---- Host-DRAM swap tier ------------------------------------------------

    /// Enables the host swap tier with `capacity` token slots. The tier
    /// starts empty; enabling it changes no device-side state.
    ///
    /// # Panics
    ///
    /// Panics if the tier is already enabled.
    pub fn enable_host_tier(&mut self, capacity: u64) {
        assert!(self.host.is_none(), "host tier enabled twice");
        self.host = Some(HostKvPool::new(capacity));
    }

    /// The host swap tier, if enabled.
    pub fn host(&self) -> Option<&HostKvPool> {
        self.host.as_ref()
    }

    /// Tokens `request` has parked on the host tier (zero when the tier is
    /// disabled or the request is device-resident).
    pub fn swapped_tokens_of(&self, request: RequestId) -> u64 {
        self.host
            .as_ref()
            .map(|h| h.swapped_tokens_of(request))
            .unwrap_or(0)
    }

    /// Total tokens parked on the host tier.
    pub fn total_swapped(&self) -> u64 {
        self.host.as_ref().map(|h| h.used()).unwrap_or(0)
    }

    /// Device pool utilisation in `[0, 1]` across all instances — the
    /// pressure signal watermark policies compare against.
    pub fn device_utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap == 0 {
            return 1.0;
        }
        self.total_used() as f64 / cap as f64
    }

    /// Errors if `request` is currently parked on the host tier. Device-side
    /// mutations call this so a swapped request cannot grow a second,
    /// split-brain device residency; a disabled tier costs one `Option`
    /// check.
    fn ensure_not_swapped(&self, request: RequestId) -> Result<(), KvError> {
        match &self.host {
            Some(h) if h.hosts(request) => Err(KvError::AlreadySwapped { request }),
            _ => Ok(()),
        }
    }

    /// Evicts every device-resident token of `request` to the host tier,
    /// returning the number of tokens moved. Whole-request granularity: on
    /// success the request holds no device slots and appears only in the
    /// host pool; on error nothing changes.
    pub fn swap_out(&mut self, request: RequestId) -> Result<u64, KvError> {
        let Some(host) = &self.host else {
            return Err(KvError::HostTierDisabled);
        };
        let tokens = self.tokens_of(request);
        if tokens == 0 {
            return Err(KvError::NothingToSwap { request });
        }
        if host.hosts(request) {
            return Err(KvError::AlreadySwapped { request });
        }
        if tokens > host.free() {
            return Err(KvError::HostInsufficientCapacity {
                requested: tokens,
                free: host.free(),
            });
        }
        // All checks passed: release the device slots, park on the host.
        let freed = self.release(request);
        debug_assert_eq!(freed, tokens);
        self.host
            .as_mut()
            .expect("checked above")
            .accept(request, tokens)
            .expect("capacity checked above");
        Ok(tokens)
    }

    /// Restores `request` from the host tier onto `candidates`, planning a
    /// fresh device placement with `strategy`. Returns the number of tokens
    /// moved; on error nothing changes.
    pub fn swap_in(
        &mut self,
        request: RequestId,
        candidates: &[InstanceId],
        strategy: PlacementStrategy,
    ) -> Result<u64, KvError> {
        let Some(host) = &self.host else {
            return Err(KvError::HostTierDisabled);
        };
        let tokens = host.swapped_tokens_of(request);
        if tokens == 0 {
            return Err(KvError::NothingToSwap { request });
        }
        let plan = plan_placement(request, tokens, &self.free_slots_on(candidates), strategy)
            .ok_or(KvError::NoSwapInPlacement {
                request,
                requested: tokens,
            })?;
        self.host.as_mut().expect("checked above").release(request);
        self.commit(&plan)
            .expect("placement planned against current free slots");
        Ok(tokens)
    }

    // ---- Prefix-cache tier --------------------------------------------------

    /// Enables the prefix-cache tier. The cache starts empty; enabling it
    /// changes no device-side state.
    ///
    /// # Panics
    ///
    /// Panics if the tier is already enabled or the config is invalid.
    pub fn enable_prefix_cache(&mut self, config: PrefixCacheConfig) {
        assert!(self.prefix.is_none(), "prefix cache enabled twice");
        self.prefix = Some(PrefixCache::new(config));
    }

    /// The prefix cache, if enabled.
    pub fn prefix(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// Returns true if the prefix-cache tier is enabled.
    pub fn prefix_enabled(&self) -> bool {
        self.prefix.is_some()
    }

    /// Tokens a prompt of `prompt_len` tokens in `conversation` could adopt
    /// right now (zero when the tier is disabled or nothing matches).
    pub fn prefix_match_len(&self, conversation: ConversationId, prompt_len: u64) -> u64 {
        self.prefix
            .as_ref()
            .map(|c| c.match_len(conversation, prompt_len))
            .unwrap_or(0)
    }

    /// Pins `conversation`'s retained entry for a pending waiter. No-op when
    /// the tier is disabled.
    pub fn prefix_waiter_add(&mut self, conversation: ConversationId) {
        if let Some(cache) = &mut self.prefix {
            cache.waiter_add(conversation);
        }
    }

    /// Releases one waiter pin on `conversation`. No-op when the tier is
    /// disabled.
    pub fn prefix_waiter_drop(&mut self, conversation: ConversationId) {
        if let Some(cache) = &mut self.prefix {
            cache.waiter_drop(conversation);
        }
    }

    /// Retains a finished request's device-resident KV as `conversation`'s
    /// cached prefix instead of releasing it. The slots stay allocated under
    /// `request`; a previous entry for the conversation (the prior turn's
    /// shorter context) is released and replaced. Returns the tokens
    /// retained — zero (with a plain release) when the tier is disabled or
    /// the request holds nothing on the device.
    pub fn prefix_retain(
        &mut self,
        request: RequestId,
        conversation: ConversationId,
        now: SimTime,
    ) -> u64 {
        let tokens = self.tokens_of(request);
        let Some(cache) = &mut self.prefix else {
            self.release(request);
            return 0;
        };
        if tokens == 0 {
            return 0;
        }
        if let Some(old) = cache.insert(conversation, request, tokens, now) {
            self.release(old.owner);
        }
        tokens
    }

    /// Atomically adopts `conversation`'s retained prefix for `request`: the
    /// cached slots are renamed from the finished owner to `request` on every
    /// instance holding them — no copy, no transient free/alloc window — and
    /// the entry leaves the index. Returns the adopted token count, or
    /// `None` when nothing matches a prompt of `prompt_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `request` already holds device slots (adoption must precede
    /// the request's first prefill commit).
    pub fn prefix_adopt(
        &mut self,
        request: RequestId,
        conversation: ConversationId,
        prompt_len: u64,
    ) -> Option<u64> {
        let cache = self.prefix.as_ref()?;
        if cache.match_len(conversation, prompt_len) == 0 {
            return None;
        }
        assert!(
            !self.residency.contains_key(&request),
            "{request} must adopt its prefix before holding any KV"
        );
        let entry = self
            .prefix
            .as_mut()
            .expect("checked above")
            .remove(conversation)
            .expect("matched above");
        let locations = self
            .residency
            .remove(&entry.owner)
            .expect("cached owners are device-resident");
        for &(inst, _) in &locations {
            self.pools[inst.index()].rename(entry.owner, request);
        }
        self.residency.insert(request, locations);
        Some(entry.tokens)
    }

    /// Runs the prefix-cache eviction policy for one scheduling point:
    /// watermark eviction of unpinned entries down to the configured device
    /// utilisation, then head-of-queue headroom eviction (unpinned first,
    /// then pinned; the head's own conversation is never a victim — the
    /// tokens it would free equal the extra tokens the head would then have
    /// to prefill). Victims' slots are released. Returns `(entries, tokens)`
    /// evicted; `(0, 0)` always when the tier is disabled.
    pub fn prefix_evict_point(&mut self, head: Option<PrefixDemand>) -> (u64, u64) {
        let Some(cache) = &self.prefix else {
            return (0, 0);
        };
        let watermark = cache.config().high_watermark;
        let mut entries = 0u64;
        let mut tokens = 0u64;
        while self.device_utilization() > watermark {
            let Some(victim) = self
                .prefix
                .as_ref()
                .expect("checked above")
                .eviction_victim(false, None)
            else {
                break;
            };
            tokens += self.prefix_evict_one(victim);
            entries += 1;
        }
        if let Some(head) = head {
            let cached = head
                .conversation
                .map(|c| self.prefix_match_len(c, head.remaining_input))
                .unwrap_or(0);
            let demand = head.remaining_input - cached + head.reserve_output;
            // A request no eviction could ever admit (the schedulers will
            // reject or queue it) must not flush the whole cache.
            if demand <= self.total_capacity() {
                while self.total_free() < demand {
                    let cache = self.prefix.as_ref().expect("checked above");
                    let Some(victim) = cache
                        .eviction_victim(false, head.conversation)
                        .or_else(|| cache.eviction_victim(true, head.conversation))
                    else {
                        break;
                    };
                    tokens += self.prefix_evict_one(victim);
                    entries += 1;
                }
            }
        }
        (entries, tokens)
    }

    /// Total tokens retained by the prefix cache (zero when disabled).
    pub fn prefix_retained_tokens(&self) -> u64 {
        self.prefix
            .as_ref()
            .map(|c| c.retained_tokens())
            .unwrap_or(0)
    }

    /// Tokens retained by the prefix cache on `instance` (zero when
    /// disabled). O(entries); cached owners never migrate, so the per-entry
    /// holdings are stable while retained.
    pub fn prefix_retained_on(&self, instance: InstanceId) -> u64 {
        let Some(cache) = &self.prefix else {
            return 0;
        };
        cache
            .entries()
            .map(|(_, e)| self.pools[instance.index()].used_by(e.owner))
            .sum()
    }

    /// Used slots excluding retained prefixes — the *active* working set.
    /// Retained prefixes are reclaimable on demand, so capacity-driven
    /// policies (pressure watermarks, admission budgets) treat them as
    /// free; counting them as used would let a full cache pause admission
    /// forever while pinning the very requests that would unpin it.
    pub fn active_used(&self) -> u64 {
        self.total_used() - self.prefix_retained_tokens()
    }

    /// Device utilisation of the active working set in `[0, 1]`: like
    /// [`Self::device_utilization`] but excluding reclaimable retained
    /// prefixes. Identical to it when the tier is disabled.
    pub fn active_utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap == 0 {
            return 1.0;
        }
        self.active_used() as f64 / cap as f64
    }

    /// Evicts retained prefixes until `instances` hold at least `needed`
    /// free slots between them, LRU-first (unpinned before pinned) among
    /// the entries holding tokens on any of `instances`. The engine calls
    /// this just before committing prefill placements, decode appends,
    /// migrations and swap-ins, so admission policies may count retained
    /// tokens as reclaimable and execution makes good on it. Returns
    /// `(entries, tokens)` evicted; `(0, 0)` always when the tier is
    /// disabled or the slots are already free.
    pub fn prefix_evict_for_instances(
        &mut self,
        instances: &[InstanceId],
        needed: u64,
    ) -> (u64, u64) {
        if self.prefix.is_none() {
            return (0, 0);
        }
        let mut entries = 0u64;
        let mut tokens = 0u64;
        loop {
            let free: u64 = instances
                .iter()
                .map(|&i| self.pools[i.index()].free())
                .sum();
            if free >= needed {
                break;
            }
            let cache = self.prefix.as_ref().expect("checked above");
            let mut best: Option<(bool, SimTime, ConversationId)> = None;
            for (conv, entry) in cache.entries() {
                let holds_here = instances
                    .iter()
                    .any(|&i| self.pools[i.index()].used_by(entry.owner) > 0);
                if !holds_here {
                    continue;
                }
                let key = (cache.waiters(conv) > 0, entry.retained_at, conv);
                if best.map(|b| key < b).unwrap_or(true) {
                    best = Some(key);
                }
            }
            let Some((_, _, victim)) = best else {
                break;
            };
            tokens += self.prefix_evict_one(victim);
            entries += 1;
        }
        (entries, tokens)
    }

    /// Evicts one retained entry, releasing its owner's slots. Returns the
    /// tokens freed.
    fn prefix_evict_one(&mut self, conversation: ConversationId) -> u64 {
        let entry = self
            .prefix
            .as_mut()
            .expect("eviction requires the tier")
            .remove(conversation)
            .expect("victims come from the index");
        let freed = self.release(entry.owner);
        debug_assert_eq!(freed, entry.tokens);
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::PrefixCacheConfig;

    fn pool() -> UnifiedKvPool {
        UnifiedKvPool::with_capacities(&[100_000, 200_000, 400_000])
    }

    #[test]
    fn commit_and_release_roundtrip() {
        let mut p = pool();
        let plan = p
            .plan(
                RequestId(0),
                600_000,
                &[InstanceId(0), InstanceId(1), InstanceId(2)],
                PlacementStrategy::Balanced,
            )
            .expect("fits in unified pool");
        p.commit(&plan).expect("commit");
        assert_eq!(p.tokens_of(RequestId(0)), 600_000);
        assert_eq!(p.total_free(), 100_000);
        assert_eq!(p.release(RequestId(0)), 600_000);
        assert_eq!(p.total_free(), 700_000);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn failed_commit_leaves_pool_untouched() {
        let mut p = pool();
        // Hand-craft a plan that exceeds instance 0's capacity.
        let plan = PlacementPlan {
            request: RequestId(0),
            spans: vec![(InstanceId(0), 150_000)],
        };
        assert!(p.commit(&plan).is_err());
        assert_eq!(p.total_used(), 0);
    }

    #[test]
    fn append_grows_request_on_master() {
        let mut p = pool();
        p.append(RequestId(3), InstanceId(1), 1).expect("room");
        p.append(RequestId(3), InstanceId(1), 1).expect("room");
        assert_eq!(p.tokens_of(RequestId(3)), 2);
        assert_eq!(p.locations_of(RequestId(3)), vec![(InstanceId(1), 2)]);
    }

    #[test]
    fn migrate_moves_tokens_between_instances() {
        let mut p = pool();
        p.append(RequestId(1), InstanceId(0), 50_000).expect("room");
        let mv = p
            .migrate(RequestId(1), InstanceId(0), InstanceId(2), 20_000)
            .expect("room");
        assert_eq!(mv.tokens, 20_000);
        assert_eq!(p.instance(InstanceId(0)).used_by(RequestId(1)), 30_000);
        assert_eq!(p.instance(InstanceId(2)).used_by(RequestId(1)), 20_000);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn migrate_rejects_when_destination_full() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 10]);
        p.append(RequestId(1), InstanceId(0), 50).expect("room");
        assert!(matches!(
            p.migrate(RequestId(1), InstanceId(0), InstanceId(1), 20),
            Err(KvError::InsufficientCapacity { .. })
        ));
        // Source untouched on failure.
        assert_eq!(p.instance(InstanceId(0)).used_by(RequestId(1)), 50);
    }

    #[test]
    fn drain_instance_moves_everything_or_nothing() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 60, 60]);
        p.append(RequestId(1), InstanceId(0), 100).expect("room");
        let moves = p
            .drain_instance(RequestId(1), InstanceId(0))
            .expect("fits elsewhere");
        assert_eq!(moves.iter().map(|m| m.tokens).sum::<u64>(), 100);
        assert_eq!(p.instance(InstanceId(0)).used_by(RequestId(1)), 0);
        assert_eq!(p.tokens_of(RequestId(1)), 100);

        // Now fill the other instances so a second drain cannot succeed.
        let mut p2 = UnifiedKvPool::with_capacities(&[100, 10, 10]);
        p2.append(RequestId(1), InstanceId(0), 100).expect("room");
        assert!(p2.drain_instance(RequestId(1), InstanceId(0)).is_none());
        assert_eq!(p2.instance(InstanceId(0)).used_by(RequestId(1)), 100);
    }

    #[test]
    fn resident_requests_lists_unique_ids() {
        let mut p = pool();
        p.append(RequestId(5), InstanceId(0), 10).expect("room");
        p.append(RequestId(5), InstanceId(1), 10).expect("room");
        p.append(RequestId(2), InstanceId(2), 10).expect("room");
        assert_eq!(p.resident_requests(), vec![RequestId(2), RequestId(5)]);
    }

    #[test]
    fn utilization_reports_per_instance_in_sorted_order() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 100]);
        p.append(RequestId(1), InstanceId(0), 50).expect("room");
        let u = p.utilization();
        assert_eq!(u, vec![(InstanceId(0), 0.5), (InstanceId(1), 0.0)]);
    }

    #[test]
    fn swap_out_and_in_roundtrip_preserves_tokens() {
        let mut p = pool();
        p.enable_host_tier(1_000_000);
        let plan = p
            .plan(
                RequestId(4),
                250_000,
                &[InstanceId(0), InstanceId(1), InstanceId(2)],
                PlacementStrategy::Balanced,
            )
            .expect("fits");
        p.commit(&plan).expect("commit");
        let moved = p.swap_out(RequestId(4)).expect("host has room");
        assert_eq!(moved, 250_000);
        assert_eq!(p.tokens_of(RequestId(4)), 0);
        assert_eq!(p.swapped_tokens_of(RequestId(4)), 250_000);
        assert_eq!(p.total_swapped(), 250_000);
        assert_eq!(p.total_used(), 0);
        assert!(p.check_invariants().is_ok());
        // A swapped request cannot grow device residency.
        assert!(matches!(
            p.append(RequestId(4), InstanceId(0), 1),
            Err(KvError::AlreadySwapped { .. })
        ));
        let restored = p
            .swap_in(
                RequestId(4),
                &[InstanceId(0), InstanceId(1), InstanceId(2)],
                PlacementStrategy::PackMostFree,
            )
            .expect("device has room");
        assert_eq!(restored, 250_000);
        assert_eq!(p.tokens_of(RequestId(4)), 250_000);
        assert_eq!(p.total_swapped(), 0);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn swap_errors_leave_both_tiers_untouched() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 100]);
        // Disabled tier.
        p.append(RequestId(1), InstanceId(0), 50).expect("room");
        assert!(matches!(
            p.swap_out(RequestId(1)),
            Err(KvError::HostTierDisabled)
        ));
        // Tiny host: eviction does not fit.
        p.enable_host_tier(10);
        assert!(matches!(
            p.swap_out(RequestId(1)),
            Err(KvError::HostInsufficientCapacity { requested: 50, .. })
        ));
        assert_eq!(p.tokens_of(RequestId(1)), 50);
        // Nothing to swap either way.
        assert!(matches!(
            p.swap_out(RequestId(9)),
            Err(KvError::NothingToSwap { .. })
        ));
        assert!(matches!(
            p.swap_in(
                RequestId(9),
                &[InstanceId(0)],
                PlacementStrategy::PackMostFree
            ),
            Err(KvError::NothingToSwap { .. })
        ));
        assert!(p.check_invariants().is_ok());

        // Swap-in with no feasible placement keeps the request parked.
        let mut q = UnifiedKvPool::with_capacities(&[100]);
        q.enable_host_tier(100);
        q.append(RequestId(2), InstanceId(0), 80).expect("room");
        q.swap_out(RequestId(2)).expect("fits on host");
        q.append(RequestId(3), InstanceId(0), 60).expect("room");
        assert!(matches!(
            q.swap_in(
                RequestId(2),
                &[InstanceId(0)],
                PlacementStrategy::PackMostFree
            ),
            Err(KvError::NoSwapInPlacement { requested: 80, .. })
        ));
        assert_eq!(q.swapped_tokens_of(RequestId(2)), 80);
        assert!(q.check_invariants().is_ok());
    }

    #[test]
    fn device_utilization_tracks_pressure() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 100]);
        assert_eq!(p.device_utilization(), 0.0);
        p.append(RequestId(0), InstanceId(0), 100).expect("room");
        assert!((p.device_utilization() - 0.5).abs() < 1e-12);
        assert!(p.host().is_none());
        p.enable_host_tier(50);
        assert_eq!(p.host().expect("enabled").capacity(), 50);
    }

    #[test]
    fn prefix_retain_adopt_roundtrip_renames_slots_in_place() {
        let mut p = pool();
        p.enable_prefix_cache(PrefixCacheConfig::default());
        let conv = ConversationId(9);
        // Turn 0 finishes with 30k tokens spread over two instances.
        p.append(RequestId(0), InstanceId(0), 20_000).expect("room");
        p.append(RequestId(0), InstanceId(1), 10_000).expect("room");
        let retained = p.prefix_retain(RequestId(0), conv, SimTime::from_secs(1.0));
        assert_eq!(retained, 30_000);
        assert_eq!(p.tokens_of(RequestId(0)), 30_000, "slots stay allocated");
        assert_eq!(p.prefix().expect("enabled").retained_tokens(), 30_000);
        // A follow-up prompt strictly longer than the entry matches it...
        assert_eq!(p.prefix_match_len(conv, 45_000), 30_000);
        // ...and adoption renames the slots with no free/alloc transition.
        let used_before = p.total_used();
        let adopted = p.prefix_adopt(RequestId(1), conv, 45_000).expect("matched");
        assert_eq!(adopted, 30_000);
        assert_eq!(p.total_used(), used_before);
        assert_eq!(p.tokens_of(RequestId(0)), 0);
        assert_eq!(
            p.locations_of(RequestId(1)),
            vec![(InstanceId(0), 20_000), (InstanceId(1), 10_000)]
        );
        assert!(p.prefix().expect("enabled").is_empty());
        assert!(p.check_invariants().is_ok());
        // The next turn retains the grown context, replacing nothing.
        p.append(RequestId(1), InstanceId(2), 15_000).expect("room");
        assert_eq!(
            p.prefix_retain(RequestId(1), conv, SimTime::from_secs(2.0)),
            45_000
        );
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_retain_replaces_and_releases_the_old_entry() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache(PrefixCacheConfig::default());
        let conv = ConversationId(1);
        p.append(RequestId(0), InstanceId(0), 100).expect("room");
        p.prefix_retain(RequestId(0), conv, SimTime::from_secs(1.0));
        // A later turn of the same conversation finished without adopting
        // (it arrived before turn 0 completed): retention replaces.
        p.append(RequestId(1), InstanceId(0), 300).expect("room");
        p.prefix_retain(RequestId(1), conv, SimTime::from_secs(2.0));
        assert_eq!(p.tokens_of(RequestId(0)), 0, "old owner released");
        assert_eq!(p.total_used(), 300);
        assert_eq!(p.prefix_match_len(conv, 301), 300);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_disabled_paths_are_noops() {
        let mut p = UnifiedKvPool::with_capacities(&[100]);
        assert!(!p.prefix_enabled());
        p.append(RequestId(0), InstanceId(0), 50).expect("room");
        // Retention without the tier falls back to a plain release.
        assert_eq!(
            p.prefix_retain(RequestId(0), ConversationId(0), SimTime::ZERO),
            0
        );
        assert_eq!(p.total_used(), 0);
        assert_eq!(p.prefix_match_len(ConversationId(0), 100), 0);
        assert_eq!(p.prefix_adopt(RequestId(1), ConversationId(0), 100), None);
        assert_eq!(p.prefix_evict_point(None), (0, 0));
        p.prefix_waiter_add(ConversationId(0));
        p.prefix_waiter_drop(ConversationId(0));
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_watermark_eviction_is_lru_and_respects_pins() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache(PrefixCacheConfig {
            high_watermark: 0.5,
            block_tokens: 64,
        });
        for (i, at) in [(0u64, 3.0), (1u64, 1.0), (2u64, 2.0)] {
            p.append(RequestId(i), InstanceId(0), 300).expect("room");
            p.prefix_retain(RequestId(i), ConversationId(i), SimTime::from_secs(at));
        }
        // Pin the LRU entry (conversation 1): the watermark pass must skip
        // it and take conversation 2, then 0, stopping at 50% utilisation.
        p.prefix_waiter_add(ConversationId(1));
        let (entries, tokens) = p.prefix_evict_point(None);
        assert_eq!((entries, tokens), (2, 600));
        assert!(
            p.prefix_match_len(ConversationId(1), 1_000) > 0,
            "pinned survives"
        );
        assert_eq!(p.prefix_match_len(ConversationId(2), 1_000), 0);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_headroom_eviction_frees_for_the_queue_head() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache(PrefixCacheConfig {
            high_watermark: 1.0,
            block_tokens: 64,
        });
        for (i, at) in [(0u64, 2.0), (1u64, 1.0)] {
            p.append(RequestId(i), InstanceId(0), 400).expect("room");
            p.prefix_retain(RequestId(i), ConversationId(i), SimTime::from_secs(at));
        }
        // The head adopts its own 400-token entry, so its demand is the
        // 50-token suffix plus a 300-slot output reserve = 350 > 200 free.
        // Conversation 1's entry must go even though it is pinned —
        // headroom eviction may take pinned entries once unpinned ones run
        // out — while conversation 0 is protected as the head's own.
        p.prefix_waiter_add(ConversationId(1));
        let (entries, tokens) = p.prefix_evict_point(Some(PrefixDemand {
            conversation: Some(ConversationId(0)),
            remaining_input: 450,
            reserve_output: 300,
        }));
        assert_eq!((entries, tokens), (1, 400));
        assert!(p.total_free() >= 350);
        assert!(
            p.prefix_match_len(ConversationId(0), 450) > 0,
            "the head's own entry is never evicted"
        );
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_match_requires_strictly_longer_prompt() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache(PrefixCacheConfig::default());
        p.append(RequestId(0), InstanceId(0), 200).expect("room");
        p.prefix_retain(RequestId(0), ConversationId(0), SimTime::ZERO);
        assert_eq!(p.prefix_match_len(ConversationId(0), 200), 0);
        assert_eq!(p.prefix_match_len(ConversationId(0), 201), 200);
        assert_eq!(p.prefix_adopt(RequestId(1), ConversationId(0), 200), None);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn residency_index_tracks_all_mutations() {
        let mut p = pool();
        let plan = p
            .plan(
                RequestId(7),
                250_000,
                &[InstanceId(0), InstanceId(1), InstanceId(2)],
                PlacementStrategy::Balanced,
            )
            .expect("fits");
        p.commit(&plan).expect("commit");
        p.append(RequestId(7), InstanceId(0), 5).expect("room");
        let before = p.locations_of(RequestId(7));
        assert_eq!(
            before.iter().map(|&(_, t)| t).sum::<u64>(),
            250_005,
            "index covers commit + append"
        );
        assert!(p.check_invariants().is_ok());

        let held0 = p.instance(InstanceId(0)).used_by(RequestId(7));
        p.migrate(RequestId(7), InstanceId(0), InstanceId(2), held0)
            .expect("room");
        assert_eq!(p.locations_ref(RequestId(7)).len(), 2);
        assert!(p.check_invariants().is_ok());

        // A failed migrate must leave the index untouched.
        let mut small = UnifiedKvPool::with_capacities(&[100, 10]);
        small.append(RequestId(1), InstanceId(0), 50).expect("room");
        assert!(small
            .migrate(RequestId(1), InstanceId(0), InstanceId(1), 20)
            .is_err());
        assert_eq!(small.locations_of(RequestId(1)), vec![(InstanceId(0), 50)]);
        assert!(small.check_invariants().is_ok());

        assert_eq!(p.release(RequestId(7)), 250_005);
        assert!(p.locations_ref(RequestId(7)).is_empty());
        assert_eq!(p.resident_requests(), Vec::<RequestId>::new());
        assert!(p.check_invariants().is_ok());
    }
}
