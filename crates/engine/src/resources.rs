//! Max-min fair fluid bandwidth sharing.
//!
//! Every in-flight transfer (network message, shared-memory copy, reduction
//! stream) is a **flow**: it has remaining bytes, a per-flow rate ceiling,
//! and a set of capacity-limited resources it traverses (sender NIC,
//! receiver NIC, leaf uplinks, memory bus). Rates are assigned by classic
//! progressive filling: repeatedly find the most constrained bottleneck
//! (either a resource shared by many unfrozen flows or a flow's own cap),
//! freeze the affected flows at that fair share, subtract, and continue.
//!
//! This is what makes the paper's Figure 1 *emerge* rather than be scripted:
//! e.g. on the Omni-Path model one large flow already reaches `node_bw`, so
//! adding flows just splits the same capacity (Zone C), while on the IB
//! model each flow is capped well below `node_bw` and concurrency adds real
//! throughput.
//!
//! ## Incremental water-filling (DESIGN.md §11)
//!
//! Flow arrival/teardown marks only the touched resources dirty;
//! [`FluidSystem::recompute`] walks the resource↔flow bipartite graph from
//! the dirty set and re-levels just that bottleneck-connected region. All
//! state lives in slot-indexed slabs ([`FluidSystem`]'s `flows` +
//! per-resource flow index `res_flows`), so the walk and the fill do no
//! hashing — visited marks are generation stamps, membership removal is an
//! O(1) swap-remove via per-claim back-pointers. A [`FlowId`] carries its
//! slab slot, and a flow's claims are stored inline (at most
//! [`MAX_CLAIMS`]), so adding and removing a flow neither hashes nor
//! allocates once the slabs have grown. When the dirty set grows
//! past [`FULL_SOLVE_THRESHOLD`] of all resources the incremental walk
//! stops paying for itself and [`FluidSystem::recompute_full`] re-levels
//! every component from scratch instead. Both paths run the identical
//! per-component progressive fill in flow-id order, so they agree to the
//! bit — `prop_incremental_matches_scratch_to_0_ulp` holds them to 0 ULP.

use crate::time::SimTime;

/// Identifies a capacity-limited resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub u32);

/// Identifies an active flow: its never-reused creation number plus the
/// slab slot it occupies. Slots are recycled, so the number doubles as a
/// generation — a handle to a removed flow whose slot was reused matches
/// nothing. Ordering is by creation number (the derive compares `id`
/// first), i.e. creation order, which is the tie-break of
/// [`FluidSystem::next_completion`] and [`FluidSystem::drained_flows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    id: u64,
    slot: u32,
}

/// Most resources one flow may claim: a wire flow claims sender and
/// receiver process ports, both NICs and, across leaves, an uplink and a
/// downlink.
pub const MAX_CLAIMS: usize = 6;

/// Bytes below which a flow counts as drained (absorbs fp rounding).
const EPS_BYTES: f64 = 1e-6;

/// When more than this fraction of all resources is dirty, the incremental
/// walk would visit most of the graph anyway — recompute from scratch.
const FULL_SOLVE_THRESHOLD: f64 = 0.5;

#[derive(Debug, Clone)]
struct FlowState<T> {
    /// Monotonic public identity (never reused, unlike the slot).
    id: u64,
    n_claims: u8,
    claim_buf: [ResourceId; MAX_CLAIMS],
    /// `claim_pos[k]` = this flow's index within `res_flows[claims[k]]`.
    claim_pos: [u32; MAX_CLAIMS],
    cap: f64,
    remaining: f64,
    rate: f64,
    token: T,
}

impl<T> FlowState<T> {
    #[inline]
    fn claims(&self) -> &[ResourceId] {
        &self.claim_buf[..self.n_claims as usize]
    }
}

/// Per-resource occupancy accumulators (see
/// [`FluidSystem::enable_utilization`]).
#[derive(Debug, Clone, Copy, Default)]
struct UtilState {
    /// ∫ rate dt: total bytes served by the resource.
    busy_bytes: f64,
    /// Peak instantaneous load as a fraction of capacity.
    peak_frac: f64,
}

/// The fluid system: resources with capacities and the active flows over
/// them. Generic over a `token` payload used by the engine to identify what
/// a completed flow was carrying.
///
/// Recomputation is **component-incremental**: adding or removing a flow
/// marks its resources dirty, and [`FluidSystem::recompute`] re-fills only
/// the connected component of flows reachable from dirty resources (flows
/// on other nodes' memory buses, say, are untouched). Max-min fairness is
/// decomposable across components, so this is exact, and it is what keeps
/// 10,000-rank simulations tractable.
#[derive(Debug)]
pub struct FluidSystem<T> {
    caps: Vec<f64>,
    /// Slot-indexed flow slab; freed slots go to `free_slots` for reuse.
    flows: Vec<Option<FlowState<T>>>,
    free_slots: Vec<u32>,
    live: usize,
    /// Per-resource flow index: the slots of the flows claiming each
    /// resource, as `(slot, claim_index)` so removal is one swap_remove
    /// plus a back-pointer fix.
    res_flows: Vec<Vec<(u32, u32)>>,
    dirty_resources: Vec<u32>,
    next_flow: u64,
    last_update: SimTime,
    dirty: bool,
    // Stamped scratch arrays: O(1) reset between recomputes.
    scratch_residual: Vec<f64>,
    scratch_count: Vec<u32>,
    scratch_stamp: Vec<u64>,
    flow_stamp: Vec<u64>,
    stamp: u64,
    // Optional per-resource occupancy accounting (profiling runs only;
    // `None` costs nothing on the hot path).
    util: Option<Vec<UtilState>>,
    util_scratch: Vec<f64>,
}

impl<T> FluidSystem<T> {
    /// New empty system at time zero.
    pub fn new() -> Self {
        FluidSystem {
            caps: Vec::new(),
            flows: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            res_flows: Vec::new(),
            dirty_resources: Vec::new(),
            next_flow: 0,
            last_update: SimTime::ZERO,
            dirty: false,
            scratch_residual: Vec::new(),
            scratch_count: Vec::new(),
            scratch_stamp: Vec::new(),
            flow_stamp: Vec::new(),
            stamp: 0,
            util: None,
            util_scratch: Vec::new(),
        }
    }

    /// Turn on per-resource occupancy accounting: from now on every
    /// [`FluidSystem::advance_to`] integrates each resource's served bytes
    /// and tracks its peak load fraction. Used by profiling runs; leaves
    /// the non-profiled hot path untouched.
    pub fn enable_utilization(&mut self) {
        if self.util.is_none() {
            self.util = Some(vec![UtilState::default(); self.caps.len()]);
        }
    }

    /// Occupancy of `r` since [`FluidSystem::enable_utilization`]:
    /// `(bytes_served, peak_load_fraction)`. `None` unless enabled.
    pub fn utilization_of(&self, r: ResourceId) -> Option<(f64, f64)> {
        let u = self.util.as_ref()?.get(r.0 as usize)?;
        Some((u.busy_bytes, u.peak_frac))
    }

    /// Register a resource of `capacity` bytes/second.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(capacity > 0.0, "resource capacity must be positive");
        self.caps.push(capacity);
        self.res_flows.push(Vec::new());
        self.scratch_residual.push(0.0);
        self.scratch_count.push(0);
        self.scratch_stamp.push(0);
        if let Some(u) = &mut self.util {
            u.push(UtilState::default());
        }
        ResourceId(self.caps.len() as u32 - 1)
    }

    /// Change a resource's capacity in place — the fault-injection hook
    /// for link degradation and restoration. Unlike [`FluidSystem::add_resource`],
    /// a capacity of `0.0` is allowed: flows over a dead resource are
    /// *starved* (rate 0, skipped by [`FluidSystem::next_completion`])
    /// until the capacity is restored. Marks the resource dirty; call
    /// [`FluidSystem::recompute`] before the next rate query.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "capacity must be finite and >= 0"
        );
        let ri = r.0 as usize;
        assert!(ri < self.caps.len(), "unknown resource {r:?}");
        if self.caps[ri] != capacity {
            self.caps[ri] = capacity;
            self.dirty_resources.push(r.0);
            self.dirty = true;
        }
    }

    /// Current capacity of a resource.
    pub fn capacity_of(&self, r: ResourceId) -> f64 {
        self.caps[r.0 as usize]
    }

    /// True when `r` currently carries at least one flow (used to tell a
    /// genuine deadlock from flows starved by a downed link).
    pub fn resource_has_flows(&self, r: ResourceId) -> bool {
        !self.res_flows[r.0 as usize].is_empty()
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.live
    }

    /// True if rates need recomputation since the last change.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Add a flow of `bytes` over `claims` (at most [`MAX_CLAIMS`]
    /// distinct resources) with per-flow ceiling `cap`. The system becomes
    /// dirty; call [`FluidSystem::recompute`].
    pub fn add_flow(&mut self, claims: &[ResourceId], cap: f64, bytes: f64, token: T) -> FlowId {
        assert!(cap > 0.0, "flow cap must be positive");
        assert!(bytes >= 0.0, "flow bytes must be non-negative");
        assert!(
            claims.len() <= MAX_CLAIMS,
            "flow claims {} resources, at most {MAX_CLAIMS} are supported",
            claims.len()
        );
        for (k, c) in claims.iter().enumerate() {
            assert!((c.0 as usize) < self.caps.len(), "unknown resource {c:?}");
            debug_assert!(
                !claims[..k].contains(c),
                "duplicate claim {c:?}: the per-resource flow index stores one entry per flow"
            );
        }
        let id = self.next_flow;
        self.next_flow += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.flows.push(None);
                self.flow_stamp.push(0);
                self.flows.len() as u32 - 1
            }
        };
        let mut claim_buf = [ResourceId(0); MAX_CLAIMS];
        let mut claim_pos = [0u32; MAX_CLAIMS];
        for (k, c) in claims.iter().enumerate() {
            let list = &mut self.res_flows[c.0 as usize];
            claim_buf[k] = *c;
            claim_pos[k] = list.len() as u32;
            list.push((slot, k as u32));
            self.dirty_resources.push(c.0);
        }
        self.flows[slot as usize] = Some(FlowState {
            id,
            n_claims: claims.len() as u8,
            claim_buf,
            claim_pos,
            cap,
            remaining: bytes,
            rate: 0.0,
            token,
        });
        self.live += 1;
        self.dirty = true;
        FlowId { id, slot }
    }

    /// The live flow `id` names, if any (`None` once it was removed,
    /// even if its slot now holds a newer flow).
    #[inline]
    fn live_flow(&self, id: FlowId) -> Option<&FlowState<T>> {
        self.flows
            .get(id.slot as usize)?
            .as_ref()
            .filter(|f| f.id == id.id)
    }

    /// Remove a flow (normally after completion), returning its token.
    /// `None` when `id` is no longer live.
    pub fn remove_flow(&mut self, id: FlowId) -> Option<T> {
        self.live_flow(id)?;
        let slot = id.slot;
        let f = self.flows[slot as usize].take().expect("checked live");
        for (c, &pos) in f.claims().iter().zip(f.claim_pos.iter()) {
            let list = &mut self.res_flows[c.0 as usize];
            list.swap_remove(pos as usize);
            if let Some(&(moved_slot, moved_k)) = list.get(pos as usize) {
                self.flows[moved_slot as usize]
                    .as_mut()
                    .expect("indexed live flow")
                    .claim_pos[moved_k as usize] = pos;
            }
            self.dirty_resources.push(c.0);
        }
        self.free_slots.push(slot);
        self.live -= 1;
        self.dirty = true;
        Some(f.token)
    }

    /// Advance virtual time: drain every flow by `rate * dt`. Flows at
    /// rate zero are skipped — subtracting `0.0 * dt` is the identity on
    /// a non-negative `remaining`, so the fast path is bit-identical.
    pub fn advance_to(&mut self, now: SimTime) {
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-12, "time went backwards: {dt}");
        if dt > 0.0 {
            if self.util.is_some() {
                self.account_utilization(dt);
            }
            for f in self.flows.iter_mut().flatten() {
                if f.rate > 0.0 {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
            }
        }
        self.last_update = now;
    }

    /// Integrate per-resource load over an elapsed interval of `dt`
    /// seconds at the current (constant) rates.
    fn account_utilization(&mut self, dt: f64) {
        let mut loads = std::mem::take(&mut self.util_scratch);
        loads.clear();
        loads.resize(self.caps.len(), 0.0);
        // Accumulate in flow-id order (slots are reused, so slab order is
        // not id order) so the floating-point sums — and the peak_util
        // they feed — are bit-identical across runs.
        let mut order: Vec<(u64, u32)> = self
            .flows
            .iter()
            .enumerate()
            .filter_map(|(slot, f)| f.as_ref().map(|f| (f.id, slot as u32)))
            .collect();
        order.sort_unstable();
        for (_, slot) in order {
            let f = self.flows[slot as usize].as_ref().expect("live slot");
            if f.rate > 0.0 {
                for c in f.claims() {
                    loads[c.0 as usize] += f.rate;
                }
            }
        }
        let util = self.util.as_mut().expect("checked by caller");
        for (ri, &load) in loads.iter().enumerate() {
            if load > 0.0 {
                let u = &mut util[ri];
                u.busy_bytes += load * dt;
                let frac = if self.caps[ri] > 0.0 {
                    load / self.caps[ri]
                } else {
                    0.0
                };
                u.peak_frac = u.peak_frac.max(frac);
            }
        }
        self.util_scratch = loads;
    }

    /// Recompute max-min fair rates (progressive filling with per-flow
    /// caps) over the connected component(s) touched since the last
    /// recompute, or from scratch when the dirty set is large. Clears the
    /// dirty bit.
    pub fn recompute(&mut self) {
        self.dirty = false;
        if self.live == 0 {
            self.dirty_resources.clear();
            return;
        }
        if self.dirty_resources.len() as f64 > FULL_SOLVE_THRESHOLD * self.caps.len() as f64 {
            self.dirty_resources.clear();
            self.recompute_full();
            return;
        }
        // Gather the affected region: BFS from dirty resources over the
        // resource↔flow bipartite graph. `scratch_stamp`/`flow_stamp`
        // double as visited markers (a fresh stamp per recompute).
        self.stamp += 1;
        let bfs_stamp = self.stamp;
        let mut res_queue: Vec<u32> = std::mem::take(&mut self.dirty_resources);
        let mut affected: Vec<(u64, u32)> = Vec::new();
        while let Some(r) = res_queue.pop() {
            let ri = r as usize;
            if self.scratch_stamp[ri] == bfs_stamp {
                continue;
            }
            self.scratch_stamp[ri] = bfs_stamp;
            for idx in 0..self.res_flows[ri].len() {
                let (slot, _) = self.res_flows[ri][idx];
                if self.flow_stamp[slot as usize] != bfs_stamp {
                    self.flow_stamp[slot as usize] = bfs_stamp;
                    let f = self.flows[slot as usize].as_ref().expect("indexed flow");
                    affected.push((f.id, slot));
                    for c in f.claims() {
                        if self.scratch_stamp[c.0 as usize] != bfs_stamp {
                            res_queue.push(c.0);
                        }
                    }
                }
            }
        }
        self.dirty_resources = res_queue; // return the (drained) buffer
        if affected.is_empty() {
            return;
        }
        // Deterministic order: fill walks flows by ascending id.
        affected.sort_unstable();
        self.fill_region(&affected);
    }

    /// From-scratch re-level: partition all live flows into bottleneck
    /// components and fill each one, in ascending-flow-id order. Used
    /// directly by [`FluidSystem::recompute`] past the dirty-set
    /// threshold; also the reference the incremental path is property-
    /// tested against (they must agree to 0 ULP — fills run the same
    /// arithmetic in the same order either way).
    pub fn recompute_full(&mut self) {
        self.dirty = false;
        self.dirty_resources.clear();
        let mut order: Vec<(u64, u32)> = self
            .flows
            .iter()
            .enumerate()
            .filter_map(|(slot, f)| f.as_ref().map(|f| (f.id, slot as u32)))
            .collect();
        order.sort_unstable();
        self.stamp += 1;
        let visit_stamp = self.stamp;
        let mut component: Vec<(u64, u32)> = Vec::new();
        let mut res_queue: Vec<u32> = Vec::new();
        for &(id, slot) in &order {
            if self.flow_stamp[slot as usize] == visit_stamp {
                continue;
            }
            // BFS this flow's component.
            component.clear();
            self.flow_stamp[slot as usize] = visit_stamp;
            component.push((id, slot));
            res_queue.extend(
                self.flows[slot as usize]
                    .as_ref()
                    .expect("live slot")
                    .claims()
                    .iter()
                    .map(|c| c.0),
            );
            while let Some(r) = res_queue.pop() {
                let ri = r as usize;
                if self.scratch_stamp[ri] == visit_stamp {
                    continue;
                }
                self.scratch_stamp[ri] = visit_stamp;
                for idx in 0..self.res_flows[ri].len() {
                    let (s2, _) = self.res_flows[ri][idx];
                    if self.flow_stamp[s2 as usize] != visit_stamp {
                        self.flow_stamp[s2 as usize] = visit_stamp;
                        let f = self.flows[s2 as usize].as_ref().expect("indexed flow");
                        component.push((f.id, s2));
                        for c in f.claims() {
                            if self.scratch_stamp[c.0 as usize] != visit_stamp {
                                res_queue.push(c.0);
                            }
                        }
                    }
                }
            }
            component.sort_unstable();
            let comp = std::mem::take(&mut component);
            self.fill_region(&comp);
            component = comp;
        }
    }

    /// Progressive filling over one bottleneck-connected region (the
    /// flows share no resources with any flow outside it), given as
    /// `(id, slot)` pairs in ascending-id order.
    fn fill_region(&mut self, region: &[(u64, u32)]) {
        #[cfg(feature = "fluid-stats")]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static CALLS: AtomicU64 = AtomicU64::new(0);
            static WORK: AtomicU64 = AtomicU64::new(0);
            let c = CALLS.fetch_add(1, Ordering::Relaxed) + 1;
            let w = WORK.fetch_add(region.len() as u64, Ordering::Relaxed) + region.len() as u64;
            if c.is_multiple_of(10_000) {
                eprintln!("fill_region calls={c} total_flows_filled={w}");
            }
        }
        // Scratch moves to locals so the fill can read flow claims from
        // the slab without aliasing (no per-flow claim-vector clones).
        let mut residual = std::mem::take(&mut self.scratch_residual);
        let mut count = std::mem::take(&mut self.scratch_count);
        let mut stamps = std::mem::take(&mut self.scratch_stamp);
        self.stamp += 1;
        let fill_stamp = self.stamp;
        for &(_, slot) in region {
            let f = self.flows[slot as usize].as_ref().expect("live slot");
            for c in f.claims() {
                let ri = c.0 as usize;
                if stamps[ri] != fill_stamp {
                    stamps[ri] = fill_stamp;
                    residual[ri] = self.caps[ri];
                    count[ri] = 0;
                }
                count[ri] += 1;
            }
        }
        let mut work: Vec<u32> = region.iter().map(|&(_, slot)| slot).collect();
        let mut cands: Vec<f64> = vec![0.0; work.len()];
        let mut frozen: Vec<u32> = Vec::new();
        while !work.is_empty() {
            let mut min_share = f64::INFINITY;
            for (&slot, cand) in work.iter().zip(cands.iter_mut()) {
                let f = self.flows[slot as usize].as_ref().expect("live slot");
                let mut share = f.cap;
                for c in f.claims() {
                    let ri = c.0 as usize;
                    let n = count[ri];
                    if n > 0 {
                        share = share.min(residual[ri] / n as f64);
                    }
                }
                *cand = share;
                min_share = min_share.min(share);
            }
            debug_assert!(min_share.is_finite() && min_share >= 0.0);
            let mut still = Vec::with_capacity(work.len());
            let mut still_c = Vec::with_capacity(work.len());
            frozen.clear();
            for (slot, cand) in work.drain(..).zip(cands.drain(..)) {
                if cand <= min_share * (1.0 + 1e-12) {
                    let f = self.flows[slot as usize].as_ref().expect("live slot");
                    for c in f.claims() {
                        let ri = c.0 as usize;
                        residual[ri] = (residual[ri] - min_share).max(0.0);
                        count[ri] -= 1;
                    }
                    frozen.push(slot);
                } else {
                    still.push(slot);
                    still_c.push(0.0);
                }
            }
            debug_assert!(!frozen.is_empty(), "progressive filling made no progress");
            for &slot in &frozen {
                self.flows[slot as usize].as_mut().expect("live slot").rate = min_share;
            }
            work = still;
            cands = still_c;
        }
        self.scratch_residual = residual;
        self.scratch_count = count;
        self.scratch_stamp = stamps;
    }

    /// The earliest predicted completion among active flows, given current
    /// rates. Returns `(time, flow)`; zero-byte flows complete "now".
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        debug_assert!(!self.dirty, "call recompute() before next_completion()");
        let mut best: Option<(SimTime, FlowId)> = None;
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            let t = if f.remaining <= EPS_BYTES {
                self.last_update
            } else if f.rate > 0.0 {
                self.last_update.after(f.remaining / f.rate)
            } else {
                continue; // starved flow: cannot finish until rates change
            };
            let fid = FlowId {
                id: f.id,
                slot: slot as u32,
            };
            match best {
                Some((bt, bid)) if (bt, bid) <= (t, fid) => {}
                _ => best = Some((t, fid)),
            }
        }
        best
    }

    /// All flows that have fully drained as of the last `advance_to`.
    pub fn drained_flows(&self) -> Vec<FlowId> {
        let mut v: Vec<FlowId> = self
            .flows
            .iter()
            .enumerate()
            .filter_map(|(slot, f)| {
                let f = f.as_ref()?;
                (f.remaining <= EPS_BYTES).then_some(FlowId {
                    id: f.id,
                    slot: slot as u32,
                })
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Current rate of a flow (test/diagnostic).
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.live_flow(id).map(|f| f.rate)
    }

    /// Aggregate current rate over all flows (test/diagnostic).
    pub fn total_rate(&self) -> f64 {
        self.flows.iter().flatten().map(|f| f.rate).sum()
    }
}

impl<T> Default for FluidSystem<T> {
    fn default() -> Self {
        Self::new()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "{a} != {b}");
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_resource() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let f = s.add_flow(&[r], 3.0, 100.0, ());
        s.recompute();
        approx(s.rate_of(f).unwrap(), 3.0);

        let f2 = s.add_flow(&[r], 30.0, 100.0, ());
        s.recompute();
        // f frozen at cap 3, f2 takes min(30, (10-? )) — progressive fill:
        // equal share would be 5 each; f capped at 3, leftover 7 to f2.
        approx(s.rate_of(f).unwrap(), 3.0);
        approx(s.rate_of(f2).unwrap(), 7.0);
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut s: FluidSystem<u32> = FluidSystem::new();
        let r = s.add_resource(12.0);
        let flows: Vec<FlowId> = (0..4).map(|i| s.add_flow(&[r], 100.0, 50.0, i)).collect();
        s.recompute();
        for f in &flows {
            approx(s.rate_of(*f).unwrap(), 3.0);
        }
        approx(s.total_rate(), 12.0);
    }

    #[test]
    fn two_resource_bottleneck() {
        // Flow A uses r1 only; flows B, C use r1 and r2. r2 is tight.
        let mut s: FluidSystem<&str> = FluidSystem::new();
        let r1 = s.add_resource(30.0);
        let r2 = s.add_resource(4.0);
        let a = s.add_flow(&[r1], 100.0, 1.0, "a");
        let b = s.add_flow(&[r1, r2], 100.0, 1.0, "b");
        let c = s.add_flow(&[r1, r2], 100.0, 1.0, "c");
        s.recompute();
        // b, c limited by r2: 2 each. a gets the rest of r1: 30-4=26.
        approx(s.rate_of(b).unwrap(), 2.0);
        approx(s.rate_of(c).unwrap(), 2.0);
        approx(s.rate_of(a).unwrap(), 26.0);
    }

    #[test]
    fn advance_drains_and_completes() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let f = s.add_flow(&[r], 10.0, 100.0, ());
        s.recompute();
        let (t, id) = s.next_completion().unwrap();
        assert_eq!(id, f);
        approx(t.seconds(), 10.0);
        s.advance_to(SimTime::new(10.0));
        assert_eq!(s.drained_flows(), vec![f]);
        s.remove_flow(f).unwrap();
        assert_eq!(s.active_flows(), 0);
    }

    #[test]
    fn rates_rebalance_after_removal() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let f1 = s.add_flow(&[r], 100.0, 100.0, ());
        let f2 = s.add_flow(&[r], 100.0, 100.0, ());
        s.recompute();
        approx(s.rate_of(f1).unwrap(), 5.0);
        s.advance_to(SimTime::new(2.0)); // both at 90 remaining
        s.remove_flow(f2);
        assert!(s.is_dirty());
        s.recompute();
        approx(s.rate_of(f1).unwrap(), 10.0);
        let (t, _) = s.next_completion().unwrap();
        approx(t.seconds(), 2.0 + 9.0);
    }

    #[test]
    fn utilization_integrates_bytes_and_peak() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        s.enable_utilization();
        // Two flows of 10 bytes each: combined rate 10 (peak 100%).
        s.add_flow(&[r], 100.0, 10.0, ());
        s.add_flow(&[r], 100.0, 10.0, ());
        s.recompute();
        s.advance_to(SimTime::new(2.0)); // both drained
        let (bytes, peak) = s.utilization_of(r).unwrap();
        approx(bytes, 20.0);
        approx(peak, 1.0);
        // Disabled systems report None.
        let s2: FluidSystem<()> = FluidSystem::new();
        assert!(s2.utilization_of(r).is_none());
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let f = s.add_flow(&[r], 1.0, 0.0, ());
        s.recompute();
        let (t, id) = s.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn max_min_is_work_conserving_under_caps() {
        // 3 flows capped at 2 on a resource of 10: total 6 (caps bind).
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        for _ in 0..3 {
            s.add_flow(&[r], 2.0, 1.0, ());
        }
        s.recompute();
        approx(s.total_rate(), 6.0);
        // A 4th uncapped flow soaks the rest.
        s.add_flow(&[r], 100.0, 1.0, ());
        s.recompute();
        approx(s.total_rate(), 10.0);
    }

    #[test]
    fn set_capacity_degrades_and_restores() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let f = s.add_flow(&[r], 100.0, 100.0, ());
        s.recompute();
        approx(s.rate_of(f).unwrap(), 10.0);
        // Degrade to half.
        s.set_capacity(r, 5.0);
        assert!(s.is_dirty());
        s.recompute();
        approx(s.rate_of(f).unwrap(), 5.0);
        // Sever: the flow starves and next_completion has nothing to offer.
        s.set_capacity(r, 0.0);
        s.recompute();
        approx(s.rate_of(f).unwrap(), 0.0);
        assert!(s.next_completion().is_none());
        assert!(s.resource_has_flows(r));
        assert_eq!(s.capacity_of(r), 0.0);
        // Restore: completion is predicted again.
        s.set_capacity(r, 10.0);
        s.recompute();
        approx(s.rate_of(f).unwrap(), 10.0);
        assert!(s.next_completion().is_some());
        // Setting the same capacity again does not dirty the system.
        s.set_capacity(r, 10.0);
        assert!(!s.is_dirty());
    }

    #[test]
    fn zero_capacity_starves_only_dead_component_flows() {
        let mut s: FluidSystem<u32> = FluidSystem::new();
        let dead = s.add_resource(10.0);
        let live = s.add_resource(10.0);
        let fd = s.add_flow(&[dead], 100.0, 1.0, 0);
        let fl = s.add_flow(&[live], 100.0, 1.0, 1);
        s.set_capacity(dead, 0.0);
        s.recompute();
        approx(s.rate_of(fd).unwrap(), 0.0);
        approx(s.rate_of(fl).unwrap(), 10.0);
    }

    #[test]
    fn deterministic_across_insertion_orders() {
        let build = |order: &[usize]| {
            let mut s: FluidSystem<usize> = FluidSystem::new();
            let r1 = s.add_resource(10.0);
            let r2 = s.add_resource(6.0);
            let specs = [(vec![r1], 4.0), (vec![r1, r2], 9.0), (vec![r2], 9.0)];
            // Insert all flows; ids follow insertion order but rates must
            // not depend on it.
            let mut ids = [None; 3];
            for &i in order {
                ids[i] = Some(s.add_flow(&specs[i].0, specs[i].1, 1.0, i));
            }
            s.recompute();
            ids.map(|id| s.rate_of(id.unwrap()).unwrap())
        };
        let a = build(&[0, 1, 2]);
        let b = build(&[2, 0, 1]);
        for (x, y) in a.iter().zip(b.iter()) {
            approx(*x, *y);
        }
    }

    /// Regression: removing a flow mid-transfer must free its bandwidth
    /// share immediately — no residual reservation — and the occupancy
    /// accounting must replay bit-identically.
    #[test]
    fn cancelled_flow_frees_its_share_mid_transfer() {
        let run = |cancel: bool| {
            let mut s: FluidSystem<u32> = FluidSystem::new();
            s.enable_utilization();
            let r = s.add_resource(10.0);
            let a = s.add_flow(&[r], 100.0, 100.0, 0);
            let b = s.add_flow(&[r], 100.0, 100.0, 1);
            s.recompute(); // 5.0 each
            if cancel {
                s.advance_to(SimTime::new(4.0)); // 20 bytes drained each
                s.remove_flow(b);
                s.recompute();
            }
            let (t, fid) = s.next_completion().unwrap();
            assert_eq!(fid, a);
            s.advance_to(t);
            (t.seconds(), s.utilization_of(r).unwrap())
        };
        let (t_cancel, (bytes_cancel, peak_cancel)) = run(true);
        // Survivor sped up to the full resource: 20B at 5.0, 80B at 10.0.
        approx(t_cancel, 4.0 + 8.0);
        approx(bytes_cancel, 40.0 + 80.0);
        approx(peak_cancel, 1.0);
        let (t_both, (bytes_both, _)) = run(false);
        approx(t_both, 20.0);
        approx(bytes_both, 200.0);
        // Bit-deterministic across repeats, with and without the cancel.
        let again = run(true);
        assert_eq!(t_cancel.to_bits(), again.0.to_bits());
        assert_eq!(bytes_cancel.to_bits(), again.1 .0.to_bits());
    }

    /// A handle outlives its flow: once the slot is recycled for a newer
    /// flow, the stale handle must match nothing — not the newcomer.
    #[test]
    fn stale_handle_to_a_reused_slot_matches_nothing() {
        let mut s: FluidSystem<u32> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let old = s.add_flow(&[r], 4.0, 100.0, 1);
        assert_eq!(s.remove_flow(old), Some(1));
        let new = s.add_flow(&[r], 100.0, 100.0, 2);
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        s.recompute();
        assert_eq!(s.rate_of(old), None);
        assert_eq!(s.remove_flow(old), None);
        // The newcomer is untouched by the stale calls.
        assert_eq!(s.active_flows(), 1);
        approx(s.rate_of(new).unwrap(), 10.0);
        assert_eq!(s.remove_flow(new), Some(2));
        assert_eq!(s.remove_flow(new), None, "double remove");
    }

    /// `drained_flows` and `next_completion` break ties by `FlowId`, so
    /// handle order must be creation order even when a newer flow sits
    /// in a lower, recycled slot.
    #[test]
    fn handle_order_is_creation_order_across_slot_reuse() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let r = s.add_resource(10.0);
        let a = s.add_flow(&[r], 1.0, 0.0, ());
        let b = s.add_flow(&[r], 1.0, 0.0, ());
        let c = s.add_flow(&[r], 1.0, 0.0, ());
        s.remove_flow(a);
        let d = s.add_flow(&[r], 1.0, 0.0, ()); // takes a's slot 0
        assert!(d.slot < b.slot && d.slot < c.slot);
        assert!(b < c && c < d, "{b:?} {c:?} {d:?}");
        assert_eq!([b.id, c.id, d.id], [1, 2, 3], "ids count creations");
        s.recompute();
        // All three are zero-byte flows due now: ties go to the oldest.
        assert_eq!(s.drained_flows(), vec![b, c, d]);
        assert_eq!(s.next_completion(), Some((SimTime::ZERO, b)));
        s.remove_flow(b);
        s.recompute();
        assert_eq!(s.next_completion(), Some((SimTime::ZERO, c)));
    }

    #[test]
    fn a_flow_may_claim_up_to_max_claims_resources() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let rs: Vec<ResourceId> = (0..MAX_CLAIMS)
            .map(|i| s.add_resource(1.0 + i as f64))
            .collect();
        let f = s.add_flow(&rs, 100.0, 1.0, ());
        s.recompute();
        approx(s.rate_of(f).unwrap(), 1.0);
        assert!(rs.iter().all(|&r| s.resource_has_flows(r)));
        s.remove_flow(f);
        assert!(rs.iter().all(|&r| !s.resource_has_flows(r)));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn more_than_max_claims_is_rejected() {
        let mut s: FluidSystem<()> = FluidSystem::new();
        let rs: Vec<ResourceId> = (0..=MAX_CLAIMS).map(|_| s.add_resource(1.0)).collect();
        s.add_flow(&rs, 1.0, 1.0, ());
    }

    use proptest::prelude::*;

    proptest! {
        /// Max-min invariants: no resource over capacity, no flow over its
        /// cap, and every flow is bottlenecked somewhere (work conserving).
        #[test]
        fn prop_maxmin_invariants(
            caps in proptest::collection::vec(1.0f64..100.0, 1..4),
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..4, 1..4), 0.5f64..50.0),
                1..12,
            ),
        ) {
            let mut s: FluidSystem<usize> = FluidSystem::new();
            let rids: Vec<ResourceId> = caps.iter().map(|&c| s.add_resource(c)).collect();
            let mut ids = Vec::new();
            for (i, (claims, cap)) in flows.iter().enumerate() {
                let mut cl: Vec<ResourceId> = claims
                    .iter()
                    .map(|&c| rids[c % rids.len()])
                    .collect();
                cl.sort_by_key(|r| r.0);
                cl.dedup();
                ids.push(s.add_flow(&cl, *cap, 1.0, i));
            }
            s.recompute();

            // 1. Resource capacities respected.
            for (ri, &cap) in rids.iter().zip(caps.iter()) {
                let used: f64 = flows
                    .iter()
                    .enumerate()
                    .filter(|(i, (claims, _))| {
                        claims.iter().any(|&c| rids[c % rids.len()] == *ri)
                            && s.rate_of(ids[*i]).is_some()
                    })
                    .map(|(i, _)| s.rate_of(ids[i]).unwrap())
                    .sum();
                prop_assert!(used <= cap * (1.0 + 1e-6), "resource over capacity: {used} > {cap}");
            }
            // 2. Flow caps respected; rates positive.
            for (i, (_, cap)) in flows.iter().enumerate() {
                let r = s.rate_of(ids[i]).unwrap();
                prop_assert!(r <= cap * (1.0 + 1e-6));
                prop_assert!(r > 0.0);
            }
        }

        /// The tentpole equivalence (DESIGN.md §11): after an arbitrary
        /// interleaving of arrivals, teardowns, capacity faults, and
        /// incremental recomputes, a from-scratch re-level of the whole
        /// system reproduces every incrementally-maintained rate to 0 ULP.
        #[test]
        fn prop_incremental_matches_scratch_to_0_ulp(
            caps in proptest::collection::vec(1.0f64..100.0, 2..6),
            ops in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0usize..6, 1..4), 0.5f64..50.0, 1.0f64..80.0),
                1..40,
            ),
        ) {
            let mut s: FluidSystem<usize> = FluidSystem::new();
            let rids: Vec<ResourceId> = caps.iter().map(|&c| s.add_resource(c)).collect();
            let mut live: Vec<FlowId> = Vec::new();
            let mut t = 0.0f64;
            for (i, (kind, picks, cap, bytes)) in ops.iter().enumerate() {
                match kind {
                    // Arrival.
                    0 | 1 => {
                        let mut cl: Vec<ResourceId> =
                            picks.iter().map(|&c| rids[c % rids.len()]).collect();
                        cl.sort_by_key(|r| r.0);
                        cl.dedup();
                        live.push(s.add_flow(&cl, *cap, *bytes, i));
                    }
                    // Teardown of the oldest live flow.
                    2 => {
                        if !live.is_empty() {
                            s.remove_flow(live.remove(0));
                        }
                    }
                    // Capacity fault on some resource.
                    _ => {
                        let r = rids[picks[0] % rids.len()];
                        s.set_capacity(r, *cap);
                    }
                }
                // Drain a little and re-level incrementally.
                t += 0.01;
                s.recompute();
                s.advance_to(SimTime::new(t));
            }
            let incremental: Vec<Option<u64>> = live
                .iter()
                .map(|&f| s.rate_of(f).map(f64::to_bits))
                .collect();
            s.recompute_full();
            let scratch: Vec<Option<u64>> = live
                .iter()
                .map(|&f| s.rate_of(f).map(f64::to_bits))
                .collect();
            prop_assert_eq!(incremental, scratch, "incremental vs from-scratch rates differ");
        }

        /// Max-min optimality: every flow is bottlenecked — pinned at its
        /// own cap, or crossing a resource that is saturated (or dead).
        #[test]
        fn prop_every_flow_is_bottlenecked(
            caps in proptest::collection::vec(1.0f64..100.0, 1..5),
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..5, 1..4), 0.5f64..50.0),
                1..12,
            ),
        ) {
            let mut s: FluidSystem<usize> = FluidSystem::new();
            let rids: Vec<ResourceId> = caps.iter().map(|&c| s.add_resource(c)).collect();
            let mut ids = Vec::new();
            for (i, (claims, cap)) in flows.iter().enumerate() {
                let mut cl: Vec<ResourceId> =
                    claims.iter().map(|&c| rids[c % rids.len()]).collect();
                cl.sort_by_key(|r| r.0);
                cl.dedup();
                ids.push((s.add_flow(&cl, *cap, 1.0, i), cl, *cap));
            }
            s.recompute();
            // Total load per resource, summed over the flows crossing it.
            let mut load = vec![0.0f64; rids.len()];
            for (fid, cl, _) in &ids {
                let r = s.rate_of(*fid).unwrap();
                for c in cl {
                    load[c.0 as usize] += r;
                }
            }
            for (fid, cl, cap) in &ids {
                let r = s.rate_of(*fid).unwrap();
                let at_cap = r >= cap * (1.0 - 1e-9);
                let at_saturated_resource = cl.iter().any(|c| {
                    let ri = c.0 as usize;
                    load[ri] >= caps[ri] * (1.0 - 1e-6)
                });
                prop_assert!(
                    at_cap || at_saturated_resource,
                    "flow {fid:?} rate {r} is below cap {cap} yet crosses no saturated resource"
                );
            }
        }
    }
}
