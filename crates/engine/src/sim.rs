//! The discrete-event executor.
//!
//! See the crate docs for the timing model. Implementation notes:
//!
//! * Every rank is a sequential interpreter over its [`crate::program::Program`]; blocking
//!   instructions suspend it until an event resumes it.
//! * Transfers (network messages, copies, reductions) are fluid flows in a
//!   [`FluidSystem`]; after any flow-set change the rates are recomputed and
//!   a generation-stamped `FlowWake` event is scheduled at the earliest
//!   predicted completion. Stale wakes are ignored.
//! * Intra-node point-to-point messages do not touch the NIC: they move
//!   through a shared-memory bounce buffer. The copy-in occupies the
//!   sending core for the full payload; the copy-out is a fluid flow
//!   bounded by the receiver core and the node memory bus — together the
//!   "cost of extra copies" the paper attributes to flat algorithms
//!   (Section 3).
//! * Event ties are broken by insertion sequence, making runs deterministic.

use crate::coverage::CoverageMap;
use crate::program::{BufKey, ByteRange, Instr, ReqId, Tag, WorldProgram, BUF_RESULT};
use crate::queue::EventQueue;
use crate::report::{ResourceUsage, RunReport, RunStats};
use crate::resources::{FlowId, FluidSystem, ResourceId};
use crate::time::SimTime;
use crate::trace::{MsgTrace, Phase, Release, Span, SpanKind, Trace};
use dpml_fabric::Fabric;
use dpml_faults::{FaultClock, FaultPlan, WireFault};
use dpml_topology::{Rank, RankMap, SwitchTree, SwitchTreeSpec, TopologyError};
use std::collections::{HashMap, VecDeque};

/// Provides SHArP operation timing to the engine (implemented by
/// `dpml-sharp`; the engine stays independent of the aggregation model).
pub trait SharpOracle {
    /// Duration of one aggregation operation over `members` with `bytes`
    /// of payload per member.
    fn op_time(&self, members: &[Rank], bytes: u64) -> f64;
    /// How many operations the switch tree processes concurrently.
    fn max_concurrent_ops(&self) -> u32;
}

/// Static configuration of a simulation: who is where, and how fast
/// everything is.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Rank placement.
    pub map: RankMap,
    /// Speed model.
    pub fabric: Fabric,
    /// Switch fabric.
    pub tree: SwitchTree,
}

impl SimConfig {
    /// Build a config; the switch tree is derived from the spec. Fails
    /// (instead of panicking) when the switch spec cannot host the
    /// cluster — config paths must be total on untrusted input.
    pub fn new(
        map: RankMap,
        fabric: Fabric,
        switch: SwitchTreeSpec,
    ) -> Result<Self, TopologyError> {
        let tree = SwitchTree::build(map.spec().num_nodes, switch)?;
        Ok(SimConfig { map, fabric, tree })
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No runnable events remain but some ranks have not finished.
    Deadlock {
        /// `(rank, program counter, reason)` for each stuck rank.
        blocked: Vec<(u32, usize, String)>,
    },
    /// A `Sharp` instruction was executed but no oracle was configured.
    NoSharpOracle,
    /// A barrier or group id was not registered in the world program.
    UnknownGroup(&'static str, u32),
    /// Event budget exceeded (runaway program guard).
    EventBudgetExceeded(u64),
    /// Virtual-time watchdog fired: the program ran past the configured
    /// budget (see [`Simulator::with_time_budget`]).
    TimeBudgetExceeded(f64),
    /// The injected fault plan denied SHArP group allocation.
    SharpDenied(u32),
    /// A SHArP operation hung (fault-injected) and its op watchdog fired.
    SharpTimeout {
        /// The group whose operation timed out.
        group: u32,
    },
    /// Progress stalled on flows starved by a severed link (an injected
    /// `bw_factor = 0` window with no restore).
    LinkDown {
        /// The node whose NIC is down.
        node: u32,
    },
    /// A rank died (fail-stop fault) before completing its program. The
    /// ledger lists the work aborted at crash time plus every surviving
    /// rank left blocked on the dead peer when the event queue drained.
    RankDead {
        /// The first rank to die.
        rank: u32,
        /// Virtual crash time, seconds.
        time: f64,
        /// Aborted and orphaned operations (see [`PendingOp`]).
        pending_ops: Vec<PendingOp>,
    },
    /// A transfer exhausted its retransmit budget under injected data
    /// faults (see [`dpml_faults::DataFaults::max_retransmits`]): every
    /// delivery attempt was dropped or failed its CRC check. The engine
    /// fails the run rather than deliver corrupt data or hang. For a
    /// shared-memory deposit that kept failing its publish checksum,
    /// `src == dst` (the depositing rank).
    RetryBudgetExhausted {
        /// Sending rank.
        src: u32,
        /// Receiving rank.
        dst: u32,
        /// Delivery attempts made (initial transmission + retransmits).
        attempts: u32,
        /// Virtual time (seconds) when the budget ran out — when a
        /// recovery layer above the engine learns of the failure.
        at: f64,
    },
}

/// One entry in the crash ledger: an operation aborted by a fail-stop
/// fault, or a surviving rank left permanently blocked by one.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingOp {
    /// Rank the operation belonged to.
    pub rank: u32,
    /// Its program counter when the operation was cut short.
    pub pc: usize,
    /// Human-readable description of what was lost.
    pub what: String,
}

impl SimError {
    /// Stable kebab-case variant label, the outcome-coverage key used by
    /// the chaos campaign engine. Labels carry no payload fields so two
    /// errors of the same shape land in the same coverage cell; renaming
    /// one invalidates the committed chaos regression corpus.
    pub fn label(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::NoSharpOracle => "no-sharp-oracle",
            SimError::UnknownGroup(..) => "unknown-group",
            SimError::EventBudgetExceeded(_) => "event-budget",
            SimError::TimeBudgetExceeded(_) => "time-budget",
            SimError::SharpDenied(_) => "sharp-denied",
            SimError::SharpTimeout { .. } => "sharp-timeout",
            SimError::LinkDown { .. } => "link-down",
            SimError::RankDead { .. } => "rank-dead",
            SimError::RetryBudgetExhausted { .. } => "retry-exhausted",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock: {} ranks blocked; first: ", blocked.len())?;
                if let Some((r, pc, why)) = blocked.first() {
                    write!(f, "rank {r} at pc {pc} ({why})")?;
                }
                Ok(())
            }
            SimError::NoSharpOracle => write!(f, "Sharp instruction without a SharpOracle"),
            SimError::UnknownGroup(kind, id) => write!(f, "unregistered {kind} id {id}"),
            SimError::EventBudgetExceeded(n) => write!(f, "exceeded event budget ({n})"),
            SimError::TimeBudgetExceeded(s) => {
                write!(f, "exceeded virtual-time budget ({}us)", s * 1e6)
            }
            SimError::SharpDenied(g) => write!(f, "SHArP group {g} allocation denied"),
            SimError::SharpTimeout { group } => {
                write!(f, "SHArP operation on group {group} timed out")
            }
            SimError::LinkDown { node } => {
                write!(f, "node {node} NIC is down with transfers in flight")
            }
            SimError::RankDead {
                rank,
                time,
                pending_ops,
            } => {
                write!(
                    f,
                    "rank {rank} died at {:.1}us with {} pending ops",
                    time * 1e6,
                    pending_ops.len()
                )
            }
            SimError::RetryBudgetExhausted {
                src,
                dst,
                attempts,
                at,
            } => write!(
                f,
                "transfer {src} -> {dst} still corrupt or lost after {attempts} attempts \
                 (given up at {:.1}us)",
                at * 1e6
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Resume(u32),
    Inject(usize),
    NicService(u32),
    CopyStart(u32),
    ReduceStart(u32),
    FlowWake(u64),
    MsgArrive(usize),
    SharpDone(usize),
    SharpFail(usize),
    LinkChange,
    RecomputePoint,
    Crash(u32),
}

/// Rate-recompute quantization window, seconds. Flow-set changes within
/// one window share a single max-min recomputation; a newly added flow may
/// therefore start up to this much late. 25ns is far below every modeled
/// latency constant (the smallest is the ~150ns shared-memory copy
/// startup) but coalesces the 1/node_msg_rate-staggered NIC injections
/// that would otherwise each trigger a global refill.
const RECOMPUTE_QUANTUM: f64 = 25e-9;

#[derive(Debug, Clone, PartialEq)]
enum ReqState {
    SendPending,
    RecvPending { dst: BufKey },
    SharpPending,
    Done,
}

#[derive(Debug, Clone, PartialEq)]
enum Status {
    Ready,
    Busy,
    OnWait,
    OnBarrier,
    OnSharp,
    Done,
    /// Fail-stop crashed: never runs again, never finishes.
    Dead,
}

#[derive(Debug)]
enum ApplyKind {
    Overwrite,
    Union,
}

#[derive(Debug)]
struct PendingLocal<'a> {
    kind: LocalKind<'a>,
    dst: BufKey,
    range: ByteRange,
}

/// A local copy/reduce whose fluid flow is draining; applied to the
/// destination buffer when the flow completes. Flow sizing is kept so a
/// deposit that fails its publish checksum (injected shm bit flip) can be
/// redone from the intact private source.
#[derive(Debug)]
struct PendingApply {
    dst: BufKey,
    range: ByteRange,
    payload: CoverageMap,
    kind: ApplyKind,
    bytes: f64,
    cap: f64,
    attempts: u32,
}

/// Source operands borrow the instruction in the world program.
#[derive(Debug)]
enum LocalKind<'a> {
    Copy { src: BufKey, cross_socket: bool },
    Reduce { srcs: &'a [BufKey] },
}

struct RankState<'a> {
    pc: usize,
    status: Status,
    blocked_span: Option<(SpanKind, SimTime, u64, Phase)>,
    reqs: Vec<ReqState>,
    /// The requests of the `WaitAll` the rank is blocked in (borrowed
    /// from the instruction; empty when not waiting).
    waiting: &'a [ReqId],
    pending_local: Option<PendingLocal<'a>>,
    pending_apply: Option<PendingApply>,
    /// The fluid flow of the local copy/reduce in progress, if any.
    flow: Option<FlowId>,
    finish: Option<SimTime>,
    /// The event that most recently unblocked this rank (traced runs
    /// only); consumed by `end_span` for Wait/Barrier/Sharp spans.
    last_release: Option<Release>,
}

struct Msg {
    src: Rank,
    dst: Rank,
    tag: Tag,
    range: ByteRange,
    payload: CoverageMap,
    send_req: (u32, u32),
    eager: bool,
    intra: bool,
    cross_socket: bool,
    hops: u32,
    injected_at: Option<SimTime>,
    /// When the message cleared the NIC message-rate server and its fluid
    /// flow started (equals `injected_at` for intra-node transfers).
    wire_start: Option<SimTime>,
    /// Retransmissions so far (injected data faults); 0 on a clean wire.
    attempts: u32,
    /// First injection time — `injected_at` is reset on every retransmit,
    /// so the critical-path walk needs the original handoff to attribute
    /// the full retry window.
    first_posted: Option<SimTime>,
    /// Phase of the originating `ISend` instruction.
    phase: Phase,
    /// Index of this message's `MsgTrace` record, once arrived (traced
    /// runs only).
    trace_idx: Option<usize>,
    /// The fluid flow carrying the message, while it is on the wire or
    /// in its shared-memory copy-out.
    flow: Option<FlowId>,
}

/// Buffer `id` of a dense table, growing the table to hold it.
fn entry(table: &mut Vec<CoverageMap>, id: u32) -> &mut CoverageMap {
    let id = id as usize;
    if table.len() <= id {
        table.resize_with(id + 1, CoverageMap::empty);
    }
    &mut table[id]
}

/// Every buffer's coverage, in dense tables indexed by buffer id:
/// private buffers per rank, shared buffers per node. Ids come from
/// `ProgramBuilder::fresh_*` (plus the fixed input/result ids), so they
/// are small and contiguous; a table grows to the highest id written and
/// a never-written buffer reads as empty.
struct Buffers<'a> {
    map: &'a RankMap,
    private: Vec<Vec<CoverageMap>>,
    shared: Vec<Vec<CoverageMap>>,
}

impl Buffers<'_> {
    /// Rank `r`'s view of `key`: its own private buffer or its node's
    /// shared one. `None` if never written.
    fn get(&self, r: u32, key: BufKey) -> Option<&CoverageMap> {
        let (table, id) = match key {
            BufKey::Priv(id) => (&self.private[r as usize], id),
            BufKey::Shared(id) => (&self.shared[self.map.node_of(Rank(r)).index()], id),
        };
        table.get(id as usize)
    }

    /// Mutable access to rank `r`'s view of `key`, growing its table.
    fn get_mut(&mut self, r: u32, key: BufKey) -> &mut CoverageMap {
        match key {
            BufKey::Priv(id) => entry(&mut self.private[r as usize], id),
            BufKey::Shared(id) => entry(&mut self.shared[self.map.node_of(Rank(r)).index()], id),
        }
    }

    /// A copy of `key`'s coverage over `range` (empty if never written).
    fn snapshot(&self, r: u32, key: BufKey, range: ByteRange) -> CoverageMap {
        self.get(r, key)
            .map(|b| b.restrict(range.start, range.end))
            .unwrap_or_default()
    }

    /// Apply `payload`'s coverage over `range` to `key`: replace it or
    /// union into it.
    fn apply(
        &mut self,
        r: u32,
        key: BufKey,
        range: ByteRange,
        payload: &CoverageMap,
        kind: &ApplyKind,
    ) {
        let buf = self.get_mut(r, key);
        match kind {
            ApplyKind::Overwrite => buf.overwrite(payload, range.start, range.end),
            ApplyKind::Union => buf.union_merge(payload, range.start, range.end),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowToken {
    Net(usize),
    Local(u32),
}

struct BarrierState {
    arrived: u32,
    released: bool,
}

struct SharpOpState {
    group: u32,
    arrived: u32,
    accum: CoverageMap,
    range: Option<ByteRange>,
    /// `(rank, destination buffer, request index)` — the request index is
    /// `None` for blocking participants (resumed directly) and `Some` for
    /// non-blocking ones (completed through their request).
    dsts: Vec<(Rank, BufKey, Option<u32>)>,
    started: bool,
    done: bool,
    /// Last member to join and when — the op's release dependency for the
    /// critical-path walk.
    last_join: Option<(u32, SimTime)>,
}

/// The simulator. Construct once per run.
pub struct Simulator<'a> {
    cfg: &'a SimConfig,
    sharp: Option<&'a dyn SharpOracle>,
    event_budget: u64,
    time_budget: f64,
    faults: Option<&'a FaultPlan>,
    fault_attempt: u32,
    trace: bool,
}

impl<'a> Simulator<'a> {
    /// New simulator over a config, without SHArP capability.
    pub fn new(cfg: &'a SimConfig) -> Self {
        Simulator {
            cfg,
            sharp: None,
            event_budget: 2_000_000_000,
            time_budget: f64::INFINITY,
            faults: None,
            fault_attempt: 0,
            trace: false,
        }
    }

    /// Attach a SHArP oracle (required to execute `Sharp` instructions).
    pub fn with_sharp(mut self, oracle: &'a dyn SharpOracle) -> Self {
        self.sharp = Some(oracle);
        self
    }

    /// Override the runaway-guard event budget.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Virtual-time watchdog: fail with [`SimError::TimeBudgetExceeded`]
    /// instead of simulating past `seconds` (a hung schedule under fault
    /// injection would otherwise spin the event loop arbitrarily long).
    pub fn with_time_budget(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "time budget must be positive");
        self.time_budget = seconds;
        self
    }

    /// Execute the run under a fault plan: seeded per-core noise, link
    /// degradation windows, and SHArP faults. A zero plan perturbs
    /// nothing — timings stay bit-identical to a plain run.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Which retry attempt this run represents (see
    /// [`dpml_faults::SharpFaults::flaky_attempts`]): attempts below the
    /// plan's `flaky_attempts` hang every SHArP op.
    pub fn with_fault_attempt(mut self, attempt: u32) -> Self {
        self.fault_attempt = attempt;
        self
    }

    /// Collect a full execution timeline (see [`crate::trace::Trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Execute a world program to completion.
    pub fn run(&self, world: &WorldProgram) -> Result<RunReport, SimError> {
        let mut st = SimState::new(
            self.cfg,
            world,
            self.sharp,
            self.event_budget,
            self.time_budget,
            self.faults,
            self.fault_attempt,
            self.trace,
        );
        if let Err(e) = st.run() {
            crate::flight::global().record("sim.error", None, format!("{e}"));
            return Err(e);
        }
        let report = st.report(world);
        let flight = crate::flight::global();
        if flight.is_enabled() {
            flight.record(
                "sim.end",
                None,
                format!(
                    "events={} makespan_us={:.1} msgs={} ranks={}",
                    report.stats.events,
                    report.makespan().micros(),
                    report.stats.messages,
                    report.finish_times.len()
                ),
            );
            // When a timeline was collected, keep the tail of it: the
            // last few spans are exactly the "what was the engine doing
            // just before X" context a post-mortem bundle wants.
            if let Some(trace) = &report.trace {
                let skip = trace.spans.len().saturating_sub(8);
                for sp in &trace.spans[skip..] {
                    flight.record(
                        "sim.span",
                        None,
                        format!(
                            "rank={} phase={} start_us={:.1} end_us={:.1} bytes={}",
                            sp.rank,
                            sp.phase.name(),
                            sp.start * 1e6,
                            sp.end * 1e6,
                            sp.bytes
                        ),
                    );
                }
            }
        }
        Ok(report)
    }
}

struct SimState<'a> {
    cfg: &'a SimConfig,
    world: &'a WorldProgram,
    oracle: Option<&'a dyn SharpOracle>,
    now: SimTime,
    events: EventQueue<Ev>,
    ranks: Vec<RankState<'a>>,
    bufs: Buffers<'a>,
    msgs: Vec<Msg>,
    recv_waiting: HashMap<(u32, u32, Tag), VecDeque<(u32, u32)>>,
    arrived: HashMap<(u32, u32, Tag), VecDeque<usize>>,
    nic_queue: Vec<VecDeque<usize>>,
    nic_busy: Vec<bool>,
    fluid: FluidSystem<FlowToken>,
    flow_gen: u64,
    barriers: HashMap<u32, BarrierState>,
    sharp_ops: Vec<SharpOpState>,
    sharp_op_of_group: HashMap<u32, usize>,
    sharp_queue: VecDeque<usize>,
    sharp_active: u32,
    stats: RunStats,
    event_budget: u64,
    time_budget: f64,
    faults: Option<&'a FaultPlan>,
    fault_attempt: u32,
    /// Per-rank jitter draw counters (deterministic noise stream).
    noise_draws: Vec<u64>,
    /// Per-rank data-fault draw counters (wire outcomes and shm flips;
    /// decorrelated from the noise stream by `DATA_DRAW_SALT`).
    data_draws: Vec<u64>,
    /// Current per-node NIC bandwidth factor from active link faults.
    node_bw_factor: Vec<f64>,
    /// Current per-node message-rate factor (clamped positive).
    node_msg_factor: Vec<f64>,
    last_recompute: SimTime,
    recompute_pending: bool,
    /// First fail-stop crash that actually fired (rank, virtual time).
    first_crash: Option<(u32, SimTime)>,
    /// Completion ledger: operations aborted by crashes.
    aborted_ops: Vec<PendingOp>,
    trace: Option<Trace>,
    // Resource ids
    res_tx: Vec<ResourceId>,
    res_rx: Vec<ResourceId>,
    res_mem: Vec<ResourceId>,
    res_leaf_up: Vec<ResourceId>,
    res_leaf_down: Vec<ResourceId>,
    res_proc_tx: Vec<ResourceId>,
    res_proc_rx: Vec<ResourceId>,
    res_proc_cpu: Vec<ResourceId>,
}

impl<'a> SimState<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &'a SimConfig,
        world: &'a WorldProgram,
        oracle: Option<&'a dyn SharpOracle>,
        event_budget: u64,
        time_budget: f64,
        faults: Option<&'a FaultPlan>,
        fault_attempt: u32,
        trace: bool,
    ) -> Self {
        let p = world.world_size();
        assert_eq!(p, cfg.map.world_size(), "program size must match cluster");
        let h = cfg.map.spec().num_nodes as usize;
        let mut fluid = FluidSystem::new();
        let nic = &cfg.fabric.nic;
        let mem = &cfg.fabric.mem;
        let res_tx = (0..h).map(|_| fluid.add_resource(nic.node_bw)).collect();
        let res_rx = (0..h).map(|_| fluid.add_resource(nic.node_bw)).collect();
        let res_mem = (0..h)
            .map(|_| fluid.add_resource(mem.node_mem_bw))
            .collect();
        let leaves = cfg.tree.num_leaves() as usize;
        let uplink_cap = cfg.tree.spec().nodes_per_leaf as f64
            * nic.node_bw
            * cfg.tree.spec().core_bandwidth_fraction();
        let res_leaf_up = (0..leaves)
            .map(|_| fluid.add_resource(uplink_cap))
            .collect();
        let res_leaf_down = (0..leaves)
            .map(|_| fluid.add_resource(uplink_cap))
            .collect();
        // Per-process ceilings: a single rank cannot drive more than one
        // flow's worth of NIC bandwidth no matter how many messages it has
        // in flight (one QP / one injection pipeline), and its shared-memory
        // copy-out rate is bounded by one core's copy bandwidth.
        let res_proc_tx = (0..p)
            .map(|_| fluid.add_resource(nic.per_flow_bw))
            .collect();
        let res_proc_rx = (0..p)
            .map(|_| fluid.add_resource(nic.per_flow_bw))
            .collect();
        let res_proc_cpu = (0..p)
            .map(|_| fluid.add_resource(mem.per_proc_copy_bw))
            .collect();
        if trace {
            // Profiled runs also account per-resource occupancy.
            fluid.enable_utilization();
        }

        let ranks = (0..p)
            .map(|_| RankState {
                pc: 0,
                status: Status::Ready,
                blocked_span: None,
                reqs: Vec::new(),
                waiting: &[],
                pending_local: None,
                pending_apply: None,
                flow: None,
                finish: None,
                last_release: None,
            })
            .collect();
        let bufs = Buffers {
            map: &cfg.map,
            private: (0..p).map(|r| vec![world.initial_input(Rank(r))]).collect(),
            shared: vec![Vec::new(); h],
        };

        let mut st = SimState {
            cfg,
            world,
            oracle,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            ranks,
            bufs,
            msgs: Vec::new(),
            recv_waiting: HashMap::new(),
            arrived: HashMap::new(),
            nic_queue: (0..h).map(|_| VecDeque::new()).collect(),
            nic_busy: vec![false; h],
            fluid,
            flow_gen: 0,
            barriers: HashMap::new(),
            sharp_ops: Vec::new(),
            sharp_op_of_group: HashMap::new(),
            sharp_queue: VecDeque::new(),
            sharp_active: 0,
            stats: RunStats::default(),
            event_budget,
            time_budget,
            faults,
            fault_attempt,
            noise_draws: vec![0; p as usize],
            data_draws: vec![0; p as usize],
            node_bw_factor: vec![1.0; h],
            node_msg_factor: vec![1.0; h],
            last_recompute: SimTime::ZERO,
            recompute_pending: false,
            first_crash: None,
            aborted_ops: Vec::new(),
            trace: trace.then(Trace::default),
            res_tx,
            res_rx,
            res_mem,
            res_leaf_up,
            res_leaf_down,
            res_proc_tx,
            res_proc_rx,
            res_proc_cpu,
        };
        for r in 0..p {
            st.push(SimTime::ZERO, Ev::Resume(r));
        }
        // Continuation worlds (healing planner) start ranks and nodes from
        // checkpointed buffer state instead of empty buffers.
        for (r, id, cov) in &world.preset_priv {
            if *r < p {
                *st.bufs.get_mut(*r, BufKey::Priv(*id)) = cov.clone();
            }
        }
        for (node, id, cov) in &world.preset_shared {
            if let Some(table) = st.bufs.shared.get_mut(*node as usize) {
                *entry(table, *id) = cov.clone();
            }
        }
        if let Some(plan) = st.faults {
            // One capacity-refresh event per degrade/restore boundary;
            // between boundaries the factors are constant. A zero plan has
            // no boundaries and schedules nothing.
            for b in FaultClock::new(plan).boundaries() {
                if b > 0.0 {
                    st.push(SimTime::new(b), Ev::LinkChange);
                }
            }
            st.apply_link_faults();
            // Fail-stop faults: one crash event per victim. A zero-crash
            // plan schedules nothing, keeping timings bit-identical.
            for c in &plan.process.crashes {
                if c.rank < p {
                    st.push(SimTime::new(c.crash_at.max(0.0)), Ev::Crash(c.rank));
                }
            }
            for &node in &plan.process.lost_nodes {
                if (node as usize) < h {
                    for r in cfg.map.ranks_on_node(dpml_topology::NodeId(node)) {
                        st.push(SimTime::ZERO, Ev::Crash(r.0));
                    }
                }
            }
        }
        st
    }

    /// Refresh per-node NIC capacities and message-rate factors from the
    /// fault plan's link windows active at the current time.
    fn apply_link_faults(&mut self) {
        let Some(plan) = self.faults else { return };
        let clk = FaultClock::new(plan);
        let t = self.now.seconds();
        let nominal = self.cfg.fabric.nic.node_bw;
        for h in 0..self.node_bw_factor.len() {
            let (bw, mr) = clk.factors_at(h as u32, t);
            if bw != self.node_bw_factor[h] {
                self.node_bw_factor[h] = bw;
                self.fluid.set_capacity(self.res_tx[h], nominal * bw);
                self.fluid.set_capacity(self.res_rx[h], nominal * bw);
            }
            self.node_msg_factor[h] = mr;
        }
    }

    /// The rank's next deterministic noise stretch factor (exactly 1.0
    /// when no faults are injected — fault-free timing must not move).
    fn noise_factor(&mut self, r: u32) -> f64 {
        match self.faults {
            None => 1.0,
            Some(plan) => {
                let c = self.noise_draws[r as usize];
                self.noise_draws[r as usize] += 1;
                plan.noise.factor(plan.seed, r, c)
            }
        }
    }

    /// Mark the start of a blocking span (traced runs only).
    fn begin_span(&mut self, r: u32, kind: SpanKind, bytes: u64, phase: Phase) {
        if self.trace.is_some() {
            self.ranks[r as usize].blocked_span = Some((kind, self.now, bytes, phase));
        }
    }

    /// Close the rank's open span, if any, at the current time. Blocking
    /// spans (wait/barrier/sharp) record the release event that unblocked
    /// the rank — the dependency edge the critical-path walk follows.
    fn end_span(&mut self, r: u32) {
        if let Some(trace) = &mut self.trace {
            let release = self.ranks[r as usize].last_release.take();
            if let Some((kind, start, bytes, phase)) = self.ranks[r as usize].blocked_span.take() {
                let release = match kind {
                    SpanKind::Wait | SpanKind::Barrier | SpanKind::Sharp => release,
                    _ => None,
                };
                trace.spans.push(Span {
                    rank: r,
                    kind,
                    start: start.seconds(),
                    end: self.now.seconds(),
                    bytes,
                    phase,
                    release,
                });
            }
        }
    }

    fn push(&mut self, t: SimTime, ev: Ev) {
        self.events.push(t, ev);
    }

    fn run(&mut self) -> Result<(), SimError> {
        let mut processed: u64 = 0;
        while self.pump_one(&mut processed)? {}
        self.stats.events = processed;
        if self.ranks.iter().any(|r| r.finish.is_none()) {
            // A fail-stop crash takes precedence over deadlock/link
            // diagnostics: every survivor left blocked when the queue
            // drained is blocked, directly or transitively, on the dead
            // rank. Report the structured ledger.
            if let Some((rank, t)) = self.first_crash {
                let mut pending_ops = std::mem::take(&mut self.aborted_ops);
                for (i, rs) in self.ranks.iter().enumerate() {
                    if rs.finish.is_none() && !matches!(rs.status, Status::Dead) {
                        pending_ops.push(PendingOp {
                            rank: i as u32,
                            pc: rs.pc,
                            what: format!("survivor blocked ({:?})", rs.status),
                        });
                    }
                }
                return Err(SimError::RankDead {
                    rank,
                    time: t.seconds(),
                    pending_ops,
                });
            }
            // A severed link (bw_factor = 0, never restored) starves its
            // flows: the event queue runs dry with transfers still in
            // flight. Report the downed node, not a generic deadlock.
            if let Some(h) = (0..self.node_bw_factor.len()).find(|&h| {
                self.node_bw_factor[h] == 0.0
                    && (self.fluid.resource_has_flows(self.res_tx[h])
                        || self.fluid.resource_has_flows(self.res_rx[h]))
            }) {
                return Err(SimError::LinkDown { node: h as u32 });
            }
            let blocked = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, r)| r.finish.is_none())
                .map(|(i, r)| (i as u32, r.pc, format!("{:?}", r.status)))
                .collect();
            return Err(SimError::Deadlock { blocked });
        }
        Ok(())
    }

    /// Pop and execute one event — plus the same-timestamp drain and the
    /// quantized fluid-rate recompute that follow it. Returns `Ok(false)`
    /// when the queue is empty.
    fn pump_one(&mut self, processed: &mut u64) -> Result<bool, SimError> {
        let Some((t, ev)) = self.events.pop() else {
            return Ok(false);
        };
        *processed += 1;
        if *processed > self.event_budget {
            return Err(SimError::EventBudgetExceeded(self.event_budget));
        }
        debug_assert!(t >= self.now, "event in the past");
        if let Ev::Crash(r) = ev {
            // A rank that finished before its scheduled crash time
            // outlived the fault; drop the event without advancing the
            // clock (it may lie beyond the time budget).
            if matches!(self.ranks[r as usize].status, Status::Done) {
                return Ok(true);
            }
        }
        if t.seconds() > self.time_budget {
            return Err(SimError::TimeBudgetExceeded(self.time_budget));
        }
        if t > self.now {
            self.fluid.advance_to(t);
            self.now = t;
        }
        self.handle(ev)?;
        // Drain every event at this exact timestamp before recomputing
        // fluid rates: synchronized collectives start/finish thousands
        // of flows at the same instant, and one shared recompute turns
        // O(events × flows) into O(timestamps × flows).
        while self.events.peek_time().is_some_and(|t2| t2 <= self.now) {
            let (_, ev2) = self.events.pop().expect("peeked");
            *processed += 1;
            if *processed > self.event_budget {
                return Err(SimError::EventBudgetExceeded(self.event_budget));
            }
            self.handle(ev2)?;
        }
        if self.fluid.is_dirty() {
            // `0.99 *` guards against f64 rounding: `(t + q) - t` can
            // land a ULP below `q`, which would otherwise re-defer the
            // recompute point at its own timestamp forever.
            if self.now - self.last_recompute >= 0.99 * RECOMPUTE_QUANTUM
                || self.now == SimTime::ZERO
            {
                self.reschedule_flows();
            } else if !self.recompute_pending {
                // Defer: coalesce further changes into one refill at
                // the end of the quantum.
                self.recompute_pending = true;
                self.push(self.now.after(RECOMPUTE_QUANTUM), Ev::RecomputePoint);
            }
        }
        Ok(true)
    }

    fn reschedule_flows(&mut self) {
        self.last_recompute = self.now;
        self.fluid.advance_to(self.now);
        self.fluid.recompute();
        self.flow_gen += 1;
        self.stats.peak_flows = self.stats.peak_flows.max(self.fluid.active_flows());
        if let Some((t, _)) = self.fluid.next_completion() {
            let gen = self.flow_gen;
            self.push(t.max(self.now), Ev::FlowWake(gen));
        }
    }

    fn handle(&mut self, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::Resume(r) => {
                if !matches!(self.ranks[r as usize].status, Status::Done | Status::Dead) {
                    self.end_span(r);
                    self.ranks[r as usize].status = Status::Ready;
                    self.run_rank(r)?;
                }
            }
            Ev::Inject(m) => self.inject(m),
            Ev::NicService(node) => self.nic_service(node),
            Ev::CopyStart(r) | Ev::ReduceStart(r) => self.local_start(r),
            Ev::FlowWake(gen) => {
                if gen == self.flow_gen {
                    self.flow_wake()?;
                }
            }
            Ev::MsgArrive(m) => self.msg_arrive(m)?,
            Ev::SharpDone(op) => self.sharp_done(op)?,
            Ev::SharpFail(op) => {
                return Err(SimError::SharpTimeout {
                    group: self.sharp_ops[op].group,
                });
            }
            Ev::LinkChange => self.apply_link_faults(),
            Ev::Crash(r) => self.kill_rank(r),
            Ev::RecomputePoint => {
                self.recompute_pending = false;
                if self.fluid.is_dirty() {
                    self.reschedule_flows();
                }
            }
        }
        Ok(())
    }

    // ---- program interpretation ------------------------------------------

    fn run_rank(&mut self, r: u32) -> Result<(), SimError> {
        // Copy the program reference out of `self` so the interpreter can
        // match instructions in place (no per-step `Instr` clone) while
        // still calling `&mut self` handlers.
        let world = self.world;
        loop {
            let pc = self.ranks[r as usize].pc;
            let prog = &world.programs[r as usize];
            if pc >= prog.instrs.len() {
                self.ranks[r as usize].status = Status::Done;
                self.ranks[r as usize].finish = Some(self.now);
                return Ok(());
            }
            let phase = prog.phase_at(pc);
            match &prog.instrs[pc] {
                Instr::ISend {
                    to,
                    tag,
                    src,
                    range,
                } => {
                    self.ranks[r as usize].pc += 1;
                    self.begin_span(r, SpanKind::SendInject, range.len(), phase);
                    self.exec_isend(r, *to, *tag, *src, *range, phase);
                    return Ok(()); // busy for the injection overhead
                }
                Instr::IRecv { from, tag, dst } => {
                    self.ranks[r as usize].pc += 1;
                    self.exec_irecv(r, *from, *tag, *dst)?;
                    // continues immediately
                }
                Instr::WaitAll { reqs } => {
                    let all_done = reqs
                        .iter()
                        .all(|q| self.ranks[r as usize].reqs[q.0 as usize] == ReqState::Done);
                    if all_done {
                        self.ranks[r as usize].pc += 1;
                        continue;
                    }
                    self.ranks[r as usize].waiting = reqs;
                    self.ranks[r as usize].status = Status::OnWait;
                    self.begin_span(r, SpanKind::Wait, 0, phase);
                    return Ok(());
                }
                Instr::Copy {
                    src,
                    dst,
                    range,
                    cross_socket,
                } => {
                    let cross_socket = *cross_socket;
                    self.ranks[r as usize].pc += 1;
                    self.begin_span(r, SpanKind::Copy, range.len(), phase);
                    self.ranks[r as usize].pending_local = Some(PendingLocal {
                        kind: LocalKind::Copy {
                            src: *src,
                            cross_socket,
                        },
                        dst: *dst,
                        range: *range,
                    });
                    self.ranks[r as usize].status = Status::Busy;
                    let lat = self.cfg.fabric.mem.copy_latency(cross_socket) * self.noise_factor(r);
                    self.push(self.now.after(lat), Ev::CopyStart(r));
                    self.stats.copies += 1;
                    return Ok(());
                }
                Instr::Reduce { srcs, dst, range } => {
                    self.ranks[r as usize].pc += 1;
                    self.begin_span(r, SpanKind::Reduce, range.len() * srcs.len() as u64, phase);
                    self.ranks[r as usize].pending_local = Some(PendingLocal {
                        kind: LocalKind::Reduce { srcs },
                        dst: *dst,
                        range: *range,
                    });
                    self.ranks[r as usize].status = Status::Busy;
                    let lat = self.cfg.fabric.compute.reduce_latency * self.noise_factor(r);
                    self.push(self.now.after(lat), Ev::ReduceStart(r));
                    self.stats.reduces += 1;
                    return Ok(());
                }
                Instr::Compute { seconds } => {
                    self.ranks[r as usize].pc += 1;
                    self.begin_span(r, SpanKind::Compute, 0, phase);
                    self.ranks[r as usize].status = Status::Busy;
                    let dur = seconds.max(0.0) * self.noise_factor(r);
                    self.push(self.now.after(dur), Ev::Resume(r));
                    return Ok(());
                }
                Instr::Barrier { id } => {
                    self.ranks[r as usize].pc += 1;
                    self.begin_span(r, SpanKind::Barrier, 0, phase);
                    self.exec_barrier(r, *id)?;
                    return Ok(());
                }
                Instr::Sharp {
                    group,
                    src,
                    dst,
                    range,
                } => {
                    self.ranks[r as usize].pc += 1;
                    self.begin_span(r, SpanKind::Sharp, range.len(), phase);
                    self.exec_sharp(r, *group, *src, *dst, *range, None)?;
                    return Ok(());
                }
                Instr::ISharp {
                    group,
                    src,
                    dst,
                    range,
                } => {
                    self.ranks[r as usize].pc += 1;
                    let req_idx = self.ranks[r as usize].reqs.len() as u32;
                    self.ranks[r as usize].reqs.push(ReqState::SharpPending);
                    self.exec_sharp(r, *group, *src, *dst, *range, Some(req_idx))?;
                    // Non-blocking: continue interpreting.
                }
            }
        }
    }

    // ---- sends / receives ---------------------------------------------------

    fn exec_isend(
        &mut self,
        r: u32,
        to: Rank,
        tag: Tag,
        src: BufKey,
        range: ByteRange,
        phase: Phase,
    ) {
        let payload = self.bufs.snapshot(r, src, range);
        let src_node = self.cfg.map.node_of(Rank(r));
        let dst_node = self.cfg.map.node_of(to);
        let intra = src_node == dst_node;
        let cross_socket = intra && !self.cfg.map.same_socket(Rank(r), to);
        let hops = self
            .cfg
            .tree
            .hop_count(src_node, dst_node)
            .expect("valid nodes");
        let eager = range.len() <= self.cfg.fabric.nic.eager_threshold;
        let req_idx = self.ranks[r as usize].reqs.len() as u32;
        self.ranks[r as usize].reqs.push(if eager || intra {
            ReqState::Done
        } else {
            ReqState::SendPending
        });
        let m = self.msgs.len();
        self.msgs.push(Msg {
            src: Rank(r),
            dst: to,
            tag,
            range,
            payload,
            send_req: (r, req_idx),
            eager: eager || intra,
            intra,
            cross_socket,
            hops,
            injected_at: None,
            wire_start: None,
            attempts: 0,
            first_posted: None,
            phase,
            trace_idx: None,
            flow: None,
        });
        self.stats.messages += 1;
        if !intra {
            self.stats.inter_node_messages += 1;
            self.stats.inter_node_bytes += range.len();
        }
        // Intra-node transfers go through a shared-memory bounce buffer:
        // the sender's own core performs the copy-in, so the send occupies
        // the sender for the full copy duration; inter-node sends only pay
        // the injection overhead before the NIC takes over.
        let overhead = if intra {
            self.cfg.fabric.mem.copy_latency(cross_socket)
                + range.len() as f64 / self.cfg.fabric.mem.copy_bw(cross_socket)
        } else {
            self.cfg.fabric.nic.proc_overhead
        } * self.noise_factor(r);
        self.ranks[r as usize].status = Status::Busy;
        self.push(self.now.after(overhead), Ev::Inject(m));
        self.push(self.now.after(overhead), Ev::Resume(r));
    }

    fn inject(&mut self, m: usize) {
        // A message whose endpoint died before injection never enters the
        // network; the crash ledger records the loss.
        if matches!(self.ranks[self.msgs[m].src.index()].status, Status::Dead)
            || matches!(self.ranks[self.msgs[m].dst.index()].status, Status::Dead)
        {
            self.record_aborted_msg(m);
            return;
        }
        self.msgs[m].injected_at = Some(self.now);
        if self.msgs[m].first_posted.is_none() {
            self.msgs[m].first_posted = Some(self.now);
        }
        if self.msgs[m].intra {
            // No NIC message-rate server on the shared-memory path: the
            // copy-out flow starts immediately.
            self.msgs[m].wire_start = Some(self.now);
            // Shared-memory path: the copy-in was charged to the sender at
            // ISend time; this flow is the receiver-side copy-out, bounded
            // by the receiver core's copy bandwidth and the node bus.
            let node = self.cfg.map.node_of(self.msgs[m].src).index();
            let dst = self.msgs[m].dst.index();
            let bytes = self.msgs[m].range.len() as f64;
            let cap = self.cfg.fabric.mem.copy_bw(self.msgs[m].cross_socket);
            let fid = self.fluid.add_flow(
                &[self.res_mem[node], self.res_proc_cpu[dst]],
                cap,
                bytes,
                FlowToken::Net(m),
            );
            self.msgs[m].flow = Some(fid);
        } else {
            let node = self.cfg.map.node_of(self.msgs[m].src).index();
            self.nic_queue[node].push_back(m);
            if !self.nic_busy[node] {
                self.nic_busy[node] = true;
                let svc = 1.0 / (self.cfg.fabric.nic.node_msg_rate * self.node_msg_factor[node]);
                self.push(self.now.after(svc), Ev::NicService(node as u32));
            }
        }
    }

    fn nic_service(&mut self, node: u32) {
        let Some(m) = self.nic_queue[node as usize].pop_front() else {
            self.nic_busy[node as usize] = false;
            return;
        };
        // Start the wire flow for this message.
        let src_node = self.cfg.map.node_of(self.msgs[m].src);
        let dst_node = self.cfg.map.node_of(self.msgs[m].dst);
        let src_leaf = self.cfg.tree.leaf_of(src_node).expect("valid node");
        let dst_leaf = self.cfg.tree.leaf_of(dst_node).expect("valid node");
        let claims = [
            self.res_proc_tx[self.msgs[m].src.index()],
            self.res_proc_rx[self.msgs[m].dst.index()],
            self.res_tx[src_node.index()],
            self.res_rx[dst_node.index()],
            self.res_leaf_up[src_leaf.index()],
            self.res_leaf_down[dst_leaf.index()],
        ];
        // Within one leaf switch the transfer never crosses the core.
        let claims = if src_leaf != dst_leaf {
            &claims[..]
        } else {
            &claims[..4]
        };
        let bytes = self.msgs[m].range.len() as f64;
        let cap = self.cfg.fabric.nic.per_flow_bw;
        let fid = self.fluid.add_flow(claims, cap, bytes, FlowToken::Net(m));
        self.msgs[m].flow = Some(fid);
        self.msgs[m].wire_start = Some(self.now);
        // Keep serving the queue.
        if self.nic_queue[node as usize].is_empty() {
            self.nic_busy[node as usize] = false;
        } else {
            let svc =
                1.0 / (self.cfg.fabric.nic.node_msg_rate * self.node_msg_factor[node as usize]);
            self.push(self.now.after(svc), Ev::NicService(node));
        }
    }

    fn exec_irecv(&mut self, r: u32, from: Rank, tag: Tag, dst: BufKey) -> Result<(), SimError> {
        let req_idx = self.ranks[r as usize].reqs.len() as u32;
        self.ranks[r as usize]
            .reqs
            .push(ReqState::RecvPending { dst });
        let key = (r, from.0, tag);
        if let Some(q) = self.arrived.get_mut(&key) {
            if let Some(m) = q.pop_front() {
                if q.is_empty() {
                    self.arrived.remove(&key);
                }
                self.deliver(m, r, req_idx);
                return Ok(());
            }
        }
        self.recv_waiting
            .entry(key)
            .or_default()
            .push_back((r, req_idx));
        Ok(())
    }

    fn deliver(&mut self, m: usize, r: u32, req_idx: u32) {
        let dst = match &self.ranks[r as usize].reqs[req_idx as usize] {
            ReqState::RecvPending { dst } => *dst,
            other => panic!("delivering to non-recv request {other:?}"),
        };
        // A message is delivered once: its payload moves into the buffer.
        let payload = std::mem::take(&mut self.msgs[m].payload);
        let range = self.msgs[m].range;
        self.bufs
            .apply(r, dst, range, &payload, &ApplyKind::Overwrite);
        self.ranks[r as usize].reqs[req_idx as usize] = ReqState::Done;
        let release = self.msgs[m].trace_idx.map(|idx| Release::Msg { idx });
        self.maybe_unblock_wait(r, release);
    }

    /// Resume a rank blocked in `WaitAll` once its requests are all done,
    /// recording `release` — the event that completed the final request —
    /// for the critical-path analysis.
    fn maybe_unblock_wait(&mut self, r: u32, release: Option<Release>) {
        if self.ranks[r as usize].status != Status::OnWait {
            return;
        }
        let ok = self.ranks[r as usize]
            .waiting
            .iter()
            .all(|q| self.ranks[r as usize].reqs[q.0 as usize] == ReqState::Done);
        if ok {
            self.ranks[r as usize].waiting = &[];
            self.ranks[r as usize].status = Status::Ready;
            self.ranks[r as usize].last_release = release;
            self.push(self.now, Ev::Resume(r));
        }
    }

    fn msg_arrive(&mut self, m: usize) -> Result<(), SimError> {
        // The receiver died while the message was on the wire: the bytes
        // left the sender's buffer (its rendezvous send is complete) but
        // there is no process to deliver to.
        if matches!(self.ranks[self.msgs[m].dst.index()].status, Status::Dead) {
            let (sr, sreq) = self.msgs[m].send_req;
            if !self.msgs[m].eager
                && !matches!(self.ranks[sr as usize].status, Status::Dead)
                && self.ranks[sr as usize].reqs[sreq as usize] == ReqState::SendPending
            {
                self.ranks[sr as usize].reqs[sreq as usize] = ReqState::Done;
                self.maybe_unblock_wait(sr, None);
            }
            self.record_aborted_msg(m);
            return Ok(());
        }
        // Injected data faults: decide this delivery attempt's wire
        // outcome. A drop is silent — the sender's ack timeout (RTO,
        // doubling per attempt) detects it; a corruption fails the
        // receiver's CRC check, which NACKs after a shorter backoff. Both
        // schedule a retransmission until the retry budget runs out.
        // Intra-node transfers move through shared memory and are covered
        // by the shm flip model instead.
        if let Some(plan) = self.faults {
            if !self.msgs[m].intra && !plan.data.is_zero() {
                let src = self.msgs[m].src.0;
                let c = self.data_draws[src as usize];
                self.data_draws[src as usize] += 1;
                match plan
                    .data
                    .wire_outcome(plan.seed, src, c, self.now.seconds())
                {
                    WireFault::Delivered => {}
                    outcome => {
                        let attempt = self.msgs[m].attempts;
                        let detected = outcome == WireFault::Corrupted;
                        if detected {
                            self.stats.corruptions_detected += 1;
                        }
                        if attempt >= plan.data.max_retransmits {
                            return Err(SimError::RetryBudgetExhausted {
                                src,
                                dst: self.msgs[m].dst.0,
                                attempts: attempt + 1,
                                at: self.now.seconds(),
                            });
                        }
                        self.msgs[m].attempts = attempt + 1;
                        self.stats.retransmits += 1;
                        let delay = plan.data.retransmit_delay(attempt, detected);
                        self.push(self.now.after(delay), Ev::Inject(m));
                        return Ok(());
                    }
                }
            }
        }
        if let Some(trace) = self.trace.as_mut() {
            let msg = &self.msgs[m];
            let injected = msg.injected_at.unwrap_or(SimTime::ZERO);
            let net_latency = if msg.intra {
                0.0
            } else {
                self.cfg.fabric.nic.latency_for_hops(msg.hops)
            };
            trace.messages.push(MsgTrace {
                src: msg.src.0,
                dst: msg.dst.0,
                bytes: msg.range.len(),
                injected: injected.seconds(),
                delivered: self.now.seconds(),
                intra_node: msg.intra,
                phase: msg.phase,
                posted: injected.seconds(),
                wire_start: msg.wire_start.unwrap_or(injected).seconds(),
                net_latency,
                attempts: msg.attempts,
                first_posted: msg.first_posted.unwrap_or(injected).seconds(),
            });
            let idx = trace.messages.len() - 1;
            self.msgs[m].trace_idx = Some(idx);
        }
        // Rendezvous send completes on delivery-side arrival.
        let (sr, sreq) = self.msgs[m].send_req;
        if !self.msgs[m].eager
            && self.ranks[sr as usize].reqs[sreq as usize] == ReqState::SendPending
        {
            self.ranks[sr as usize].reqs[sreq as usize] = ReqState::Done;
            let release = self.msgs[m].trace_idx.map(|idx| Release::Msg { idx });
            self.maybe_unblock_wait(sr, release);
        }
        let key = (self.msgs[m].dst.0, self.msgs[m].src.0, self.msgs[m].tag);
        if let Some(q) = self.recv_waiting.get_mut(&key) {
            if let Some((r, req_idx)) = q.pop_front() {
                if q.is_empty() {
                    self.recv_waiting.remove(&key);
                }
                self.deliver(m, r, req_idx);
                return Ok(());
            }
        }
        self.arrived.entry(key).or_default().push_back(m);
        Ok(())
    }

    // ---- local copy / reduce -------------------------------------------------

    fn local_start(&mut self, r: u32) {
        if matches!(self.ranks[r as usize].status, Status::Dead) {
            return; // aborted at crash time; pending_local already drained
        }
        let pending = self.ranks[r as usize]
            .pending_local
            .take()
            .expect("pending local op");
        let node = self.cfg.map.node_of(Rank(r)).index();
        let (payload, kind, bytes, cap) = match pending.kind {
            LocalKind::Copy { src, cross_socket } => {
                let p = self.bufs.snapshot(r, src, pending.range);
                let cap = self.cfg.fabric.mem.copy_bw(cross_socket);
                (p, ApplyKind::Overwrite, pending.range.len() as f64, cap)
            }
            LocalKind::Reduce { srcs } => {
                // Fold the sources straight out of their buffers.
                let mut acc = CoverageMap::empty();
                for &s in srcs {
                    if let Some(b) = self.bufs.get(r, s) {
                        acc.union_merge(b, pending.range.start, pending.range.end);
                    }
                }
                let passes = srcs.len() as f64;
                let cap = self.cfg.fabric.compute.per_core_reduce_bw;
                (
                    acc,
                    ApplyKind::Union,
                    pending.range.len() as f64 * passes,
                    cap,
                )
            }
        };
        self.ranks[r as usize].pending_apply = Some(PendingApply {
            dst: pending.dst,
            range: pending.range,
            payload,
            kind,
            bytes,
            cap,
            attempts: 0,
        });
        let fid = self
            .fluid
            .add_flow(&[self.res_mem[node]], cap, bytes, FlowToken::Local(r));
        self.ranks[r as usize].flow = Some(fid);
    }

    // ---- flow completion -------------------------------------------------------

    fn flow_wake(&mut self) -> Result<(), SimError> {
        self.fluid.advance_to(self.now);
        let drained = self.fluid.drained_flows();
        for fid in drained {
            let Some(token) = self.fluid.remove_flow(fid) else {
                continue;
            };
            match token {
                FlowToken::Net(m) => {
                    self.msgs[m].flow = None;
                    let lat = if self.msgs[m].intra {
                        0.0
                    } else {
                        self.cfg.fabric.nic.latency_for_hops(self.msgs[m].hops)
                    };
                    self.push(self.now.after(lat), Ev::MsgArrive(m));
                }
                FlowToken::Local(r) => {
                    self.ranks[r as usize].flow = None;
                    let apply = self.ranks[r as usize]
                        .pending_apply
                        .take()
                        .expect("pending apply");
                    // Checksum-on-publish: a deposit into node shared
                    // memory may be hit by an injected bit flip. The
                    // publish checksum catches it and the copy/reduce is
                    // redone from the intact private sources — or the run
                    // fails structurally once the budget is spent.
                    if let Some(plan) = self.faults {
                        if matches!(apply.dst, BufKey::Shared(_)) && !plan.data.is_zero() {
                            let c = self.data_draws[r as usize];
                            self.data_draws[r as usize] += 1;
                            if plan.data.flips_shm(plan.seed, r, c, self.now.seconds()) {
                                self.stats.shm_crc_fails += 1;
                                let attempt = apply.attempts;
                                if attempt >= plan.data.max_retransmits {
                                    return Err(SimError::RetryBudgetExhausted {
                                        src: r,
                                        dst: r,
                                        attempts: attempt + 1,
                                        at: self.now.seconds(),
                                    });
                                }
                                let node = self.cfg.map.node_of(Rank(r)).index();
                                let redo = self.fluid.add_flow(
                                    &[self.res_mem[node]],
                                    apply.cap,
                                    apply.bytes,
                                    FlowToken::Local(r),
                                );
                                self.ranks[r as usize].flow = Some(redo);
                                self.ranks[r as usize].pending_apply = Some(PendingApply {
                                    attempts: attempt + 1,
                                    ..apply
                                });
                                continue;
                            }
                        }
                    }
                    self.bufs
                        .apply(r, apply.dst, apply.range, &apply.payload, &apply.kind);
                    self.push(self.now, Ev::Resume(r));
                }
            }
        }
        Ok(())
    }

    // ---- barriers ------------------------------------------------------------

    fn exec_barrier(&mut self, r: u32, id: u32) -> Result<(), SimError> {
        let members = self
            .world
            .barriers
            .get(&id)
            .ok_or(SimError::UnknownGroup("barrier", id))?;
        let total = members.len() as u32;
        let st = self.barriers.entry(id).or_insert(BarrierState {
            arrived: 0,
            released: false,
        });
        assert!(!st.released, "barrier {id} reused after release");
        st.arrived += 1;
        self.ranks[r as usize].status = Status::OnBarrier;
        if st.arrived == total {
            st.released = true;
            // Dissemination-style cost: lg(members) cache-line rounds.
            let rounds = if total <= 1 {
                0
            } else {
                (total - 1).ilog2() + 1
            };
            let cost = self.cfg.fabric.mem.copy_latency * rounds as f64;
            let members = members.clone();
            // `r` is the last arrival: it releases everyone, which the
            // critical-path walk records as the barrier's dependency edge.
            let release = Release::Barrier {
                rank: r,
                at: self.now.seconds(),
            };
            for m in members {
                if self.trace.is_some() {
                    self.ranks[m.index()].last_release = Some(release);
                }
                self.push(self.now.after(cost), Ev::Resume(m.0));
            }
        }
        Ok(())
    }

    // ---- SHArP -----------------------------------------------------------------

    fn exec_sharp(
        &mut self,
        r: u32,
        group: u32,
        src: BufKey,
        dst: BufKey,
        range: ByteRange,
        req: Option<u32>,
    ) -> Result<(), SimError> {
        if self.oracle.is_none() {
            return Err(SimError::NoSharpOracle);
        }
        if self.faults.is_some_and(|p| p.sharp.deny_groups) {
            // The switch refuses the group allocation outright — the
            // caller (dpml-core) is expected to fall back to a host-based
            // schedule.
            return Err(SimError::SharpDenied(group));
        }
        let members = self
            .world
            .sharp_groups
            .get(&group)
            .ok_or(SimError::UnknownGroup("sharp group", group))?;
        let total = members.len() as u32;
        let op_idx = match self.sharp_op_of_group.get(&group) {
            Some(&i) if !self.sharp_ops[i].done => i,
            _ => {
                let i = self.sharp_ops.len();
                self.sharp_ops.push(SharpOpState {
                    group,
                    arrived: 0,
                    accum: CoverageMap::empty(),
                    range: None,
                    dsts: Vec::new(),
                    started: false,
                    done: false,
                    last_join: None,
                });
                self.sharp_op_of_group.insert(group, i);
                i
            }
        };
        let op = &mut self.sharp_ops[op_idx];
        assert!(!op.started, "sharp group {group} joined after start");
        if let Some(prev) = op.range {
            assert_eq!(prev, range, "sharp group {group} members disagree on range");
        }
        op.range = Some(range);
        if let Some(b) = self.bufs.get(r, src) {
            op.accum.union_merge(b, range.start, range.end);
        }
        op.dsts.push((Rank(r), dst, req));
        op.arrived += 1;
        op.last_join = Some((r, self.now));
        if req.is_none() {
            self.ranks[r as usize].status = Status::OnSharp;
        }
        if op.arrived == total {
            self.sharp_queue.push_back(op_idx);
            self.try_start_sharp();
        }
        Ok(())
    }

    fn try_start_sharp(&mut self) {
        let oracle = self.oracle.expect("oracle checked at exec");
        while self.sharp_active < oracle.max_concurrent_ops() {
            let Some(op_idx) = self.sharp_queue.pop_front() else {
                return;
            };
            let (group, bytes) = {
                let op = &mut self.sharp_ops[op_idx];
                op.started = true;
                (op.group, op.range.map(|r| r.len()).unwrap_or(0))
            };
            let members = &self.world.sharp_groups[&group];
            let dur = oracle.op_time(members, bytes);
            self.sharp_active += 1;
            // Flaky attempts hang the op; the op watchdog converts the
            // hang into a SharpTimeout after the plan's op_timeout.
            let hang = self.faults.is_some_and(|p| {
                self.fault_attempt < p.sharp.flaky_attempts && p.sharp.op_timeout > 0.0
            });
            if hang {
                let timeout = self.faults.expect("checked above").sharp.op_timeout;
                self.push(self.now.after(timeout), Ev::SharpFail(op_idx));
            } else {
                self.push(self.now.after(dur), Ev::SharpDone(op_idx));
            }
        }
    }

    fn sharp_done(&mut self, op_idx: usize) -> Result<(), SimError> {
        let (accum, range, dsts, last_join) = {
            let op = &mut self.sharp_ops[op_idx];
            op.done = true;
            (
                std::mem::take(&mut op.accum),
                op.range.expect("range set"),
                std::mem::take(&mut op.dsts),
                op.last_join,
            )
        };
        let release = last_join.map(|(rank, at)| Release::Sharp {
            rank,
            at: at.seconds(),
        });
        for (rank, dst, req) in dsts {
            if matches!(self.ranks[rank.index()].status, Status::Dead) {
                continue; // joined the op, then died before it completed
            }
            self.bufs
                .apply(rank.0, dst, range, &accum, &ApplyKind::Overwrite);
            match req {
                None => {
                    if self.trace.is_some() {
                        self.ranks[rank.index()].last_release = release;
                    }
                    self.push(self.now, Ev::Resume(rank.0));
                }
                Some(idx) => {
                    self.ranks[rank.index()].reqs[idx as usize] = ReqState::Done;
                    self.maybe_unblock_wait(rank.0, release);
                }
            }
        }
        self.sharp_active -= 1;
        self.stats.sharp_ops += 1;
        self.try_start_sharp();
        Ok(())
    }

    // ---- fail-stop crashes ----------------------------------------------------

    /// Execute a fail-stop fault: the rank stops at the current virtual
    /// time. Its in-flight work — local copies/reductions and transfers it
    /// is sending or receiving — is aborted immediately and recorded in
    /// the completion ledger. Work it already deposited into node shared
    /// memory survives (the process dies; the segment does not).
    fn kill_rank(&mut self, r: u32) {
        let idx = r as usize;
        if matches!(self.ranks[idx].status, Status::Done | Status::Dead) {
            return;
        }
        if self.first_crash.is_none() {
            self.first_crash = Some((r, self.now));
        }
        self.end_span(r);
        let pc = self.ranks[idx].pc;
        self.aborted_ops.push(PendingOp {
            rank: r,
            pc,
            what: format!("crashed ({:?})", self.ranks[idx].status),
        });
        // Abort an in-progress local copy/reduce: either still in its
        // startup latency (pending_local) or already a memory flow
        // (pending_apply + flow). The destination buffer is never touched.
        if let Some(fid) = self.ranks[idx].flow.take() {
            self.fluid.remove_flow(fid);
        }
        if let Some(p) = self.ranks[idx].pending_local.take() {
            let kind = match p.kind {
                LocalKind::Copy { .. } => "copy",
                LocalKind::Reduce { .. } => "reduce",
            };
            self.aborted_ops.push(PendingOp {
                rank: r,
                pc,
                what: format!("aborted local {kind} of {}B", p.range.len()),
            });
        }
        if let Some(p) = self.ranks[idx].pending_apply.take() {
            self.aborted_ops.push(PendingOp {
                rank: r,
                pc,
                what: format!("aborted local apply of {}B", p.range.len()),
            });
        }
        // Tear down wire/shared-memory flows the dead rank is sending or
        // receiving — removing the flow frees its bandwidth share for the
        // survivors immediately. A surviving sender whose rendezvous
        // payload was mid-wire to the dead receiver has its send request
        // completed here, matching the arrival-path treatment (the bytes
        // left its buffer; only the delivery is lost). Messages are torn
        // down in index (i.e. send) order, so the ledger and the order of
        // the survivors' resumptions replay exactly.
        for m in 0..self.msgs.len() {
            let msg = &mut self.msgs[m];
            if msg.src.0 != r && msg.dst.0 != r {
                continue;
            }
            let Some(fid) = msg.flow.take() else {
                continue;
            };
            self.fluid.remove_flow(fid);
            if self.msgs[m].dst.0 == r {
                let (sr, sreq) = self.msgs[m].send_req;
                if !self.msgs[m].eager
                    && !matches!(self.ranks[sr as usize].status, Status::Dead)
                    && self.ranks[sr as usize].reqs[sreq as usize] == ReqState::SendPending
                {
                    self.ranks[sr as usize].reqs[sreq as usize] = ReqState::Done;
                    self.maybe_unblock_wait(sr, None);
                }
            }
            self.record_aborted_msg(m);
        }
        // Drop queued NIC injections involving the dead rank (any node:
        // it can be the destination of a remote queue entry).
        for node in 0..self.nic_queue.len() {
            let queue = std::mem::take(&mut self.nic_queue[node]);
            let (dropped, kept): (Vec<usize>, Vec<usize>) = queue
                .into_iter()
                .partition(|&m| self.msgs[m].src.0 == r || self.msgs[m].dst.0 == r);
            self.nic_queue[node] = kept.into();
            for m in dropped {
                self.record_aborted_msg(m);
            }
        }
        // Posted receives of the dead rank must never match an arrival,
        // and arrivals parked for it will never be claimed.
        self.recv_waiting.retain(|key, _| key.0 != r);
        self.arrived.retain(|key, _| key.0 != r);
        self.ranks[idx].status = Status::Dead;
    }

    fn record_aborted_msg(&mut self, m: usize) {
        let msg = &self.msgs[m];
        self.aborted_ops.push(PendingOp {
            rank: msg.src.0,
            pc: self.ranks[msg.src.index()].pc,
            what: format!(
                "aborted {}B send {} -> {} (tag {})",
                msg.range.len(),
                msg.src.0,
                msg.dst.0,
                msg.tag
            ),
        });
    }

    // ---- reporting --------------------------------------------------------------

    fn report(&mut self, world: &WorldProgram) -> RunReport {
        let finish_times: Vec<SimTime> = self
            .ranks
            .iter()
            .map(|r| r.finish.expect("finished"))
            .collect();
        let makespan = finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .seconds();
        // Residual silent-corruption risk: each detected corruption is one
        // the CRC32C check caught; the check misses a corrupt payload with
        // probability 2^-32, so the expected number of undetected escapes
        // scales with the detections actually observed.
        self.stats.undetected_risk = self.stats.corruptions_detected as f64 * 2f64.powi(-32);
        RunReport {
            result_coverage: (0..self.ranks.len() as u32)
                .map(|r| std::mem::take(self.bufs.get_mut(r, BUF_RESULT)))
                .collect(),
            finish_times,
            vector_bytes: world.vector_bytes,
            stats: self.stats,
            trace: self.trace.take(),
            resources: self.resource_usage(makespan),
        }
    }

    /// Occupancy rows for every node-level and leaf-level resource
    /// (empty unless utilization accounting was enabled by tracing).
    fn resource_usage(&mut self, makespan: f64) -> Vec<ResourceUsage> {
        // Flush the last interval into the accumulators.
        self.fluid.advance_to(self.now);
        let mut rows = Vec::new();
        let mut push = |fluid: &FluidSystem<FlowToken>, name: String, rid: ResourceId| {
            if let Some((bytes, peak)) = fluid.utilization_of(rid) {
                let capacity = fluid.capacity_of(rid);
                let mean = if capacity > 0.0 && makespan > 0.0 {
                    bytes / (capacity * makespan)
                } else {
                    0.0
                };
                rows.push(ResourceUsage {
                    name,
                    capacity,
                    bytes,
                    mean_util: mean,
                    peak_util: peak,
                });
            }
        };
        for (h, &rid) in self.res_tx.iter().enumerate() {
            push(&self.fluid, format!("node{h}.tx"), rid);
        }
        for (h, &rid) in self.res_rx.iter().enumerate() {
            push(&self.fluid, format!("node{h}.rx"), rid);
        }
        for (h, &rid) in self.res_mem.iter().enumerate() {
            push(&self.fluid, format!("node{h}.mem"), rid);
        }
        for (l, &rid) in self.res_leaf_up.iter().enumerate() {
            push(&self.fluid, format!("leaf{l}.up"), rid);
        }
        for (l, &rid) in self.res_leaf_down.iter().enumerate() {
            push(&self.fluid, format!("leaf{l}.down"), rid);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{WorldProgram, BUF_INPUT, BUF_RESULT};
    use dpml_fabric::presets::cluster_b;
    use dpml_topology::{ClusterSpec, RankMap};

    fn config(nodes: u32, ppn: u32) -> SimConfig {
        let preset = cluster_b();
        let spec = ClusterSpec::new(nodes, 2, 14, ppn).unwrap();
        SimConfig::new(RankMap::block(&spec), preset.fabric, preset.switch).unwrap()
    }

    /// Two ranks on different nodes exchange their vectors and reduce.
    #[test]
    fn two_rank_exchange_and_reduce() {
        let cfg = config(2, 1);
        let n = 1 << 20;
        let mut w = WorldProgram::new(2, n);
        for r in 0..2u32 {
            let peer = Rank(1 - r);
            let p = w.rank(Rank(r));
            let tmp = BufKey::Priv(2);
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            p.sendrecv(peer, 0, BUF_INPUT, ByteRange::whole(n), tmp);
            p.reduce(vec![tmp], BUF_RESULT, ByteRange::whole(n));
        }
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        rep.verify_allreduce().unwrap();
        // Sanity: ~1MB at 3GB/s per flow plus overheads → a few hundred us.
        let us = rep.latency_us();
        assert!(us > 300.0 && us < 3000.0, "latency {us}us");
        assert_eq!(rep.stats.inter_node_messages, 2);
    }

    #[test]
    fn missing_recv_deadlocks() {
        let cfg = config(2, 1);
        let mut w = WorldProgram::new(2, 1024);
        // Rank 0 waits for a message nobody sends.
        w.rank(Rank(0)).recv(Rank(1), 0, BUF_RESULT);
        let err = Simulator::new(&cfg).run(&w).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn message_order_is_fifo_per_tag() {
        let cfg = config(2, 1);
        let n = 100;
        let mut w = WorldProgram::new(2, n);
        // Rank 0 sends [0,50) then [50,100); rank 1 receives into result.
        let p0 = w.rank(Rank(0));
        p0.send(Rank(1), 7, BUF_INPUT, ByteRange::new(0, 50));
        p0.send(Rank(1), 7, BUF_INPUT, ByteRange::new(50, 100));
        let p1 = w.rank(Rank(1));
        p1.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
        p1.recv(Rank(0), 7, BufKey::Priv(2));
        p1.recv(Rank(0), 7, BufKey::Priv(2));
        p1.reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        // Rank 1's scratch got both halves; result = {0,1} over second half
        // only if both recvs landed in order without clobbering... the
        // second recv overwrites [50,100) only. Verify via coverage of the
        // scratch-reduced result: rank 1 holds {0,1} everywhere.
        let full = crate::coverage::RankSet::full(2);
        assert!(rep.result_coverage[1].covers_exactly(0, n, &full));
    }

    #[test]
    fn intra_node_messages_bypass_nic() {
        let cfg = config(1, 2);
        let n = 1 << 16;
        let mut w = WorldProgram::new(2, n);
        for r in 0..2u32 {
            let peer = Rank(1 - r);
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            p.sendrecv(peer, 0, BUF_INPUT, ByteRange::whole(n), BufKey::Priv(2));
            p.reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));
        }
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        rep.verify_allreduce().unwrap();
        assert_eq!(rep.stats.inter_node_messages, 0);
        assert_eq!(rep.stats.messages, 2);
    }

    #[test]
    fn barrier_synchronizes_node() {
        let cfg = config(1, 4);
        let mut w = WorldProgram::new(4, 64);
        w.register_barrier(0, (0..4).map(Rank).collect());
        for r in 0..4u32 {
            let p = w.rank(Rank(r));
            if r == 0 {
                p.compute(1e-3); // slow rank
            }
            p.barrier(0);
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(64), false);
        }
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        // Everyone finishes after rank 0's 1ms compute.
        for t in &rep.finish_times {
            assert!(t.seconds() >= 1e-3);
        }
    }

    #[test]
    fn unknown_barrier_errors() {
        let cfg = config(1, 2);
        let mut w = WorldProgram::new(2, 64);
        w.rank(Rank(0)).barrier(99);
        let err = Simulator::new(&cfg).run(&w).unwrap_err();
        assert_eq!(err, SimError::UnknownGroup("barrier", 99));
    }

    #[test]
    fn sharp_without_oracle_errors() {
        let cfg = config(2, 1);
        let mut w = WorldProgram::new(2, 64);
        w.register_sharp_group(0, vec![Rank(0), Rank(1)]);
        for r in 0..2u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_INPUT, BUF_RESULT, ByteRange::whole(64));
        }
        let err = Simulator::new(&cfg).run(&w).unwrap_err();
        assert_eq!(err, SimError::NoSharpOracle);
    }

    struct FixedOracle(f64, u32);
    impl SharpOracle for FixedOracle {
        fn op_time(&self, _members: &[Rank], _bytes: u64) -> f64 {
            self.0
        }
        fn max_concurrent_ops(&self) -> u32 {
            self.1
        }
    }

    #[test]
    fn sharp_reduces_group() {
        let cfg = config(4, 1);
        let n = 256;
        let mut w = WorldProgram::new(4, n);
        w.register_sharp_group(0, (0..4).map(Rank).collect());
        for r in 0..4u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_INPUT, BUF_RESULT, ByteRange::whole(n));
        }
        let oracle = FixedOracle(5e-6, 2);
        let rep = Simulator::new(&cfg).with_sharp(&oracle).run(&w).unwrap();
        rep.verify_allreduce().unwrap();
        assert_eq!(rep.stats.sharp_ops, 1);
        assert!(rep.latency_us() >= 5.0);
    }

    #[test]
    fn sharp_concurrency_limit_queues_ops() {
        // Two groups, limit 1 → ops serialize: makespan ≈ 2 * op_time.
        let cfg = config(4, 1);
        let n = 128;
        let mut w = WorldProgram::new(4, n);
        w.register_sharp_group(0, vec![Rank(0), Rank(1)]);
        w.register_sharp_group(1, vec![Rank(2), Rank(3)]);
        for r in 0..2u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_INPUT, BUF_RESULT, ByteRange::whole(n));
        }
        for r in 2..4u32 {
            w.rank(Rank(r))
                .sharp(1, BUF_INPUT, BUF_RESULT, ByteRange::whole(n));
        }
        let serial = FixedOracle(10e-6, 1);
        let rep1 = Simulator::new(&cfg).with_sharp(&serial).run(&w).unwrap();
        let parallel = FixedOracle(10e-6, 2);
        let rep2 = Simulator::new(&cfg).with_sharp(&parallel).run(&w).unwrap();
        assert!(
            rep1.latency_us() >= 20.0,
            "serialized: {}",
            rep1.latency_us()
        );
        assert!(rep2.latency_us() < 20.0, "parallel: {}", rep2.latency_us());
    }

    #[test]
    fn concurrent_flows_share_nic_fairly() {
        // 4 pairs inter-node (senders node 0, receivers node 1), large
        // messages: aggregate limited by node_bw = 12 GB/s; each flow capped
        // at 3 GB/s → 4 pairs ≈ 4x one pair's throughput (Fig 1(b)).
        let n = 4 << 20;
        let one = run_pairs(1, n);
        let four = run_pairs(4, n);
        // Relative throughput = (4 pairs' aggregate rate) / (1 pair's rate).
        let rel = 4.0 * one / four;
        assert!(rel > 3.3 && rel < 4.3, "relative throughput {rel}");
    }

    fn run_pairs(pairs: u32, n: u64) -> f64 {
        let cfg = config(2, pairs.max(1));
        let mut w = WorldProgram::new(2 * pairs, n);
        let map = &cfg.map;
        for i in 0..pairs {
            // sender on node 0 = rank i; receiver on node 1 = rank pairs + i
            let s = map.rank_at(dpml_topology::NodeId(0), dpml_topology::LocalRank(i));
            let d = map.rank_at(dpml_topology::NodeId(1), dpml_topology::LocalRank(i));
            w.rank(s).send(d, i, BUF_INPUT, ByteRange::whole(n));
            w.rank(d).recv(s, i, BufKey::Priv(2));
        }
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        rep.makespan().seconds()
    }

    #[test]
    fn event_budget_guard() {
        let cfg = config(2, 1);
        let n = 64;
        let mut w = WorldProgram::new(2, n);
        for i in 0..100u32 {
            w.rank(Rank(0))
                .send(Rank(1), i, BUF_INPUT, ByteRange::whole(n));
            w.rank(Rank(1)).recv(Rank(0), i, BufKey::Priv(2));
        }
        let err = Simulator::new(&cfg)
            .with_event_budget(10)
            .run(&w)
            .unwrap_err();
        assert_eq!(err, SimError::EventBudgetExceeded(10));
    }

    /// Regression test for the recompute-quantization infinite loop:
    /// events denser than the 25ns quantum (here: a long chain of tiny
    /// eager sends whose NIC injections stagger at 1/node_msg_rate) must
    /// complete with a bounded event count, not re-defer a RecomputePoint
    /// at its own timestamp forever.
    #[test]
    fn dense_event_chains_terminate_with_bounded_events() {
        let cfg = config(2, 4);
        let n = 64u64;
        let mut w = WorldProgram::new(8, n);
        for i in 0..200u32 {
            let s = Rank(i % 4);
            let d = Rank(4 + (i % 4));
            let sr = w.rank(s).isend(d, i, BUF_INPUT, ByteRange::whole(n));
            w.rank(s).wait_all(vec![sr]);
            let dr = w.rank(d).irecv(s, i, BufKey::Priv(2));
            w.rank(d).wait_all(vec![dr]);
        }
        let rep = Simulator::new(&cfg)
            .with_event_budget(2_000_000)
            .run(&w)
            .unwrap();
        assert!(rep.stats.events < 100_000, "events {}", rep.stats.events);
        assert_eq!(rep.stats.messages, 200);
    }

    /// The quantization window may delay a flow's start by at most 25ns;
    /// latencies must not shift by more than a handful of windows.
    #[test]
    fn quantization_error_is_bounded() {
        let cfg = config(2, 1);
        let n = 1u64 << 16;
        let mut w = WorldProgram::new(2, n);
        w.rank(Rank(0))
            .send(Rank(1), 0, BUF_INPUT, ByteRange::whole(n));
        w.rank(Rank(1)).recv(Rank(0), 0, BufKey::Priv(2));
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        // Analytic: overhead + nic service + transfer + latency.
        let nic = &cfg.fabric.nic;
        let expect = nic.proc_overhead
            + 1.0 / nic.node_msg_rate
            + n as f64 / nic.per_flow_bw
            + nic.latency_for_hops(
                cfg.tree
                    .hop_count(dpml_topology::NodeId(0), dpml_topology::NodeId(1))
                    .unwrap(),
            );
        let got = rep.makespan().seconds();
        assert!(
            (got - expect).abs() <= 100e-9,
            "expected {expect}s within 100ns, got {got}s"
        );
    }

    #[test]
    fn trace_captures_phases_and_messages() {
        let cfg = config(2, 2);
        let n = 1u64 << 14;
        let mut w = WorldProgram::new(4, n);
        w.register_barrier(0, vec![Rank(0), Rank(1)]);
        w.register_barrier(1, vec![Rank(2), Rank(3)]);
        for r in 0..4u32 {
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            p.compute(2e-6);
            p.barrier(r / 2);
        }
        // One inter-node exchange between the node leaders.
        w.rank(Rank(0))
            .sendrecv(Rank(2), 0, BUF_RESULT, ByteRange::whole(n), BufKey::Priv(2));
        w.rank(Rank(2))
            .sendrecv(Rank(0), 0, BUF_RESULT, ByteRange::whole(n), BufKey::Priv(2));
        w.rank(Rank(0))
            .reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));
        w.rank(Rank(2))
            .reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));

        let rep = Simulator::new(&cfg).with_trace().run(&w).unwrap();
        let trace = rep.trace.as_ref().expect("trace requested");
        use crate::trace::SpanKind;
        assert!(trace.total_time(SpanKind::Copy) > 0.0);
        assert!((trace.total_time(SpanKind::Compute) - 4.0 * 2e-6).abs() < 1e-12);
        assert!(trace.total_time(SpanKind::Barrier) > 0.0);
        assert_eq!(trace.messages.len(), 2);
        assert!(trace
            .messages
            .iter()
            .all(|m| m.delivered > m.injected && !m.intra_node));
        // Spans nest within the makespan.
        for sp in &trace.spans {
            assert!(sp.end <= rep.makespan().seconds() + 1e-15);
            assert!(sp.start <= sp.end);
        }
        // Chrome export parses.
        let json = trace.to_chrome_json();
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
        // Untraced runs carry no trace and identical timing.
        let rep2 = Simulator::new(&cfg).run(&w).unwrap();
        assert!(rep2.trace.is_none());
        assert_eq!(rep2.makespan(), rep.makespan());
    }

    // ---- fault injection -------------------------------------------------

    use dpml_faults::{FaultPlan, LinkFault, NoiseModel, SharpFaults, Straggler};

    fn exchange_world(n: u64) -> WorldProgram {
        let mut w = WorldProgram::new(2, n);
        for r in 0..2u32 {
            let peer = Rank(1 - r);
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            p.sendrecv(peer, 0, BUF_INPUT, ByteRange::whole(n), BufKey::Priv(2));
            p.reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));
        }
        w
    }

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 18);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan::zero();
        let faulted = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        assert_eq!(
            clean.makespan().seconds().to_bits(),
            faulted.makespan().seconds().to_bits()
        );
        assert_eq!(clean.finish_times, faulted.finish_times);
        let canon = FaultPlan::canonical(99, 0.0);
        let canonical = Simulator::new(&cfg).with_faults(&canon).run(&w).unwrap();
        assert_eq!(
            clean.makespan().seconds().to_bits(),
            canonical.makespan().seconds().to_bits()
        );
    }

    #[test]
    fn noise_slows_and_stays_deterministic() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 16);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan {
            noise: NoiseModel {
                intensity: 0.8,
                straggler: None,
            },
            ..FaultPlan::zero()
        };
        let a = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        let b = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        assert!(a.makespan() > clean.makespan(), "noise must cost time");
        assert_eq!(a.makespan(), b.makespan(), "same seed, same run");
        let reseeded = FaultPlan {
            seed: 1,
            ..plan.clone()
        };
        let c = Simulator::new(&cfg).with_faults(&reseeded).run(&w).unwrap();
        assert_ne!(
            a.makespan(),
            c.makespan(),
            "different seed, different jitter"
        );
        rep_verify(&a);
    }

    fn rep_verify(rep: &RunReport) {
        rep.verify_allreduce().unwrap();
    }

    #[test]
    fn straggler_dominates_makespan() {
        let cfg = config(1, 4);
        let n = 1 << 14;
        let mut w = WorldProgram::new(4, n);
        for r in 0..4u32 {
            let p = w.rank(Rank(r));
            p.compute(10e-6);
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
        }
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan {
            noise: NoiseModel {
                intensity: 0.0,
                straggler: Some(Straggler {
                    rank: 2,
                    slowdown: 5.0,
                }),
            },
            ..FaultPlan::zero()
        };
        let slow = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        assert!(slow.finish_times[2] > clean.finish_times[2]);
        assert!(slow.makespan().seconds() >= 5.0 * 10e-6);
        // Non-straggler ranks with no dependence on rank 2 are unaffected.
        assert_eq!(slow.finish_times[0], clean.finish_times[0]);
    }

    #[test]
    fn degraded_link_window_slows_transfers() {
        let cfg = config(2, 1);
        let w = exchange_world(4 << 20);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        // Cluster B: per_flow_bw = 3 GB/s, node_bw = 12 GB/s. The factor
        // must push the node capacity below the per-flow ceiling to bind
        // on a single flow, so 0.1 (1.2 GB/s) rather than 0.25 (3 GB/s).
        let plan = FaultPlan {
            links: vec![LinkFault {
                node: None,
                start: 0.0,
                end: None,
                bw_factor: 0.1,
                msg_rate_factor: 1.0,
            }],
            ..FaultPlan::zero()
        };
        let slow = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        rep_verify(&slow);
        let ratio = slow.makespan().seconds() / clean.makespan().seconds();
        assert!(
            ratio > 1.5,
            "10% bandwidth should slow a 4MB exchange, ratio {ratio}"
        );
        // A window that lifts mid-transfer is a smaller hit than a
        // permanent degrade. (The first ~quarter of the clean run is the
        // local input copy, so the window must reach past that to touch
        // the wire at all.)
        let flap = FaultPlan {
            links: vec![LinkFault {
                node: None,
                start: 0.0,
                end: Some(clean.makespan().seconds() * 0.5),
                bw_factor: 0.1,
                msg_rate_factor: 1.0,
            }],
            ..FaultPlan::zero()
        };
        let flapped = Simulator::new(&cfg).with_faults(&flap).run(&w).unwrap();
        assert!(flapped.makespan() > clean.makespan());
        assert!(flapped.makespan() < slow.makespan());
    }

    #[test]
    fn severed_link_reports_link_down() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 20);
        let plan = FaultPlan {
            links: vec![LinkFault {
                node: Some(1),
                start: 0.0,
                end: None,
                bw_factor: 0.0,
                msg_rate_factor: 1.0,
            }],
            ..FaultPlan::zero()
        };
        let err = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap_err();
        assert_eq!(err, SimError::LinkDown { node: 1 });
    }

    // ---- data faults: corruption, drops, shm flips -----------------------

    use dpml_faults::DataFaults;

    #[test]
    fn data_faults_retransmit_and_still_verify() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 18);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan {
            data: DataFaults {
                // Deep budget: at 80% per-attempt fault probability the
                // seeded draws must still deliver within 64 retries.
                max_retransmits: 64,
                ..DataFaults::wire(0.4, 0.4)
            },
            ..FaultPlan::zero()
        };
        let a = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        a.verify_allreduce().unwrap();
        assert!(a.stats.retransmits > 0, "seeded faults must fire");
        assert!(a.stats.corruptions_detected > 0 || a.stats.retransmits > 0);
        assert!(
            a.makespan() > clean.makespan(),
            "retries must cost time: {} vs {}",
            a.latency_us(),
            clean.latency_us()
        );
        assert!(a.stats.undetected_risk >= 0.0 && a.stats.undetected_risk < 1e-6);
        // Same seed, same protocol schedule — bit-identical replay.
        let b = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn exhausted_retry_budget_is_structured_error() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 18);
        let plan = FaultPlan {
            data: DataFaults {
                corruption_rate: 1.0,
                max_retransmits: 3,
                ..DataFaults::default()
            },
            ..FaultPlan::zero()
        };
        let err = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap_err();
        let SimError::RetryBudgetExhausted { attempts, at, .. } = err else {
            panic!("expected RetryBudgetExhausted, got {err:?}");
        };
        assert_eq!(attempts, 4, "initial attempt + 3 retransmits");
        assert!(at > 0.0, "give-up time must be after the first delivery");
    }

    #[test]
    fn shm_flip_redo_keeps_deposits_intact() {
        let cfg = config(1, 2);
        let n = 1u64 << 16;
        let shm = BufKey::Shared(7);
        let mut w = WorldProgram::new(2, n);
        w.register_barrier(0, vec![Rank(0), Rank(1)]);
        w.rank(Rank(0))
            .copy(BUF_INPUT, shm, ByteRange::whole(n), false);
        w.rank(Rank(0)).barrier(0);
        w.rank(Rank(1)).barrier(0);
        w.rank(Rank(1))
            .copy(shm, BUF_RESULT, ByteRange::whole(n), false);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan {
            data: DataFaults {
                shm_flip_rate: 0.7,
                ..DataFaults::default()
            },
            ..FaultPlan::zero()
        };
        let rep = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        assert!(rep.stats.shm_crc_fails > 0, "seeded flip must fire");
        // The reader still sees rank 0's intact deposit despite the flips.
        assert_eq!(rep.result_coverage[1], clean.result_coverage[1]);
        assert!(rep.makespan() > clean.makespan());
        // A permanently poisoned publish exhausts the budget structurally.
        let hard = FaultPlan {
            data: DataFaults {
                shm_flip_rate: 1.0,
                max_retransmits: 2,
                ..DataFaults::default()
            },
            ..FaultPlan::zero()
        };
        let err = Simulator::new(&cfg).with_faults(&hard).run(&w).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::RetryBudgetExhausted {
                    attempts: 3,
                    src,
                    dst,
                    ..
                } if src == dst
            ),
            "{err:?}"
        );
    }

    // ---- fail-stop crashes ----------------------------------------------

    use dpml_faults::ProcessFaults;

    /// Regression: tearing down an in-flight flow to a crashed receiver
    /// must free its bandwidth share AND complete the surviving sender's
    /// rendezvous send request (the arrival path already did; the
    /// teardown path used to leave the sender blocked forever).
    #[test]
    fn crash_teardown_completes_surviving_senders_rendezvous() {
        let cfg = config(2, 2);
        let n = 1u64 << 20; // rendezvous-sized: ~350us on the wire
        let mut w = WorldProgram::new(4, n);
        // Block mapping: ranks 0,1 on node 0; ranks 2,3 on node 1. Pair
        // A (0 -> 2) completes normally; pair B (1 -> 3) loses its
        // receiver mid-transfer.
        let s0 = w
            .rank(Rank(0))
            .isend(Rank(2), 0, BUF_INPUT, ByteRange::whole(n));
        w.rank(Rank(0)).wait_all(vec![s0]);
        let r0 = w.rank(Rank(2)).irecv(Rank(0), 0, BufKey::Priv(2));
        w.rank(Rank(2)).wait_all(vec![r0]);
        let s1 = w
            .rank(Rank(1))
            .isend(Rank(3), 1, BUF_INPUT, ByteRange::whole(n));
        w.rank(Rank(1)).wait_all(vec![s1]);
        let r1 = w.rank(Rank(3)).irecv(Rank(1), 1, BufKey::Priv(2));
        w.rank(Rank(3)).wait_all(vec![r1]);
        let plan = FaultPlan {
            process: ProcessFaults::single(3, 100e-6),
            ..FaultPlan::zero()
        };
        let run = || Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap_err();
        let err = run();
        let SimError::RankDead {
            rank: 3,
            ref pending_ops,
            ..
        } = err
        else {
            panic!("expected rank 3 dead, got {err:?}");
        };
        // The ledger records the aborted transfer, but rank 1 itself
        // finished — it must not appear as a blocked survivor.
        assert!(
            pending_ops
                .iter()
                .any(|op| op.rank == 1 && op.what.contains("aborted")),
            "ledger must record the torn-down transfer: {pending_ops:?}"
        );
        assert!(
            !pending_ops
                .iter()
                .any(|op| op.rank == 1 && op.what.contains("survivor")),
            "surviving sender must not stay blocked: {pending_ops:?}"
        );
        // Teardown — including the freed bandwidth share — replays
        // bit-identically.
        assert_eq!(err, run());
    }

    #[test]
    fn crash_mid_run_reports_rank_dead_with_ledger() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 20);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let crash_at = clean.makespan().seconds() * 0.5;
        let plan = FaultPlan {
            process: ProcessFaults::single(1, crash_at),
            ..FaultPlan::zero()
        };
        let err = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap_err();
        let SimError::RankDead {
            rank,
            time,
            pending_ops,
        } = err
        else {
            panic!("expected RankDead, got {err:?}");
        };
        assert_eq!(rank, 1);
        assert_eq!(time, crash_at);
        // The ledger names the dead rank's own state and the blocked
        // survivor (rank 0 can never finish its recv from rank 1).
        assert!(pending_ops.iter().any(|op| op.rank == 1));
        assert!(pending_ops
            .iter()
            .any(|op| op.rank == 0 && op.what.contains("survivor")));
    }

    #[test]
    fn crash_after_completion_is_a_no_op() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 18);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan {
            process: ProcessFaults::single(1, clean.makespan().seconds() * 10.0),
            ..FaultPlan::zero()
        };
        // The rank outlives its scheduled crash; the run succeeds with
        // identical timing — even under a time budget tighter than the
        // crash time (the stale crash event must not trip the watchdog).
        let survived = Simulator::new(&cfg)
            .with_faults(&plan)
            .with_time_budget(clean.makespan().seconds() * 2.0)
            .run(&w)
            .unwrap();
        assert_eq!(clean.finish_times, survived.finish_times);
    }

    #[test]
    fn zero_crash_process_plan_is_bit_identical() {
        let cfg = config(2, 1);
        let w = exchange_world(1 << 18);
        let clean = Simulator::new(&cfg).run(&w).unwrap();
        let plan = FaultPlan {
            process: ProcessFaults {
                detection_timeout: 1e-3, // timeout alone schedules nothing
                ..Default::default()
            },
            ..FaultPlan::zero()
        };
        let faulted = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap();
        assert_eq!(
            clean.makespan().seconds().to_bits(),
            faulted.makespan().seconds().to_bits()
        );
        assert_eq!(clean.finish_times, faulted.finish_times);
        assert_eq!(clean.stats, faulted.stats);
    }

    #[test]
    fn lost_node_is_dead_from_time_zero() {
        let cfg = config(2, 2);
        let n = 1 << 16;
        let mut w = WorldProgram::new(4, n);
        for r in 0..4u32 {
            let peer = Rank(r ^ 2); // cross-node pairs under block mapping
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            p.sendrecv(peer, 0, BUF_INPUT, ByteRange::whole(n), BufKey::Priv(2));
            p.reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));
        }
        let plan = FaultPlan {
            process: ProcessFaults {
                lost_nodes: vec![1],
                ..Default::default()
            },
            ..FaultPlan::zero()
        };
        let err = Simulator::new(&cfg).with_faults(&plan).run(&w).unwrap_err();
        let SimError::RankDead { rank, time, .. } = err else {
            panic!("expected RankDead, got {err:?}");
        };
        assert!(rank >= 2, "dead rank must be on node 1, got {rank}");
        assert_eq!(time, 0.0);
    }

    #[test]
    fn preset_state_seeds_buffers_before_execution() {
        let cfg = config(2, 1);
        let n = 4096u64;
        let mut w = WorldProgram::new(2, n);
        // Empty programs, but both result buffers preset to the full set:
        // the checkpointed world verifies as a completed allreduce.
        let full = {
            let mut m = CoverageMap::empty();
            for r in 0..2 {
                m.union_merge(&CoverageMap::singleton(r, 0, n), 0, n);
            }
            m
        };
        let result_id = match BUF_RESULT {
            BufKey::Priv(id) => id,
            _ => unreachable!(),
        };
        for r in 0..2u32 {
            w.preset_private(Rank(r), result_id, full.clone());
        }
        // Shared presets are visible to programs that read shared buffers.
        w.preset_shared(0, 7, CoverageMap::singleton(0, 0, n));
        let rep = Simulator::new(&cfg).run(&w).unwrap();
        rep.verify_allreduce().unwrap();
        assert_eq!(rep.makespan(), SimTime::ZERO);
    }

    #[test]
    fn time_budget_watchdog_fires() {
        let cfg = config(2, 1);
        let w = exchange_world(4 << 20); // takes ~ms of virtual time
        let err = Simulator::new(&cfg)
            .with_time_budget(10e-6)
            .run(&w)
            .unwrap_err();
        assert_eq!(err, SimError::TimeBudgetExceeded(10e-6));
        // A generous budget does not interfere.
        let ok = Simulator::new(&cfg).with_time_budget(10.0).run(&w);
        assert!(ok.is_ok());
    }

    #[test]
    fn sharp_denial_and_flaky_timeout() {
        let cfg = config(4, 1);
        let n = 256;
        let mut w = WorldProgram::new(4, n);
        w.register_sharp_group(0, (0..4).map(Rank).collect());
        for r in 0..4u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_INPUT, BUF_RESULT, ByteRange::whole(n));
        }
        let oracle = FixedOracle(5e-6, 2);
        let deny = FaultPlan {
            sharp: SharpFaults {
                deny_groups: true,
                flaky_attempts: 0,
                op_timeout: 0.0,
            },
            ..FaultPlan::zero()
        };
        let err = Simulator::new(&cfg)
            .with_sharp(&oracle)
            .with_faults(&deny)
            .run(&w)
            .unwrap_err();
        assert_eq!(err, SimError::SharpDenied(0));

        let flaky = FaultPlan {
            sharp: SharpFaults {
                deny_groups: false,
                flaky_attempts: 2,
                op_timeout: 100e-6,
            },
            ..FaultPlan::zero()
        };
        // Attempts 0 and 1 time out; attempt 2 succeeds.
        for attempt in 0..2 {
            let err = Simulator::new(&cfg)
                .with_sharp(&oracle)
                .with_faults(&flaky)
                .with_fault_attempt(attempt)
                .run(&w)
                .unwrap_err();
            assert_eq!(err, SimError::SharpTimeout { group: 0 });
        }
        let rep = Simulator::new(&cfg)
            .with_sharp(&oracle)
            .with_faults(&flaky)
            .with_fault_attempt(2)
            .run(&w)
            .unwrap();
        rep.verify_allreduce().unwrap();
    }

    #[test]
    fn invalid_switch_spec_is_a_config_error() {
        let preset = cluster_b();
        let spec = ClusterSpec::new(2, 2, 14, 1).unwrap();
        let bad = dpml_topology::SwitchTreeSpec {
            nodes_per_leaf: 0,
            ..preset.switch
        };
        assert!(SimConfig::new(RankMap::block(&spec), preset.fabric, bad).is_err());
    }

    #[test]
    fn deterministic_repeat_runs() {
        let n = 1 << 18;
        let mk = || {
            let cfg = config(4, 4);
            let mut w = WorldProgram::new(16, n);
            // Ring exchange.
            for r in 0..16u32 {
                let next = Rank((r + 1) % 16);
                let prev = Rank((r + 15) % 16);
                let p = w.rank(Rank(r));
                p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
                let s = p.isend(next, 0, BUF_INPUT, ByteRange::whole(n));
                let q = p.irecv(prev, 0, BufKey::Priv(2));
                p.wait_all(vec![s, q]);
                p.reduce(vec![BufKey::Priv(2)], BUF_RESULT, ByteRange::whole(n));
            }
            Simulator::new(&cfg).run(&w).unwrap().makespan().seconds()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }
}
