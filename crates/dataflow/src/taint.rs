//! Backward inter-procedural taint analysis (paper §IV-B).
//!
//! The engine starts at a message-delivery callsite argument (the paper's
//! *taint source*) and walks data flows backwards — through copies,
//! arithmetic, summarized library calls, buffer writes, callee returns and
//! caller arguments — until it reaches terminal *taint sinks*: the origins
//! of individual message fields. The result is a [`TaintTree`] whose paths
//! the `firmres-mft` crate renders into code slices and the Message Field
//! Tree.

use crate::defuse::{op_at, DefUse, OpRef};
use crate::libsum::{
    LibFunc, LibFuncScripts, LibId, LibIndex, LibRegionKey, LibScript, LibStats, LibStep,
};
use crate::region::{resolve_region, Region};
use crate::summary::{summary_for, SourceKind, Summary, SummaryEffect};
use firmres_ir::{
    function_content_hash, is_import_address, Address, BlockId, CallGraph, FnvBuildHasher,
    Function, Interner, Opcode, PcodeOp, Program, Sym, Varnode,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a node in a [`TaintTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaintNodeId(pub usize);

/// Terminal origin of a message-field value (the paper's taint sink).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldSource {
    /// A string constant in the data segment (request paths, format
    /// strings, JSON keys, hard-coded values).
    StringConstant {
        /// Address in the data segment.
        addr: u64,
        /// The string contents.
        value: String,
    },
    /// A plain numeric constant.
    NumericConstant {
        /// The value.
        value: u64,
    },
    /// A value produced by a summarized source call (`nvram_get`,
    /// `get_mac_addr`, `getenv`, …).
    LibCall {
        /// Source category.
        kind: SourceKind,
        /// The callee name.
        callee: String,
        /// The resolved lookup key (e.g. the NVRAM variable name).
        key: Option<String>,
    },
    /// Flowed to a parameter of an entry-point function with no callers:
    /// front-end/user input.
    EntryParam {
        /// Function name.
        func: String,
        /// Parameter index.
        index: usize,
    },
    /// Resolution gave up (analysis budget, unmodeled operation, …).
    Unresolved {
        /// Why resolution stopped.
        reason: &'static str,
    },
}

/// Every `reason` string the engine puts into
/// [`FieldSource::Unresolved`], in a stable order. Deserializers use
/// [`intern_unresolved_reason`] to map a persisted reason back to the
/// `&'static str` the enum requires.
pub const UNRESOLVED_REASONS: [&str; 14] = [
    "function not found",
    "callsite not found",
    "argument missing",
    "budget exceeded",
    "buffer not decomposed",
    "no definition",
    "non-string data load",
    "unresolved load",
    "unmodeled op",
    "indirect call",
    "summary without return effect",
    "unknown import",
    "missing callee",
    "no writes to buffer",
];

/// Map an arbitrary reason string to the matching `&'static str` from
/// [`UNRESOLVED_REASONS`], so a [`FieldSource::Unresolved`] read back
/// from persistent storage round-trips exactly. Unknown strings (from a
/// newer engine version, say) intern to `"unknown"`.
pub fn intern_unresolved_reason(reason: &str) -> &'static str {
    UNRESOLVED_REASONS
        .iter()
        .find(|r| **r == reason)
        .copied()
        .unwrap_or("unknown")
}

impl FieldSource {
    /// Whether the source is a concrete, decomposable-no-further origin
    /// ("single-information-source" in the paper's terms).
    pub fn is_concrete(&self) -> bool {
        !matches!(self, FieldSource::Unresolved { .. })
    }
}

impl fmt::Display for FieldSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldSource::StringConstant { value, .. } => write!(f, "\"{value}\""),
            FieldSource::NumericConstant { value } => write!(f, "{value:#x}"),
            FieldSource::LibCall { callee, key, .. } => match key {
                Some(k) => write!(f, "{callee}(\"{k}\")"),
                None => write!(f, "{callee}()"),
            },
            FieldSource::EntryParam { func, index } => write!(f, "{func}#param{index}"),
            FieldSource::Unresolved { reason } => write!(f, "<unresolved: {reason}>"),
        }
    }
}

/// What a taint-tree node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaintNodeKind {
    /// The root: a message argument at a delivery callsite.
    Root {
        /// Delivery function name (`SSL_write`, …).
        delivery: String,
    },
    /// A write into the message buffer (one concatenation step).
    Write {
        /// The function performing the write (`sprintf`, `strcat`, a
        /// `STORE`, …).
        via: String,
    },
    /// A value-producing operation on the path.
    Transform {
        /// The operation.
        opcode: Opcode,
    },
    /// Flow through a call (into a callee's return or a summary).
    ThroughCall {
        /// Callee name.
        callee: String,
    },
    /// Flow crossed from a parameter out to a caller's argument.
    ParamCross {
        /// Parameter index in the callee.
        param: usize,
    },
    /// A terminal field source.
    Source(FieldSource),
}

/// One node of a [`TaintTree`].
#[derive(Debug, Clone)]
pub struct TaintNode {
    /// This node's id.
    pub id: TaintNodeId,
    /// Parent node (None only for the root).
    pub parent: Option<TaintNodeId>,
    /// Children in discovery order.
    pub children: Vec<TaintNodeId>,
    /// Entry address of the function this node was discovered in.
    pub func: Address,
    /// The IR operation associated with the node, when there is one.
    pub op: Option<PcodeOp>,
    /// The varnode being traced at this node, when meaningful.
    pub varnode: Option<Varnode>,
    /// Node kind.
    pub kind: TaintNodeKind,
    /// Discovery sequence number (backward order; the MFT inversion step
    /// restores construction order).
    pub seq: u64,
}

impl TaintNode {
    /// The terminal source, when this is a leaf source node.
    pub fn source(&self) -> Option<&FieldSource> {
        match &self.kind {
            TaintNodeKind::Source(s) => Some(s),
            _ => None,
        }
    }
}

/// The backward-taint result: a tree rooted at the delivery argument with
/// field sources at the leaves.
#[derive(Debug, Clone, Default)]
pub struct TaintTree {
    nodes: Vec<TaintNode>,
}

impl TaintTree {
    fn add(
        &mut self,
        parent: Option<TaintNodeId>,
        func: Address,
        op: Option<PcodeOp>,
        varnode: Option<Varnode>,
        kind: TaintNodeKind,
    ) -> TaintNodeId {
        let id = TaintNodeId(self.nodes.len());
        let seq = self.nodes.len() as u64;
        self.nodes.push(TaintNode {
            id,
            parent,
            children: Vec::new(),
            func,
            op,
            varnode,
            kind,
            seq,
        });
        if let Some(p) = parent {
            self.nodes[p.0].children.push(id);
        }
        id
    }

    /// The root node.
    ///
    /// # Panics
    ///
    /// Panics on an empty tree (never produced by [`TaintEngine::trace`]).
    pub fn root(&self) -> &TaintNode {
        &self.nodes[0]
    }

    /// The node with the given id.
    pub fn node(&self, id: TaintNodeId) -> &TaintNode {
        &self.nodes[id.0]
    }

    /// All nodes in discovery order.
    pub fn nodes(&self) -> &[TaintNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (no trace performed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Leaf nodes that carry a terminal [`FieldSource`].
    pub fn sources(&self) -> impl Iterator<Item = &TaintNode> {
        self.nodes.iter().filter(|n| n.source().is_some())
    }

    /// The path from `leaf` up to the root, leaf first.
    pub fn path_to_root(&self, leaf: TaintNodeId) -> Vec<TaintNodeId> {
        let mut path = vec![leaf];
        let mut cur = leaf;
        while let Some(p) = self.nodes[cur.0].parent {
            path.push(p);
            cur = p;
        }
        path
    }
}

/// The cross-function inputs one memoized trace read: every function
/// whose body the walk visited (or looked for and found missing), and
/// every function whose *caller set* it enumerated via the call graph.
///
/// This is the raw material of incremental re-analysis: a cached result
/// for a `(function, callsite, argument)` query stays valid exactly while
/// every function in [`TraceDeps::funcs`] is unchanged and every function
/// in [`TraceDeps::caller_enums`] has an unchanged incoming-edge set
/// (`firmres_ir::caller_edges_hash`). Program-wide inputs the walk also
/// reads — string constants, callee names, import summaries — are covered
/// separately by `firmres_ir::program_context_hash`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDeps {
    /// Functions whose lifted body the trace visited. Includes entries
    /// for call targets that had *no* function (the "missing callee"
    /// leaf): their continued absence is part of the result's validity.
    pub funcs: BTreeSet<Address>,
    /// Functions whose callers the trace enumerated through the call
    /// graph (the no-context parameter crossing).
    pub caller_enums: BTreeSet<Address>,
}

impl TraceDeps {
    /// Fold another dependency set into this one.
    pub fn merge(&mut self, other: &TraceDeps) {
        self.funcs.extend(other.funcs.iter().copied());
        self.caller_enums.extend(other.caller_enums.iter().copied());
    }
}

/// Tuning knobs for the taint engine.
#[derive(Debug, Clone)]
pub struct TaintConfig {
    /// Maximum recursion depth.
    pub max_depth: usize,
    /// Maximum nodes per trace.
    pub max_nodes: usize,
    /// Whether unknown library calls propagate taint through every
    /// argument (the paper's over-taint strategy). Disabling this is the
    /// ablation measured in the benchmarks.
    pub overtaint: bool,
    /// Whether buffer pointers are decomposed into the writes that filled
    /// them (the paper's "single-information-source" sink criterion).
    /// Disabling this is the naive-sink ablation: the message argument
    /// itself becomes an opaque sink and per-field recovery collapses.
    pub decompose_buffers: bool,
    /// Known-library identification (see [`LibId`]): with `On` and a
    /// [`TaintConfig::lib_index`], functions whose content hash matches
    /// the index are replayed from recorded scripts instead of being
    /// traversed. Output is byte-identical either way (the scripts are
    /// faithful traversal transcripts), so the toggle itself is not
    /// fingerprinted — but the *index content* is (see
    /// `firmres-cache`'s config fingerprint).
    pub libid: LibId,
    /// The known-library index consulted when [`TaintConfig::libid`] is
    /// [`LibId::On`].
    pub lib_index: Option<Arc<LibIndex>>,
}

impl Default for TaintConfig {
    fn default() -> Self {
        TaintConfig {
            max_depth: 48,
            max_nodes: 4096,
            overtaint: true,
            decompose_buffers: true,
            libid: LibId::Off,
            lib_index: None,
        }
    }
}

/// The backward inter-procedural taint engine over one [`Program`].
///
/// The engine is `Sync`: every query method takes `&self`, and the
/// per-function def-use/reachability caches and the trace memo live
/// behind locks, so one engine can be shared across worker threads
/// (the pipeline's per-callsite message units do exactly that). All
/// cached values are deterministic functions of the immutable program,
/// so concurrent fills can only ever race to insert the same value.
pub struct TaintEngine<'p> {
    program: &'p Program,
    callgraph: CallGraph,
    defuse: RwLock<BTreeMap<Address, Arc<DefUse>>>,
    reach: RwLock<BTreeMap<Address, Arc<Reach>>>,
    /// Interned names of every known call target (imports and defined
    /// functions), with the callee's library summary resolved once. The
    /// hot region scan compares [`Sym`]/address keys and only
    /// materializes a `String` when a write hit is actually recorded.
    callees: HashMap<Address, CalleeInfo, FnvBuildHasher>,
    names: Interner,
    config: TaintConfig,
    /// Memoized [`TaintEngine::trace`] results per
    /// `(function entry, callsite, argument)` query, each paired with the
    /// [`TraceDeps`] the walk accumulated. Traces are deterministic over
    /// an immutable program, so replaying one is always safe.
    trace_cache: Mutex<TraceCache>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Functions matched against the known-library index at
    /// construction: entry address → index entry. Empty unless
    /// [`TaintConfig::libid`] is On with a loaded index.
    lib_funcs: HashMap<Address, Arc<LibFunc>, FnvBuildHasher>,
}

/// Memoized trace results keyed by `(function entry, callsite, argument)`.
/// The per-trace [`LibStats`] ride in the memo so replayed queries report
/// the numbers of the original walk, independent of scheduling.
type TraceCache = BTreeMap<(Address, Address, usize), (TaintTree, TraceDeps, LibStats)>;

/// Extended region used inside the engine: [`Region`] plus buffers that
/// arrive through a pointer parameter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum XRegion {
    Plain(Region),
    PtrParam(usize),
}

/// One known call target: its interned name and (for imports) the
/// library summary, resolved once at engine construction.
#[derive(Debug, Clone)]
struct CalleeInfo {
    sym: Sym,
    summary: Option<Summary>,
}

/// A candidate write into a scanned region: `(position, op, contributing
/// values, writer label)`.
struct WriteHit {
    at: OpRef,
    op: PcodeOp,
    values: Vec<Varnode>,
    via: String,
    /// Internal callee to descend into with a PtrParam region.
    descend: Option<(Address, usize)>,
}

/// Block-level reachability closure of one function: one dense bitset
/// row per block, bit `t` of row `f` set iff block `f` can reach block
/// `t`.
struct Reach {
    words: Vec<u64>,
    stride: usize,
}

struct Cx {
    tree: TaintTree,
    visited_vals: HashSet<(Address, OpRef, Varnode), FnvBuildHasher>,
    visited_regions: HashSet<(Address, XRegion, Option<OpRef>), FnvBuildHasher>,
    call_stack: Vec<(Address, Address)>, // (caller entry, callsite addr)
    deps: TraceDeps,
    lib_stats: LibStats,
    /// Script recording state, present only inside
    /// [`TaintEngine::record_lib_function`].
    rec: Option<RecState>,
}

/// Recording state: the transcript so far, or the first reason the role
/// was rejected (a poisoned recording keeps traversing but records
/// nothing further — the result is discarded).
struct RecState {
    steps: Vec<LibStep>,
    poison: Option<&'static str>,
}

impl Cx {
    /// Append a step to an active, unpoisoned recording.
    fn rec_step(&mut self, step: impl FnOnce() -> LibStep) {
        if let Some(rec) = self.rec.as_mut() {
            if rec.poison.is_none() {
                rec.steps.push(step());
            }
        }
    }

    /// Reject the role being recorded (first reason wins). No-op when
    /// not recording.
    fn rec_poison(&mut self, reason: &'static str) {
        if let Some(rec) = self.rec.as_mut() {
            if rec.poison.is_none() {
                rec.poison = Some(reason);
            }
        }
    }

    fn recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Record a [`LibStep::Transform`] for a node just added.
    fn rec_transform(&mut self, node: TaintNodeId, parent: TaintNodeId, op: &PcodeOp) {
        if self.recording() {
            let op = op.clone();
            self.rec_step(|| LibStep::Transform {
                id: node.0 as u32,
                parent: parent.0 as u32,
                op,
            });
        }
    }

    /// Record a [`LibStep::Write`] for a node just added.
    fn rec_write(&mut self, node: TaintNodeId, parent: TaintNodeId, op: &PcodeOp, via: &str) {
        if self.recording() {
            let op = op.clone();
            let via = via.to_string();
            self.rec_step(|| LibStep::Write {
                id: node.0 as u32,
                parent: parent.0 as u32,
                op,
                via,
            });
        }
    }

    /// Record a [`LibStep::ThroughCall`] for a node just added.
    fn rec_through_call(
        &mut self,
        node: TaintNodeId,
        parent: TaintNodeId,
        op: &PcodeOp,
        callee: &str,
    ) {
        if self.recording() {
            let op = op.clone();
            let callee = callee.to_string();
            self.rec_step(|| LibStep::ThroughCall {
                id: node.0 as u32,
                parent: parent.0 as u32,
                op,
                callee,
            });
        }
    }
}

/// The traversal role being recorded for a library function.
enum RecRole {
    /// Writes into the buffer arriving through pointer parameter `i`.
    Param(usize),
    /// The function's return value.
    Return,
}

/// Map the engine's extended region onto the persistable script key.
/// `None` for data-segment/unknown regions, which are image-dependent
/// (the recorder poisons the role).
fn lib_region_key(r: &XRegion) -> Option<LibRegionKey> {
    match r {
        XRegion::Plain(Region::Stack(o)) => Some(LibRegionKey::Stack(*o)),
        XRegion::Plain(Region::Alloc(a)) => Some(LibRegionKey::Alloc(*a)),
        XRegion::PtrParam(i) => Some(LibRegionKey::PtrParam(*i as u32)),
        XRegion::Plain(Region::Data(_)) | XRegion::Plain(Region::Unknown) => None,
    }
}

/// The inverse of [`lib_region_key`], for replay.
fn lib_xregion(r: &LibRegionKey) -> XRegion {
    match r {
        LibRegionKey::Stack(o) => XRegion::Plain(Region::Stack(*o)),
        LibRegionKey::Alloc(a) => XRegion::Plain(Region::Alloc(*a)),
        LibRegionKey::PtrParam(i) => XRegion::PtrParam(*i as usize),
    }
}

/// Index just past the subtree of the guard opening at `open`: steps are
/// well-nested, so count opens/closes until the matching close.
fn skip_open(steps: &[LibStep], open: usize) -> usize {
    let mut nesting = 1usize;
    let mut i = open + 1;
    while i < steps.len() && nesting > 0 {
        match steps[i] {
            LibStep::OpenValue { .. } | LibStep::OpenRegion { .. } => nesting += 1,
            LibStep::Close => nesting -= 1,
            _ => {}
        }
        i += 1;
    }
    i
}

impl<'p> TaintEngine<'p> {
    /// Create an engine with default configuration.
    pub fn new(program: &'p Program) -> Self {
        Self::with_config(program, TaintConfig::default())
    }

    /// Create an engine with an explicit configuration.
    pub fn with_config(program: &'p Program, config: TaintConfig) -> Self {
        let mut names = Interner::new();
        let mut callees: HashMap<Address, CalleeInfo, FnvBuildHasher> = HashMap::default();
        for (addr, import) in program.imports() {
            callees.insert(
                addr,
                CalleeInfo {
                    sym: names.intern(&import.name),
                    summary: summary_for(&import.name),
                },
            );
        }
        for f in program.functions() {
            callees.entry(f.entry()).or_insert_with(|| CalleeInfo {
                sym: names.intern(f.name()),
                summary: None,
            });
        }
        // Known-library matching. A content-hash match means the live
        // function is byte- and address-identical to the one the scripts
        // were recorded from. Replay additionally requires (a) the live
        // data segment to start at or above the recording's, so no
        // recorded constant can alias live data (the recorder rejected
        // everything at or above its own base), and (b) the default
        // traversal semantics the scripts were recorded under — the
        // overtaint/naive-sink ablations fall back to full traversal.
        let mut lib_funcs: HashMap<Address, Arc<LibFunc>, FnvBuildHasher> = HashMap::default();
        if config.libid == LibId::On {
            if let Some(index) = config.lib_index.as_ref() {
                if config.overtaint
                    && config.decompose_buffers
                    && program.data_base() >= index.const_ceiling()
                {
                    for f in program.functions() {
                        if let Some(entry) = index.get(function_content_hash(f)) {
                            lib_funcs.insert(f.entry(), Arc::clone(entry));
                        }
                    }
                }
            }
        }
        TaintEngine {
            program,
            callgraph: program.call_graph(),
            defuse: RwLock::new(BTreeMap::new()),
            reach: RwLock::new(BTreeMap::new()),
            callees,
            names,
            config,
            trace_cache: Mutex::new(BTreeMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            lib_funcs,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TaintConfig {
        &self.config
    }

    /// How many of the program's functions matched the known-library
    /// index at construction (0 when libid is off or no index loaded).
    pub fn lib_matched(&self) -> u64 {
        self.lib_funcs.len() as u64
    }

    fn du(&self, func: Address) -> Arc<DefUse> {
        if let Some(du) = self.defuse.read().get(&func) {
            return Arc::clone(du);
        }
        // Compute outside the lock (idempotent: racing fills produce the
        // same value and the first insert wins for everyone).
        let f = self.program.function(func).expect("function exists");
        let du = Arc::new(DefUse::compute(f));
        Arc::clone(self.defuse.write().entry(func).or_insert(du))
    }

    /// The human-readable name of a call target, from the interned table.
    fn callee_label(&self, target: Address) -> &str {
        self.callees
            .get(&target)
            .map_or("<unknown>", |info| self.names.resolve(info.sym))
    }

    /// block-level "can a reach b" closure, cached per function.
    fn reachable(&self, func: Address, from: u32, to: u32) -> bool {
        if from == to {
            return true;
        }
        let Reach { words, stride } = &*self.reach_sets(func);
        words[from as usize * stride + (to as usize >> 6)] >> (to & 63) & 1 == 1
    }

    fn reach_sets(&self, func: Address) -> Arc<Reach> {
        if let Some(sets) = self.reach.read().get(&func) {
            return Arc::clone(sets);
        }
        let f = self.program.function(func).expect("function exists");
        let n = f.blocks().len();
        let stride = n.div_ceil(64).max(1);
        let mut words = vec![0u64; n * stride];
        let mut q: Vec<u32> = Vec::new();
        for start in 0..n {
            let base = start * stride;
            q.push(start as u32);
            while let Some(b) = q.pop() {
                for s in &f.blocks()[b as usize].successors {
                    let bit = &mut words[base + (s.0 as usize >> 6)];
                    if *bit >> (s.0 & 63) & 1 == 0 {
                        *bit |= 1u64 << (s.0 & 63);
                        q.push(s.0);
                    }
                }
            }
        }
        let reach = Arc::new(Reach { words, stride });
        Arc::clone(self.reach.write().entry(func).or_insert(reach))
    }

    /// Trace the message held in argument `arg` of the call at
    /// `callsite_addr` inside the function entered at `func`.
    ///
    /// Returns a single-node tree with an `Unresolved` root child when the
    /// callsite cannot be found.
    ///
    /// Results are memoized per `(func, callsite_addr, arg)`: repeating a
    /// query returns a clone of the first result without re-walking the
    /// data flows (see [`TaintEngine::cache_stats`]).
    pub fn trace(&self, func: Address, callsite_addr: Address, arg: usize) -> TaintTree {
        self.trace_full(func, callsite_addr, arg).0
    }

    /// [`TaintEngine::trace`] plus the [`TraceDeps`] the walk accumulated.
    ///
    /// Shares the same memo (and hit/miss accounting) as `trace`: a
    /// repeated query returns a clone of the first result's tree and
    /// dependency set.
    pub fn trace_with_deps(
        &self,
        func: Address,
        callsite_addr: Address,
        arg: usize,
    ) -> (TaintTree, TraceDeps) {
        let (tree, deps, _) = self.trace_full(func, callsite_addr, arg);
        (tree, deps)
    }

    /// [`TaintEngine::trace`] plus the per-trace known-library counters.
    /// The counters are memoized with the trace, so a replayed query
    /// reports the original walk's numbers deterministically.
    pub fn trace_with_stats(
        &self,
        func: Address,
        callsite_addr: Address,
        arg: usize,
    ) -> (TaintTree, LibStats) {
        let (tree, _, stats) = self.trace_full(func, callsite_addr, arg);
        (tree, stats)
    }

    fn trace_full(
        &self,
        func: Address,
        callsite_addr: Address,
        arg: usize,
    ) -> (TaintTree, TraceDeps, LibStats) {
        let key = (func, callsite_addr, arg);
        if let Some(cached) = self.trace_cache.lock().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        // Traced outside the lock: concurrent first queries for the same
        // key each compute the (identical, deterministic) result and the
        // first insert wins.
        let result = self.trace_uncached(func, callsite_addr, arg);
        self.trace_cache
            .lock()
            .entry(key)
            .or_insert_with(|| result.clone());
        result
    }

    /// The memoized [`TraceDeps`] of a query already run through
    /// [`TaintEngine::trace`], without re-walking or touching the hit/miss
    /// counters. `None` when the query has not been traced yet.
    pub fn trace_deps(
        &self,
        func: Address,
        callsite_addr: Address,
        arg: usize,
    ) -> Option<TraceDeps> {
        self.trace_cache
            .lock()
            .get(&(func, callsite_addr, arg))
            .map(|(_, deps, _)| deps.clone())
    }

    /// `(hits, misses)` of the trace memo cache so far.
    ///
    /// The counts are scheduling-dependent under concurrent use (racing
    /// first queries for one key each count a miss), so the pipeline does
    /// not report them — it replays its own query log deterministically
    /// (see `firmres::stages`). They remain useful for profiling.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    fn trace_uncached(
        &self,
        func: Address,
        callsite_addr: Address,
        arg: usize,
    ) -> (TaintTree, TraceDeps, LibStats) {
        let mut cx = Cx {
            tree: TaintTree::default(),
            visited_vals: HashSet::default(),
            visited_regions: HashSet::default(),
            call_stack: Vec::new(),
            deps: TraceDeps::default(),
            lib_stats: LibStats::default(),
            rec: None,
        };
        // The root function is an input even when the lookup fails: the
        // result depends on it staying found/unfound.
        cx.deps.funcs.insert(func);
        let Some(f) = self.program.function(func) else {
            let root = cx.tree.add(
                None,
                func,
                None,
                None,
                TaintNodeKind::Root {
                    delivery: "<unknown>".into(),
                },
            );
            cx.tree.add(
                Some(root),
                func,
                None,
                None,
                TaintNodeKind::Source(FieldSource::Unresolved {
                    reason: "function not found",
                }),
            );
            return (cx.tree, cx.deps, cx.lib_stats);
        };
        let Some(call) = f.op_at(callsite_addr).cloned() else {
            let root = cx.tree.add(
                None,
                func,
                None,
                None,
                TaintNodeKind::Root {
                    delivery: "<unknown>".into(),
                },
            );
            cx.tree.add(
                Some(root),
                func,
                None,
                None,
                TaintNodeKind::Source(FieldSource::Unresolved {
                    reason: "callsite not found",
                }),
            );
            return (cx.tree, cx.deps, cx.lib_stats);
        };
        let delivery = call
            .call_target()
            .and_then(|t| self.program.callee_name(t))
            .unwrap_or("<indirect>")
            .to_string();
        let root = cx.tree.add(
            None,
            func,
            Some(call.clone()),
            call.call_args().get(arg).cloned(),
            TaintNodeKind::Root { delivery },
        );
        let Some(v) = call.call_args().get(arg).cloned() else {
            cx.tree.add(
                Some(root),
                func,
                None,
                None,
                TaintNodeKind::Source(FieldSource::Unresolved {
                    reason: "argument missing",
                }),
            );
            return (cx.tree, cx.deps, cx.lib_stats);
        };
        let at = self.du(func).position_of(callsite_addr).expect("op exists");
        self.taint_value(&mut cx, func, at, &v, root, 0);
        (cx.tree, cx.deps, cx.lib_stats)
    }

    fn budget_ok(&self, cx: &Cx, depth: usize) -> bool {
        depth < self.config.max_depth && cx.tree.len() < self.config.max_nodes
    }

    fn leaf(&self, cx: &mut Cx, func: Address, parent: TaintNodeId, src: FieldSource) {
        if cx.recording() {
            // Image-dependent or context-dependent leaves reject the
            // role; everything else is recorded verbatim. (String
            // constants live in the data segment; entry-param leaves
            // come from caller enumeration, whose result depends on the
            // surrounding image. Budget leaves mean the transcript is
            // not the complete traversal.)
            match &src {
                FieldSource::StringConstant { .. } => cx.rec_poison("data-segment string constant"),
                FieldSource::EntryParam { .. } => cx.rec_poison("caller enumeration reached"),
                FieldSource::Unresolved { reason } if *reason == "budget exceeded" => {
                    cx.rec_poison("traversal budget exhausted while recording")
                }
                _ => {}
            }
            let recorded = src.clone();
            cx.rec_step(|| LibStep::Leaf {
                parent: parent.0 as u32,
                source: recorded,
            });
        }
        cx.tree
            .add(Some(parent), func, None, None, TaintNodeKind::Source(src));
    }

    /// Resolve a varnode that may be a pointer; returns the region.
    fn region_of(&self, func: Address, at: OpRef, v: &Varnode) -> Region {
        let f = self.program.function(func).expect("function exists");
        let du = self.du(func);
        resolve_region(self.program, f, &du, at, v)
    }

    fn taint_value(
        &self,
        cx: &mut Cx,
        func: Address,
        at: OpRef,
        v: &Varnode,
        parent: TaintNodeId,
        depth: usize,
    ) {
        if cx.recording() {
            let rv = v.clone();
            cx.rec_step(|| LibStep::OpenValue {
                parent: parent.0 as u32,
                at,
                v: rv,
                depth: depth as u32,
            });
            self.taint_value_inner(cx, func, at, v, parent, depth);
            cx.rec_step(|| LibStep::Close);
            return;
        }
        self.taint_value_inner(cx, func, at, v, parent, depth);
    }

    fn taint_value_inner(
        &self,
        cx: &mut Cx,
        func: Address,
        at: OpRef,
        v: &Varnode,
        parent: TaintNodeId,
        depth: usize,
    ) {
        cx.deps.funcs.insert(func);
        if !self.budget_ok(cx, depth) {
            self.leaf(
                cx,
                func,
                parent,
                FieldSource::Unresolved {
                    reason: "budget exceeded",
                },
            );
            return;
        }
        if !cx.visited_vals.insert((func, at, v.clone())) {
            // A transcript with a repeated guard key could replay a
            // different shape than a live traversal (see DESIGN.md §14),
            // so a recording-time revisit rejects the role.
            cx.rec_poison("duplicate value guard in one role");
            return; // already explored this exact fact
        }
        // Constants terminate immediately.
        if let Some(value) = v.const_value() {
            if let Some(s) = self.program.string_at(value) {
                self.leaf(
                    cx,
                    func,
                    parent,
                    FieldSource::StringConstant {
                        addr: value,
                        value: s.to_string(),
                    },
                );
            } else {
                self.leaf(cx, func, parent, FieldSource::NumericConstant { value });
            }
            return;
        }
        // Pointer? If the value resolves to a buffer region, the message
        // content is whatever was written into that buffer.
        match self.region_of(func, at, v) {
            Region::Data(addr) => {
                if let Some(s) = self.program.string_at(addr) {
                    self.leaf(
                        cx,
                        func,
                        parent,
                        FieldSource::StringConstant {
                            addr,
                            value: s.to_string(),
                        },
                    );
                    return;
                }
            }
            r @ (Region::Stack(_) | Region::Alloc(_)) => {
                if self.config.decompose_buffers {
                    self.taint_region(cx, func, &XRegion::Plain(r), Some(at), parent, depth + 1);
                } else {
                    // Naive-sink ablation: stop at the buffer itself.
                    self.leaf(
                        cx,
                        func,
                        parent,
                        FieldSource::Unresolved {
                            reason: "buffer not decomposed",
                        },
                    );
                }
                return;
            }
            Region::Unknown => {}
        }
        let f = self.program.function(func).expect("function exists");
        let defs = self.du(func).reaching_defs(at, v);
        if defs.is_empty() {
            self.value_without_defs(cx, func, v, parent, depth);
            return;
        }
        for d in defs {
            let op = op_at(f, d).clone();
            self.taint_def(cx, func, d, &op, v, parent, depth);
        }
    }

    /// A used value with no defining op: a parameter (cross to callers) or
    /// an uninitialized location.
    fn value_without_defs(
        &self,
        cx: &mut Cx,
        func: Address,
        v: &Varnode,
        parent: TaintNodeId,
        depth: usize,
    ) {
        let f = self.program.function(func).expect("function exists");
        let Some(index) = f.params().iter().position(|p| p == v) else {
            self.leaf(
                cx,
                func,
                parent,
                FieldSource::Unresolved {
                    reason: "no definition",
                },
            );
            return;
        };
        let node = cx.tree.add(
            Some(parent),
            func,
            None,
            Some(v.clone()),
            TaintNodeKind::ParamCross { param: index },
        );
        if cx.recording() {
            // Flow leaves the recorded function here. The transcript
            // stops at the param-cross node; replay continues *live*
            // into the concrete caller context of the application point.
            let rv = v.clone();
            cx.rec_step(|| LibStep::Resume {
                id: node.0 as u32,
                parent: parent.0 as u32,
                v: rv,
                param: index as u32,
                depth: depth as u32,
            });
            return;
        }
        // Prefer the concrete callsite we descended through.
        if let Some((caller, callsite)) = cx.call_stack.pop() {
            let caller_f = self.program.function(caller).expect("caller exists");
            if let Some(call) = caller_f.op_at(callsite).cloned() {
                if let Some(arg) = call.call_args().get(index).cloned() {
                    if let Some(at) = self.du(caller).position_of(callsite) {
                        self.taint_value(cx, caller, at, &arg, node, depth + 1);
                    }
                }
            }
            cx.call_stack.push((caller, callsite));
            return;
        }
        // No context: enumerate callers via the call graph. The *set* of
        // callers is an input here — a new caller changes the walk even
        // when no visited body changed — so record the enumeration (and
        // every enumerated caller, including ones skipped by the guards
        // below, whose callsite shape the skip depended on).
        cx.deps.caller_enums.insert(func);
        let callers: Vec<_> = self
            .callgraph
            .callers_of(func)
            .map(|e| (e.caller, e.callsite))
            .collect();
        cx.deps
            .funcs
            .extend(callers.iter().map(|&(caller, _)| caller));
        if callers.is_empty() {
            let name = f.name().to_string();
            self.leaf(
                cx,
                func,
                node,
                FieldSource::EntryParam { func: name, index },
            );
            return;
        }
        for (caller, callsite) in callers {
            let caller_f = self.program.function(caller).expect("caller exists");
            let Some(call) = caller_f.op_at(callsite).cloned() else {
                continue;
            };
            let Some(arg) = call.call_args().get(index).cloned() else {
                continue;
            };
            let Some(at) = self.du(caller).position_of(callsite) else {
                continue;
            };
            self.taint_value(cx, caller, at, &arg, node, depth + 1);
        }
    }

    /// Walk backward through one defining operation.
    #[allow(clippy::too_many_arguments)]
    fn taint_def(
        &self,
        cx: &mut Cx,
        func: Address,
        d: OpRef,
        op: &PcodeOp,
        _v: &Varnode,
        parent: TaintNodeId,
        depth: usize,
    ) {
        match op.opcode {
            Opcode::Copy => {
                let node = cx.tree.add(
                    Some(parent),
                    func,
                    Some(op.clone()),
                    op.output.clone(),
                    TaintNodeKind::Transform {
                        opcode: Opcode::Copy,
                    },
                );
                cx.rec_transform(node, parent, op);
                let input = op.inputs[0].clone();
                self.taint_value(cx, func, d, &input, node, depth + 1);
            }
            Opcode::Call => self.taint_call_result(cx, func, d, op, parent, depth),
            Opcode::Load => {
                let addr_v = op.inputs[0].clone();
                match self.region_of(func, d, &addr_v) {
                    Region::Data(a) => {
                        if let Some(s) = self.program.string_at(a) {
                            self.leaf(
                                cx,
                                func,
                                parent,
                                FieldSource::StringConstant {
                                    addr: a,
                                    value: s.to_string(),
                                },
                            );
                        } else {
                            self.leaf(
                                cx,
                                func,
                                parent,
                                FieldSource::Unresolved {
                                    reason: "non-string data load",
                                },
                            );
                        }
                    }
                    r @ (Region::Stack(_) | Region::Alloc(_)) => {
                        let node = cx.tree.add(
                            Some(parent),
                            func,
                            Some(op.clone()),
                            op.output.clone(),
                            TaintNodeKind::Transform {
                                opcode: Opcode::Load,
                            },
                        );
                        cx.rec_transform(node, parent, op);
                        self.taint_region(cx, func, &XRegion::Plain(r), Some(d), node, depth + 1);
                    }
                    Region::Unknown => {
                        self.leaf(
                            cx,
                            func,
                            parent,
                            FieldSource::Unresolved {
                                reason: "unresolved load",
                            },
                        );
                    }
                }
            }
            opcode if opcode.is_dataflow() => {
                let node = cx.tree.add(
                    Some(parent),
                    func,
                    Some(op.clone()),
                    op.output.clone(),
                    TaintNodeKind::Transform { opcode },
                );
                cx.rec_transform(node, parent, op);
                let non_const: Vec<Varnode> = op
                    .inputs
                    .iter()
                    .filter(|i| !i.is_const())
                    .cloned()
                    .collect();
                if non_const.is_empty() {
                    // Fully constant expression; report each constant.
                    for input in op.inputs.clone() {
                        self.taint_value(cx, func, d, &input, node, depth + 1);
                    }
                } else {
                    for input in non_const {
                        self.taint_value(cx, func, d, &input, node, depth + 1);
                    }
                }
            }
            _ => {
                self.leaf(
                    cx,
                    func,
                    parent,
                    FieldSource::Unresolved {
                        reason: "unmodeled op",
                    },
                );
            }
        }
    }

    /// The traced value is the result of a call: apply a summary, or
    /// descend into the callee's returns.
    fn taint_call_result(
        &self,
        cx: &mut Cx,
        func: Address,
        d: OpRef,
        op: &PcodeOp,
        parent: TaintNodeId,
        depth: usize,
    ) {
        let Some(target) = op.call_target() else {
            self.leaf(
                cx,
                func,
                parent,
                FieldSource::Unresolved {
                    reason: "indirect call",
                },
            );
            return;
        };
        let callee_name = self
            .program
            .callee_name(target)
            .unwrap_or("<unknown>")
            .to_string();
        if is_import_address(target) {
            if let Some(summary) = summary_for(&callee_name) {
                let mut produced = false;
                for eff in &summary.effects {
                    match eff {
                        SummaryEffect::RetSource { kind, key_arg } => {
                            let key = key_arg
                                .and_then(|i| op.call_args().get(i))
                                .and_then(|a| self.string_of(func, d, a));
                            self.leaf(
                                cx,
                                func,
                                parent,
                                FieldSource::LibCall {
                                    kind: *kind,
                                    callee: callee_name.clone(),
                                    key,
                                },
                            );
                            produced = true;
                        }
                        SummaryEffect::RetFrom { srcs } => {
                            let node = cx.tree.add(
                                Some(parent),
                                func,
                                Some(op.clone()),
                                op.output.clone(),
                                TaintNodeKind::ThroughCall {
                                    callee: callee_name.clone(),
                                },
                            );
                            cx.rec_through_call(node, parent, op, &callee_name);
                            for &s in srcs {
                                if let Some(arg) = op.call_args().get(s).cloned() {
                                    self.taint_value(cx, func, d, &arg, node, depth + 1);
                                }
                            }
                            produced = true;
                        }
                        SummaryEffect::RetAlloc => {
                            // Fresh buffer: its content is whatever was
                            // written into the allocation before the use.
                            let node = cx.tree.add(
                                Some(parent),
                                func,
                                Some(op.clone()),
                                op.output.clone(),
                                TaintNodeKind::ThroughCall {
                                    callee: callee_name.clone(),
                                },
                            );
                            cx.rec_through_call(node, parent, op, &callee_name);
                            self.taint_region(
                                cx,
                                func,
                                &XRegion::Plain(Region::Alloc(op.addr)),
                                None,
                                node,
                                depth + 1,
                            );
                            produced = true;
                        }
                        SummaryEffect::ArgFrom { .. } | SummaryEffect::ArgSource { .. } => {}
                    }
                }
                if !produced {
                    self.leaf(
                        cx,
                        func,
                        parent,
                        FieldSource::Unresolved {
                            reason: "summary without return effect",
                        },
                    );
                }
            } else if self.config.overtaint {
                let node = cx.tree.add(
                    Some(parent),
                    func,
                    Some(op.clone()),
                    op.output.clone(),
                    TaintNodeKind::ThroughCall {
                        callee: callee_name.clone(),
                    },
                );
                cx.rec_through_call(node, parent, op, &callee_name);
                for arg in op.call_args().to_vec() {
                    self.taint_value(cx, func, d, &arg, node, depth + 1);
                }
            } else {
                self.leaf(
                    cx,
                    func,
                    parent,
                    FieldSource::Unresolved {
                        reason: "unknown import",
                    },
                );
            }
            return;
        }
        // Internal call: descend to the callee's return values. Recorded
        // whether or not the callee exists (and even when it has no
        // returning ops): the result depends on exactly that state.
        cx.deps.funcs.insert(target);
        // An internal callee's body is not covered by the recorded
        // function's content hash, so its traversal cannot be replayed
        // from this function's script.
        cx.rec_poison("internal callee");
        if self.try_apply_return_script(cx, func, op, target, parent, depth) {
            return;
        }
        let Some(callee) = self.program.function(target) else {
            self.leaf(
                cx,
                func,
                parent,
                FieldSource::Unresolved {
                    reason: "missing callee",
                },
            );
            return;
        };
        let node = cx.tree.add(
            Some(parent),
            func,
            Some(op.clone()),
            op.output.clone(),
            TaintNodeKind::ThroughCall {
                callee: callee.name().to_string(),
            },
        );
        let returns: Vec<(OpRef, Varnode)> = {
            let du = self.du(target);
            callee
                .ops()
                .filter(|o| o.opcode == Opcode::Return && !o.inputs.is_empty())
                .filter_map(|o| du.position_of(o.addr).map(|r| (r, o.inputs[0].clone())))
                .collect()
        };
        cx.call_stack.push((func, op.addr));
        for (at, rv) in returns {
            self.taint_value(cx, target, at, &rv, node, depth + 1);
        }
        cx.call_stack.pop();
    }

    /// Find the writes that filled `region` before `before` (None = the
    /// whole function) and taint each written value.
    fn taint_region(
        &self,
        cx: &mut Cx,
        func: Address,
        region: &XRegion,
        before: Option<OpRef>,
        parent: TaintNodeId,
        depth: usize,
    ) {
        if cx.recording() {
            match lib_region_key(region) {
                Some(key) => cx.rec_step(|| LibStep::OpenRegion {
                    parent: parent.0 as u32,
                    region: key,
                    before,
                    depth: depth as u32,
                }),
                None => cx.rec_poison("image-dependent region"),
            }
            self.taint_region_inner(cx, func, region, before, parent, depth);
            cx.rec_step(|| LibStep::Close);
            return;
        }
        self.taint_region_inner(cx, func, region, before, parent, depth);
    }

    fn taint_region_inner(
        &self,
        cx: &mut Cx,
        func: Address,
        region: &XRegion,
        before: Option<OpRef>,
        parent: TaintNodeId,
        depth: usize,
    ) {
        cx.deps.funcs.insert(func);
        if !self.budget_ok(cx, depth) {
            self.leaf(
                cx,
                func,
                parent,
                FieldSource::Unresolved {
                    reason: "budget exceeded",
                },
            );
            return;
        }
        if !cx.visited_regions.insert((func, region.clone(), before)) {
            // Same duplicate-guard rule as for value guards.
            cx.rec_poison("duplicate region guard in one role");
            return;
        }
        let f = self.program.function(func).expect("function exists");
        let hits = self.region_write_hits(func, region, before, f);
        // Test builds check every scan against the reference scan.
        #[cfg(test)]
        tests::assert_scan_matches_reference(self, func, region, before, f, &hits);
        if hits.is_empty() {
            self.leaf(
                cx,
                func,
                parent,
                FieldSource::Unresolved {
                    reason: "no writes to buffer",
                },
            );
            return;
        }
        self.taint_write_hits(cx, func, hits, parent, depth);
    }

    /// Every write into `region` in `func` that can execute before
    /// `before`. Ops are enumerated directly by `(block, index)`, call
    /// targets resolve through the interned [`CalleeInfo`] table
    /// (address → pre-resolved summary, no string hashing or cloning),
    /// and names are materialized only for actual hits. Hit discovery
    /// order and contents match the reference scan (the `#[cfg(test)]`
    /// oracle) exactly.
    fn region_write_hits(
        &self,
        func: Address,
        region: &XRegion,
        before: Option<OpRef>,
        f: &Function,
    ) -> Vec<WriteHit> {
        let mut hits: Vec<WriteHit> = Vec::new();
        for (bi, block) in f.blocks().iter().enumerate() {
            for (index, op) in block.ops.iter().enumerate() {
                let at = OpRef {
                    block: BlockId(bi as u32),
                    index,
                };
                if let Some(limit) = before {
                    let ok = if at.block == limit.block {
                        at.index < limit.index
                    } else {
                        self.reachable(func, at.block.0, limit.block.0)
                    };
                    if !ok {
                        continue;
                    }
                }
                match op.opcode {
                    Opcode::Copy => {
                        // Direct store into a stack slot inside the region.
                        if let (Some(out), XRegion::Plain(Region::Stack(base))) =
                            (&op.output, region)
                        {
                            if let Some(off) = out.stack_offset() {
                                if self.offset_in_local(f, *base, off) {
                                    hits.push(WriteHit {
                                        at,
                                        op: op.clone(),
                                        values: vec![op.inputs[0].clone()],
                                        via: "store".into(),
                                        descend: None,
                                    });
                                }
                            }
                        }
                    }
                    Opcode::Store => {
                        let addr_v = &op.inputs[0];
                        if self.xregion_matches(func, at, addr_v, region, f) {
                            hits.push(WriteHit {
                                at,
                                op: op.clone(),
                                values: vec![op.inputs[1].clone()],
                                via: "store".into(),
                                descend: None,
                            });
                        }
                    }
                    Opcode::Call => {
                        let Some(target) = op.call_target() else {
                            continue;
                        };
                        let info = self.callees.get(&target);
                        if is_import_address(target) {
                            // An unknown import has no summary, so the
                            // reference scan records nothing for it either.
                            let Some(summary) = info.and_then(|i| i.summary.as_ref()) else {
                                continue;
                            };
                            for eff in &summary.effects {
                                match eff {
                                    SummaryEffect::ArgFrom { dst, srcs } => {
                                        let Some(dst_v) = op.call_args().get(*dst) else {
                                            continue;
                                        };
                                        if self.xregion_matches(func, at, dst_v, region, f) {
                                            let values: Vec<Varnode> = srcs
                                                .iter()
                                                .filter_map(|&s| op.call_args().get(s).cloned())
                                                // strcat's dst also appears as a src;
                                                // skip self-reference to avoid a
                                                // degenerate cycle (the earlier writes
                                                // are found by this same scan).
                                                .filter(|a| {
                                                    !self.xregion_matches(func, at, a, region, f)
                                                })
                                                .collect();
                                            hits.push(WriteHit {
                                                at,
                                                op: op.clone(),
                                                values,
                                                via: self.callee_label(target).to_string(),
                                                descend: None,
                                            });
                                        }
                                    }
                                    SummaryEffect::ArgSource { dst, kind, key } => {
                                        let Some(dst_v) = op.call_args().get(*dst) else {
                                            continue;
                                        };
                                        if self.xregion_matches(func, at, dst_v, region, f) {
                                            hits.push(WriteHit {
                                                at,
                                                op: op.clone(),
                                                values: Vec::new(),
                                                via: format!(
                                                    "{}:{}:{}",
                                                    self.callee_label(target),
                                                    kind.label(),
                                                    key
                                                ),
                                                descend: None,
                                            });
                                        }
                                    }
                                    _ => {}
                                }
                            }
                        } else {
                            // Internal call taking the buffer: writes may occur
                            // inside the callee through the pointer parameter.
                            for (j, arg) in op.call_args().iter().enumerate() {
                                if self.xregion_matches(func, at, arg, region, f) {
                                    hits.push(WriteHit {
                                        at,
                                        op: op.clone(),
                                        values: Vec::new(),
                                        via: self.callee_label(target).to_string(),
                                        descend: Some((target, j)),
                                    });
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        hits
    }

    /// Taint each collected write, latest first.
    fn taint_write_hits(
        &self,
        cx: &mut Cx,
        func: Address,
        mut hits: Vec<WriteHit>,
        parent: TaintNodeId,
        depth: usize,
    ) {
        // Backward discovery order: latest write first (the MFT inversion
        // step restores construction order).
        hits.sort_by_key(|h| std::cmp::Reverse(h.op.addr));
        for hit in hits {
            let node = cx.tree.add(
                Some(parent),
                func,
                Some(hit.op.clone()),
                None,
                TaintNodeKind::Write {
                    via: hit.via.clone(),
                },
            );
            cx.rec_write(node, parent, &hit.op, &hit.via);
            if let Some((callee, param_idx)) = hit.descend {
                // A callee here is internal: not replayable from the
                // function being recorded (see taint_call_result).
                cx.rec_poison("internal callee");
                cx.call_stack.push((func, hit.op.addr));
                if !self.try_apply_region_script(cx, callee, param_idx, node, depth + 1) {
                    self.taint_region(
                        cx,
                        callee,
                        &XRegion::PtrParam(param_idx),
                        None,
                        node,
                        depth + 1,
                    );
                }
                cx.call_stack.pop();
                continue;
            }
            if hit.values.is_empty() {
                // ArgSource writes: synthesize the lib-call source leaf.
                if let Some(target) = hit.op.call_target() {
                    let callee = self.program.callee_name(target).unwrap_or("?").to_string();
                    if let Some(summary) = summary_for(&callee) {
                        for eff in &summary.effects {
                            if let SummaryEffect::ArgSource { kind, key, .. } = eff {
                                self.leaf(
                                    cx,
                                    func,
                                    node,
                                    FieldSource::LibCall {
                                        kind: *kind,
                                        callee: callee.clone(),
                                        key: Some((*key).to_string()),
                                    },
                                );
                            }
                        }
                    }
                }
                continue;
            }
            for v in hit.values {
                self.taint_value(cx, func, hit.at, &v, node, depth + 1);
            }
        }
    }

    /// Does pointer `v` (at `at` in `func`) point into `region`?
    fn xregion_matches(
        &self,
        func: Address,
        at: OpRef,
        v: &Varnode,
        region: &XRegion,
        f: &Function,
    ) -> bool {
        // Pointer parameters match PtrParam regions positionally.
        if let XRegion::PtrParam(idx) = region {
            if let Some(p) = f.params().get(*idx) {
                if p == v {
                    return true;
                }
                // Also chase copies of the parameter.
                let defs = self.du(func).reaching_defs(at, v);
                if defs.len() == 1 {
                    let op = op_at(f, defs[0]).clone();
                    if op.opcode == Opcode::Copy {
                        return self.xregion_matches(func, defs[0], &op.inputs[0], region, f);
                    }
                }
            }
            return false;
        }
        let XRegion::Plain(target) = region else {
            return false;
        };
        let r = self.region_of(func, at, v);
        match (&r, target) {
            (Region::Stack(a), Region::Stack(base)) => self.offset_in_local(f, *base, *a),
            _ => r == *target,
        }
    }

    /// Whether stack offset `off` falls inside the named local starting at
    /// `base` (extent bounded by the next named local, or 256 bytes).
    fn offset_in_local(&self, f: &Function, base: i64, off: i64) -> bool {
        if off == base {
            return true;
        }
        if off < base {
            return false;
        }
        let mut next = i64::MAX;
        for (v, _) in f.symbols().iter() {
            if let Some(o) = v.stack_offset() {
                if o > base && o < next {
                    next = o;
                }
            }
        }
        let extent = if next == i64::MAX { 256 } else { next - base };
        off < base + extent
    }

    /// Resolve a string constant argument (e.g. an NVRAM key).
    fn string_of(&self, func: Address, at: OpRef, v: &Varnode) -> Option<String> {
        if let Some(value) = v.const_value() {
            return self.program.string_at(value).map(str::to_string);
        }
        match self.region_of(func, at, v) {
            Region::Data(a) => self.program.string_at(a).map(str::to_string),
            _ => None,
        }
    }

    /// Replay the out-param script of an index-matched callee instead of
    /// scanning its body. `node` is the Write node of the call hit;
    /// `depth` is the depth the traversal would have entered the callee
    /// region at. Returns false (caller falls back to traversal) when no
    /// script applies.
    fn try_apply_region_script(
        &self,
        cx: &mut Cx,
        callee: Address,
        param_idx: usize,
        node: TaintNodeId,
        depth: usize,
    ) -> bool {
        if cx.recording() {
            return false;
        }
        let Some(lib) = self.lib_funcs.get(&callee) else {
            return false;
        };
        let Some((_, script)) = lib
            .scripts
            .params
            .iter()
            .find(|(i, _)| *i as usize == param_idx)
        else {
            return false;
        };
        // The role was recorded entering the region at relative depth 0,
        // so the live entry depth is the replay base.
        self.apply_script(cx, lib, script, node, depth);
        true
    }

    /// Replay the return-value script of an index-matched internal call
    /// target instead of walking its returns. Mirrors the traversal's
    /// shape exactly: the ThroughCall node is created live, and the
    /// callee frame is pushed around the replay so param-crosses resume
    /// into this callsite. Returns false when no script applies.
    fn try_apply_return_script(
        &self,
        cx: &mut Cx,
        func: Address,
        op: &PcodeOp,
        target: Address,
        parent: TaintNodeId,
        depth: usize,
    ) -> bool {
        if cx.recording() {
            return false;
        }
        let Some(lib) = self.lib_funcs.get(&target) else {
            return false;
        };
        let Some(script) = lib.scripts.returns.as_ref() else {
            return false;
        };
        let callee_name = self
            .program
            .function(target)
            .expect("index-matched function exists")
            .name()
            .to_string();
        let node = cx.tree.add(
            Some(parent),
            func,
            Some(op.clone()),
            op.output.clone(),
            TaintNodeKind::ThroughCall {
                callee: callee_name,
            },
        );
        cx.call_stack.push((func, op.addr));
        // Return chains were recorded at relative depth 1 = the live
        // traversal's depth + 1, so this call's depth is the base.
        self.apply_script(cx, lib, script, node, depth);
        cx.call_stack.pop();
        true
    }

    /// Replay one recorded script at a live application point.
    ///
    /// Guards re-run against live trace state (budget, visited sets), so
    /// pruning matches what the traversal would have done; emissions
    /// re-add the recorded nodes verbatim; [`LibStep::Resume`] re-enters
    /// live traversal in the caller frame, exactly like the traversal's
    /// param-crossing. Recorded node id 0 maps to `root`.
    fn apply_script(
        &self,
        cx: &mut Cx,
        lib: &LibFunc,
        script: &LibScript,
        root: TaintNodeId,
        base: usize,
    ) {
        cx.lib_stats.traversals_skipped += 1;
        cx.deps.funcs.insert(lib.entry);
        let mut map: HashMap<u32, TaintNodeId, FnvBuildHasher> = HashMap::default();
        map.insert(0, root);
        let steps = &script.steps;
        let mut i = 0usize;
        while i < steps.len() {
            match &steps[i] {
                LibStep::OpenValue {
                    parent,
                    at,
                    v,
                    depth,
                } => {
                    let p = map[parent];
                    let depth = base + *depth as usize;
                    if !self.budget_ok(cx, depth) {
                        self.leaf(
                            cx,
                            lib.entry,
                            p,
                            FieldSource::Unresolved {
                                reason: "budget exceeded",
                            },
                        );
                        cx.lib_stats.summary_applications += 1;
                        i = skip_open(steps, i);
                        continue;
                    }
                    if !cx.visited_vals.insert((lib.entry, *at, v.clone())) {
                        i = skip_open(steps, i);
                        continue;
                    }
                    i += 1;
                }
                LibStep::OpenRegion {
                    parent,
                    region,
                    before,
                    depth,
                } => {
                    let p = map[parent];
                    let depth = base + *depth as usize;
                    if !self.budget_ok(cx, depth) {
                        self.leaf(
                            cx,
                            lib.entry,
                            p,
                            FieldSource::Unresolved {
                                reason: "budget exceeded",
                            },
                        );
                        cx.lib_stats.summary_applications += 1;
                        i = skip_open(steps, i);
                        continue;
                    }
                    if !cx
                        .visited_regions
                        .insert((lib.entry, lib_xregion(region), *before))
                    {
                        i = skip_open(steps, i);
                        continue;
                    }
                    i += 1;
                }
                LibStep::Close => {
                    i += 1;
                }
                LibStep::Transform { id, parent, op } => {
                    let node = cx.tree.add(
                        Some(map[parent]),
                        lib.entry,
                        Some(op.clone()),
                        op.output.clone(),
                        TaintNodeKind::Transform { opcode: op.opcode },
                    );
                    map.insert(*id, node);
                    cx.lib_stats.summary_applications += 1;
                    i += 1;
                }
                LibStep::Write {
                    id,
                    parent,
                    op,
                    via,
                } => {
                    let node = cx.tree.add(
                        Some(map[parent]),
                        lib.entry,
                        Some(op.clone()),
                        None,
                        TaintNodeKind::Write { via: via.clone() },
                    );
                    map.insert(*id, node);
                    cx.lib_stats.summary_applications += 1;
                    i += 1;
                }
                LibStep::ThroughCall {
                    id,
                    parent,
                    op,
                    callee,
                } => {
                    let node = cx.tree.add(
                        Some(map[parent]),
                        lib.entry,
                        Some(op.clone()),
                        op.output.clone(),
                        TaintNodeKind::ThroughCall {
                            callee: callee.clone(),
                        },
                    );
                    map.insert(*id, node);
                    cx.lib_stats.summary_applications += 1;
                    i += 1;
                }
                LibStep::Leaf { parent, source } => {
                    cx.tree.add(
                        Some(map[parent]),
                        lib.entry,
                        None,
                        None,
                        TaintNodeKind::Source(source.clone()),
                    );
                    cx.lib_stats.summary_applications += 1;
                    i += 1;
                }
                LibStep::Resume {
                    id,
                    parent,
                    v,
                    param,
                    depth,
                } => {
                    let node = cx.tree.add(
                        Some(map[parent]),
                        lib.entry,
                        None,
                        Some(v.clone()),
                        TaintNodeKind::ParamCross {
                            param: *param as usize,
                        },
                    );
                    map.insert(*id, node);
                    cx.lib_stats.summary_applications += 1;
                    // Mirror value_without_defs' concrete-callsite
                    // branch: both application hooks push the callsite
                    // frame, so the stack is never empty here.
                    if let Some((caller, callsite)) = cx.call_stack.pop() {
                        let caller_f = self.program.function(caller).expect("caller exists");
                        if let Some(call) = caller_f.op_at(callsite).cloned() {
                            if let Some(arg) = call.call_args().get(*param as usize).cloned() {
                                if let Some(at) = self.du(caller).position_of(callsite) {
                                    self.taint_value(
                                        cx,
                                        caller,
                                        at,
                                        &arg,
                                        node,
                                        base + *depth as usize + 1,
                                    );
                                }
                            }
                        }
                        cx.call_stack.push((caller, callsite));
                    }
                    i += 1;
                }
            }
        }
    }

    /// Record replay scripts for the function entered at `entry`, for
    /// the `firmres-libid` index builder. Returns `None` when the
    /// function does not exist; otherwise every pointer-parameter role
    /// and the return role is either recorded or rejected with a reason
    /// (see [`LibFuncScripts::rejected`]). Rejected roles simply keep
    /// full traversal at runtime.
    pub fn record_lib_function(&self, entry: Address) -> Option<LibFuncScripts> {
        let f = self.program.function(entry)?;
        let mut out = LibFuncScripts::default();
        // Image-independence pre-scan: a constant at or above the
        // recording image's data base could resolve into the data
        // segment of some image (string probe, data region), so the
        // whole function is rejected. Call-target constants are exempt —
        // they are name-derived import addresses or hash-covered
        // internal entries, not data pointers.
        let data_base = self.program.data_base();
        for op in f.ops() {
            let skip = usize::from(op.opcode == Opcode::Call);
            for v in op.inputs.iter().skip(skip) {
                if let Some(c) = v.const_value() {
                    if c >= data_base {
                        out.rejected
                            .push(("function".to_string(), "constant may alias data segment"));
                        return Some(out);
                    }
                }
            }
        }
        for i in 0..f.params().len() {
            match self.record_role(entry, RecRole::Param(i)) {
                Ok(script) => out.params.push((i as u32, script)),
                Err(reason) => out.rejected.push((format!("param{i}"), reason)),
            }
        }
        match self.record_role(entry, RecRole::Return) {
            Ok(script) => out.returns = Some(script),
            Err(reason) => out.rejected.push(("return".to_string(), reason)),
        }
        Some(out)
    }

    /// Run one traversal role with a recorder attached and return the
    /// transcript, or the reason it was rejected.
    fn record_role(&self, entry: Address, role: RecRole) -> Result<LibScript, &'static str> {
        let mut cx = Cx {
            tree: TaintTree::default(),
            visited_vals: HashSet::default(),
            visited_regions: HashSet::default(),
            call_stack: Vec::new(),
            deps: TraceDeps::default(),
            lib_stats: LibStats::default(),
            rec: Some(RecState {
                steps: Vec::new(),
                poison: None,
            }),
        };
        // Recorded parent id 0: replay maps it to the application point.
        let root = cx.tree.add(
            None,
            entry,
            None,
            None,
            TaintNodeKind::Root {
                delivery: "<recording>".into(),
            },
        );
        debug_assert_eq!(root.0, 0);
        match role {
            RecRole::Param(i) => {
                // Same entry shape as taint_write_hits' descend branch,
                // at relative depth 0.
                self.taint_region(&mut cx, entry, &XRegion::PtrParam(i), None, root, 0);
            }
            RecRole::Return => {
                // Same returns walk as taint_call_result's internal
                // branch, at relative depth 1 (= live depth + 1).
                let f = self.program.function(entry).expect("function exists");
                let returns: Vec<(OpRef, Varnode)> = {
                    let du = self.du(entry);
                    f.ops()
                        .filter(|o| o.opcode == Opcode::Return && !o.inputs.is_empty())
                        .filter_map(|o| du.position_of(o.addr).map(|r| (r, o.inputs[0].clone())))
                        .collect()
                };
                for (at, rv) in returns {
                    self.taint_value(&mut cx, entry, at, &rv, root, 1);
                }
            }
        }
        let rec = cx.rec.take().expect("recording state present");
        match rec.poison {
            Some(reason) => Err(reason),
            None => Ok(LibScript { steps: rec.steps }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres_isa::{lift, Assembler};
    use std::cell::Cell;

    thread_local! {
        /// Region scans checked against the reference on this thread.
        static SCANS_CHECKED: Cell<usize> = const { Cell::new(0) };
    }

    /// Called on every region scan in test builds: the production scan
    /// must return exactly the reference scan's hits, in order.
    pub(super) fn assert_scan_matches_reference(
        engine: &TaintEngine<'_>,
        func: Address,
        region: &XRegion,
        before: Option<OpRef>,
        f: &Function,
        hits: &[WriteHit],
    ) {
        let key = |h: &WriteHit| {
            (
                h.at,
                h.op.clone(),
                h.values.clone(),
                h.via.clone(),
                h.descend,
            )
        };
        let reference = region_write_hits_reference(engine, func, region, before, f);
        assert_eq!(
            hits.iter().map(key).collect::<Vec<_>>(),
            reference.iter().map(key).collect::<Vec<_>>(),
            "region scan of {region:?} in {func:#x} before {before:?}"
        );
        SCANS_CHECKED.with(|n| n.set(n.get() + 1));
    }

    /// The pre-optimization write scan, verbatim: materializes every op
    /// of the function (with a linear position search per op), resolves
    /// and clones the callee name of every call, and rebuilds library
    /// summaries per callsite. The oracle of
    /// [`TaintEngine::region_write_hits`].
    fn region_write_hits_reference(
        engine: &TaintEngine<'_>,
        func: Address,
        region: &XRegion,
        before: Option<OpRef>,
        f: &Function,
    ) -> Vec<WriteHit> {
        let mut hits: Vec<WriteHit> = Vec::new();
        let positions: Vec<(OpRef, PcodeOp)> = f
            .ops_with_blocks()
            .map(|(b, op)| {
                let index = f
                    .block(b)
                    .ops
                    .iter()
                    .position(|o| std::ptr::eq(o, op))
                    .unwrap_or(0);
                (OpRef { block: b, index }, op.clone())
            })
            .collect();
        for (at, op) in positions {
            if let Some(limit) = before {
                let ok = if at.block == limit.block {
                    at.index < limit.index
                } else {
                    engine.reachable(func, at.block.0, limit.block.0)
                };
                if !ok {
                    continue;
                }
            }
            match op.opcode {
                Opcode::Copy => {
                    // Direct store into a stack slot inside the region.
                    if let (Some(out), XRegion::Plain(Region::Stack(base))) = (&op.output, region) {
                        if let Some(off) = out.stack_offset() {
                            if engine.offset_in_local(f, *base, off) {
                                hits.push(WriteHit {
                                    at,
                                    op: op.clone(),
                                    values: vec![op.inputs[0].clone()],
                                    via: "store".into(),
                                    descend: None,
                                });
                            }
                        }
                    }
                }
                Opcode::Store => {
                    let addr_v = &op.inputs[0];
                    if engine.xregion_matches(func, at, addr_v, region, f) {
                        hits.push(WriteHit {
                            at,
                            op: op.clone(),
                            values: vec![op.inputs[1].clone()],
                            via: "store".into(),
                            descend: None,
                        });
                    }
                }
                Opcode::Call => {
                    let Some(target) = op.call_target() else {
                        continue;
                    };
                    let callee_name = engine
                        .program
                        .callee_name(target)
                        .unwrap_or("<unknown>")
                        .to_string();
                    if is_import_address(target) {
                        if let Some(summary) = summary_for(&callee_name) {
                            for eff in &summary.effects {
                                match eff {
                                    SummaryEffect::ArgFrom { dst, srcs } => {
                                        let Some(dst_v) = op.call_args().get(*dst) else {
                                            continue;
                                        };
                                        if engine.xregion_matches(func, at, dst_v, region, f) {
                                            let values: Vec<Varnode> = srcs
                                                .iter()
                                                .filter_map(|&s| op.call_args().get(s).cloned())
                                                // strcat's dst also appears as a src;
                                                // skip engine-reference to avoid a
                                                // degenerate cycle (the earlier writes
                                                // are found by this same scan).
                                                .filter(|a| {
                                                    !engine.xregion_matches(func, at, a, region, f)
                                                })
                                                .collect();
                                            hits.push(WriteHit {
                                                at,
                                                op: op.clone(),
                                                values,
                                                via: callee_name.clone(),
                                                descend: None,
                                            });
                                        }
                                    }
                                    SummaryEffect::ArgSource { dst, kind, key } => {
                                        let Some(dst_v) = op.call_args().get(*dst) else {
                                            continue;
                                        };
                                        if engine.xregion_matches(func, at, dst_v, region, f) {
                                            hits.push(WriteHit {
                                                at,
                                                op: op.clone(),
                                                values: Vec::new(),
                                                via: format!(
                                                    "{callee_name}:{}:{}",
                                                    kind.label(),
                                                    key
                                                ),
                                                descend: None,
                                            });
                                        }
                                    }
                                    _ => {}
                                }
                            }
                        }
                    } else {
                        // Internal call taking the buffer: writes may occur
                        // inside the callee through the pointer parameter.
                        for (j, arg) in op.call_args().iter().enumerate() {
                            if engine.xregion_matches(func, at, arg, region, f) {
                                hits.push(WriteHit {
                                    at,
                                    op: op.clone(),
                                    values: Vec::new(),
                                    via: callee_name.clone(),
                                    descend: Some((target, j)),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        hits
    }

    /// The pre-optimization reach closure: one ordered successor set per
    /// block, filled by a walk from each block. The oracle of the bitset
    /// rows behind [`TaintEngine::reachable`].
    fn reach_reference(f: &Function) -> Vec<BTreeSet<u32>> {
        (0..f.blocks().len())
            .map(|start| {
                let mut seen = BTreeSet::new();
                let mut q = vec![start as u32];
                while let Some(b) = q.pop() {
                    for s in &f.blocks()[b as usize].successors {
                        if seen.insert(s.0) {
                            q.push(s.0);
                        }
                    }
                }
                seen
            })
            .collect()
    }

    #[test]
    fn stack_slot_and_pointer_stores_into_a_buffer_are_writes() {
        // Corpus delivery callsites fill buffers through library calls
        // only; this pins the scan's direct-store branches (and, through
        // the in-engine check, their agreement with the reference).
        SCANS_CHECKED.with(|n| n.set(0));
        let (tree, _) = trace_last_delivery(
            r#"
.func main
.local buf 16
    li  t1, 7
    sw  t1, buf(sp)
    lea t0, buf
    li  t2, 9
    sw  t2, 4(t0)
    lea a1, buf
    li  a0, 1
    callx SSL_write
    ret
.endfunc
"#,
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(srcs.iter().any(|s| s.contains('7')), "{srcs:?}");
        assert!(srcs.iter().any(|s| s.contains('9')), "{srcs:?}");
        assert!(SCANS_CHECKED.with(Cell::get) > 0);
    }

    #[test]
    fn region_scans_match_reference_at_every_corpus_delivery_callsite() {
        SCANS_CHECKED.with(|n| n.set(0));
        for cp in crate::testkit::corpus() {
            // Every scan the traces run is checked inside the engine.
            let engine = TaintEngine::new(&cp.program);
            for &(func, callsite, arg) in &cp.sites {
                engine.trace(func, callsite, arg);
            }
        }
        let checked = SCANS_CHECKED.with(Cell::get);
        assert!(checked > 100, "only {checked} region scan(s) checked");
    }

    #[test]
    fn reach_closure_matches_reference_on_every_traced_corpus_function() {
        let mut checked = 0;
        for cp in crate::testkit::corpus() {
            let engine = TaintEngine::new(&cp.program);
            for entry in cp.traced_functions() {
                let f = cp.program.function(entry).expect("traced function exists");
                let reference = reach_reference(f);
                let n = f.blocks().len() as u32;
                for from in 0..n {
                    for to in 0..n {
                        assert_eq!(
                            engine.reachable(entry, from, to),
                            from == to || reference[from as usize].contains(&to),
                            "{entry:#x}: block {from} → {to}"
                        );
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "no traced function to compare");
    }

    fn trace_last_delivery(src: &str, delivery: &str, arg: usize) -> (TaintTree, Program) {
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let (func, callsite) = {
            let mut found = None;
            for f in p.functions() {
                for c in f.callsites() {
                    let name = c.call_target().and_then(|t| p.callee_name(t));
                    if name == Some(delivery) {
                        found = Some((f.entry(), c.addr));
                    }
                }
            }
            found.expect("delivery callsite present")
        };
        let engine = TaintEngine::new(&p);
        let tree = engine.trace(func, callsite, arg);
        (tree, p)
    }

    fn source_strings(tree: &TaintTree) -> Vec<String> {
        tree.sources()
            .map(|n| n.source().unwrap().to_string())
            .collect()
    }

    #[test]
    fn sprintf_message_decomposes_into_fields() {
        let (tree, _) = trace_last_delivery(
            r#"
.func main
.local buf 128
.local mac 32
    lea a0, mac
    callx get_mac_addr
    lea a0, buf
    la  a1, fmt
    lea a2, mac
    callx sprintf
    mov a1, a0
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
fmt: .asciz "{\"mac\":\"%s\"}"
"#,
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(
            srcs.iter().any(|s| s.contains("{\"mac\":\"%s\"}")),
            "format string is a field source: {srcs:?}"
        );
        assert!(
            srcs.iter().any(|s| s.contains("get_mac_addr")),
            "mac buffer traces to the hardware-id getter: {srcs:?}"
        );
    }

    #[test]
    fn nvram_values_surface_with_keys() {
        let (tree, _) = trace_last_delivery(
            r#"
.func main
.local buf 128
    la  a0, key
    callx nvram_get
    mov a2, rv
    lea a0, buf
    la  a1, fmt
    callx sprintf
    lea a1, buf
    li  a0, 3
    callx send
    ret
.endfunc
.data
key: .asciz "serial_no"
fmt: .asciz "sn=%s"
"#,
            "send",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(
            srcs.iter().any(|s| s.contains("nvram_get(\"serial_no\")")),
            "nvram source resolved with key: {srcs:?}"
        );
    }

    #[test]
    fn strcat_concatenation_order_is_reversed_in_tree() {
        let (tree, _) = trace_last_delivery(
            r#"
.func main
.local buf 128
    lea a0, buf
    la  a1, first
    callx strcpy
    lea a0, buf
    la  a1, second
    callx strcat
    lea a1, buf
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
first: .asciz "id="
second: .asciz "1234"
"#,
            "SSL_write",
            1,
        );
        // Root children are the writes in backward (latest-first) order.
        let root = tree.root();
        let write_vias: Vec<String> = root
            .children
            .iter()
            .filter_map(|c| match &tree.node(*c).kind {
                TaintNodeKind::Write { via } => Some(via.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(write_vias, vec!["strcat".to_string(), "strcpy".to_string()]);
        let srcs = source_strings(&tree);
        assert!(srcs.iter().any(|s| s.contains("id=")), "{srcs:?}");
        assert!(srcs.iter().any(|s| s.contains("1234")), "{srcs:?}");
    }

    #[test]
    fn cjson_allocation_writes_are_found() {
        let (tree, _) = trace_last_delivery(
            r#"
.func main
    callx cJSON_CreateObject
    mov t0, rv
    mov a0, t0
    la  a1, kmac
    la  a2, vmac
    callx cJSON_AddStringToObject
    mov a0, t0
    callx cJSON_Print
    mov a1, rv
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
kmac: .asciz "mac"
vmac: .asciz "00:11:22:33:44:55"
"#,
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(
            srcs.iter().any(|s| s.contains("\"mac\"")),
            "json key found: {srcs:?}"
        );
        assert!(
            srcs.iter().any(|s| s.contains("00:11:22:33:44:55")),
            "json value found: {srcs:?}"
        );
    }

    #[test]
    fn interprocedural_flow_through_helper_return() {
        let (tree, _) = trace_last_delivery(
            r#"
.func get_id
    la  a0, key
    callx nvram_get
    mov rv, rv
    ret
.endfunc
.func main
    call get_id
    mov a1, rv
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
key: .asciz "device_id"
"#,
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(
            srcs.iter().any(|s| s.contains("nvram_get(\"device_id\")")),
            "flow through callee return: {srcs:?}"
        );
    }

    #[test]
    fn interprocedural_flow_through_buffer_param() {
        let (tree, _) = trace_last_delivery(
            r#"
.func fill out
    mov a0, a0
    la  a1, content
    callx strcpy
    ret
.endfunc
.func main
.local buf 64
    lea a0, buf
    call fill
    lea a1, buf
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
content: .asciz "hello-from-helper"
"#,
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(
            srcs.iter().any(|s| s.contains("hello-from-helper")),
            "writes inside callee found via pointer param: {srcs:?}"
        );
    }

    #[test]
    fn param_with_no_callers_is_front_end_input() {
        let (tree, _) = trace_last_delivery(
            r#"
.func main user_pass
    mov a1, a0
    li  a0, 1
    callx SSL_write
    ret
.endfunc
"#,
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert!(
            srcs.iter().any(|s| s.contains("main#param0")),
            "entry parameter = front-end input: {srcs:?}"
        );
    }

    #[test]
    fn constant_message_is_a_string_leaf() {
        let (tree, _) = trace_last_delivery(
            ".func main\n la a1, msg\n li a0, 1\n callx SSL_write\n ret\n.endfunc\n.data\nmsg: .asciz \"PING\"\n",
            "SSL_write",
            1,
        );
        let srcs = source_strings(&tree);
        assert_eq!(srcs, vec!["\"PING\"".to_string()]);
    }

    #[test]
    fn overtaint_toggle_changes_unknown_call_handling() {
        let src = r#"
.func main
    la a0, arg
    callx mystery_transform
    mov a1, rv
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
arg: .asciz "seed"
"#;
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let f = p.function_by_name("main").unwrap();
        let callsite = f
            .callsites()
            .find(|c| c.call_target().and_then(|t| p.callee_name(t)) == Some("SSL_write"))
            .unwrap()
            .addr;
        let entry = f.entry();

        let over = TaintEngine::new(&p);
        let t1 = over.trace(entry, callsite, 1);
        assert!(
            source_strings(&t1).iter().any(|s| s.contains("seed")),
            "overtaint traces through unknown imports"
        );

        let strict = TaintEngine::with_config(
            &p,
            TaintConfig {
                overtaint: false,
                ..TaintConfig::default()
            },
        );
        let t2 = strict.trace(entry, callsite, 1);
        assert!(
            !source_strings(&t2).iter().any(|s| s.contains("seed")),
            "without overtaint the unknown import is opaque"
        );
    }

    #[test]
    fn budget_limits_are_respected() {
        let src = r#"
.func main
.local buf 64
    lea a0, buf
    la  a1, s
    callx strcpy
    lea a1, buf
    li  a0, 1
    callx SSL_write
    ret
.endfunc
.data
s: .asciz "x"
"#;
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let f = p.function_by_name("main").unwrap();
        let callsite = f.callsites().nth(1).unwrap().addr;
        let engine = TaintEngine::with_config(
            &p,
            TaintConfig {
                max_depth: 1,
                max_nodes: 4,
                ..TaintConfig::default()
            },
        );
        let tree = engine.trace(f.entry(), callsite, 1);
        assert!(tree.len() <= 5, "node budget honored (root + few)");
    }

    #[test]
    fn missing_callsite_yields_unresolved_root() {
        let src = ".func main\n ret\n.endfunc\n";
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let engine = TaintEngine::new(&p);
        let f = p.function_by_name("main").unwrap();
        let tree = engine.trace(f.entry(), 0xdead, 0);
        assert_eq!(tree.len(), 2);
        assert!(matches!(
            tree.nodes()[1].kind,
            TaintNodeKind::Source(FieldSource::Unresolved { .. })
        ));
    }

    #[test]
    fn repeated_traces_are_memoized() {
        let src = ".func main\n la a1, msg\n li a0, 1\n callx SSL_write\n ret\n.endfunc\n.data\nmsg: .asciz \"PING\"\n";
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let f = p.function_by_name("main").unwrap();
        let callsite = f.callsites().next().unwrap().addr;
        let engine = TaintEngine::new(&p);
        let first = engine.trace(f.entry(), callsite, 1);
        assert_eq!(engine.cache_stats(), (0, 1));
        let second = engine.trace(f.entry(), callsite, 1);
        assert_eq!(engine.cache_stats(), (1, 1));
        assert_eq!(source_strings(&first), source_strings(&second));
        assert_eq!(first.len(), second.len());
        // A different argument is a different query.
        engine.trace(f.entry(), callsite, 0);
        assert_eq!(engine.cache_stats(), (1, 2));
    }

    #[test]
    fn trace_deps_record_visited_and_enumerated_functions() {
        // main passes a parameter-derived value down: helper's trace
        // enumerates its callers, so deps must name both functions and
        // flag the enumeration.
        let src = r#"
.func helper msg
 mov a1, a0
 li a0, 1
 callx SSL_write
 ret
.endfunc
.func main
 la a0, msg
 call helper
 ret
.endfunc
.data
msg: .asciz "PING"
"#;
        let exe = Assembler::new().assemble(src).unwrap();
        let p = lift(&exe, "t").unwrap();
        let helper = p.function_by_name("helper").unwrap();
        let main = p.function_by_name("main").unwrap();
        let callsite = helper.callsites().next().unwrap().addr;
        let engine = TaintEngine::new(&p);
        let (tree, deps) = engine.trace_with_deps(helper.entry(), callsite, 1);
        assert!(tree.len() > 1);
        assert!(deps.funcs.contains(&helper.entry()), "{deps:?}");
        assert!(deps.funcs.contains(&main.entry()), "{deps:?}");
        assert!(deps.caller_enums.contains(&helper.entry()), "{deps:?}");
        // The memoized deps are retrievable without recounting.
        let stats = engine.cache_stats();
        assert_eq!(
            engine.trace_deps(helper.entry(), callsite, 1),
            Some(deps),
            "stored deps match"
        );
        assert_eq!(engine.cache_stats(), stats);
        assert_eq!(engine.trace_deps(helper.entry(), 0xdead, 1), None);
    }

    #[test]
    fn path_to_root_walks_parents() {
        let (tree, _) = trace_last_delivery(
            ".func main\n la a1, msg\n li a0, 1\n callx SSL_write\n ret\n.endfunc\n.data\nmsg: .asciz \"x\"\n",
            "SSL_write",
            1,
        );
        let leaf = tree.sources().next().unwrap().id;
        let path = tree.path_to_root(leaf);
        assert_eq!(*path.last().unwrap(), tree.root().id);
        assert_eq!(path[0], leaf);
    }

    #[test]
    fn unresolved_reasons_intern_exactly() {
        for r in UNRESOLVED_REASONS {
            let interned = intern_unresolved_reason(r);
            assert_eq!(interned, r);
            // Interning an owned copy yields the same static string.
            let owned = String::from(r);
            assert_eq!(intern_unresolved_reason(owned.as_str()), r);
        }
        assert_eq!(intern_unresolved_reason("not a real reason"), "unknown");
    }
}
