//! The staged pipeline: five typed stages and the per-callsite
//! **message-unit** execution model.
//!
//! The paper's Fig. 3 workflow runs as five stages over shared state:
//!
//! 1. [`ExeIdStage`] → [`ChosenExecutable`] — pinpoint the device-cloud
//!    executable (best-scoring candidate, paper §IV-A), image-wide;
//! 2. field identification → [`RawMessage`] — backward taint from one
//!    delivery callsite;
//! 3. semantics — render and classify the message's enriched code
//!    slices;
//! 4. concatenation → [`MessageRecord`] — reconstruct and annotate the
//!    message, LAN/echo filtering;
//! 5. form check — message-form findings in place.
//!
//! # The message-unit model
//!
//! Stages 2–5 share no state across delivery callsites: one callsite's
//! taint → slices → semantics → reconstruction → form-check chain is an
//! independent **message unit**. The unit path therefore splits the old
//! whole-image stage loops into:
//!
//! * [`enumerate_units`] — deterministically list the delivery callsites
//!   of the chosen executable as [`MessageUnit`] seeds;
//! * [`run_message_unit`] — execute one unit's four-stage chain against
//!   the shared read-only [`AnalysisInputs`] (plus the image-wide taint
//!   engine and slice renderer, both `Sync`), buffering its counter and
//!   diagnostic events in a private [`UnitContext`];
//! * [`merge_unit_outputs`] — fold the per-unit [`UnitOutput`]s back into
//!   the [`AnalysisContext`] *in callsite order*, replaying each unit's
//!   buffered events into the observer stage by stage.
//!
//! [`analyze_firmware_with_jobs`](crate::pipeline::analyze_firmware_with_jobs)
//! fans the units out over [`run_pool`](crate::driver::run_pool) workers;
//! because the merge consumes results in unit order and every unit is a
//! pure function of the immutable program, the analysis output is
//! byte-identical at any job count (see `DESIGN.md` §8 for the full
//! determinism argument).
//!
//! The stage-major order (stage 2 over every unit, then stage 3, and so
//! on) survives only in this module's tests, as the oracle the unit
//! merge's event stream is checked against.
//!
//! The context owns the cross-cutting concerns: per-stage timing, work
//! counters, structured diagnostics, and fan-out to the caller's
//! [`Observer`]. Stage wall-clock brackets come from
//! [`AnalysisContext::run_stage`]; unit stages instead accumulate
//! *per-unit thread time* into the same buckets (CPU-time semantics —
//! the buckets stay comparable across job counts, wall-clock does not).

use crate::error::{Diagnostic, Severity, StageKind};
use crate::exeid::{identify_device_cloud, HandlerInfo};
use crate::formcheck::check_message;
use crate::observe::{Counter, Event, Observer, StageCounters, StageEvents};
use crate::pipeline::{AnalysisConfig, FirmwareAnalysis, MessageRecord, StageTimings};
use firmres_dataflow::{
    delivery_endpoint_arg, delivery_payload_arg, FieldSource, SourceKind, TaintEngine,
};
use firmres_firmware::FirmwareImage;
use firmres_ir::{Address, Program};
use firmres_mft::{mentions_lan, reconstruct, CodeSlice, Mft, SliceRenderer};
use firmres_semantics::{weak_label_streamed, Classifier, Primitive};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The read-only inputs of one analysis, shared by every message unit.
///
/// This is the immutable half of the old monolithic context: three
/// shared references, `Copy` and `Sync`, so the unit-parallel driver
/// hands one value to every worker. The mutable half (observer fan-out,
/// timings, counters, diagnostics) stays in [`AnalysisContext`] on the
/// coordinating thread.
#[derive(Clone, Copy)]
pub struct AnalysisInputs<'a> {
    /// The firmware image under analysis.
    pub fw: &'a FirmwareImage,
    /// The trained semantics model, if any (`None` falls back to keyword
    /// weak-labeling).
    pub classifier: Option<&'a Classifier>,
    /// Pipeline configuration.
    pub config: &'a AnalysisConfig,
}

/// Shared coordinator state threaded through the pipeline stages: the
/// read-only [`AnalysisInputs`] plus the accumulating timings, counters
/// and diagnostics. Lives on the coordinating thread only — worker
/// threads see [`AnalysisInputs`] and their own [`UnitContext`].
pub struct AnalysisContext<'a> {
    /// The read-only inputs (image, classifier, configuration).
    pub inputs: AnalysisInputs<'a>,
    observer: &'a mut dyn Observer,
    timings: StageTimings,
    counters: StageCounters,
    diagnostics: Vec<Diagnostic>,
}

impl<'a> AnalysisContext<'a> {
    /// Build a context over one firmware image.
    pub fn new(
        fw: &'a FirmwareImage,
        classifier: Option<&'a Classifier>,
        config: &'a AnalysisConfig,
        observer: &'a mut dyn Observer,
    ) -> Self {
        AnalysisContext {
            inputs: AnalysisInputs {
                fw,
                classifier,
                config,
            },
            observer,
            timings: StageTimings::default(),
            counters: StageCounters::default(),
            diagnostics: Vec::new(),
        }
    }

    /// File `elapsed` under the matching [`StageTimings`] bucket.
    fn file_time(&mut self, kind: StageKind, elapsed: Duration) {
        match kind {
            StageKind::ExeId => self.timings.exeid += elapsed,
            StageKind::FieldId => self.timings.field_identification += elapsed,
            StageKind::Semantics => self.timings.semantics += elapsed,
            StageKind::Concat => self.timings.concatenation += elapsed,
            StageKind::FormCheck => self.timings.form_check += elapsed,
            // Not pipeline stages: no timing bucket to file under.
            StageKind::Input | StageKind::Cache => {}
        }
    }

    /// Run `body` as stage `kind`: notifies the observer, times the run
    /// (wall-clock), and files the elapsed time under the matching
    /// [`StageTimings`] bucket.
    pub fn run_stage<T>(&mut self, kind: StageKind, body: impl FnOnce(&mut Self) -> T) -> T {
        self.observer.stage_started(kind);
        let start = Instant::now();
        let out = body(self);
        let elapsed = start.elapsed();
        self.file_time(kind, elapsed);
        self.observer.stage_finished(kind, elapsed);
        out
    }

    /// Replay one unit's buffered events for one stage into the counters,
    /// diagnostics and observer, preserving emission order.
    fn replay_events(&mut self, events: &StageEvents) {
        for ev in &events.events {
            match ev {
                Event::Count(counter, n) => self.count(*counter, *n),
                Event::Diagnostic(d) => self.diagnose(d.clone()),
                // Stage boundaries are emitted by the merge itself
                // (replay_stage), never buffered inside a unit; replaying
                // one here would double-fire the observer.
                Event::StageStarted(_) | Event::StageFinished(..) => {}
            }
        }
    }

    /// Run stage `kind` as a *merge* of already-executed unit work:
    /// replay each unit's buffered events in unit order, let `tail` emit
    /// any stage-global events, and file the summed per-unit thread time
    /// under the stage's timing bucket.
    fn replay_stage<'b>(
        &mut self,
        kind: StageKind,
        units: impl Iterator<Item = &'b StageEvents>,
        tail: impl FnOnce(&mut Self),
    ) {
        self.observer.stage_started(kind);
        let mut elapsed = Duration::ZERO;
        for ev in units {
            elapsed += ev.elapsed;
            self.replay_events(ev);
        }
        tail(self);
        self.file_time(kind, elapsed);
        self.observer.stage_finished(kind, elapsed);
    }

    /// Advance a work counter and forward the event to the observer.
    pub fn count(&mut self, counter: Counter, n: u64) {
        self.counters.record(counter, n);
        self.observer.count(counter, n);
    }

    /// Record a diagnostic and forward it to the observer.
    pub fn diagnose(&mut self, diagnostic: Diagnostic) {
        self.observer.diagnostic(&diagnostic);
        self.diagnostics.push(diagnostic);
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &StageCounters {
        &self.counters
    }

    /// Diagnostics recorded so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Per-stage timings accumulated so far.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Consume the context into the final analysis result.
    pub fn finish(
        self,
        executable: Option<String>,
        handlers: Vec<HandlerInfo>,
        messages: Vec<MessageRecord>,
    ) -> FirmwareAnalysis {
        FirmwareAnalysis {
            executable,
            handlers,
            messages,
            timings: self.timings,
            counters: self.counters,
            diagnostics: self.diagnostics,
        }
    }
}

/// Stage-1 artifact: the pinpointed device-cloud executable.
pub struct ChosenExecutable {
    /// Path of the executable inside the firmware image.
    pub path: String,
    /// The lifted program.
    pub program: Program,
    /// Scored handler information (non-empty by construction).
    pub handlers: Vec<HandlerInfo>,
}

/// Stage-2 artifact: one delivery callsite with its backward-taint
/// results, before reconstruction.
#[derive(Debug, Clone)]
pub struct RawMessage {
    /// Function containing the delivery callsite.
    pub function: String,
    /// The delivery callsite address.
    pub callsite: Address,
    /// Whether the callsite sits inside an identified request handler.
    pub in_handler: bool,
    /// The message field tree built from the payload taint.
    pub mft: Mft,
    /// Endpoint string (MQTT topic / HTTP path), when resolvable and
    /// distinct from the payload argument.
    pub endpoint: Option<String>,
    /// Whether the delivery host resolved to a LAN address.
    pub host_lan: bool,
}

/// Running totals of the batched classification path. Every
/// [`UnitClassifier`] handed the same tally adds to it; the analysis
/// store keeps one across images and service requests.
#[derive(Debug, Default)]
pub struct ClassifyTally {
    batched: AtomicU64,
    prefilter_skips: AtomicU64,
}

impl ClassifyTally {
    /// Slice texts classified so far.
    pub fn batched(&self) -> u64 {
        self.batched.load(Ordering::Relaxed)
    }

    /// Slices the certified None pre-filter resolved without scoring.
    pub fn prefilter_skips(&self) -> u64 {
        self.prefilter_skips.load(Ordering::Relaxed)
    }
}

/// Classification front end shared by every message unit.
///
/// A unit's slices go through one [`Classifier::predict_batch`] call
/// with the certified None pre-filter on, or through the streamed
/// keyword labeler when there is no model. Either way each slice gets
/// exactly the label a per-slice `Classifier::predict` (or
/// `weak_label`) would give it; the property tests in
/// `firmres-semantics` pin both equalities.
pub struct UnitClassifier<'a> {
    classifier: Option<&'a Classifier>,
    tally: Option<&'a ClassifyTally>,
}

impl<'a> UnitClassifier<'a> {
    /// A front end over an optional trained model.
    pub fn new(classifier: Option<&'a Classifier>) -> Self {
        UnitClassifier {
            classifier,
            tally: None,
        }
    }

    /// A front end that also counts what it classifies into `tally`.
    pub fn counted(classifier: Option<&'a Classifier>, tally: &'a ClassifyTally) -> Self {
        UnitClassifier {
            classifier,
            tally: Some(tally),
        }
    }

    /// Classify one unit's slice texts: with the trained classifier when
    /// given, otherwise the keyword weak-labeler.
    pub fn classify_batch(&self, texts: &[&str]) -> Vec<Primitive> {
        let (labels, skips) = match self.classifier {
            Some(model) => {
                let outcome = model.predict_batch(texts, true);
                (outcome.labels, outcome.prefilter_skips)
            }
            None => (
                texts
                    .iter()
                    .map(|t| weak_label_streamed(t).map_or(Primitive::None, |h| h.primitive))
                    .collect(),
                0,
            ),
        };
        if let Some(tally) = self.tally {
            tally
                .batched
                .fetch_add(texts.len() as u64, Ordering::Relaxed);
            tally.prefilter_skips.fetch_add(skips, Ordering::Relaxed);
        }
        labels
    }
}

// ---------------------------------------------------------------------------
// Message units
// ---------------------------------------------------------------------------

/// One delivery callsite awaiting analysis: the seed of a message unit.
///
/// Seeds are enumerated deterministically ([`enumerate_units`]) before
/// any unit work runs; the seed's position in that list is the unit's
/// canonical order, used by [`merge_unit_outputs`] whatever the workers'
/// completion order.
#[derive(Debug, Clone)]
pub struct MessageUnit {
    /// Entry address of the function containing the callsite.
    pub function: Address,
    /// Name of that function.
    pub function_name: String,
    /// The delivery callsite address.
    pub callsite: Address,
    /// Name of the delivery callee (e.g. `mosquitto_publish`).
    pub callee: String,
    /// Index of the payload argument at the callsite.
    pub payload_arg: usize,
    /// Whether the callsite sits inside an identified request handler.
    pub in_handler: bool,
}

/// The four pipeline stages a message unit executes (stages 2–5 of the
/// paper workflow; stages 1 is image-wide and runs before units exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStage {
    /// Backward taint from the delivery callsite (stage 2).
    FieldId,
    /// Slice rendering and semantics classification (stage 3).
    Semantics,
    /// Message reconstruction and origin matching (stage 4).
    Concat,
    /// Message-form checking (stage 5).
    FormCheck,
}

impl UnitStage {
    /// The pipeline-wide stage this unit stage belongs to.
    pub fn kind(self) -> StageKind {
        match self {
            UnitStage::FieldId => StageKind::FieldId,
            UnitStage::Semantics => StageKind::Semantics,
            UnitStage::Concat => StageKind::Concat,
            UnitStage::FormCheck => StageKind::FormCheck,
        }
    }
}

/// The buffered per-stage events of one message unit.
#[derive(Debug, Clone, Default)]
pub struct UnitEvents {
    /// Field-identification events (stage 2).
    pub field_id: StageEvents,
    /// Semantics-recovery events (stage 3).
    pub semantics: StageEvents,
    /// Concatenation events (stage 4).
    pub concat: StageEvents,
    /// Form-check events (stage 5).
    pub form_check: StageEvents,
}

impl UnitEvents {
    fn buffer_mut(&mut self, stage: UnitStage) -> &mut StageEvents {
        match stage {
            UnitStage::FieldId => &mut self.field_id,
            UnitStage::Semantics => &mut self.semantics,
            UnitStage::Concat => &mut self.concat,
            UnitStage::FormCheck => &mut self.form_check,
        }
    }
}

/// A memoized-taint query key: `(function entry, callsite, argument)`.
pub type TraceKey = (Address, Address, usize);

/// The per-unit mutable state: buffered events and the taint queries the
/// unit issued, in order.
///
/// This is the worker-side counterpart of [`AnalysisContext`]: a unit
/// never touches the observer (it is `&mut` and single-threaded) — it
/// records what it did here, and [`merge_unit_outputs`] replays the
/// buffers deterministically on the coordinating thread.
#[derive(Debug, Default)]
pub struct UnitContext {
    events: UnitEvents,
    taint_keys: Vec<TraceKey>,
    current: Option<UnitStage>,
}

impl UnitContext {
    /// A fresh, empty unit context.
    pub fn new() -> Self {
        UnitContext::default()
    }

    /// Run `body` as unit stage `stage`, accumulating the elapsed thread
    /// time into that stage's event buffer.
    pub fn run_stage<T>(&mut self, stage: UnitStage, body: impl FnOnce(&mut Self) -> T) -> T {
        self.current = Some(stage);
        let start = Instant::now();
        let out = body(self);
        self.events.buffer_mut(stage).elapsed += start.elapsed();
        self.current = None;
        out
    }

    /// Record a counter advance in the current stage's buffer.
    pub fn count(&mut self, counter: Counter, n: u64) {
        let stage = self.current.expect("count() outside run_stage");
        self.events.buffer_mut(stage).count(counter, n);
    }

    /// Record a diagnostic in the current stage's buffer.
    pub fn diagnose(&mut self, diagnostic: Diagnostic) {
        let stage = self.current.expect("diagnose() outside run_stage");
        self.events.buffer_mut(stage).diagnose(diagnostic);
    }

    /// Note a taint query so the merge can account memo hits in the
    /// canonical unit order.
    fn taint_query(&mut self, func: Address, callsite: Address, arg: usize) {
        self.taint_keys.push((func, callsite, arg));
    }
}

/// What one message unit produced: its finished record plus the buffered
/// events the merge replays.
#[derive(Debug)]
pub struct UnitOutput {
    /// The fully analyzed message record (flaws filled in).
    pub record: MessageRecord,
    /// Buffered counter/diagnostic events per stage.
    pub events: UnitEvents,
    taint_keys: Vec<TraceKey>,
}

impl UnitOutput {
    /// The taint queries this unit issued, in issue order.
    pub fn taint_keys(&self) -> &[TraceKey] {
        &self.taint_keys
    }
}

/// Deterministically enumerate the delivery callsites of `program` as
/// message-unit seeds, in function-then-callsite order.
pub fn enumerate_units(program: &Program, handlers: &[HandlerInfo]) -> Vec<MessageUnit> {
    let handler_funcs: HashSet<Address> = handlers.iter().map(|h| h.handler_func).collect();
    let mut units = Vec::new();
    for f in program.functions() {
        for op in f.callsites() {
            let Some(name) = op.call_target().and_then(|t| program.callee_name(t)) else {
                continue;
            };
            let Some(payload_arg) = delivery_payload_arg(name) else {
                continue;
            };
            units.push(MessageUnit {
                function: f.entry(),
                function_name: f.name().to_string(),
                callsite: op.addr,
                callee: name.to_string(),
                payload_arg,
                in_handler: handler_funcs.contains(&f.entry()),
            });
        }
    }
    units
}

/// Stage 2 for one unit: backward taint from the delivery callsite.
fn field_id_unit(
    engine: &TaintEngine<'_>,
    unit: &MessageUnit,
    ucx: &mut UnitContext,
) -> RawMessage {
    let mut lib_stats = firmres_dataflow::LibStats::default();
    ucx.count(Counter::TaintQueries, 1);
    ucx.taint_query(unit.function, unit.callsite, unit.payload_arg);
    let (tree, stats) = engine.trace_with_stats(unit.function, unit.callsite, unit.payload_arg);
    lib_stats.merge(&stats);
    let unresolved = tree
        .sources()
        .filter(|n| matches!(n.source(), Some(FieldSource::Unresolved { .. })))
        .count();
    if unresolved > 0 {
        ucx.diagnose(Diagnostic::new(
            StageKind::FieldId,
            Severity::Info,
            format!("{}@{:#x}", unit.function_name, unit.callsite),
            format!(
                "{unresolved} unresolved taint source(s) in {} payload",
                unit.callee
            ),
        ));
    }
    let mft = Mft::from_taint(&tree);
    // Endpoint argument (MQTT topic / HTTP path), when distinct.
    let mut endpoint = None;
    if let Some(ep_arg) = delivery_endpoint_arg(&unit.callee) {
        if ep_arg != unit.payload_arg {
            ucx.count(Counter::TaintQueries, 1);
            ucx.taint_query(unit.function, unit.callsite, ep_arg);
            let (ep_tree, stats) = engine.trace_with_stats(unit.function, unit.callsite, ep_arg);
            lib_stats.merge(&stats);
            endpoint = ep_tree.sources().find_map(|n| match n.source() {
                Some(FieldSource::StringConstant { value, .. }) => Some(value.clone()),
                _ => None,
            });
        }
    }
    // Address argument (HTTP host) for the LAN filter.
    let mut host_lan = false;
    if matches!(unit.callee.as_str(), "http_post" | "http_get") {
        ucx.count(Counter::TaintQueries, 1);
        ucx.taint_query(unit.function, unit.callsite, 0);
        let (host_tree, stats) = engine.trace_with_stats(unit.function, unit.callsite, 0);
        lib_stats.merge(&stats);
        host_lan = host_tree.sources().any(|n| {
            matches!(n.source(), Some(FieldSource::StringConstant { value, .. })
                if firmres_mft::is_lan_address(value))
        });
    }
    // Library-summary accounting, emitted only when nonzero so a run
    // without an index keeps its event stream byte-identical.
    if lib_stats.traversals_skipped > 0 {
        ucx.count(Counter::LibTraversalsSkipped, lib_stats.traversals_skipped);
    }
    if lib_stats.summary_applications > 0 {
        ucx.count(Counter::LibSummaryApplies, lib_stats.summary_applications);
    }
    RawMessage {
        function: unit.function_name.clone(),
        callsite: unit.callsite,
        in_handler: unit.in_handler,
        mft,
        endpoint,
        host_lan,
    }
}

/// Stage 3 for one unit: render the field slices and classify each.
///
/// The image-wide "no trained classifier" diagnostic is *not* emitted
/// here — it depends on every unit's output, so the merge (or the legacy
/// stage driver) emits it once after all units.
fn semantics_unit(
    renderer: &SliceRenderer<'_>,
    classes: &UnitClassifier<'_>,
    raw: &RawMessage,
    ucx: &mut UnitContext,
) -> (
    Vec<CodeSlice>,
    Vec<(FieldSource, Primitive)>,
    Vec<Primitive>,
) {
    let rendered = renderer.slices_for_tree(&raw.mft);
    ucx.count(Counter::SlicesRendered, rendered.len() as u64);
    // One call for the whole unit: the optimized mode classifies the
    // batch with a shared featurize pass and the corpus cache. Batch
    // telemetry (SlicesBatched and friends) is warmth- and
    // mode-dependent, so it is *not* emitted into the unit's event
    // buffer — corpus drivers report it from cache stats instead,
    // keeping per-unit events (and thus report bytes) identical across
    // modes and job counts.
    let texts: Vec<&str> = rendered.iter().map(|s| s.text.as_str()).collect();
    let primitives = classes.classify_batch(&texts);
    let labeled = rendered
        .iter()
        .zip(&primitives)
        .map(|(s, primitive)| (s.source.clone(), *primitive))
        .collect();
    (rendered, labeled, primitives)
}

/// Stage 4 for one unit: reconstruct the message, attach recovered
/// semantics by origin, and apply the LAN/echo filters.
fn concat_unit(
    raw: RawMessage,
    slices: Vec<CodeSlice>,
    labeled: Vec<(FieldSource, Primitive)>,
    primitives: Vec<Primitive>,
    ucx: &mut UnitContext,
) -> MessageRecord {
    let RawMessage {
        function,
        callsite,
        in_handler,
        mft,
        endpoint,
        host_lan,
    } = raw;
    let mut message = reconstruct(&mft);
    message.endpoint = endpoint;
    // Attach recovered semantics to fields by matching origins. Each
    // origin keys a FIFO of its primitives: successive fields with the
    // same origin consume successive labels, exactly as the old linear
    // scan-and-remove did, but in O(fields) instead of O(fields²).
    let mut by_origin: HashMap<FieldSource, VecDeque<Primitive>> = HashMap::new();
    for (src, primitive) in labeled {
        by_origin.entry(src).or_default().push_back(primitive);
    }
    for field in &mut message.fields {
        if let Some(primitive) = by_origin
            .get_mut(&field.origin)
            .and_then(VecDeque::pop_front)
        {
            field.semantic = Some(primitive.label().to_string());
            ucx.count(Counter::FieldsMatched, 1);
        }
    }
    let lan_discarded = host_lan || mentions_lan(&mft);
    // A delivery whose payload is entirely network input inside the
    // request handler is the handler's response echo, not a constructed
    // device-cloud message.
    let is_response_echo = in_handler
        && !message.fields.is_empty()
        && message.fields.iter().all(|f| {
            matches!(
                &f.origin,
                FieldSource::LibCall {
                    kind: SourceKind::NetworkIn,
                    ..
                } | FieldSource::Unresolved { .. }
            )
        });
    MessageRecord {
        function,
        callsite,
        mft,
        slices,
        slice_semantics: primitives,
        message,
        lan_discarded,
        is_response_echo,
        flaws: Vec::new(),
    }
}

/// Stage 5 for one unit: fill `flaws` in place for counting records.
fn form_check_unit(record: &mut MessageRecord) {
    if !record.counts() {
        return;
    }
    let endpoint = crate::probe::extract_endpoint(&record.message).unwrap_or_default();
    record.flaws = check_message(&record.message, &endpoint);
}

/// Execute one message unit end to end: taint → slices → semantics →
/// reconstruction → form check, buffering all events in the returned
/// [`UnitOutput`].
///
/// Safe to call from any thread: `engine`, `renderer` and `classes` are
/// `Sync` (their memo caches are lock-protected and only ever filled
/// with deterministic values), and everything else is read-only.
pub fn run_message_unit(
    engine: &TaintEngine<'_>,
    renderer: &SliceRenderer<'_>,
    classes: &UnitClassifier<'_>,
    unit: &MessageUnit,
) -> UnitOutput {
    let mut ucx = UnitContext::new();
    let raw = ucx.run_stage(UnitStage::FieldId, |u| field_id_unit(engine, unit, u));
    let (slices, labeled, primitives) = ucx.run_stage(UnitStage::Semantics, |u| {
        semantics_unit(renderer, classes, &raw, u)
    });
    let mut record = ucx.run_stage(UnitStage::Concat, |u| {
        concat_unit(raw, slices, labeled, primitives, u)
    });
    ucx.run_stage(UnitStage::FormCheck, |_| form_check_unit(&mut record));
    UnitOutput {
        record,
        events: ucx.events,
        taint_keys: ucx.taint_keys,
    }
}

/// Memo hits a single shared engine would report for `keys` issued in
/// this exact order: a query hits iff its key was queried before.
///
/// Replaying the canonical key sequence makes the
/// [`Counter::TaintCacheHits`] total a pure function of the unit list —
/// the engine's own (scheduling-dependent) hit counter is never used by
/// the pipeline, so the count is identical at any job count.
fn memo_hits(keys: impl Iterator<Item = TraceKey>) -> u64 {
    let mut seen = HashSet::new();
    let mut hits = 0;
    for key in keys {
        if !seen.insert(key) {
            hits += 1;
        }
    }
    hits
}

/// Fold completed unit outputs back into the context **in unit order**,
/// replaying each unit's buffered events stage by stage, and return the
/// message records.
///
/// The observer sees exactly the event stream a sequential run produces:
/// stages 2–5 in order, each containing its units' events in canonical
/// unit order, with the stage-global events (taint memo hits, the
/// classifier-fallback diagnostic) at the same positions. Timing buckets
/// receive the *sum of per-unit thread time* — CPU-time semantics, so
/// `perf_breakdown` shares stay meaningful at any job count.
pub fn merge_unit_outputs(
    cx: &mut AnalysisContext<'_>,
    outputs: Vec<UnitOutput>,
    lib_matched: u64,
) -> Vec<MessageRecord> {
    let (records, views): (Vec<_>, Vec<_>) = outputs
        .into_iter()
        .map(|o| {
            let view = UnitView {
                slices_nonempty: !o.record.slices.is_empty(),
                events: o.events,
                taint_keys: o.taint_keys,
            };
            (o.record, view)
        })
        .unzip();
    merge_unit_event_streams(cx, &views, lib_matched);
    records
}

/// The merge-relevant view of one executed message unit: its buffered
/// events, the taint queries it issued, and whether it rendered slices.
///
/// [`UnitOutput`] carries this implicitly; incremental drivers that
/// replay *persisted* unit artifacts (where the record travels as opaque
/// encoded bytes and is never decoded) construct it directly.
#[derive(Debug, Clone, Default)]
pub struct UnitView {
    /// Buffered counter/diagnostic events per stage.
    pub events: UnitEvents,
    /// Taint queries issued, in issue order.
    pub taint_keys: Vec<TraceKey>,
    /// Whether the unit rendered any code slices (drives the image-wide
    /// classifier-fallback diagnostic).
    pub slices_nonempty: bool,
}

/// Replay unit event streams into the context **in unit order** — the
/// event-folding half of [`merge_unit_outputs`], over [`UnitView`]s.
///
/// The stage-global tail events are recomputed from the views: the
/// [`Counter::TaintCacheHits`] total from the canonical concatenated
/// taint-key order, the classifier-fallback diagnostic from the
/// classifier's absence plus any unit having rendered slices. Both are
/// pure functions of the view list, so replaying stored views produces
/// the exact stream a fresh run of the same units emits.
///
/// `lib_matched` is the image-wide count of functions the taint engine
/// hash-matched against the known-library index
/// ([`TaintEngine::lib_matched`] — a pure function of program and index,
/// so warm drivers recompute the identical value). It is emitted as a
/// FieldId-stage tail event only when nonzero, keeping index-less
/// streams byte-identical.
///
/// [`TaintEngine::lib_matched`]: firmres_dataflow::TaintEngine::lib_matched
pub fn merge_unit_event_streams(
    cx: &mut AnalysisContext<'_>,
    units: &[UnitView],
    lib_matched: u64,
) {
    cx.replay_stage(
        StageKind::FieldId,
        units.iter().map(|u| &u.events.field_id),
        |cx| {
            let hits = memo_hits(units.iter().flat_map(|u| u.taint_keys.iter().copied()));
            if hits > 0 {
                cx.count(Counter::TaintCacheHits, hits);
            }
            if lib_matched > 0 {
                cx.count(Counter::LibFnsMatched, lib_matched);
            }
        },
    );
    cx.replay_stage(
        StageKind::Semantics,
        units.iter().map(|u| &u.events.semantics),
        |cx| {
            if cx.inputs.classifier.is_none() && units.iter().any(|u| u.slices_nonempty) {
                cx.diagnose(Diagnostic::bare(
                    StageKind::Semantics,
                    Severity::Info,
                    "no trained classifier; falling back to keyword weak-labeling",
                ));
            }
        },
    );
    cx.replay_stage(
        StageKind::Concat,
        units.iter().map(|u| &u.events.concat),
        |_| {},
    );
    cx.replay_stage(
        StageKind::FormCheck,
        units.iter().map(|u| &u.events.form_check),
        |_| {},
    );
}

// ---------------------------------------------------------------------------
// Stage 1
// ---------------------------------------------------------------------------

/// Stage 1: pinpoint the device-cloud executable (paper §IV-A).
///
/// Every executable entry in the image is tried; among those that parse,
/// lift and exhibit device-cloud handler sequences, the one with the
/// highest handler score wins (earliest image order breaks ties), and the
/// runners-up are noted at info severity. Parse and lift failures become
/// warnings; executables with no handler sequences are noted at info
/// severity.
pub struct ExeIdStage;

/// Probe one executable entry as a device-cloud candidate, buffering the
/// stage-1 counter advances and diagnostics into `events` instead of a
/// live context.
///
/// This is the per-executable body of [`ExeIdStage::run`], factored out so
/// incremental drivers can (re-)probe individual executables and persist
/// or replay their exact event streams: replaying `events` into the
/// ExeId stage reproduces what a live probe of the same bytes emits,
/// event for event. Returns the candidate when the entry parses, lifts
/// and exhibits device-cloud handler sequences.
pub fn probe_executable(
    path: &str,
    bytes: &[u8],
    config: &crate::exeid::ExeIdConfig,
    events: &mut StageEvents,
) -> Option<ChosenExecutable> {
    events.count(Counter::ExecutablesTried, 1);
    let exe = match firmres_isa::Executable::from_bytes(bytes) {
        Ok(exe) => exe,
        Err(e) => {
            events.count(Counter::ParseFailures, 1);
            events.diagnose(Diagnostic::new(
                StageKind::ExeId,
                Severity::Warning,
                path,
                format!("unparseable executable: {e}"),
            ));
            return None;
        }
    };
    let program = match firmres_isa::lift(&exe, path) {
        Ok(program) => program,
        Err(e) => {
            events.count(Counter::LiftFailures, 1);
            events.diagnose(Diagnostic::new(
                StageKind::ExeId,
                Severity::Warning,
                path,
                format!("lift failed: {e}"),
            ));
            return None;
        }
    };
    let handlers = identify_device_cloud(&program, config);
    if handlers.is_empty() {
        events.diagnose(Diagnostic::new(
            StageKind::ExeId,
            Severity::Info,
            path,
            "no device-cloud handler sequences",
        ));
        return None;
    }
    Some(ChosenExecutable {
        path: path.to_string(),
        program,
        handlers,
    })
}

impl ExeIdStage {
    /// Run the stage. `None` means no usable device-cloud executable was
    /// found (the diagnostics say why).
    pub fn run(cx: &mut AnalysisContext<'_>) -> Option<ChosenExecutable> {
        cx.run_stage(StageKind::ExeId, |cx| {
            let mut candidates: Vec<ChosenExecutable> = Vec::new();
            for (path, bytes) in cx.inputs.fw.executables() {
                let mut events = StageEvents::default();
                let candidate = probe_executable(path, bytes, &cx.inputs.config.exeid, &mut events);
                cx.replay_events(&events);
                candidates.extend(candidate);
            }
            rank_candidates(cx, candidates, |c| (&c.path, &c.handlers))
        })
    }
}

/// Pick stage 1's winner among the qualifying executables, given in
/// image order; `describe` yields a candidate's path and handlers.
///
/// Candidates are ranked by their best handler `P_f` (§IV-A scores
/// candidates rather than taking the first hit), earliest image order
/// wins ties, and every runner-up is noted at info severity. The live
/// stage and the unit funnel's verdict replay both rank through here.
pub fn rank_candidates<C>(
    cx: &mut AnalysisContext<'_>,
    mut candidates: Vec<C>,
    describe: impl Fn(&C) -> (&str, &[HandlerInfo]),
) -> Option<C> {
    let score = |c: &C| describe(c).1.iter().fold(0.0, |m: f64, h| m.max(h.score));
    let mut best = 0usize;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        if score(c) > score(&candidates[best]) {
            best = i;
        }
    }
    if candidates.len() > 1 {
        let winner = describe(&candidates[best]).0;
        let winner_score = score(&candidates[best]);
        for (i, c) in candidates.iter().enumerate() {
            if i != best {
                cx.diagnose(Diagnostic::new(
                    StageKind::ExeId,
                    Severity::Info,
                    describe(c).0,
                    format!(
                        "device-cloud candidate (best P_f {:.2}) outscored by {winner} (best P_f {winner_score:.2})",
                        score(c)
                    ),
                ));
            }
        }
    }
    (!candidates.is_empty()).then(|| candidates.swap_remove(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;
    use firmres_corpus::generate_device;

    // The per-stage API: stages 2–5 run stage-major over every unit, as
    // the pipeline did before message units. Production runs units;
    // `stages_compose_to_the_full_pipeline` checks this order against
    // the unit merge.

    /// Stage-3 artifact: rendered slices and their classified semantics,
    /// parallel to the stage-2 [`RawMessage`] list.
    struct SliceSemantics {
        /// Enriched code slices per message (one inner vec per raw message).
        slices: Vec<Vec<CodeSlice>>,
        /// `(field origin, primitive)` pairs per message, consumed by the
        /// concatenation stage's origin matching.
        labeled: Vec<Vec<(FieldSource, Primitive)>>,
        /// Raw primitive per slice, parallel to `slices`.
        primitives: Vec<Vec<Primitive>>,
    }

    /// Stage 2: identify message fields via backward taint per delivery
    /// callsite (paper §IV-B).
    struct FieldIdStage;

    impl FieldIdStage {
        /// Run the stage over the chosen executable, inline on the calling
        /// thread (the unit-parallel path is
        /// [`analyze_firmware_with_jobs`](crate::pipeline::analyze_firmware_with_jobs)).
        fn run(cx: &mut AnalysisContext<'_>, chosen: &ChosenExecutable) -> Vec<RawMessage> {
            cx.run_stage(StageKind::FieldId, |cx| {
                let engine =
                    TaintEngine::with_config(&chosen.program, cx.inputs.config.taint.clone());
                let units = enumerate_units(&chosen.program, &chosen.handlers);
                let mut raws = Vec::with_capacity(units.len());
                let mut keys = Vec::new();
                for unit in &units {
                    let mut ucx = UnitContext::new();
                    let raw =
                        ucx.run_stage(UnitStage::FieldId, |u| field_id_unit(&engine, unit, u));
                    cx.replay_events(&ucx.events.field_id);
                    keys.extend(ucx.taint_keys);
                    raws.push(raw);
                }
                let hits = memo_hits(keys.into_iter());
                if hits > 0 {
                    cx.count(Counter::TaintCacheHits, hits);
                }
                let matched = engine.lib_matched();
                if matched > 0 {
                    cx.count(Counter::LibFnsMatched, matched);
                }
                raws
            })
        }
    }

    /// Stage 3: recover field semantics from enriched code slices (paper
    /// §IV-C).
    struct SemanticsStage;

    impl SemanticsStage {
        /// Run the stage: render one slice per field leaf and classify each.
        fn run(
            cx: &mut AnalysisContext<'_>,
            chosen: &ChosenExecutable,
            raws: &[RawMessage],
        ) -> SliceSemantics {
            cx.run_stage(StageKind::Semantics, |cx| {
                let renderer = SliceRenderer::new(&chosen.program);
                let classes = UnitClassifier::new(cx.inputs.classifier);
                let mut slices = Vec::with_capacity(raws.len());
                let mut labeled = Vec::with_capacity(raws.len());
                let mut primitives = Vec::with_capacity(raws.len());
                for raw in raws {
                    let mut ucx = UnitContext::new();
                    let (s, l, p) = ucx.run_stage(UnitStage::Semantics, |u| {
                        semantics_unit(&renderer, &classes, raw, u)
                    });
                    cx.replay_events(&ucx.events.semantics);
                    slices.push(s);
                    labeled.push(l);
                    primitives.push(p);
                }
                if cx.inputs.classifier.is_none() && slices.iter().any(|s| !s.is_empty()) {
                    cx.diagnose(Diagnostic::bare(
                        StageKind::Semantics,
                        Severity::Info,
                        "no trained classifier; falling back to keyword weak-labeling",
                    ));
                }
                SliceSemantics {
                    slices,
                    labeled,
                    primitives,
                }
            })
        }
    }

    /// Stage 4: concatenate fields into messages; group and LAN-filter
    /// (paper §IV-D).
    struct ConcatStage;

    impl ConcatStage {
        /// Run the stage, consuming the stage-2 and stage-3 artifacts.
        fn run(
            cx: &mut AnalysisContext<'_>,
            raws: Vec<RawMessage>,
            sem: SliceSemantics,
        ) -> Vec<MessageRecord> {
            cx.run_stage(StageKind::Concat, |cx| {
                let mut records = Vec::with_capacity(raws.len());
                for (((raw, slices), labeled), primitives) in raws
                    .into_iter()
                    .zip(sem.slices)
                    .zip(sem.labeled)
                    .zip(sem.primitives)
                {
                    let mut ucx = UnitContext::new();
                    let record = ucx.run_stage(UnitStage::Concat, |u| {
                        concat_unit(raw, slices, labeled, primitives, u)
                    });
                    cx.replay_events(&ucx.events.concat);
                    records.push(record);
                }
                records
            })
        }
    }

    /// Stage 5: message-form checking of the counted records (paper §IV-E).
    struct FormCheckStage;

    impl FormCheckStage {
        /// Run the stage, filling `flaws` in place.
        fn run(cx: &mut AnalysisContext<'_>, records: &mut [MessageRecord]) {
            cx.run_stage(StageKind::FormCheck, |_cx| {
                for r in records.iter_mut() {
                    form_check_unit(r);
                }
            })
        }
    }

    #[test]
    fn stages_compose_to_the_full_pipeline() {
        let dev = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let mut obs = NullObserver;
        let mut cx = AnalysisContext::new(&dev.firmware, None, &config, &mut obs);
        let chosen = ExeIdStage::run(&mut cx).expect("device 10 has a cloud executable");
        assert_eq!(Some(chosen.path.as_str()), dev.cloud_executable.as_deref());
        let raws = FieldIdStage::run(&mut cx, &chosen);
        assert!(!raws.is_empty());
        let sem = SemanticsStage::run(&mut cx, &chosen, &raws);
        assert_eq!(sem.slices.len(), raws.len());
        let mut records = ConcatStage::run(&mut cx, raws, sem);
        FormCheckStage::run(&mut cx, &mut records);
        let analysis = cx.finish(Some(chosen.path), chosen.handlers, records);
        let reference = crate::analyze_firmware(&dev.firmware, None, &AnalysisConfig::default());
        assert_eq!(
            analysis.identified().count(),
            reference.identified().count(),
            "manual stage composition matches the driver"
        );
        assert_eq!(analysis.identified_fields(), reference.identified_fields());
        // The per-stage path and the unit-merge path agree on every
        // observable, not just the headline numbers.
        assert_eq!(analysis.counters, reference.counters);
        assert_eq!(analysis.diagnostics, reference.diagnostics);
    }

    #[test]
    fn context_counters_track_work() {
        let dev = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let mut obs = NullObserver;
        let mut cx = AnalysisContext::new(&dev.firmware, None, &config, &mut obs);
        let chosen = ExeIdStage::run(&mut cx).unwrap();
        let raws = FieldIdStage::run(&mut cx, &chosen);
        assert!(cx.counters().executables_tried >= 1);
        assert!(cx.counters().taint_queries >= raws.len() as u64);
    }

    #[test]
    fn unit_enumeration_is_deterministic() {
        let dev = generate_device(10, 7);
        let config = AnalysisConfig::default();
        let mut obs = NullObserver;
        let mut cx = AnalysisContext::new(&dev.firmware, None, &config, &mut obs);
        let chosen = ExeIdStage::run(&mut cx).unwrap();
        let a = enumerate_units(&chosen.program, &chosen.handlers);
        let b = enumerate_units(&chosen.program, &chosen.handlers);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.callsite, y.callsite);
            assert_eq!(x.callee, y.callee);
        }
    }

    /// Slice-like texts: some the tiny model below separates, some only
    /// the keyword labeler knows, and the empty slice.
    const TEXTS: [&str; 6] = [
        "mac addr device 42",
        "password login 9",
        "uptime counter 3",
        "CALL (Fun, get_mac_addr) mac=%s",
        "(Cons, \"device_key\")",
        "",
    ];

    #[test]
    fn unit_classifier_gives_per_slice_predict_labels_and_counts_them() {
        use firmres_semantics::TrainConfig;
        let data: Vec<(String, Primitive)> = (0..10)
            .flat_map(|i| {
                [
                    (format!("mac addr device {i}"), Primitive::DevIdentifier),
                    (format!("password login {i}"), Primitive::UserCred),
                    (format!("uptime counter {i}"), Primitive::None),
                ]
            })
            .collect();
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let model = Classifier::train(&data, &config);
        let tally = ClassifyTally::default();
        let classes = UnitClassifier::counted(Some(&model), &tally);
        let labels = classes.classify_batch(&TEXTS);
        for (text, got) in TEXTS.iter().zip(&labels) {
            assert_eq!(*got, model.predict(text).0, "on {text:?}");
        }
        classes.classify_batch(&TEXTS[..2]);
        assert_eq!(tally.batched(), 8);
        let skips = model.predict_batch(&TEXTS, true).prefilter_skips
            + model.predict_batch(&TEXTS[..2], true).prefilter_skips;
        assert_eq!(tally.prefilter_skips(), skips);
    }

    #[test]
    fn unit_classifier_weak_labels_without_a_model() {
        let tally = ClassifyTally::default();
        let labels = UnitClassifier::counted(None, &tally).classify_batch(&TEXTS);
        for (text, got) in TEXTS.iter().zip(&labels) {
            assert_eq!(*got, firmres_semantics::weak_label(text), "on {text:?}");
        }
        assert_eq!(tally.batched(), TEXTS.len() as u64);
        assert_eq!(tally.prefilter_skips(), 0);
        assert_eq!(UnitClassifier::new(None).classify_batch(&TEXTS), labels);
    }

    #[test]
    fn memo_hits_replays_the_canonical_order() {
        let k = |a: u64, b: u64, c: usize| (a, b, c);
        assert_eq!(memo_hits([].into_iter()), 0);
        assert_eq!(memo_hits([k(1, 2, 0), k(1, 2, 1)].into_iter()), 0);
        assert_eq!(
            memo_hits([k(1, 2, 0), k(1, 2, 0), k(1, 2, 0)].into_iter()),
            2
        );
    }
}
