//! Pipeline observability: the [`Observer`] trait, owned [`Event`]
//! values, and per-stage counters.
//!
//! The staged pipeline ([`crate::stages`]) reports *everything it does* —
//! stage boundaries with timing, per-stage work counters, and structured
//! [`Diagnostic`]s — through a caller-supplied [`Observer`] instead of
//! ad-hoc inline timing. [`analyze_firmware`] uses [`NullObserver`];
//! callers that want live progress or telemetry pass their own
//! implementation to [`analyze_firmware_with`]. The analysis result
//! always carries the accumulated [`StageTimings`], [`StageCounters`]
//! and diagnostics regardless of the observer.
//!
//! The `Observer` trait itself is a single-threaded adapter (`&mut
//! self`). The unit-parallel stages 2–5 therefore never call it from a
//! worker: each message unit buffers its counter/diagnostic events as
//! owned, `Send` [`Event`] values in a [`StageEvents`] buffer, the pool
//! funnels the buffers back over its channel, and the merge step replays
//! them into the observer in deterministic unit order (see
//! [`crate::stages`]).
//!
//! [`analyze_firmware`]: crate::analyze_firmware
//! [`analyze_firmware_with`]: crate::analyze_firmware_with
//! [`StageTimings`]: crate::StageTimings

use crate::error::{Diagnostic, StageKind};
use std::time::Duration;

/// Declares the pipeline counters once. Each row is `doc, Variant =>
/// field`; the macro generates the [`Counter`] variant (whose tag is the
/// row index), [`Counter::ALL`], [`Counter::from_tag`], the
/// [`StageCounters`] field and its arm of the one accessor behind
/// [`StageCounters::record`] and [`StageCounters::get`].
macro_rules! counter_table {
    ($($(#[doc = $doc:literal])+ $variant:ident => $field:ident,)+) => {
        /// Which [`StageCounters`] field an event increments. The
        /// discriminant is the counter's tag in the cache codec and on
        /// the wire.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in tag order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];
        }

        /// Per-stage work counters accumulated over one analysis.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StageCounters {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// Always 0: no [`Counter`] feeds it since the corpus-wide
            /// class cache was removed. Kept, with its slot after the
            /// table's in the cache codec's counter block, so stored
            /// entries and the outside-in benchmark
            /// (`firmres-benchmark/`) keep their layout and build.
            pub class_cache_hits: u64,
        }

        impl StageCounters {
            fn slot(&mut self, counter: Counter) -> &mut u64 {
                match counter {
                    $(Counter::$variant => &mut self.$field,)+
                }
            }
        }
    };
}

counter_table! {
    /// Executable entries attempted during pinpointing (stage 1).
    ExecutablesTried => executables_tried,
    /// Executables that failed MRE parsing (stage 1).
    ParseFailures => parse_failures,
    /// Executables that parsed but failed to lift to IR (stage 1).
    LiftFailures => lift_failures,
    /// Backward-taint queries issued: payload, endpoint and host traces
    /// (stage 2).
    TaintQueries => taint_queries,
    /// Taint queries answered from the engine's memo cache (stage 2).
    TaintCacheHits => taint_cache_hits,
    /// Enriched code slices rendered for classification (stage 3).
    SlicesRendered => slices_rendered,
    /// Message fields matched to a recovered semantic primitive
    /// (stage 4).
    FieldsMatched => fields_matched,
    /// Analysis-cache lookups answered from the store (corpus drivers;
    /// always 0 inside one pipeline run, since cached results skip the
    /// pipeline entirely).
    CacheHits => cache_hits,
    /// Analysis-cache lookups that missed, including corrupted entries
    /// that fell back to re-analysis (corpus drivers).
    CacheMisses => cache_misses,
    /// Bytes read from the analysis cache store.
    CacheBytesRead => cache_bytes_read,
    /// Bytes written to the analysis cache store.
    CacheBytesWritten => cache_bytes_written,
    /// Functions hash-matched against the known-library index (stage 2).
    LibFnsMatched => lib_fns_matched,
    /// Library-body traversals replaced by taint-script replay (stage 2).
    LibTraversalsSkipped => lib_traversals_skipped,
    /// Taint-tree nodes emitted by script replay (stage 2).
    LibSummaryApplies => lib_summary_applies,
    /// Slice texts classified through the batched semantics path
    /// (stage 3; corpus drivers — warmth-dependent, so never emitted
    /// per unit).
    SlicesBatched => slices_batched,
    /// Slices the certified None pre-filter resolved without scoring
    /// (corpus drivers; see `slices_batched` on why).
    PrefilterSkips => prefilter_skips,
}

impl Counter {
    /// This counter's tag: its row in the counter table.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The counter with tag `tag`, or `None` past the table's end.
    pub fn from_tag(tag: u8) -> Option<Counter> {
        Counter::ALL.get(usize::from(tag)).copied()
    }
}

impl StageCounters {
    /// Add `n` to the counter identified by `counter`.
    pub fn record(&mut self, counter: Counter, n: u64) {
        *self.slot(counter) += n;
    }

    /// Read the counter identified by `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        // Reading through a copy keeps `slot` the one accessor.
        let mut copy = *self;
        *copy.slot(counter)
    }
}

/// One pipeline event as a plain owned value.
///
/// Unlike the [`Observer`] callbacks, an `Event` borrows nothing: it is
/// `Send + 'static`, so message units running on worker threads can
/// buffer the events they produce and hand them back across the pool's
/// channel for deterministic replay.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A stage is about to run.
    StageStarted(StageKind),
    /// A stage finished after the given wall-clock time.
    StageFinished(StageKind, Duration),
    /// A work counter advanced by `n`.
    Count(Counter, u64),
    /// A diagnostic was recorded.
    Diagnostic(Diagnostic),
}

/// The events one message unit produced in one pipeline stage, in
/// emission order, plus the CPU time the unit spent there.
///
/// This is the thread-safe half of the observability story: workers fill
/// `StageEvents` buffers (plain `Send` values — the pool's result channel
/// is the fan-in), and the merge step replays them into the
/// single-threaded [`Observer`] in unit order, so the observer sees the
/// same deterministic stream whatever the job count.
#[derive(Debug, Clone, Default)]
pub struct StageEvents {
    /// Counter and diagnostic events in emission order.
    pub events: Vec<Event>,
    /// CPU time the unit spent in the stage (summed into the stage's
    /// [`StageTimings`] bucket at merge).
    ///
    /// [`StageTimings`]: crate::StageTimings
    pub elapsed: Duration,
}

impl StageEvents {
    /// Record a counter advance.
    pub fn count(&mut self, counter: Counter, n: u64) {
        self.events.push(Event::Count(counter, n));
    }

    /// Record a diagnostic.
    pub fn diagnose(&mut self, diagnostic: Diagnostic) {
        self.events.push(Event::Diagnostic(diagnostic));
    }

    /// Replay the buffered events into `observer`, preserving emission
    /// order.
    pub fn replay(&self, observer: &mut dyn Observer) {
        for ev in &self.events {
            match ev {
                Event::StageStarted(stage) => observer.stage_started(*stage),
                Event::StageFinished(stage, elapsed) => observer.stage_finished(*stage, *elapsed),
                Event::Count(counter, n) => observer.count(*counter, *n),
                Event::Diagnostic(d) => observer.diagnostic(d),
            }
        }
    }
}

/// Receives pipeline events as they happen.
///
/// All methods have empty default bodies, so an implementation only
/// overrides what it cares about. Events arrive strictly in pipeline
/// order within one analysis; for the unit-parallel stages that order is
/// reconstructed at merge time (per-unit buffers replayed in unit
/// order), not the workers' completion order.
pub trait Observer {
    /// A stage is about to run.
    fn stage_started(&mut self, stage: StageKind) {
        let _ = stage;
    }

    /// A stage finished after `elapsed` wall-clock time.
    fn stage_finished(&mut self, stage: StageKind, elapsed: Duration) {
        let _ = (stage, elapsed);
    }

    /// A work counter advanced by `n`.
    fn count(&mut self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// A diagnostic was recorded.
    fn diagnostic(&mut self, diagnostic: &Diagnostic) {
        let _ = diagnostic;
    }
}

/// The do-nothing observer used by the infallible convenience entry
/// points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// An observer that records everything it sees — stage timings in
/// pipeline order, accumulated counters, and cloned diagnostics.
///
/// Useful in tests and tools that want the event stream without
/// implementing [`Observer`] themselves.
#[derive(Debug, Clone, Default)]
pub struct CollectingObserver {
    /// `(stage, elapsed)` pairs in the order stages finished.
    pub stages: Vec<(StageKind, Duration)>,
    /// Accumulated counters.
    pub counters: StageCounters,
    /// All diagnostics, in the order they were recorded.
    pub diagnostics: Vec<Diagnostic>,
}

impl Observer for CollectingObserver {
    fn stage_finished(&mut self, stage: StageKind, elapsed: Duration) {
        self.stages.push((stage, elapsed));
    }

    fn count(&mut self, counter: Counter, n: u64) {
        self.counters.record(counter, n);
    }

    fn diagnostic(&mut self, diagnostic: &Diagnostic) {
        self.diagnostics.push(diagnostic.clone());
    }
}

/// An observer that forwards every callback as an owned [`Event`] to a
/// closure.
///
/// This is the bridge between the borrow-based [`Observer`] trait and
/// consumers that need `Send + 'static` values — the `firmres-service`
/// daemon wraps one around a frame encoder to stream live pipeline
/// progress to a remote client, and tests use it to capture the raw
/// event stream.
#[derive(Debug)]
pub struct FnObserver<F: FnMut(Event)> {
    sink: F,
}

impl<F: FnMut(Event)> FnObserver<F> {
    /// Forward every event to `sink`.
    pub fn new(sink: F) -> Self {
        FnObserver { sink }
    }
}

impl<F: FnMut(Event)> Observer for FnObserver<F> {
    fn stage_started(&mut self, stage: StageKind) {
        (self.sink)(Event::StageStarted(stage));
    }

    fn stage_finished(&mut self, stage: StageKind, elapsed: Duration) {
        (self.sink)(Event::StageFinished(stage, elapsed));
    }

    fn count(&mut self, counter: Counter, n: u64) {
        (self.sink)(Event::Count(counter, n));
    }

    fn diagnostic(&mut self, diagnostic: &Diagnostic) {
        (self.sink)(Event::Diagnostic(diagnostic.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Severity;

    #[test]
    fn counters_round_trip() {
        let mut c = StageCounters::default();
        c.record(Counter::TaintQueries, 3);
        c.record(Counter::TaintQueries, 2);
        c.record(Counter::FieldsMatched, 1);
        assert_eq!(c.get(Counter::TaintQueries), 5);
        assert_eq!(c.get(Counter::FieldsMatched), 1);
        assert_eq!(c.get(Counter::LiftFailures), 0);
    }

    #[test]
    fn every_counter_has_its_own_slot_and_tag() {
        let mut c = StageCounters::default();
        for (k, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(usize::from(counter.tag()), k, "{counter:?}");
            assert_eq!(Counter::from_tag(counter.tag()), Some(counter));
            c.record(counter, k as u64 + 1);
        }
        for (k, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.get(counter), k as u64 + 1, "{counter:?}");
        }
        assert_eq!(c.class_cache_hits, 0, "no counter feeds the legacy slot");
        assert_eq!(Counter::from_tag(Counter::ALL.len() as u8), None);
        assert_eq!(Counter::from_tag(u8::MAX), None);
    }

    #[test]
    fn fn_observer_bridges_callbacks_to_owned_events() {
        let mut seen = Vec::new();
        {
            let mut obs = FnObserver::new(|ev| seen.push(ev));
            obs.stage_started(StageKind::FieldId);
            obs.count(Counter::TaintQueries, 2);
            obs.diagnostic(&Diagnostic::bare(StageKind::FieldId, Severity::Info, "d"));
            obs.stage_finished(StageKind::FieldId, Duration::from_millis(1));
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], Event::StageStarted(StageKind::FieldId));
        assert_eq!(
            seen[3],
            Event::StageFinished(StageKind::FieldId, Duration::from_millis(1))
        );
        // Replaying the captured stream into a collector reconstructs it.
        let events = StageEvents {
            events: seen,
            ..StageEvents::default()
        };
        let mut collector = CollectingObserver::default();
        events.replay(&mut collector);
        assert_eq!(collector.counters.taint_queries, 2);
        assert_eq!(collector.stages.len(), 1);
        assert_eq!(collector.diagnostics.len(), 1);
    }

    #[test]
    fn collecting_observer_records_events() {
        let mut obs = CollectingObserver::default();
        obs.stage_started(StageKind::ExeId);
        obs.stage_finished(StageKind::ExeId, Duration::from_millis(2));
        obs.count(Counter::ExecutablesTried, 4);
        obs.diagnostic(&Diagnostic::bare(StageKind::ExeId, Severity::Warning, "x"));
        assert_eq!(
            obs.stages,
            vec![(StageKind::ExeId, Duration::from_millis(2))]
        );
        assert_eq!(obs.counters.executables_tried, 4);
        assert_eq!(obs.diagnostics.len(), 1);
    }
}
