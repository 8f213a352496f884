//! The four timed workloads and their correctness gates.
//!
//! Served workloads drive a daemon process with `firmres_service::run_load`
//! over `nproc` connections from this one process; the sweep runs
//! `firmres::analyze_corpus` in a worker process of its own, so each
//! workload's peak memory is the program's, not the benchmark's.
//!
//! The work of a run is fixed by `--seed`, `--seconds` and `--scale`
//! (each workload's rate constant below sizes it to last about
//! `--seconds` on two CPUs), never by how fast the program is, so a
//! faster program finishes the same work sooner. Every timed phase runs
//! in [`CHUNKS`] chunks; throughput is the median of the chunks' rates,
//! which keeps a burst of interference on a shared machine from moving
//! the number.

use crate::daemon::{peak_rss_mb, Daemon, DaemonSpec};
use crate::inputs::{self, nproc, MAX_VERSION};
use crate::report::Outcome;
use crate::stats::{highest_supported_percentile, median};
use firmres::{analyze_corpus, analyze_firmware, AnalysisConfig, FirmwareAnalysis, NullObserver};
use firmres_cache::{analyze_corpus_incremental, AnalysisCache};
use firmres_firmware::content_hash_packed_wide;
use firmres_semantics::Classifier;
use firmres_service::{run_load, Client, LatencyHistogram, LoadConfig, SubmitImage};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Daemon starts (or model and index loads) per run; `setup_s` takes
/// their median.
pub const SETUPS: usize = 9;
/// Chunks each timed phase is split into.
const CHUNKS: usize = 10;
/// `cold` devices per second of `--seconds`.
const COLD_PER_SECOND: f64 = 100.0;
/// `warm` open-loop arrival rate, requests per second: low enough that
/// on two connections a send rarely waits for the previous answer.
const WARM_RATE: f64 = 300.0;
/// Devices primed into the `warm` store (× scale).
const WARM_DEVICES: usize = 400;
/// Open-loop sends that may start late before the run counts as broken.
const MAX_LATE_SHARE: f64 = 0.05;
/// `update` devices per second of `--seconds`; each gets
/// [`UPDATE_ROUNDS`] updates.
const UPDATE_DEVICES_PER_SECOND: f64 = 40.0;
/// Update rounds: versions 2 to `UPDATE_ROUNDS + 1`, leaving the next
/// version for the gate.
const UPDATE_ROUNDS: u32 = MAX_VERSION - 2;
/// `sweep` images per second of `--seconds`.
const SWEEP_PER_SECOND: f64 = 75.0;
/// Images per `analyze_corpus` call in the sweep; one call's wall time
/// is one latency sample.
const SWEEP_BATCH: usize = 16;
/// Requests (or images) each correctness gate checks.
pub const GATE: usize = 32;

/// What every workload needs: the seed, sizes, the scratch directory
/// inside the checkout, and the trained model.
pub struct Ctx {
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub work: PathBuf,
    pub model_path: PathBuf,
    pub model: Classifier,
}

impl Ctx {
    /// `base` scaled by `--scale`, never below `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }

    /// `per_second × --seconds`, scaled by `--scale`, never below `min`.
    fn sized(&self, per_second: f64, min: usize) -> usize {
        self.scaled((per_second * self.seconds).round() as usize, min)
    }

    fn spec<'a>(&'a self, store: &'a Path) -> DaemonSpec<'a> {
        DaemonSpec {
            work: &self.work,
            model: &self.model_path,
            store,
            libid: None,
        }
    }
}

/// The cache codec's bytes for `analysis` with everything that
/// legitimately differs between a served and a local run zeroed: stage
/// timings, and the counters that depend on cache warmth rather than on
/// the image.
pub fn canonical(analysis: &mut FirmwareAnalysis) -> Vec<u8> {
    analysis.timings = Default::default();
    let c = &mut analysis.counters;
    c.cache_hits = 0;
    c.cache_misses = 0;
    c.cache_bytes_read = 0;
    c.cache_bytes_written = 0;
    c.slices_batched = 0;
    c.prefilter_skips = 0;
    c.class_cache_hits = 0;
    let mut out = Vec::new();
    firmres_cache::codec::put_analysis(&mut out, analysis);
    out
}

/// Fill `store` with the analyses of `images` in-process, through the
/// same incremental driver and key the daemon uses. Returns the seconds
/// it took.
pub fn prime(ctx: &Ctx, store: &Path, images: &[Vec<u8>]) -> f64 {
    let t0 = Instant::now();
    let fws: Vec<_> = images.iter().map(|p| inputs::unpack(p)).collect();
    let refs: Vec<_> = fws.iter().collect();
    let cache = AnalysisCache::new(store);
    analyze_corpus_incremental(
        &refs,
        Some(&ctx.model),
        &AnalysisConfig::default(),
        nproc(),
        &cache,
        &mut NullObserver,
    );
    t0.elapsed().as_secs_f64()
}

/// Start a daemon [`SETUPS`] times over `store`, keeping the last one
/// running. Returns it with the median spawn-to-listening time plus
/// `prime_s`, the time spent priming the store beforehand: together,
/// the set-up the timed phase needs.
fn start_daemon(
    o: &mut Outcome,
    ctx: &Ctx,
    store: &Path,
    prime_s: f64,
) -> Result<(Daemon, f64), String> {
    let mut starts = Vec::with_capacity(SETUPS);
    loop {
        let (daemon, took) = Daemon::start(&ctx.spec(store))?;
        starts.push(took.as_secs_f64());
        if starts.len() == SETUPS {
            o.extra("prime_s", prime_s, "s");
            o.extra("daemon_start_s", median(&starts), "s");
            return Ok((daemon, prime_s + median(&starts)));
        }
        daemon.stop()?;
    }
}

/// `items` split into [`CHUNKS`] consecutive, nearly equal parts.
fn chunked<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let per = items.len().div_ceil(CHUNKS).max(1);
    let mut out = Vec::with_capacity(CHUNKS);
    let mut it = items.into_iter().peekable();
    while it.peek().is_some() {
        out.push(it.by_ref().take(per).collect());
    }
    out
}

/// What one timed phase measured, chunk by chunk.
struct Phase {
    /// Every request's (or sweep batch's) latency.
    latency: LatencyHistogram,
    /// Completions per second of each chunk.
    rates: Vec<f64>,
    submitted: u64,
    completed: u64,
    from_cache: u64,
    behind_schedule: u64,
    elapsed: Duration,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            latency: LatencyHistogram::new(),
            rates: Vec::new(),
            submitted: 0,
            completed: 0,
            from_cache: 0,
            behind_schedule: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Submit one chunk through the load driver: closed loop when
    /// `rate` is 0, else open loop at `rate` requests per second.
    fn served_chunk(
        &mut self,
        daemon: &Daemon,
        items: &[SubmitImage],
        rate: f64,
    ) -> Result<(), String> {
        let r = run_load(
            daemon.addr,
            items,
            &LoadConfig {
                connections: nproc(),
                rate,
                requests: items.len(),
                ..LoadConfig::default()
            },
        )?;
        self.latency.merge(&r.latency);
        self.rates
            .push(r.completed as f64 / r.elapsed.as_secs_f64().max(1e-9));
        self.submitted += r.submitted;
        self.completed += r.completed;
        self.from_cache += r.from_cache;
        self.behind_schedule += r.behind_schedule;
        self.elapsed += r.elapsed;
        Ok(())
    }

    /// Record the end-to-end metrics, and fail what did not complete.
    fn finish(&self, o: &mut Outcome, setup_s: f64, rss_mb: f64) {
        o.attempted += self.submitted;
        let lost = self.submitted - self.completed;
        if lost > 0 {
            o.fail(
                lost,
                format!("{lost} timed request(s) rejected, cancelled or errored"),
            );
        }
        let ms = |q: f64| self.latency.value_at(q) as f64 / 1e6;
        o.metric("setup_s", setup_s, "s");
        o.metric("throughput_per_s", median(&self.rates), "1/s");
        o.metric("latency_p50_ms", ms(0.50), "ms");
        o.metric("latency_p90_ms", ms(0.90), "ms");
        o.metric("rss_peak_mb", rss_mb, "MB");
        o.extra("latency_samples", self.latency.count() as f64, "count");
        o.extra("latency_p99_ms", ms(0.99), "ms");
        o.extra("latency_p999_ms", ms(0.999), "ms");
        if let Some(p) = highest_supported_percentile(self.latency.count()) {
            o.extra("latency_tail_percentile", p, "percentile");
            o.extra("latency_tail_ms", ms(p / 100.0), "ms");
        }
        o.extra("timed_s", self.elapsed.as_secs_f64(), "s");
    }
}

/// Submit `requests` on one connection and compare each answer with a
/// local `analyze_firmware` of the same image, byte for byte.
fn served_gate(
    o: &mut Outcome,
    ctx: &Ctx,
    daemon: &Daemon,
    requests: &[(SubmitImage, &[u8])],
    expect_cache: bool,
) -> Result<(), String> {
    let config = AnalysisConfig::default();
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("gate connect: {e}"))?;
    for (i, (image, packed)) in requests.iter().enumerate() {
        o.attempted += 1;
        let local = canonical(&mut analyze_firmware(
            &inputs::unpack(packed),
            Some(&ctx.model),
            &config,
        ));
        match client.submit(image.clone(), &config, false, 0) {
            Ok(served) if served.from_cache != expect_cache => o.fail(
                1,
                format!(
                    "gate request {i}: from_cache = {}, expected {expect_cache}",
                    served.from_cache
                ),
            ),
            Ok(mut served) => {
                if canonical(&mut served.analysis) != local {
                    o.fail(
                        1,
                        format!("gate request {i}: served report differs from local analysis"),
                    );
                }
            }
            Err(e) => o.fail(1, format!("gate request {i}: {e}")),
        }
    }
    Ok(())
}

/// By-bytes gate requests for `images`.
fn by_bytes(images: &[Vec<u8>]) -> Vec<(SubmitImage, &[u8])> {
    images
        .iter()
        .map(|p| (SubmitImage::Bytes(p.clone()), p.as_slice()))
        .collect()
}

/// Run one timed workload.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "cold" => cold(ctx),
        "warm" => warm(ctx),
        "update" => update(ctx),
        "sweep" => sweep(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Every request is a device the daemon has never seen: the whole
/// miss path runs. Each chunk's devices are generated just before it
/// is submitted, outside the timed part.
fn cold(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new("cold");
    let store = ctx.work.join("store-cold");
    let (daemon, setup_s) = start_daemon(&mut o, ctx, &store, 0.0)?;
    let total = ctx.sized(COLD_PER_SECOND, CHUNKS);
    let mut phase = Phase::new();
    for chunk in chunked((0..total as u32).collect()) {
        let items: Vec<SubmitImage> = inputs::fleet(ctx.seed, chunk[0], chunk.len(), false)
            .into_iter()
            .map(SubmitImage::Bytes)
            .collect();
        phase.served_chunk(&daemon, &items, 0.0)?;
    }
    if phase.from_cache > 0 {
        o.fail(
            phase.from_cache,
            format!("{} cold request(s) hit the cache", phase.from_cache),
        );
    }
    let rss = daemon.peak_rss_mb()?;
    let gate = inputs::fleet(ctx.seed, total as u32, GATE, false);
    served_gate(&mut o, ctx, &daemon, &by_bytes(&gate), false)?;
    daemon.stop()?;
    phase.finish(&mut o, setup_s, rss);
    Ok(o)
}

/// A primed store, a restarted daemon, and open-loop hits alternating
/// by-bytes and by-hash submits.
fn warm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new("warm");
    let store = ctx.work.join("store-warm");
    let devices = inputs::fleet(ctx.seed, 0, ctx.scaled(WARM_DEVICES, 8), false);
    let prime_s = prime(ctx, &store, &devices);
    let (daemon, setup_s) = start_daemon(&mut o, ctx, &store, prime_s)?;
    let request = |i: usize| {
        let p = &devices[(i / 2) % devices.len()];
        if i.is_multiple_of(2) {
            SubmitImage::Bytes(p.clone())
        } else {
            SubmitImage::Hash(content_hash_packed_wide(p))
        }
    };
    let total = ctx.sized(WARM_RATE, CHUNKS);
    let mut phase = Phase::new();
    for chunk in chunked((0..total).collect()) {
        let items: Vec<SubmitImage> = chunk.into_iter().map(request).collect();
        phase.served_chunk(&daemon, &items, WARM_RATE)?;
    }
    let misses = phase.completed - phase.from_cache;
    if misses > 0 {
        o.fail(
            misses,
            format!("{misses} warm request(s) missed the primed store"),
        );
    }
    let late = phase.behind_schedule as f64 / phase.submitted.max(1) as f64;
    o.extra("generator_late_share", late, "ratio");
    if late > MAX_LATE_SHARE {
        o.fail(
            0,
            format!("open loop ran late on {:.1}% of sends", late * 100.0),
        );
    }
    let rss = daemon.peak_rss_mb()?;
    let gate: Vec<_> = (0..GATE)
        .map(|i| (request(i), devices[(i / 2) % devices.len()].as_slice()))
        .collect();
    served_gate(&mut o, ctx, &daemon, &gate, true)?;
    daemon.stop()?;
    phase.finish(&mut o, setup_s, rss);
    Ok(o)
}

/// A store primed at v1, a restarted daemon, then rounds of updates:
/// round `r` submits version `r + 1` of every device by bytes. Each
/// round is one chunk.
fn update(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::new("update");
    let store = ctx.work.join("store-update");
    let v1 = inputs::updatable_fleet(ctx.seed, ctx.sized(UPDATE_DEVICES_PER_SECOND, 8));
    let prime_s = prime(ctx, &store, &v1);
    let (daemon, setup_s) = start_daemon(&mut o, ctx, &store, prime_s)?;
    let before = daemon.status()?;
    let mut phase = Phase::new();
    for version in 2..UPDATE_ROUNDS + 2 {
        let items: Vec<SubmitImage> = inputs::updates(&v1, ctx.seed, version)
            .into_iter()
            .map(SubmitImage::Bytes)
            .collect();
        phase.served_chunk(&daemon, &items, 0.0)?;
    }
    if phase.from_cache > 0 {
        o.fail(
            phase.from_cache,
            format!("{} update request(s) hit an image entry", phase.from_cache),
        );
    }
    let rss = daemon.peak_rss_mb()?;
    let after = daemon.status()?;
    if after.unit_hits == before.unit_hits {
        o.fail(0, "no update request spliced a stored unit".to_string());
    }
    let gate = inputs::updates(&v1[..GATE.min(v1.len())], ctx.seed, UPDATE_ROUNDS + 2);
    served_gate(&mut o, ctx, &daemon, &by_bytes(&gate), false)?;
    if daemon.status()?.unit_hits == after.unit_hits {
        o.fail(0, "the gate's update spliced no stored unit".to_string());
    }
    daemon.stop()?;
    phase.finish(&mut o, setup_s, rss);
    Ok(o)
}

/// The sweep runs in a worker process (see [`sweep_worker`]); this side
/// builds its index file and collects what it prints.
fn sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let index = inputs::build_roster_index(&ctx.work)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("sweep-worker")
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--scale", &ctx.scale.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .arg("--model")
        .arg(&ctx.model_path)
        .arg("--index")
        .arg(&index)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn sweep worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("sweep worker exited with {}", out.status));
    }
    let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    Outcome::from_lines("sweep", &String::from_utf8_lossy(&out.stdout), &names)
}

/// Arguments of the `sweep-worker` process.
pub struct SweepArgs {
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub model: PathBuf,
    pub index: PathBuf,
}

/// The sweep itself: distinct library-linking devices through
/// `analyze_corpus` on `nproc` threads, [`SWEEP_BATCH`] images per
/// call. `setup_s` is loading the model and the index.
pub fn sweep_worker(args: &SweepArgs) -> Result<Outcome, String> {
    let mut o = Outcome::new("sweep");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut loaded = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let model = inputs::load_model(&args.model)?;
        let index = inputs::load_index(&args.index)?;
        setups.push(t0.elapsed().as_secs_f64());
        loaded = Some((model, index));
    }
    let (model, index) = loaded.expect("SETUPS > 0");
    let config = inputs::libid_config(Arc::new(index));
    let total = ((SWEEP_PER_SECOND * args.seconds * args.scale).round() as usize).max(CHUNKS);

    // Each chunk's devices are made just before it runs, outside the
    // timed part, so peak memory is the sweep's, not the fleet's.
    let mut phase = Phase::new();
    for chunk in chunked((0..total as u32).collect()) {
        let n = chunk.len();
        let fleet: Vec<_> = inputs::fleet(args.seed, chunk[0], n, true)
            .iter()
            .map(|p| inputs::unpack(p))
            .collect();
        let mut took = Duration::ZERO;
        for batch in fleet.chunks(SWEEP_BATCH) {
            let refs: Vec<_> = batch.iter().collect();
            let t0 = Instant::now();
            std::hint::black_box(analyze_corpus(&refs, Some(&model), &config, nproc()));
            let t = t0.elapsed();
            phase.latency.record(t.as_nanos() as u64);
            took += t;
        }
        phase.rates.push(n as f64 / took.as_secs_f64().max(1e-9));
        phase.submitted += n as u64;
        phase.completed += n as u64;
        phase.elapsed += took;
    }
    let rss = peak_rss_mb(std::process::id())?;

    // Gate: the parallel sweep and a sequential one agree byte for byte.
    let fleet: Vec<_> = inputs::fleet(args.seed, 0, GATE, true)
        .iter()
        .map(|p| inputs::unpack(p))
        .collect();
    let gate: Vec<_> = fleet.iter().collect();
    let parallel = analyze_corpus(&gate, Some(&model), &config, nproc());
    for (i, (fw, mut par)) in gate.iter().zip(parallel).enumerate() {
        o.attempted += 1;
        if canonical(&mut par) != canonical(&mut analyze_firmware(fw, Some(&model), &config)) {
            o.fail(
                1,
                format!("gate image {i}: parallel sweep differs from sequential"),
            );
        }
    }
    phase.finish(&mut o, median(&setups), rss);
    o.extra("batch_images", SWEEP_BATCH as f64, "count");
    Ok(o)
}
