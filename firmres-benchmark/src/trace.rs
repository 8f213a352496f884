//! The traced run: per-layer times and counts, measured from outside
//! the program by timing calls into each layer's public functions.
//!
//! For a seeded sample of the workload's requests, the call chain the
//! daemon's `handle_submit`/`run_job` performs is replayed in-process
//! on one thread, with a span around every top-level call:
//!
//! * hit (warm): decode → key → load → encode → frame;
//! * miss (cold, update): decode → key → load → unpack → funnel →
//!   decode → store → encode → frame;
//! * sweep: unpack → `analyze_firmware`, what `analyze_corpus` does per
//!   image.
//!
//! `warm` and `update` first prime their store through the miss chain,
//! and the sweep replays its sample through the served miss chain too,
//! so every served layer has a value on every workload; a layer absent
//! from a workload's own chain takes its value from that pass. A second
//! pass over the same images times the sub-layers (MRE load and lift,
//! the pipeline and its stage timings, batch classification), so
//! nothing is counted twice. Right after each replayed request, a
//! daemon started from a copy of the same store serves it on one
//! connection; what it adds over the in-process chain is the server's
//! queue, io-shard park and socket time.

use crate::daemon::{Daemon, DaemonSpec};
use crate::inputs::{self, nproc};
use crate::report::Outcome;
use crate::stats::median;
use crate::workloads::{canonical, Ctx};
use firmres::{analyze_corpus, analyze_firmware, AnalysisConfig, FirmwareAnalysis, NullObserver};
use firmres_cache::codec::{get_analysis, put_analysis, Reader};
use firmres_cache::{
    analyze_image_units_incremental, classifier_fingerprint, AnalysisCache, CacheKey,
};
use firmres_firmware::{content_hash_packed_wide, FirmwareImage};
use firmres_service::wire::{read_response, send_request};
use firmres_service::{Request, Response, SubmitImage, PROTOCOL_VERSION};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("wire.request_decode_us", "us"),
    ("wire.response_encode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("key.image_hash_us", "us"),
    ("key.classifier_fp_us", "us"),
    ("key.total_us", "us"),
    ("store.load_us", "us"),
    ("store.write_us", "us"),
    ("store.entry_bytes", "bytes"),
    ("store.unit_bytes_per_miss", "bytes"),
    ("store.open_ms", "ms"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.analysis_bytes", "bytes"),
    ("unit.funnel_us", "us"),
    ("unit.reuse_ratio", "ratio"),
    ("unit.verdict_hit_ratio", "ratio"),
    ("unit.bytes_written", "bytes"),
    ("firmware.unpack_us", "us"),
    ("isa.load_us", "us"),
    ("isa.lift_us", "us"),
    ("isa.executables", "count"),
    ("core.pipeline_us", "us"),
    ("core.exeid_us", "us"),
    ("core.field_id_us", "us"),
    ("core.semantics_us", "us"),
    ("core.concat_us", "us"),
    ("core.form_check_us", "us"),
    ("core.unattributed_us", "us"),
    ("driver.parallel_efficiency", "ratio"),
    ("dataflow.taint_queries", "count"),
    ("dataflow.taint_memo_hit_ratio", "ratio"),
    ("mft.slices_rendered", "count"),
    ("semantics.classify_us", "us"),
    ("semantics.class_cache_hit_ratio", "ratio"),
    ("semantics.prefilter_skip_ratio", "ratio"),
    ("libid.fns_matched", "count"),
    ("libid.traversals_skipped", "count"),
    ("server.residual_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.chain_us", "us"),
];

/// Requests in the traced sample (× scale).
const SAMPLE: usize = 128;
/// `AnalysisCache` opens timed for `store.open_ms`.
const OPENS: usize = 5;

/// One span: a layer call made for request `req` of a pass.
struct Span {
    req: u32,
    layer: &'static str,
    start_us: f64,
    end_us: f64,
}

/// The spans and per-request samples of one pass over the sample.
struct Recorder {
    pass: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Per-call times (µs) and per-request counts, by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Pass-wide totals (unit and class-cache counters) for ratios.
    totals: BTreeMap<&'static str, f64>,
    /// Per request: chain wall time and the part of it layer spans cover.
    walls: Vec<(f64, f64)>,
    open: Option<(u32, Instant, f64)>,
}

impl Recorder {
    fn new(pass: &'static str, origin: Instant) -> Recorder {
        Recorder {
            pass,
            origin,
            spans: Vec::new(),
            samples: BTreeMap::new(),
            totals: BTreeMap::new(),
            walls: Vec::new(),
            open: None,
        }
    }

    fn begin(&mut self, req: u32) {
        self.open = Some((req, Instant::now(), 0.0));
    }

    fn end(&mut self) {
        if let Some((_, start, covered)) = self.open.take() {
            self.walls
                .push((start.elapsed().as_secs_f64() * 1e6, covered));
        }
    }

    /// Time `f` as a span of `layer` on the open request.
    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let us = (t1 - t0).as_secs_f64() * 1e6;
        let req = match &mut self.open {
            Some((req, _, covered)) => {
                *covered += us;
                *req
            }
            None => u32::MAX,
        };
        self.spans.push(Span {
            req,
            layer,
            start_us: (t0 - self.origin).as_secs_f64() * 1e6,
            end_us: (t1 - self.origin).as_secs_f64() * 1e6,
        });
        self.sample(layer, us);
        out
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.totals.entry(name).or_default() += v;
    }

    fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    }
}

/// A served request as the client frames it.
fn submit(image: SubmitImage) -> Request {
    Request::Submit {
        image,
        config: AnalysisConfig::default(),
        want_events: false,
        deadline_ms: 0,
    }
}

/// The served pass: every request through the daemon's chain against
/// `cache`, in-process. `overlay` is the config the daemon's
/// known-library index turns a job into (the sweep's served replay).
/// With `paired`, each request is also served by the daemon right after
/// its replay, so the two times are taken moments apart.
fn served_pass(
    rec: &mut Recorder,
    ctx: &Ctx,
    cache: &AnalysisCache,
    requests: &[SubmitImage],
    overlay: Option<&AnalysisConfig>,
    mut paired: Option<&mut Paired>,
) -> Result<Vec<FirmwareAnalysis>, String> {
    let model = Some(&ctx.model);
    let units_before = cache.stats().map(|s| s.unit_bytes).unwrap_or(0);
    let class_before = cache.class_cache_stats();
    let mut out = Vec::with_capacity(requests.len());
    for (i, image) in requests.iter().enumerate() {
        let frame = submit(image.clone()).encode();
        rec.begin(i as u32);
        let decoded = rec.span("wire.request_decode_us", || Request::decode(&frame));
        let Ok(Request::Submit { image, config, .. }) = decoded else {
            return Err(format!("request {i} did not decode as a submit"));
        };
        let key = rec.span("key.total_us", || match &image {
            SubmitImage::Bytes(p) => CacheKey::of_packed(p, model, &config),
            SubmitImage::Hash(h) => CacheKey::of_hash(*h, model, &config),
        });
        let (analysis, from_cache) = match rec.span("store.load_us", || cache.load(&key)) {
            Ok(entry) => {
                rec.sample("store.entry_bytes", entry.bytes as f64);
                (entry.analysis, true)
            }
            Err(_) => {
                let SubmitImage::Bytes(packed) = image else {
                    return Err(format!("hash request {i} missed the store"));
                };
                let job = overlay.unwrap_or(&config);
                let fw = rec
                    .span("firmware.unpack_us", || FirmwareImage::unpack(&packed))
                    .map_err(|e| format!("request {i}: unpack: {e}"))?;
                let funnel = rec
                    .span("unit.funnel_us", || {
                        analyze_image_units_incremental(
                            &fw,
                            model,
                            job,
                            1,
                            cache,
                            &mut NullObserver,
                            None,
                        )
                    })
                    .map_err(|e| format!("request {i}: funnel: {e}"))?;
                let s = funnel.stats;
                rec.sample("unit.bytes_written", s.bytes_written as f64);
                rec.add("unit.hits", s.unit_hits as f64);
                rec.add("unit.misses", s.unit_misses as f64);
                rec.add("verdict.hits", s.verdict_hits as f64);
                rec.add("verdict.misses", s.verdict_misses as f64);
                rec.add("misses", 1.0);
                let analysis = rec
                    .span("codec.decode_us", || {
                        get_analysis(&mut Reader::new(&funnel.bytes))
                    })
                    .map_err(|e| format!("request {i}: funnel bytes: {e}"))?;
                let written = rec.span("store.write_us", || {
                    cache.store(&CacheKey::of_packed(&packed, model, job), &analysis)
                });
                rec.sample("store.entry_bytes", written.unwrap_or(0) as f64);
                (analysis, false)
            }
        };
        let payload = rec.span("codec.encode_us", || {
            let mut p = Vec::new();
            put_analysis(&mut p, &analysis);
            p
        });
        rec.sample("codec.analysis_bytes", payload.len() as f64);
        let frame = rec.span("wire.response_encode_us", || {
            let body = Response::Analysis {
                job_id: i as u64,
                from_cache,
                payload,
            }
            .encode();
            let mut frame = Vec::with_capacity(4 + body.len());
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(&body);
            frame
        });
        rec.sample("wire.frame_bytes", frame.len() as f64);
        rec.end();
        if let Some(p) = paired.as_deref_mut() {
            let wall = rec.walls.last().map_or(0.0, |(w, _)| *w);
            let served = p.serve(requests[i].clone())?;
            p.residual_us.push(served - wall);
        }
        out.push(analysis);
    }
    let misses = rec.total("misses");
    if misses > 0.0 {
        let units_after = cache.stats().map(|s| s.unit_bytes).unwrap_or(0);
        rec.sample(
            "store.unit_bytes_per_miss",
            units_after.saturating_sub(units_before) as f64 / misses,
        );
    }
    let class = cache.class_cache_stats();
    rec.add("class.hits", (class.hits - class_before.hits) as f64);
    rec.add("class.misses", (class.misses - class_before.misses) as f64);
    rec.add(
        "class.batched",
        (class.batched - class_before.batched) as f64,
    );
    rec.add(
        "class.skips",
        (class.prefilter_skips - class_before.prefilter_skips) as f64,
    );
    Ok(out)
}

/// The sweep's own chain: unpack, then the pipeline, per image.
fn sweep_pass(
    rec: &mut Recorder,
    ctx: &Ctx,
    config: &AnalysisConfig,
    images: &[Vec<u8>],
) -> Result<Vec<FirmwareAnalysis>, String> {
    let mut out = Vec::with_capacity(images.len());
    for (i, packed) in images.iter().enumerate() {
        rec.begin(i as u32);
        let fw = rec
            .span("firmware.unpack_us", || FirmwareImage::unpack(packed))
            .map_err(|e| format!("image {i}: unpack: {e}"))?;
        out.push(rec.span("core.pipeline_us", || {
            analyze_firmware(&fw, Some(&ctx.model), config)
        }));
        rec.end();
    }
    Ok(out)
}

/// The sub-layer pass: hashing, MRE load and lift per executable, the
/// pipeline with its stage timings, and batch classification of the
/// rendered slices. Returns each image's analysis.
fn sublayer_pass(
    rec: &mut Recorder,
    ctx: &Ctx,
    config: &AnalysisConfig,
    images: &[Vec<u8>],
) -> Vec<FirmwareAnalysis> {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut out = Vec::with_capacity(images.len());
    for packed in images {
        rec.span("key.image_hash_us", || content_hash_packed_wide(packed));
        rec.span("key.classifier_fp_us", || {
            classifier_fingerprint(Some(&ctx.model))
        });
        let fw = inputs::unpack(packed);
        let (mut load, mut lift, mut exes) = (0.0, 0.0, 0.0);
        for (path, _) in fw.executables() {
            let t = Instant::now();
            let exe = fw.load_executable(path);
            load += us(t);
            if let Ok(exe) = exe {
                let t = Instant::now();
                let _ = std::hint::black_box(firmres_isa::lift(&exe, path));
                lift += us(t);
            }
            exes += 1.0;
        }
        rec.sample("isa.load_us", load);
        rec.sample("isa.lift_us", lift);
        rec.sample("isa.executables", exes);

        let t = Instant::now();
        let analysis = analyze_firmware(&fw, Some(&ctx.model), config);
        let wall = us(t);
        let tm = analysis.timings;
        let stage = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        rec.sample("core.pipeline_us", wall);
        rec.sample("core.exeid_us", stage(tm.exeid));
        rec.sample("core.field_id_us", stage(tm.field_identification));
        rec.sample("core.semantics_us", stage(tm.semantics));
        rec.sample("core.concat_us", stage(tm.concatenation));
        rec.sample("core.form_check_us", stage(tm.form_check));
        rec.sample("core.unattributed_us", wall - stage(tm.total()));

        let texts: Vec<&str> = analysis
            .messages
            .iter()
            .flat_map(|m| m.slices.iter().map(|s| s.text.as_str()))
            .collect();
        if !texts.is_empty() {
            rec.span("semantics.classify_us", || {
                ctx.model.predict_batch(&texts, true)
            });
        }
        let c = &analysis.counters;
        rec.sample("dataflow.taint_queries", c.taint_queries as f64);
        rec.add("taint.queries", c.taint_queries as f64);
        rec.add("taint.memo_hits", c.taint_cache_hits as f64);
        rec.sample("mft.slices_rendered", c.slices_rendered as f64);
        rec.sample("libid.fns_matched", c.lib_fns_matched as f64);
        rec.sample("libid.traversals_skipped", c.lib_traversals_skipped as f64);
        out.push(analysis);
    }
    out
}

/// One connection to a daemon serving the traced requests serially.
struct Paired {
    stream: TcpStream,
    /// Per request: served latency minus the in-process chain, µs.
    residual_us: Vec<f64>,
}

impl Paired {
    fn connect(addr: std::net::SocketAddr) -> Result<Paired, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        send_request(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;
        read_response(&mut stream).map_err(|e| format!("hello: {e}"))?;
        Ok(Paired {
            stream,
            residual_us: Vec::new(),
        })
    }

    /// Serve one request; its latency (send to terminal frame) in µs.
    fn serve(&mut self, image: SubmitImage) -> Result<f64, String> {
        let wire = |e: firmres_service::WireError| format!("served request: {e}");
        let t = Instant::now();
        send_request(&mut self.stream, &submit(image)).map_err(wire)?;
        loop {
            match read_response(&mut self.stream).map_err(wire)? {
                Response::Accepted { .. } | Response::Event { .. } => {}
                Response::Analysis { .. } => return Ok(t.elapsed().as_secs_f64() * 1e6),
                other => return Err(format!("served request: unexpected {other:?}")),
            }
        }
    }
}

/// Median `AnalysisCache` open time over `store`, in ms.
fn open_ms(store: &Path) -> f64 {
    let times: Vec<f64> = (0..OPENS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(AnalysisCache::new(store));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Copy a store directory tree (the traced run replays the served path
/// against a copy, so the in-process chain and the daemon each see the
/// same starting state).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = match std::fs::read_dir(from) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("read {}: {e}", from.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Start the daemon over a copy of `store` as it is now, connected for
/// pairing. The copy lets the in-process replay and the daemon each
/// start from the same state.
fn paired_daemon(
    ctx: &Ctx,
    store: &Path,
    copy: &Path,
    libid: Option<&Path>,
) -> Result<(Daemon, Paired), String> {
    copy_dir(store, copy)?;
    let (daemon, _) = Daemon::start(&DaemonSpec {
        work: &ctx.work,
        model: &ctx.model_path,
        store: copy,
        libid,
    })?;
    let paired = Paired::connect(daemon.addr)?;
    Ok((daemon, paired))
}

/// Run the traced pass of `workload`.
pub fn run(ctx: &Ctx, workload: &str, spans_out: Option<&Path>) -> Result<Outcome, String> {
    let mut o = Outcome::new(workload);
    let n = ctx.scaled(SAMPLE, 8);
    let origin = Instant::now();
    let store = ctx.work.join(format!("trace-{workload}"));
    let copy = ctx.work.join(format!("trace-{workload}-served"));
    let cache = AnalysisCache::new(&store);
    let mut first = Recorder::new("prime", origin);
    let mut chain = Recorder::new("chain", origin);
    let mut sub = Recorder::new("sublayer", origin);
    let plain = AnalysisConfig::default();

    // Per workload: the images whose chain is timed, the config the
    // sub-layer pass runs under, the chain's own analyses, and the
    // daemon the served requests were paired with.
    let (images, config, analyses, (daemon, paired)) = match workload {
        "cold" => {
            let images = inputs::fleet(ctx.seed, 0, n, false);
            let requests: Vec<_> = images.iter().cloned().map(SubmitImage::Bytes).collect();
            sub.sample("store.open_ms", open_ms(&store));
            let mut served = paired_daemon(ctx, &store, &copy, None)?;
            let a = served_pass(
                &mut chain,
                ctx,
                &cache,
                &requests,
                None,
                Some(&mut served.1),
            )?;
            (images, plain, a, served)
        }
        "warm" | "update" => {
            let v1 = if workload == "warm" {
                inputs::fleet(ctx.seed, 0, n, false)
            } else {
                inputs::updatable_fleet(ctx.seed, n)
            };
            let prime: Vec<_> = v1.iter().cloned().map(SubmitImage::Bytes).collect();
            served_pass(&mut first, ctx, &cache, &prime, None, None)?;
            sub.sample("store.open_ms", open_ms(&store));
            let (images, requests) = if workload == "warm" {
                let requests: Vec<_> = v1
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        if i.is_multiple_of(2) {
                            SubmitImage::Bytes(p.clone())
                        } else {
                            SubmitImage::Hash(content_hash_packed_wide(p))
                        }
                    })
                    .collect();
                (v1, requests)
            } else {
                let v2 = inputs::updates(&v1, ctx.seed, 2);
                let requests: Vec<_> = v2.iter().cloned().map(SubmitImage::Bytes).collect();
                (v2, requests)
            };
            let mut served = paired_daemon(ctx, &store, &copy, None)?;
            let a = served_pass(
                &mut chain,
                ctx,
                &cache,
                &requests,
                None,
                Some(&mut served.1),
            )?;
            (images, plain, a, served)
        }
        "sweep" => {
            let index = inputs::build_roster_index(&ctx.work)?;
            let config = inputs::libid_config(Arc::new(inputs::load_index(&index)?));
            let images = inputs::fleet(ctx.seed, 0, n, true);
            let requests: Vec<_> = images.iter().cloned().map(SubmitImage::Bytes).collect();
            sub.sample("store.open_ms", open_ms(&store));
            let mut served = paired_daemon(ctx, &store, &copy, Some(&index))?;
            let replayed = served_pass(
                &mut first,
                ctx,
                &cache,
                &requests,
                Some(&config),
                Some(&mut served.1),
            )?;
            let mut a = sweep_pass(&mut chain, ctx, &config, &images)?;
            for (i, (mut x, y)) in replayed.into_iter().zip(&mut a).enumerate() {
                if canonical(&mut x) != canonical(y) {
                    o.fail(
                        1,
                        format!("trace image {i}: served replay differs from the sweep"),
                    );
                }
            }
            (images, config, a, served)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    o.attempted += images.len() as u64;
    daemon.stop()?;
    sub.sample("server.residual_us", median(&paired.residual_us));

    // Sub-layers over the same images, checked against the chain.
    let local = sublayer_pass(&mut sub, ctx, &config, &images);
    for (i, (mut x, mut y)) in analyses.into_iter().zip(local).enumerate() {
        if canonical(&mut x) != canonical(&mut y) {
            o.fail(
                1,
                format!("trace request {i}: chain report differs from local analysis"),
            );
        }
    }
    let fws: Vec<_> = images.iter().map(|p| inputs::unpack(p)).collect();
    let refs: Vec<_> = fws.iter().collect();
    let t = Instant::now();
    std::hint::black_box(analyze_corpus(&refs, Some(&ctx.model), &config, 1));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(analyze_corpus(&refs, Some(&ctx.model), &config, nproc()));
    let many = t.elapsed().as_secs_f64();
    sub.sample("driver.parallel_efficiency", one / (many * nproc() as f64));

    let (walls, covered): (Vec<f64>, Vec<f64>) = chain.walls.iter().copied().unzip();
    sub.sample(
        "trace.coverage",
        covered.iter().sum::<f64>() / walls.iter().sum::<f64>().max(1e-9),
    );
    sub.sample("trace.chain_us", median(&walls));

    // Ratios come from the pass that did the work: the chain when it ran
    // the funnel or classified, else the priming (or served) pass.
    let pick = |num: &str, den: &[&str]| -> f64 {
        for rec in [&chain, &first] {
            let d: f64 = den.iter().map(|k| rec.total(k)).sum();
            if d > 0.0 {
                return rec.total(num) / d;
            }
        }
        0.0
    };
    let ratios = [
        (
            "unit.reuse_ratio",
            pick("unit.hits", &["unit.hits", "unit.misses"]),
        ),
        (
            "unit.verdict_hit_ratio",
            pick("verdict.hits", &["verdict.hits", "verdict.misses"]),
        ),
        (
            "dataflow.taint_memo_hit_ratio",
            sub.total("taint.memo_hits") / sub.total("taint.queries").max(1.0),
        ),
        (
            "semantics.class_cache_hit_ratio",
            pick("class.hits", &["class.hits", "class.misses"]),
        ),
        (
            "semantics.prefilter_skip_ratio",
            pick("class.skips", &["class.batched"]),
        ),
    ];
    for (name, unit) in PER_LAYER {
        let value = match ratios.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => *v,
            None => [&chain, &first, &sub]
                .iter()
                .find_map(|r| r.median(name))
                .ok_or_else(|| format!("trace: no samples for {name}"))?,
        };
        o.metric(name, value, unit);
    }
    if let Some(path) = spans_out {
        write_spans(path, workload, &[&first, &chain, &sub])?;
    }
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&copy);
    Ok(o)
}

/// Append every recorded span as `workload pass request layer start end`
/// (µs since the traced run began).
fn write_spans(path: &Path, workload: &str, recs: &[&Recorder]) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut text = String::new();
    for rec in recs {
        for s in &rec.spans {
            let req = if s.req == u32::MAX {
                "-".to_string()
            } else {
                s.req.to_string()
            };
            text.push_str(&format!(
                "{workload}\t{}\t{req}\t{}\t{:.3}\t{:.3}\n",
                rec.pass, s.layer, s.start_us, s.end_us
            ));
        }
    }
    f.write_all(text.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))
}
