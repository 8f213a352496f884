//! The `firmres` command-line tool.
//!
//! Subcommands (see [`run`]):
//!
//! * `gen <device-id> <out.fwi>` — generate a corpus firmware image to disk
//! * `synth <count> <out-dir>` — synthesize a parameterized device fleet
//!   (vendor/model/topology/vulnerability mix drawn from seeded
//!   distributions; byte-deterministic for a given `--seed` at any
//!   `--jobs` count)
//! * `inspect <image.fwi>` — device info, file listing, NVRAM keys
//! * `disasm <image.fwi> <exe-path>` — disassemble an MR32 executable
//! * `lift <image.fwi> <exe-path>` — dump the lifted P-Code IR
//! * `analyze <image.fwi>` — run the full FIRMRES pipeline and report
//!   (`--cache <dir>` runs through the content-addressed analysis cache,
//!   `--jobs <n>` fans the message units out over `n` worker threads,
//!   `--update-of <prev.fwi>` primes the cache from a previous firmware
//!   version so only changed functions' units re-run)
//! * `mutate <in.fwi> <out.fwi> <percent> [seed]` — write a synthetic
//!   firmware update mutating `percent`% of the image's functions
//! * `serve <addr>` — run the resident analysis daemon
//! * `submit <addr> <image.fwi>` — submit an image to a running daemon;
//!   the rendered report is identical to a local `analyze`
//! * `status <addr>` / `drain <addr>` — inspect or gracefully stop a daemon
//! * `load <addr> <dir>` — drive open- or closed-loop submit traffic at a
//!   running daemon and report throughput, latency percentiles and
//!   admission rejections
//! * `cache-stats <dir>` — survey an analysis-cache store directory

use firmres::{
    analyze_firmware, analyze_firmware_jobs, AnalysisConfig, CollectingObserver, Parallelism,
};
use firmres_cache::{analyze_corpus_incremental, AnalysisCache};
use firmres_firmware::{content_hash_packed_wide, FirmwareImage};
use firmres_isa::{decode, CODE_BASE};
use firmres_service::{Client, Server, ServerConfig, SubmitImage};
use std::fmt::Write as _;

/// Execute a CLI invocation; `args` excludes the program name. Returns
/// the rendered output, or a usage/processing error message.
///
/// # Errors
///
/// Returns `Err` with a human-readable message for unknown commands,
/// missing arguments, I/O failures, or malformed inputs.
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(args.get(1), args.get(2)),
        Some("synth") => cmd_synth(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        Some("inspect") => cmd_inspect(&load_image(args.get(1))?),
        Some("disasm") => {
            let fw = load_image(args.get(1))?;
            cmd_disasm(&fw, args.get(2).ok_or(USAGE)?)
        }
        Some("lift") => {
            let fw = load_image(args.get(1))?;
            cmd_lift(&fw, args.get(2).ok_or(USAGE)?)
        }
        Some("analyze") => {
            let mut cache_dir: Option<String> = None;
            let mut update_of: Option<String> = None;
            let mut libid: Option<String> = None;
            let mut jobs: usize = 1;
            let mut positional: Vec<&String> = Vec::new();
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                if a == "--cache" {
                    cache_dir = Some(rest.next().ok_or(USAGE)?.clone());
                } else if a == "--update-of" {
                    update_of = Some(rest.next().ok_or(USAGE)?.clone());
                } else if a == "--libid" {
                    libid = Some(rest.next().ok_or(USAGE)?.clone());
                } else if a == "--jobs" {
                    jobs = parse_count(rest.next(), "--jobs")?;
                } else {
                    positional.push(a);
                }
            }
            cmd_analyze(
                &load_image(positional.first().copied())?,
                positional.get(1).copied(),
                cache_dir.as_deref(),
                update_of.as_ref(),
                libid.as_deref(),
                jobs,
            )
        }
        Some("libid") => cmd_libid(&args[1..]),
        Some("mutate") => cmd_mutate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(args.get(1)),
        Some("drain") => cmd_drain(args.get(1)),
        Some("cache-stats") => cmd_cache_stats(args.get(1)),
        Some("train") => cmd_train(args.get(1), args.get(2)),
        Some("cfg") => {
            let fw = load_image(args.get(1))?;
            cmd_cfg(&fw, args.get(2).ok_or(USAGE)?, args.get(3).ok_or(USAGE)?)
        }
        Some("callgraph") => {
            let fw = load_image(args.get(1))?;
            cmd_callgraph(&fw, args.get(2).ok_or(USAGE)?)
        }
        _ => Err(USAGE.to_string()),
    }
}

const USAGE: &str = "usage: firmres-cli <command>\n\
  gen <device-id> <out.fwi>     generate a corpus firmware image\n\
  synth <count> <out-dir> [--seed <n>] [--jobs <n>] [--libraries]\n\
\x20                               synthesize a parameterized device fleet\n\
\x20                               (byte-deterministic per seed at any job\n\
\x20                               count; writes synth-00000.fwi …;\n\
\x20                               --libraries links 0-3 shared roster\n\
\x20                               libraries per device)\n\
  inspect <image.fwi>           device info, files, NVRAM\n\
  disasm <image.fwi> <exe>      disassemble an MR32 executable\n\
  lift <image.fwi> <exe>        dump the lifted P-Code IR\n\
  analyze <image.fwi> [model] [--cache <dir>] [--jobs <n>]\n\
\x20      [--update-of <prev.fwi>] [--libid <index.flix>]\n\
\x20                               run the FIRMRES pipeline (optional model;\n\
\x20                               --cache reuses/populates an analysis cache;\n\
\x20                               --jobs parallelizes within the image;\n\
\x20                               --update-of primes the cache from the\n\
\x20                               previous firmware version first;\n\
\x20                               --libid replays known-library taint\n\
\x20                               summaries from a .flix index)\n\
  libid build <libdir> <out.flix>\n\
\x20                               index a directory of known-library\n\
\x20                               executables (or .s sources) into a\n\
\x20                               sealed .flix artifact\n\
  libid inspect <index.flix>    dump a .flix index entry by entry\n\
  libid fixtures <dir>          write the synthetic roster library\n\
\x20                               sources (zbuf/jfmt/cstr) into <dir>\n\
  mutate <in.fwi> <out.fwi> <percent> [seed]\n\
\x20                               write a synthetic update flipping one\n\
\x20                               immediate in <percent>% of the functions\n\
  serve <addr> [model] [--config <file>] [--cache <dir>] [--workers <n>]\n\
\x20      [--jobs <n>] [--io-threads <n>] [--queue <n>] [--inflight <n>]\n\
\x20      [--retry-after <ms>] [--shards <n>] [--store-budget <bytes|K|M|G|none>]\n\
\x20      [--libid <index.flix>] [--port-file <path>]\n\
\x20                               run the resident analysis daemon (blocks\n\
\x20                               until drained; --config reads an INI policy\n\
\x20                               file, flags override it; --port-file records\n\
\x20                               the bound address for ephemeral ports)\n\
  submit <addr> <image.fwi> [--hash] [--events] [--deadline <ms>]\n\
\x20                               submit to a running daemon (--hash asks\n\
\x20                               the server cache by content hash without\n\
\x20                               shipping the image bytes)\n\
  status <addr>                 one-line daemon status snapshot\n\
  drain <addr>                  finish in-flight jobs, then stop the daemon\n\
  load <addr> <dir> [--connections <n>] [--rate <rps>] [--requests <n>]\n\
\x20      [--mix bytes|hash|both] [--deadline <ms>]\n\
\x20                               drive load at a running daemon from a\n\
\x20                               directory of .fwi images; reports\n\
\x20                               throughput, latency percentiles and\n\
\x20                               admission rejections (--rate 0 = closed\n\
\x20                               loop)\n\
  cache-stats <dir>             survey an analysis-cache store directory\n\
  train <out.fsm> [n-devices]   train + save the semantics model\n\
  cfg <image.fwi> <exe> <fn>    DOT control-flow graph of one function\n\
  callgraph <image.fwi> <exe>   DOT call graph of an executable";

fn load_image(path: Option<&String>) -> Result<FirmwareImage, String> {
    let path = path.ok_or(USAGE)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FirmwareImage::unpack(&bytes).map_err(|e| format!("cannot unpack {path}: {e}"))
}

fn cmd_gen(id: Option<&String>, out: Option<&String>) -> Result<String, String> {
    let id: u8 = id
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "device id must be 1-22".to_string())?;
    if !(1..=22).contains(&id) {
        return Err("device id must be 1-22".into());
    }
    let out = out.ok_or(USAGE)?;
    let dev = firmres_corpus::generate_device(id, 7);
    let packed = dev.firmware.pack();
    std::fs::write(out, &packed).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote {} ({} bytes): {} {} with {} files\n",
        out,
        packed.len(),
        dev.spec.vendor,
        dev.spec.model,
        dev.firmware.file_count()
    ))
}

fn cmd_synth(args: &[String]) -> Result<String, String> {
    let mut seed: u64 = 7;
    let mut jobs: usize = 1;
    let mut libraries = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--seed" => {
                seed = rest
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--seed takes a number".to_string())?;
            }
            "--jobs" => jobs = parse_count(rest.next(), "--jobs")?,
            "--libraries" => libraries = true,
            _ => positional.push(a),
        }
    }
    let count: u32 = positional
        .first()
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "count must be a number".to_string())?;
    if count == 0 {
        return Err("count must be at least 1".into());
    }
    let dir = positional.get(1).ok_or(USAGE)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    // Generation is a pure function of (index, seed), so fanning it out
    // over a pool cannot change any image's bytes — only the wall clock.
    let images = firmres::run_pool(count as usize, jobs, move |i| {
        if libraries {
            firmres_corpus::synth_device_with_libraries(i as u32, seed).packed
        } else {
            firmres_corpus::synth_device(i as u32, seed).packed
        }
    });
    let mut total_bytes = 0usize;
    for (i, packed) in images.iter().enumerate() {
        let path = std::path::Path::new(dir).join(format!("synth-{i:05}.fwi"));
        std::fs::write(&path, packed)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        total_bytes += packed.len();
    }
    Ok(format!(
        "synthesized {count} device(s) into {dir} (seed {seed}{}, {total_bytes} bytes)\n",
        if libraries { ", shared libraries" } else { "" }
    ))
}

fn cmd_load(args: &[String]) -> Result<String, String> {
    let mut cfg = firmres_service::LoadConfig {
        connections: 4,
        rate: 0.0,
        requests: 0, // default: one request per work item
        ..firmres_service::LoadConfig::default()
    };
    let mut mix = "both";
    let mut positional: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--connections" => cfg.connections = parse_count(rest.next(), "--connections")?,
            "--rate" => {
                cfg.rate = rest
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--rate takes requests/second".to_string())?;
            }
            "--requests" => {
                cfg.requests = rest
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--requests takes a count".to_string())?;
            }
            "--deadline" => {
                cfg.deadline_ms = rest
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--deadline takes milliseconds".to_string())?;
            }
            "--mix" => {
                mix = match rest.next().ok_or(USAGE)?.as_str() {
                    "bytes" => "bytes",
                    "hash" => "hash",
                    "both" => "both",
                    other => return Err(format!("--mix must be bytes|hash|both, not {other}")),
                };
            }
            _ => positional.push(a),
        }
    }
    let addr = positional.first().ok_or(USAGE)?;
    let dir = positional.get(1).ok_or(USAGE)?;

    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fwi"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .fwi images in {dir}"));
    }
    let mut items = Vec::new();
    for p in &paths {
        let bytes = std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        if mix != "bytes" {
            items.push(SubmitImage::Hash(content_hash_packed_wide(&bytes)));
        }
        if mix != "hash" {
            items.push(SubmitImage::Bytes(bytes));
        }
    }
    if cfg.requests == 0 {
        cfg.requests = items.len();
    }

    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}"))?;
    let report = firmres_service::run_load(sock, &items, &cfg)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "load: {} request(s) over {} connection(s), {} ({} image(s), mix {mix})",
        report.submitted,
        cfg.connections,
        if cfg.rate > 0.0 {
            format!("open loop @ {:.0}/s", cfg.rate)
        } else {
            "closed loop".to_string()
        },
        paths.len()
    );
    let _ = writeln!(
        out,
        "  completed {} ({} from cache) | rejected {} queue-full, {} other | \
         cancelled {} | errors {} wire, {} protocol",
        report.completed,
        report.from_cache,
        report.rejected_queue_full,
        report.rejected_other,
        report.cancelled,
        report.wire_errors,
        report.protocol_errors
    );
    let ms = |q: f64| report.latency.value_at(q) as f64 / 1e6;
    let _ = writeln!(
        out,
        "  throughput {:.1} req/s | latency p50 {:.2} ms, p90 {:.2} ms, p95 {:.2} ms, \
         p99 {:.2} ms, p99.9 {:.2} ms, max {:.2} ms",
        report.throughput(),
        ms(0.50),
        ms(0.90),
        ms(0.95),
        ms(0.99),
        ms(0.999),
        report.latency.max() as f64 / 1e6
    );
    if report.rejected_queue_full > 0 {
        let _ = writeln!(
            out,
            "  admission control engaged: server advised retry_after {} ms",
            report.retry_after_ms_max
        );
    }
    if report.backoff_waits > 0 {
        let _ = writeln!(
            out,
            "  backed off {} time(s), {} ms total sleeping on retry_after hints",
            report.backoff_waits, report.backoff_ms_total
        );
    }
    if report.behind_schedule > 0 {
        let _ = writeln!(
            out,
            "  {} send(s) fell behind the open-loop schedule — the target \
             rate exceeds capacity at this connection count",
            report.behind_schedule
        );
    }
    Ok(out)
}

fn cmd_inspect(fw: &FirmwareImage) -> Result<String, String> {
    let mut out = String::new();
    let d = fw.device();
    let _ = writeln!(
        out,
        "{} {} — {} (firmware {})",
        d.vendor, d.model, d.device_type, d.firmware_version
    );
    let _ = writeln!(out, "\nfiles:");
    for (path, entry) in fw.files() {
        let _ = writeln!(
            out,
            "  {:<28} {:<10} {:>7} bytes",
            path,
            entry.kind(),
            entry.size()
        );
    }
    let nv = fw.nvram();
    if !nv.is_empty() {
        let _ = writeln!(out, "\nnvram defaults:");
        for (k, v) in nv.iter() {
            let _ = writeln!(out, "  {k} = {v}");
        }
    }
    Ok(out)
}

fn cmd_disasm(fw: &FirmwareImage, exe_path: &str) -> Result<String, String> {
    let exe = fw
        .load_executable(exe_path)
        .map_err(|e| format!("cannot load {exe_path}: {e}"))?;
    let mut out = String::new();
    let mut funcs: Vec<_> = exe.funcs.iter().collect();
    funcs.sort_by_key(|f| f.addr);
    for (i, w) in exe.code.iter().enumerate() {
        let addr = CODE_BASE + (i as u32) * 4;
        if let Some(f) = funcs.iter().find(|f| f.addr == addr) {
            let _ = writeln!(out, "\n{}({}):", f.name, f.params.join(", "));
        }
        match decode(*w) {
            Ok(inst) => {
                let _ = writeln!(out, "  {addr:#08x}:  {inst}");
            }
            Err(_) => {
                let _ = writeln!(out, "  {addr:#08x}:  .word {w:#010x}");
            }
        }
    }
    Ok(out)
}

fn cmd_lift(fw: &FirmwareImage, exe_path: &str) -> Result<String, String> {
    let exe = fw
        .load_executable(exe_path)
        .map_err(|e| format!("cannot load {exe_path}: {e}"))?;
    let program = firmres_isa::lift(&exe, exe_path).map_err(|e| format!("lift failed: {e}"))?;
    let mut out = String::new();
    for f in program.functions() {
        let _ = writeln!(
            out,
            "\nfunction {} @ {:#x} ({} blocks):",
            f.name(),
            f.entry(),
            f.blocks().len()
        );
        for (bid, op) in f.ops_with_blocks() {
            let _ = writeln!(out, "  [{bid}] {op}");
        }
    }
    Ok(out)
}

fn load_program(fw: &FirmwareImage, exe_path: &str) -> Result<firmres_ir::Program, String> {
    let exe = fw
        .load_executable(exe_path)
        .map_err(|e| format!("cannot load {exe_path}: {e}"))?;
    firmres_isa::lift(&exe, exe_path).map_err(|e| format!("lift failed: {e}"))
}

fn cmd_cfg(fw: &FirmwareImage, exe_path: &str, func: &str) -> Result<String, String> {
    let program = load_program(fw, exe_path)?;
    let f = program
        .function_by_name(func)
        .ok_or_else(|| format!("no function `{func}` in {exe_path}"))?;
    Ok(firmres_ir::dot::function_cfg(f))
}

fn cmd_callgraph(fw: &FirmwareImage, exe_path: &str) -> Result<String, String> {
    let program = load_program(fw, exe_path)?;
    let graph = program.call_graph();
    Ok(firmres_ir::dot::call_graph(&program, &graph))
}

fn cmd_train(out: Option<&String>, limit: Option<&String>) -> Result<String, String> {
    let out = out.ok_or(USAGE)?;
    let limit: usize = match limit {
        Some(n) => n
            .parse()
            .map_err(|_| "device limit must be a number".to_string())?,
        None => 20,
    };
    let corpus = firmres_corpus::generate_corpus(7);
    let analyses: Vec<_> = corpus
        .iter()
        .filter(|d| d.cloud_executable.is_some())
        .take(limit.max(1))
        .map(|d| {
            (
                d,
                analyze_firmware(&d.firmware, None, &AnalysisConfig::default()),
            )
        })
        .collect();
    let dataset = firmres_bench::build_slice_dataset(&analyses);
    let (model, val, test) = firmres_bench::train_semantics_model(&dataset, 7);
    let bytes = model.to_bytes();
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "trained on {} slices from {} devices; validation {:.1}%, test {:.1}%; wrote {} ({} bytes)\n",
        dataset.len(),
        analyses.len(),
        val * 100.0,
        test * 100.0,
        out,
        bytes.len()
    ))
}

fn cmd_analyze(
    fw: &FirmwareImage,
    model_path: Option<&String>,
    cache_dir: Option<&str>,
    update_of: Option<&String>,
    libid: Option<&str>,
    jobs: usize,
) -> Result<String, String> {
    let model = load_model(model_path)?;
    let mut config = AnalysisConfig::default();
    if let Some(path) = libid {
        config.taint.libid = firmres_dataflow::LibId::On;
        config.taint.lib_index = Some(std::sync::Arc::new(load_flix(path)?));
    }
    if update_of.is_some() && cache_dir.is_none() {
        return Err("analyze --update-of requires --cache <dir>".into());
    }
    let mut cache_summary = None;
    let analysis = match cache_dir {
        None => analyze_firmware_jobs(fw, model.as_ref(), &config, jobs),
        Some(dir) => {
            let cache = AnalysisCache::new(dir);
            // Prime the store from the previous firmware version: its
            // unit artifacts let the current image splice every function
            // the update did not touch.
            if let Some(prev_path) = update_of {
                let prev = load_image(Some(prev_path))?;
                analyze_corpus_incremental(
                    &[&prev],
                    model.as_ref(),
                    &config,
                    Parallelism::units(jobs),
                    &cache,
                    &mut firmres::NullObserver,
                );
            }
            let mut obs = CollectingObserver::default();
            let outcome = analyze_corpus_incremental(
                &[fw],
                model.as_ref(),
                &config,
                Parallelism::units(jobs),
                &cache,
                &mut obs,
            );
            let s = outcome.stats;
            let unit_part = if s.unit_hits > 0 {
                format!(
                    "; {} unit(s) spliced, {} re-run ({:.0}% reuse), {} verdict(s) replayed",
                    s.unit_hits,
                    s.unit_misses,
                    100.0 * s.unit_reuse_rate(),
                    s.verdict_hits
                )
            } else {
                String::new()
            };
            // Folded into the same single line: the report body below it
            // must stay byte-identical across cold/warm and job counts,
            // and the smoke tests strip exactly one leading line.
            let class_part = if s.slices_batched > 0 {
                format!(
                    "; {} slice(s) batch-classified, {} prefilter-skipped",
                    s.slices_batched, s.prefilter_skips
                )
            } else {
                String::new()
            };
            cache_summary = Some(format!(
                "analysis cache ({dir}): {} | {} bytes read, {} bytes written{unit_part}{class_part}",
                if s.hits > 0 {
                    "hit — pipeline skipped"
                } else {
                    "miss — entry stored"
                },
                s.bytes_read,
                s.bytes_written
            ));
            outcome
                .analyses
                .into_iter()
                .next()
                .expect("one analysis per image")
        }
    };
    let mut out = String::new();
    if let Some(line) = &cache_summary {
        let _ = writeln!(out, "{line}");
    }
    render_report(&mut out, &analysis);
    Ok(out)
}

/// Render the analysis report body. Shared verbatim by `analyze` and
/// `submit`, so a served result prints identically to a local run — the
/// service smoke test in `scripts/check.sh` byte-compares the two.
fn render_report(out: &mut String, analysis: &firmres::FirmwareAnalysis) {
    match &analysis.executable {
        Some(path) => {
            let _ = writeln!(out, "device-cloud executable: {path}");
        }
        None => {
            let _ = writeln!(
                out,
                "no device-cloud executable found (script-based device-cloud logic is out of scope)"
            );
            append_diagnostics(out, analysis);
            return;
        }
    }
    for h in &analysis.handlers {
        let _ = writeln!(
            out,
            "async handler: {} (P_f = {:.2}, recv @ {:#x})",
            h.handler_name, h.score, h.recv_callsite
        );
    }
    let _ = writeln!(out, "\nreconstructed messages:");
    for record in analysis.identified() {
        let _ = writeln!(out, "  {} → {}", record.function, record.message);
        for flaw in &record.flaws {
            let _ = writeln!(out, "    ALARM: {flaw}");
        }
    }
    let lan = analysis.messages.iter().filter(|m| m.lan_discarded).count();
    if lan > 0 {
        let _ = writeln!(out, "\n({lan} LAN-addressed message(s) discarded)");
    }
    append_stats(out, analysis);
    append_diagnostics(out, analysis);
}

/// Load a `.flix` known-library index, mapping codec errors to CLI text.
fn load_flix(path: &str) -> Result<firmres_dataflow::LibIndex, String> {
    firmres_libid::load_index(std::path::Path::new(path))
        .map_err(|e| format!("cannot load libid index {path}: {e}"))
}

fn cmd_libid(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("build") => {
            let dir = args.get(1).ok_or(USAGE)?;
            let out_path = args.get(2).ok_or(USAGE)?;
            let (index, report) = firmres_libid::build_index_from_dir(std::path::Path::new(dir))
                .map_err(|e| format!("libid build {dir}: {e}"))?;
            firmres_libid::write_index(std::path::Path::new(out_path), &index)
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            let mut out = report.render();
            let _ = writeln!(
                out,
                "wrote {out_path}: {} function(s), fingerprint {:016x}",
                index.len(),
                index.fingerprint()
            );
            Ok(out)
        }
        Some("inspect") => {
            let path = args.get(1).ok_or(USAGE)?;
            let index = load_flix(path)?;
            let mut out = String::new();
            for line in firmres_libid::inspect_lines(&index) {
                let _ = writeln!(out, "{line}");
            }
            Ok(out)
        }
        Some("fixtures") => {
            let dir = args.get(1).ok_or(USAGE)?;
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let mut out = String::new();
            for k in 0..firmres_corpus::ROSTER.len() {
                let file = firmres_corpus::library_fixture_file(k);
                let path = std::path::Path::new(dir).join(&file);
                std::fs::write(&path, firmres_corpus::library_fixture_source(k))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let _ = writeln!(out, "wrote {}", path.display());
            }
            Ok(out)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn cmd_mutate(args: &[String]) -> Result<String, String> {
    let fw = load_image(args.first())?;
    let out_path = args.get(1).ok_or(USAGE)?;
    let percent: f64 = args
        .get(2)
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "percent must be a number".to_string())?;
    if !(0.0..=100.0).contains(&percent) {
        return Err("percent must be in 0..=100".into());
    }
    let seed: u64 = match args.get(3) {
        Some(v) => v.parse().map_err(|_| "seed must be a number".to_string())?,
        None => 42,
    };
    let update = firmres_corpus::mutate_firmware(&fw, percent, seed);
    let packed = update.image.pack();
    std::fs::write(out_path, &packed).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let mut out = format!(
        "mutated {} function(s) ({percent}% @ seed {seed}); wrote {} ({} bytes)\n",
        update.mutated.len(),
        out_path,
        packed.len()
    );
    for (path, func) in &update.mutated {
        let _ = writeln!(out, "  {path}: {func}");
    }
    Ok(out)
}

/// `serve` flags that each override one config-file key. They go
/// through [`ServiceConfig::apply`], the file's own parser, so a flag
/// and its key accept and reject the same values.
///
/// [`ServiceConfig::apply`]: firmres_service::ServiceConfig::apply
const SERVE_FLAGS: [(&str, &str, &str); 9] = [
    ("--workers", "service", "workers"),
    ("--jobs", "service", "unit_jobs"),
    ("--io-threads", "service", "io_threads"),
    ("--queue", "admission", "queue_cap"),
    ("--inflight", "admission", "inflight_cap"),
    ("--retry-after", "admission", "retry_after_ms"),
    ("--shards", "store", "shards"),
    ("--store-budget", "store", "byte_budget"),
    ("--libid", "libid", "index"),
];

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let mut cache_dir: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut config_file: Option<String> = None;
    let mut overrides = Vec::new();
    let mut positional: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--cache" => cache_dir = Some(rest.next().ok_or(USAGE)?.clone()),
            "--port-file" => port_file = Some(rest.next().ok_or(USAGE)?.clone()),
            "--config" => config_file = Some(rest.next().ok_or(USAGE)?.clone()),
            flag => match SERVE_FLAGS.iter().find(|(f, ..)| *f == flag) {
                Some(&(flag, section, key)) => {
                    overrides.push((flag, section, key, rest.next().ok_or(USAGE)?));
                }
                None => positional.push(a),
            },
        }
    }
    let addr = positional.first().ok_or(USAGE)?;
    let classifier = load_model(positional.get(1).copied())?;

    // Policy precedence: built-in defaults, then the config file, then
    // explicit flags — so a deployment file sets the profile and a flag
    // tweaks one knob of it.
    let mut svc = match &config_file {
        Some(path) => firmres_service::ServiceConfig::from_file(path)?,
        None => firmres_service::ServiceConfig::default(),
    };
    for (flag, section, key, value) in overrides {
        // A value error that names the key starts with it: name the flag.
        svc.apply(section, key, value)
            .map_err(|e| match e.strip_prefix(key) {
                Some(rest) => format!("{flag}{rest}"),
                None => e,
            })?;
    }
    svc.store.validate()?;
    let lib_index = match svc.libid_index.as_deref() {
        Some(path) => Some(std::sync::Arc::new(load_flix(path)?)),
        None => None,
    };

    let server = Server::bind(
        addr.as_str(),
        ServerConfig {
            cache_dir: cache_dir.map(Into::into),
            classifier,
            lib_index,
            ..svc.to_server_config()
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{local}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let s = server.run();
    Ok(format!(
        "served {} job(s) on {local} ({} cache hit(s), {} pipeline run(s)); \
         {} rejected, {} cancelled\n",
        s.jobs_served, s.cache_hits, s.cache_misses, s.jobs_rejected, s.jobs_cancelled
    ))
}

fn cmd_submit(args: &[String]) -> Result<String, String> {
    let mut by_hash = false;
    let mut events = false;
    let mut deadline_ms: u64 = 0;
    let mut positional: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--hash" => by_hash = true,
            "--events" => events = true,
            "--deadline" => {
                deadline_ms = rest
                    .next()
                    .ok_or(USAGE)?
                    .parse()
                    .map_err(|_| "--deadline takes milliseconds".to_string())?;
            }
            _ => positional.push(a),
        }
    }
    let addr = positional.first().ok_or(USAGE)?;
    let path = positional.get(1).ok_or(USAGE)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let image = if by_hash {
        SubmitImage::Hash(content_hash_packed_wide(&bytes))
    } else {
        SubmitImage::Bytes(bytes)
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let served = client
        .submit(image, &AnalysisConfig::default(), events, deadline_ms)
        .map_err(|e| format!("submit failed: {e}"))?;
    let mut out = String::new();
    if events {
        let _ = writeln!(
            out,
            "job {} streamed {} progress event(s){}",
            served.job_id,
            served.events.len(),
            if served.from_cache {
                " (served from cache)"
            } else {
                ""
            }
        );
    }
    render_report(&mut out, &served.analysis);
    Ok(out)
}

fn cmd_status(addr: Option<&String>) -> Result<String, String> {
    let addr = addr.ok_or(USAGE)?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let s = client.status().map_err(|e| format!("status failed: {e}"))?;
    // The libid segment appears only when the daemon has actually used
    // an index, so index-less deployments keep the historical line.
    let libid =
        if s.lib_fns_matched > 0 || s.lib_traversals_skipped > 0 || s.lib_summary_applies > 0 {
            format!(
                " | libid {} matched / {} skipped / {} applied",
                s.lib_fns_matched, s.lib_traversals_skipped, s.lib_summary_applies
            )
        } else {
            String::new()
        };
    // Same pattern for the semantics pre-filter: silent until it has
    // skipped a slice, so model-less deployments keep the historical line.
    let class = if s.prefilter_skips > 0 {
        format!(" | {} slice(s) prefilter-skipped", s.prefilter_skips)
    } else {
        String::new()
    };
    Ok(format!(
        "queue {}/{} ({} running) | served {} ({} cache hit(s), {} pipeline run(s)) | \
         units {} spliced / {} re-run | {} rejected | {} cancelled{libid}{class} | draining: {}\n",
        s.queue_depth,
        s.queue_cap,
        s.inflight,
        s.jobs_served,
        s.cache_hits,
        s.cache_misses,
        s.unit_hits,
        s.unit_misses,
        s.jobs_rejected,
        s.jobs_cancelled,
        if s.draining { "yes" } else { "no" }
    ))
}

fn cmd_drain(addr: Option<&String>) -> Result<String, String> {
    let addr = addr.ok_or(USAGE)?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let served = client.drain().map_err(|e| format!("drain failed: {e}"))?;
    Ok(format!("daemon drained after serving {served} job(s)\n"))
}

fn cmd_cache_stats(dir: Option<&String>) -> Result<String, String> {
    let dir = dir.ok_or(USAGE)?;
    let cache = AnalysisCache::new(dir);
    let stats = cache
        .stats()
        .map_err(|e| format!("cannot survey {dir}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "analysis cache {dir}: {} entr{} ({} bytes)",
        stats.entries,
        if stats.entries == 1 { "y" } else { "ies" },
        stats.total_bytes
    );
    for (schema, count) in &stats.by_schema {
        let _ = writeln!(
            out,
            "  schema v{schema}: {count} entr{}{}",
            if *count == 1 { "y" } else { "ies" },
            if *schema == firmres_cache::SCHEMA_VERSION {
                " (current)"
            } else {
                " (stale)"
            }
        );
    }
    if stats.unit_banks > 0 || stats.verdicts > 0 {
        let _ = writeln!(
            out,
            "  unit artifacts: {} bank(s), {} verdict(s) ({} bytes)",
            stats.unit_banks, stats.verdicts, stats.unit_bytes
        );
    }
    if stats.orphans_removed > 0 {
        let _ = writeln!(
            out,
            "  {} orphaned temp file(s) reaped on open",
            stats.orphans_removed
        );
    }
    if stats.foreign > 0 {
        let _ = writeln!(out, "  {} foreign file(s) ignored", stats.foreign);
    }
    // Known-library usage recorded in the stored entries; a store from
    // index-less runs surveys exactly as it always has.
    let usage = cache.survey_lib_usage();
    if usage.any() {
        let _ = writeln!(
            out,
            "  library summaries: {} function(s) matched, {} traversal(s) skipped, {} application(s)",
            usage.fns_matched, usage.traversals_skipped, usage.summary_applies
        );
    }
    // The classification tally is in-memory and scoped to this handle's
    // lifetime, so a fresh survey shows it only once something has
    // actually been classified through it (e.g. under `serve`, which
    // prints through the same path on drain).
    let class = cache.class_cache_stats();
    if class.batched > 0 {
        let _ = writeln!(
            out,
            "  classification: {} slice(s) batch-classified, {} prefilter-skipped",
            class.batched, class.prefilter_skips
        );
    }
    // Eviction telemetry and the per-shard table appear only for stores
    // that have a budget, have evicted, or are sharded — a flat
    // unbounded store surveys exactly as it always has.
    if stats.evicted_entries > 0 || stats.reclaimed_bytes > 0 || stats.budget_bytes > 0 {
        let budget = if stats.budget_bytes > 0 {
            format!(" (budget {} bytes)", stats.budget_bytes)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  evictions: {} entr{} evicted, {} bytes reclaimed{budget}",
            stats.evicted_entries,
            if stats.evicted_entries == 1 {
                "y"
            } else {
                "ies"
            },
            stats.reclaimed_bytes
        );
    }
    if stats.shards.len() > 1 {
        let _ = writeln!(out, "  per-shard occupancy:");
        for sh in &stats.shards {
            let _ = writeln!(
                out,
                "    {:<5} {:>6} file(s) {:>12} bytes | {:>6} evicted {:>12} bytes reclaimed",
                sh.name, sh.files, sh.bytes, sh.evicted, sh.reclaimed_bytes
            );
        }
    }
    Ok(out)
}

fn parse_count(value: Option<&String>, flag: &str) -> Result<usize, String> {
    let n: usize = value
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| format!("{flag} takes a thread count"))?;
    if n == 0 {
        return Err(format!(
            "{flag} must be at least 1 (0 worker threads cannot run anything)"
        ));
    }
    Ok(n)
}

fn load_model(path: Option<&String>) -> Result<Option<firmres_semantics::Classifier>, String> {
    match path {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok(Some(
                firmres_semantics::Classifier::from_bytes(&bytes)
                    .map_err(|e| format!("cannot load model {path}: {e}"))?,
            ))
        }
        None => Ok(None),
    }
}

/// Render pipeline work counters — in particular the taint engine's
/// memoization behaviour — as a trailing section.
fn append_stats(out: &mut String, analysis: &firmres::FirmwareAnalysis) {
    let c = &analysis.counters;
    if c.taint_queries == 0 {
        return;
    }
    let memo_pct = 100.0 * c.taint_cache_hits as f64 / c.taint_queries as f64;
    let _ = writeln!(out, "\npipeline stats:");
    let _ = writeln!(
        out,
        "  taint queries: {} ({} answered from memo cache, {memo_pct:.0}%)",
        c.taint_queries, c.taint_cache_hits
    );
    let _ = writeln!(
        out,
        "  slices rendered: {} | fields matched: {}",
        c.slices_rendered, c.fields_matched
    );
    // Per-analysis semantics batching counters stay zero by design (the
    // corpus driver owns them — they depend on cache warmth, which must
    // not leak into persisted per-analysis reports), but a replayed
    // record from a future producer that does fill them renders here.
    if c.slices_batched > 0 || c.prefilter_skips > 0 {
        let _ = writeln!(
            out,
            "  slices batch-classified: {} | prefilter skips: {}",
            c.slices_batched, c.prefilter_skips
        );
    }
}

/// Render the analysis diagnostics (skipped executables, lift failures,
/// classifier fallbacks, …) as a trailing section, if there are any.
fn append_diagnostics(out: &mut String, analysis: &firmres::FirmwareAnalysis) {
    if analysis.diagnostics.is_empty() {
        return;
    }
    let _ = writeln!(out, "\ndiagnostics:");
    for d in &analysis.diagnostics {
        let _ = writeln!(out, "  {d}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn temp(name: &str) -> String {
        let dir = std::env::temp_dir().join("firmres-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn usage_on_unknown_command() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_inspect_analyze_round_trip() {
        let path = temp("dev11.fwi");
        let msg = run(&s(&["gen", "11", &path])).unwrap();
        assert!(msg.contains("Teltonika"), "{msg}");

        let listing = run(&s(&["inspect", &path])).unwrap();
        assert!(listing.contains("/usr/bin/cloud_agent"), "{listing}");
        assert!(listing.contains("nvram defaults"), "{listing}");

        let report = run(&s(&["analyze", &path])).unwrap();
        assert!(
            report.contains("device-cloud executable: /usr/bin/cloud_agent"),
            "{report}"
        );
        assert!(report.contains("/rms/registrations"), "{report}");
        assert!(report.contains("ALARM"), "{report}");
    }

    #[test]
    fn analyze_reports_taint_memo_stats() {
        let path = temp("dev10s.fwi");
        run(&s(&["gen", "10", &path])).unwrap();
        let report = run(&s(&["analyze", &path])).unwrap();
        assert!(report.contains("pipeline stats:"), "{report}");
        assert!(report.contains("taint queries:"), "{report}");
        assert!(report.contains("answered from memo cache"), "{report}");
    }

    #[test]
    fn analyze_with_cache_hits_on_second_run() {
        let path = temp("dev11c.fwi");
        run(&s(&["gen", "11", &path])).unwrap();
        let cache_dir = temp("analysis-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);

        let cold = run(&s(&["analyze", &path, "--cache", &cache_dir])).unwrap();
        assert!(cold.contains("miss — entry stored"), "{cold}");

        let warm = run(&s(&["analyze", &path, "--cache", &cache_dir])).unwrap();
        assert!(warm.contains("hit — pipeline skipped"), "{warm}");
        // The report body is unchanged by serving from the cache.
        let body = |r: &str| r.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body(&cold), body(&warm));
        assert!(warm.contains("device-cloud executable: /usr/bin/cloud_agent"));

        // A missing --cache argument is a usage error.
        assert!(run(&s(&["analyze", &path, "--cache"])).is_err());
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn analyze_jobs_flag_does_not_change_the_report() {
        let path = temp("dev10j.fwi");
        run(&s(&["gen", "10", &path])).unwrap();
        let sequential = run(&s(&["analyze", &path])).unwrap();
        let parallel = run(&s(&["analyze", &path, "--jobs", "8"])).unwrap();
        assert_eq!(sequential, parallel);
        // Bad values are usage errors, not panics.
        assert!(run(&s(&["analyze", &path, "--jobs"])).is_err());
        assert!(run(&s(&["analyze", &path, "--jobs", "lots"])).is_err());
    }

    #[test]
    fn analyze_rejects_zero_jobs() {
        let path = temp("dev10z.fwi");
        run(&s(&["gen", "10", &path])).unwrap();
        let err = run(&s(&["analyze", &path, "--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
        // The serve subcommand holds the same line.
        let err = run(&s(&["serve", "127.0.0.1:0", "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers must be at least 1"), "{err}");
    }

    #[test]
    fn cache_stats_surveys_a_store() {
        let path = temp("dev12cs.fwi");
        run(&s(&["gen", "12", &path])).unwrap();
        let cache_dir = temp("stats-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);

        // An absent store is an empty survey, not an error.
        let empty = run(&s(&["cache-stats", &cache_dir])).unwrap();
        assert!(empty.contains("0 entries (0 bytes)"), "{empty}");

        run(&s(&["analyze", &path, "--cache", &cache_dir])).unwrap();
        let survey = run(&s(&["cache-stats", &cache_dir])).unwrap();
        assert!(survey.contains("1 entry"), "{survey}");
        assert!(survey.contains("(current)"), "{survey}");
        assert!(!survey.contains("foreign"), "{survey}");

        // A foreign file is counted, not misread.
        std::fs::write(std::path::Path::new(&cache_dir).join("junk.frac"), b"oops").unwrap();
        let survey = run(&s(&["cache-stats", &cache_dir])).unwrap();
        assert!(survey.contains("1 foreign file(s) ignored"), "{survey}");
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn mutate_writes_a_parsable_update() {
        let v1 = temp("dev10mu.fwi");
        run(&s(&["gen", "10", &v1])).unwrap();
        let v2 = temp("dev10mu2.fwi");
        let msg = run(&s(&["mutate", &v1, &v2, "1"])).unwrap();
        assert!(msg.contains("mutated 1 function(s)"), "{msg}");
        // The update is a loadable image and differs from the original.
        assert_ne!(std::fs::read(&v1).unwrap(), std::fs::read(&v2).unwrap());
        let report = run(&s(&["analyze", &v2])).unwrap();
        assert!(report.contains("reconstructed messages"), "{report}");
        // Bad arguments are usage errors.
        assert!(run(&s(&["mutate", &v1, &v2, "101"])).is_err());
        assert!(run(&s(&["mutate", &v1, &v2, "lots"])).is_err());
        assert!(run(&s(&["mutate", &v1])).is_err());
    }

    #[test]
    fn analyze_update_of_splices_clean_units() {
        let v1 = temp("dev10uo.fwi");
        run(&s(&["gen", "10", &v1])).unwrap();
        let v2 = temp("dev10uo2.fwi");
        run(&s(&["mutate", &v1, &v2, "1", "7"])).unwrap();

        let cache_dir = temp("update-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let report = run(&s(&[
            "analyze",
            &v2,
            "--cache",
            &cache_dir,
            "--update-of",
            &v1,
        ]))
        .unwrap();
        assert!(report.contains("unit(s) spliced"), "{report}");
        assert!(report.contains("% reuse"), "{report}");
        assert!(report.contains("verdict(s) replayed"), "{report}");

        // The spliced report body is identical to a from-scratch run.
        let plain = run(&s(&["analyze", &v2])).unwrap();
        let body: String = report.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(body, plain.trim_end_matches('\n'));

        // The survey now shows the unit-granular artifacts.
        let survey = run(&s(&["cache-stats", &cache_dir])).unwrap();
        assert!(survey.contains("unit artifacts:"), "{survey}");
        assert!(survey.contains("verdict(s)"), "{survey}");

        // --update-of without --cache is an error.
        let err = run(&s(&["analyze", &v2, "--update-of", &v1])).unwrap_err();
        assert!(err.contains("requires --cache"), "{err}");
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn serve_submit_status_drain_round_trip() {
        let path = temp("dev11srv.fwi");
        run(&s(&["gen", "11", &path])).unwrap();
        let local_report = run(&s(&["analyze", &path])).unwrap();

        let port_file = temp("serve-port");
        let _ = std::fs::remove_file(&port_file);
        let serve_args = s(&["serve", "127.0.0.1:0", "--port-file", &port_file]);
        let server = std::thread::spawn(move || run(&serve_args));

        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(a) if a.ends_with('\n') => break a.trim().to_string(),
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };

        // A served report is byte-identical to the local analyze run.
        let served = run(&s(&["submit", &addr, &path])).unwrap();
        assert_eq!(served, local_report);

        // With --events the report gains a progress header only.
        let streamed = run(&s(&["submit", &addr, &path, "--events"])).unwrap();
        assert!(streamed.contains("progress event(s)"), "{streamed}");

        let status = run(&s(&["status", &addr])).unwrap();
        assert!(status.contains("served 2"), "{status}");
        assert!(status.contains("draining: no"), "{status}");

        let drained = run(&s(&["drain", &addr])).unwrap();
        assert!(
            drained.contains("drained after serving 2 job(s)"),
            "{drained}"
        );

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("served 2 job(s)"), "{summary}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn serve_validates_policy_flags_and_config() {
        // A typoed config key is an error with the offending key named.
        let cfg_path = temp("bad-serve.conf");
        std::fs::write(&cfg_path, "[service]\nwrokers = 2\n").unwrap();
        let err = run(&s(&["serve", "127.0.0.1:0", "--config", &cfg_path])).unwrap_err();
        assert!(err.contains("wrokers"), "{err}");
        // Policy flags are validated before the bind.
        let err = run(&s(&["serve", "127.0.0.1:0", "--shards", "1000"])).unwrap_err();
        assert!(err.contains("shards"), "{err}");
        let err = run(&s(&["serve", "127.0.0.1:0", "--store-budget", "lots"])).unwrap_err();
        assert!(err.contains("byte size"), "{err}");
        assert!(err.starts_with("--store-budget: "), "{err}");
        let err = run(&s(&["serve", "127.0.0.1:0", "--io-threads", "0"])).unwrap_err();
        assert!(err.contains("--io-threads"), "{err}");
    }

    #[test]
    fn disasm_and_lift() {
        let path = temp("dev15.fwi");
        run(&s(&["gen", "15", &path])).unwrap();
        let asm = run(&s(&["disasm", &path, "/usr/bin/cloud_agent"])).unwrap();
        assert!(asm.contains("on_cloud_request"), "{asm}");
        assert!(asm.contains("callx"), "{asm}");
        let ir = run(&s(&["lift", &path, "/usr/bin/cloud_agent"])).unwrap();
        assert!(ir.contains("CALL"), "{ir}");
        assert!(ir.contains("function main"), "{ir}");
        // Non-executable path errors cleanly.
        assert!(run(&s(&["disasm", &path, "/etc/nvram.default"])).is_err());
    }

    #[test]
    fn train_and_analyze_with_model() {
        let model_path = temp("model.fsm");
        let msg = run(&s(&["train", &model_path, "2"])).unwrap();
        assert!(msg.contains("trained on"), "{msg}");
        let fwi = temp("dev11m.fwi");
        run(&s(&["gen", "11", &fwi])).unwrap();
        let report = run(&s(&["analyze", &fwi, &model_path])).unwrap();
        assert!(report.contains("reconstructed messages"), "{report}");
        // A corrupt model file errors cleanly.
        std::fs::write(temp("junk.fsm"), b"not a model").unwrap();
        let junk = temp("junk.fsm");
        assert!(run(&s(&["analyze", &fwi, &junk])).is_err());
    }

    #[test]
    fn dot_exports() {
        let path = temp("dev16.fwi");
        run(&s(&["gen", "16", &path])).unwrap();
        let cfg = run(&s(&[
            "cfg",
            &path,
            "/usr/bin/cloud_agent",
            "on_cloud_request",
        ]))
        .unwrap();
        assert!(cfg.starts_with("digraph"), "{cfg}");
        assert!(cfg.contains("CBRANCH"), "dispatch branches present");
        let cg = run(&s(&["callgraph", &path, "/usr/bin/cloud_agent"])).unwrap();
        assert!(cg.contains("on_cloud_request"));
        assert!(cg.contains("style=dashed"), "imports rendered");
        assert!(run(&s(&["cfg", &path, "/usr/bin/cloud_agent", "nope"])).is_err());
    }

    #[test]
    fn synth_is_byte_deterministic_across_jobs() {
        let dir1 = temp("synth-j1");
        let dir4 = temp("synth-j4");
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
        let msg = run(&s(&["synth", "6", &dir1, "--seed", "11", "--jobs", "1"])).unwrap();
        assert!(msg.contains("synthesized 6 device(s)"), "{msg}");
        run(&s(&["synth", "6", &dir4, "--seed", "11", "--jobs", "4"])).unwrap();
        for i in 0..6 {
            let name = format!("synth-{i:05}.fwi");
            let a = std::fs::read(std::path::Path::new(&dir1).join(&name)).unwrap();
            let b = std::fs::read(std::path::Path::new(&dir4).join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 4");
        }
        // Every synthesized image loads and analyzes like any other.
        let one = std::path::Path::new(&dir1).join("synth-00003.fwi");
        let report = run(&s(&["analyze", &one.to_string_lossy()])).unwrap();
        assert!(report.contains("device-cloud executable:"), "{report}");
        // Bad arguments are usage errors.
        assert!(run(&s(&["synth", "0", &dir1])).is_err());
        assert!(run(&s(&["synth", "lots", &dir1])).is_err());
        assert!(run(&s(&["synth", "2"])).is_err());
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }

    #[test]
    fn load_reports_throughput_and_percentiles() {
        let dir = temp("load-fleet");
        let _ = std::fs::remove_dir_all(&dir);
        run(&s(&["synth", "3", &dir, "--seed", "5"])).unwrap();

        let cache_dir = temp("load-cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let port_file = temp("load-port");
        let _ = std::fs::remove_file(&port_file);
        let serve_args = s(&[
            "serve",
            "127.0.0.1:0",
            "--cache",
            &cache_dir,
            "--port-file",
            &port_file,
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(a) if a.ends_with('\n') => break a.trim().to_string(),
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };

        // Cold bytes-only pass primes the cache…
        let cold = run(&s(&["load", &addr, &dir, "--mix", "bytes"])).unwrap();
        assert!(cold.contains("completed 3 (0 from cache)"), "{cold}");
        assert!(cold.contains("errors 0 wire, 0 protocol"), "{cold}");
        // …then a mixed open-loop pass is served entirely from it.
        let warm = run(&s(&[
            "load",
            &addr,
            &dir,
            "--requests",
            "12",
            "--rate",
            "300",
            "--connections",
            "2",
        ]))
        .unwrap();
        assert!(warm.contains("completed 12 (12 from cache)"), "{warm}");
        assert!(warm.contains("open loop @ 300/s"), "{warm}");
        assert!(warm.contains("latency p50"), "{warm}");
        assert!(warm.contains("p99.9"), "{warm}");

        run(&s(&["drain", &addr])).unwrap();
        server.join().unwrap().unwrap();
        // Bad arguments are usage errors.
        assert!(run(&s(&["load", &addr])).is_err());
        assert!(run(&s(&["load", &addr, &dir, "--mix", "nope"])).is_err());
        assert!(run(&s(&["load", &addr, "/nonexistent-dir"])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&cache_dir);
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn gen_validates_device_id() {
        assert!(run(&s(&["gen", "0", "/tmp/x.fwi"])).is_err());
        assert!(run(&s(&["gen", "99", "/tmp/x.fwi"])).is_err());
        assert!(run(&s(&["gen", "abc", "/tmp/x.fwi"])).is_err());
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&s(&["inspect", "/nonexistent/image.fwi"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
