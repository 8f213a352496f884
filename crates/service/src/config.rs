//! Declarative service configuration: one INI-style file settable with
//! CLI overrides, covering all three operational policies.
//!
//! ```text
//! # firmres service config — every key optional, defaults reproduce
//! # the built-in behavior exactly.
//!
//! [service]
//! workers = 2          # pipeline worker threads (≥ 1)
//! unit_jobs = 1        # message-unit parallelism inside one job (≥ 1)
//! io_threads = 2       # sockets-per-thread multiplexer shards (≥ 1)
//!
//! [admission]
//! queue_cap = 32       # bounded FIFO depth (QueueFull beyond it)
//! inflight_cap = 8     # per-connection unfinished-job cap
//! retry_after_ms = 250 # back-off hint carried by QueueFull
//!
//! [store]
//! shards = 4           # key-prefix subdirectories (1 = flat layout)
//! byte_budget = 512M   # eviction budget ("none" = unbounded)
//! high_watermark = 1.0 # GC trigger, as a fraction of the budget
//! low_watermark = 0.85 # GC target, as a fraction of the budget
//!
//! [libid]
//! index = /etc/firmres/known.flix  # known-library index (.flix)
//! ```
//!
//! The format is deliberately tiny — `#`/`;` comments, `[section]`
//! headers, `key = value` lines — and strict: an unknown section or
//! key is an error, not a silent no-op, because a typoed
//! `byte_budgt = 1G` that parses cleanly would run the store
//! unbounded. So is a removed key (`class_cache_entries`,
//! `exempt_pinned`), and so is a thread count of 0, which would start
//! no worker and leave every miss queued forever. `serve`'s policy
//! flags each name one `(section, key)` and go through
//! [`ServiceConfig::apply`], and `[store]` keys are delegated to
//! [`StorePolicy::apply`], so the file and the flags parse with one
//! parser and cannot drift apart.

use firmres_cache::StorePolicy;
use std::path::Path;

/// Every operational policy of the daemon, as plain data: the
/// `[service]` and `[admission]` sections plus a [`StorePolicy`] for
/// `[store]`. [`Default`] reproduces the long-standing built-in
/// behavior, so an empty (or absent) config file changes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Pipeline worker threads (`[service] workers`).
    pub workers: usize,
    /// Message-unit parallelism inside one job (`[service] unit_jobs`).
    pub unit_jobs: usize,
    /// Multiplexer io-shard threads (`[service] io_threads`).
    pub io_threads: usize,
    /// Admission queue depth (`[admission] queue_cap`).
    pub queue_cap: usize,
    /// Per-connection in-flight cap (`[admission] inflight_cap`).
    pub conn_inflight_cap: u32,
    /// QueueFull back-off hint (`[admission] retry_after_ms`).
    pub retry_after_ms: u64,
    /// Store sharding and eviction policy (`[store]`).
    pub store: StorePolicy,
    /// Path to a known-library `.flix` index overlaid on every job
    /// (`[libid] index`), or `None` to run without one.
    pub libid_index: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            unit_jobs: 1,
            io_threads: 2,
            queue_cap: 32,
            conn_inflight_cap: 8,
            retry_after_ms: 250,
            store: StorePolicy::default(),
            libid_index: None,
        }
    }
}

impl ServiceConfig {
    /// Parse an INI-style config document. Unknown sections and keys
    /// are errors; every diagnostic carries its line number.
    pub fn parse(text: &str) -> Result<ServiceConfig, String> {
        let mut cfg = ServiceConfig::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unterminated section header"));
                };
                section = name.trim().to_ascii_lowercase();
                if !matches!(
                    section.as_str(),
                    "service" | "admission" | "store" | "libid"
                ) {
                    return Err(format!("line {lineno}: unknown section [{section}]"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = key.trim().to_ascii_lowercase();
            // Strip a trailing comment so `queue_cap = 32  # depth`
            // reads naturally.
            let value = value
                .split(['#', ';'])
                .next()
                .unwrap_or_default()
                .trim()
                .to_string();
            cfg.apply(&section, &key, &value)
                .map_err(|e| format!("line {lineno}: {e}"))?;
        }
        cfg.store.validate()?;
        Ok(cfg)
    }

    /// Read and parse a config file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ServiceConfig, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ServiceConfig::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Lower into the server's runtime tuning. The cache directory,
    /// classifier and loaded library index are deployment inputs rather
    /// than policy, so they stay on [`ServerConfig`]'s defaults
    /// (`None`) for the caller to fill in ([`ServiceConfig::libid_index`]
    /// names the file; the CLI loads it).
    ///
    /// [`ServerConfig`]: crate::ServerConfig
    pub fn to_server_config(&self) -> crate::server::ServerConfig {
        crate::server::ServerConfig {
            workers: self.workers,
            unit_jobs: self.unit_jobs,
            io_threads: self.io_threads,
            queue_cap: self.queue_cap,
            conn_inflight_cap: self.conn_inflight_cap,
            retry_after_ms: self.retry_after_ms,
            store: self.store.clone(),
            ..crate::server::ServerConfig::default()
        }
    }

    /// Apply one `section.key = value` assignment. A value error that
    /// names the key starts with it, so a caller that spells the knob
    /// differently (a `serve` flag) can substitute its own name.
    pub fn apply(&mut self, section: &str, key: &str, value: &str) -> Result<(), String> {
        let count = |what: &str| -> Result<usize, String> {
            value
                .parse::<usize>()
                .map_err(|_| format!("{what}: not a count: {value:?}"))
        };
        let threads = |what: &str| match count(what)? {
            0 => Err(format!(
                "{what} must be at least 1 (0 threads cannot run anything)"
            )),
            n => Ok(n),
        };
        match (section, key) {
            ("service", "workers") => self.workers = threads("workers")?,
            ("service", "unit_jobs") => self.unit_jobs = threads("unit_jobs")?,
            ("service", "io_threads") => self.io_threads = threads("io_threads")?,
            ("admission", "queue_cap") => self.queue_cap = count("queue_cap")?,
            ("admission", "inflight_cap") => {
                self.conn_inflight_cap = value
                    .parse()
                    .map_err(|_| format!("inflight_cap: not a count: {value:?}"))?;
            }
            ("admission", "retry_after_ms") => {
                self.retry_after_ms = value
                    .parse()
                    .map_err(|_| format!("retry_after_ms: not a duration in ms: {value:?}"))?;
            }
            ("store", _) => self.store.apply(key, value)?,
            ("libid", "index") => {
                self.libid_index = if value.is_empty() || value == "none" {
                    None
                } else {
                    Some(value.to_string())
                };
            }
            ("", _) => return Err(format!("key {key:?} before any [section] header")),
            (_, _) => return Err(format!("unknown key {key:?} in section [{section}]")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_reproduces_builtin_behavior() {
        let parsed = ServiceConfig::parse("").expect("empty parses");
        assert_eq!(parsed, ServiceConfig::default());
        assert_eq!(parsed.store, StorePolicy::default());
    }

    #[test]
    fn full_config_round_trips_every_section() {
        let text = "\n\
            # fleet-scale profile\n\
            [service]\n\
            workers = 4\n\
            unit_jobs = 2\n\
            io_threads = 3   ; trailing comment\n\
            \n\
            [admission]\n\
            queue_cap = 64\n\
            inflight_cap = 16\n\
            retry_after_ms = 100\n\
            \n\
            [store]\n\
            shards = 8\n\
            byte_budget = 2M\n\
            high_watermark = 0.95\n\
            low_watermark = 0.8\n";
        let cfg = ServiceConfig::parse(text).expect("full config parses");
        assert_eq!(cfg.libid_index, None);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.unit_jobs, 2);
        assert_eq!(cfg.io_threads, 3);
        assert_eq!(cfg.queue_cap, 64);
        assert_eq!(cfg.conn_inflight_cap, 16);
        assert_eq!(cfg.retry_after_ms, 100);
        assert_eq!(cfg.store.shards, 8);
        assert_eq!(cfg.store.byte_budget, Some(2 << 20));
    }

    #[test]
    fn removed_class_cache_knob_is_rejected_with_its_line() {
        let err =
            ServiceConfig::parse("[store]\nshards = 4\nclass_cache_entries = 4096\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("class_cache_entries"), "{err}");
    }

    #[test]
    fn removed_pinning_knob_is_rejected_with_its_line() {
        let err = ServiceConfig::parse("[store]\nexempt_pinned = true\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("exempt_pinned"), "{err}");
    }

    #[test]
    fn zero_thread_counts_are_rejected_with_their_line() {
        let err = ServiceConfig::parse("[service]\nunit_jobs = 2\nworkers = 0\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("workers must be at least 1"), "{err}");
        for key in ["unit_jobs", "io_threads"] {
            let err = ServiceConfig::parse(&format!("[service]\n{key} = 0\n")).unwrap_err();
            assert!(err.contains("line 2"), "{err}");
            assert!(err.contains(&format!("{key} must be at least 1")), "{err}");
        }
    }

    #[test]
    fn libid_section_sets_and_clears_the_index_path() {
        let cfg = ServiceConfig::parse(
            "[libid]
index = /srv/known.flix
",
        )
        .unwrap();
        assert_eq!(cfg.libid_index.as_deref(), Some("/srv/known.flix"));
        let cfg = ServiceConfig::parse(
            "[libid]
index = none
",
        )
        .unwrap();
        assert_eq!(cfg.libid_index, None);
        let err = ServiceConfig::parse(
            "[libid]
indexx = x
",
        )
        .unwrap_err();
        assert!(err.contains("indexx"), "{err}");
    }

    #[test]
    fn typos_are_errors_with_line_numbers() {
        let err = ServiceConfig::parse("[service]\nwrokers = 4\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("wrokers"), "{err}");
        let err = ServiceConfig::parse("[serviec]\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        let err = ServiceConfig::parse("workers = 4\n").unwrap_err();
        assert!(err.contains("before any [section]"), "{err}");
        let err = ServiceConfig::parse("[store]\nbyte_budgt = 1G\n").unwrap_err();
        assert!(err.contains("byte_budgt"), "{err}");
    }

    #[test]
    fn invalid_watermarks_fail_validation_at_parse_time() {
        let err = ServiceConfig::parse("[store]\nlow_watermark = 0.9\nhigh_watermark = 0.5\n")
            .unwrap_err();
        assert!(err.contains("low"), "{err}");
    }
}
