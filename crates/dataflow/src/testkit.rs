//! Corpus fixture shared by the crate's reference-oracle tests.

use crate::{delivery_payload_arg, TaintEngine};
use firmres_ir::{Address, Program};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One lifted executable of the 22-device corpus and its delivery
/// callsites.
pub(crate) struct CorpusProgram {
    pub program: Program,
    /// `(function entry, callsite, payload argument)` of every call to a
    /// delivery function ([`delivery_payload_arg`]), in program order.
    pub sites: Vec<(Address, Address, usize)>,
}

impl CorpusProgram {
    /// Trace every delivery callsite with a fresh engine and return the
    /// entries of every function the traces touched.
    pub fn traced_functions(&self) -> BTreeSet<Address> {
        let engine = TaintEngine::new(&self.program);
        let mut funcs = BTreeSet::new();
        for &(func, callsite, arg) in &self.sites {
            engine.trace(func, callsite, arg);
            let deps = engine
                .trace_deps(func, callsite, arg)
                .expect("trace memoized");
            funcs.extend(deps.funcs);
        }
        funcs
    }
}

/// Every executable of the seed-7 corpus that parses and lifts, generated
/// once per test binary.
pub(crate) fn corpus() -> &'static [CorpusProgram] {
    static CORPUS: OnceLock<Vec<CorpusProgram>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut out = Vec::new();
        for dev in firmres_corpus::generate_corpus(7) {
            for (path, bytes) in dev.firmware.executables() {
                let Ok(exe) = firmres_isa::Executable::from_bytes(bytes) else {
                    continue;
                };
                let Ok(program) = firmres_isa::lift(&exe, path) else {
                    continue;
                };
                let mut sites = Vec::new();
                for f in program.functions() {
                    for op in f.callsites() {
                        let name = op.call_target().and_then(|t| program.callee_name(t));
                        if let Some(arg) = name.and_then(delivery_payload_arg) {
                            sites.push((f.entry(), op.addr, arg));
                        }
                    }
                }
                out.push(CorpusProgram { program, sites });
            }
        }
        assert!(
            out.iter().map(|p| p.sites.len()).sum::<usize>() > 100,
            "the corpus has delivery callsites to check"
        );
        out
    })
}
