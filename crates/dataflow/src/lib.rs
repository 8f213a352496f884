//! # firmres-dataflow
//!
//! The static dataflow framework underpinning FIRMRES (paper §IV-B):
//! intra-procedural reaching definitions, pointer/region resolution,
//! library-call summaries, and the backward inter-procedural taint engine
//! that traces device-cloud message contents from their delivery callsites
//! back to the sources of individual message fields.
//!
//! Terminology follows the paper: the **taint sources** are the arguments
//! of message-delivery callsites (`SSL_write`, `mosquitto_publish`,
//! `http_post`, …) and the **taint sinks** are the origins of message
//! fields (string constants, NVRAM/config reads, device-info getters,
//! front-end input). [`TaintEngine::trace`] returns a [`TaintTree`] whose
//! root is the delivery argument and whose leaves are those field sources —
//! exactly the structure the `firmres-mft` crate turns into a Message
//! Field Tree.
//!
//! # Examples
//!
//! ```
//! use firmres_dataflow::TaintEngine;
//! use firmres_isa::{Assembler, lift};
//!
//! let exe = Assembler::new().assemble(r#"
//! .func main
//! .local buf 64
//!     lea a0, buf
//!     la  a1, fmt
//!     callx nvram_get      ; rv = nvram_get(fmt)... (illustrative)
//!     lea a0, buf
//!     callx SSL_write
//!     ret
//! .endfunc
//! .data
//! fmt: .asciz "mac"
//! "#)?;
//! let prog = lift(&exe, "demo")?;
//! let engine = TaintEngine::new(&prog);
//! let f = prog.function_by_name("main").unwrap();
//! let callsite = f.callsites().last().unwrap().addr;
//! let tree = engine.trace(f.entry(), callsite, 0);
//! assert!(tree.len() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod defuse;
mod libsum;
mod region;
mod summary;
mod taint;
#[cfg(test)]
mod testkit;

pub use defuse::{DefUse, OpRef};
pub use libsum::{
    intern_rejection_reason, LibFunc, LibFuncScripts, LibId, LibIndex, LibRegionKey, LibScript,
    LibStats, LibStep, REJECTION_REASONS,
};
pub use region::{resolve_region, Region};
pub use summary::{
    delivery_endpoint_arg, delivery_payload_arg, incoming_buffer_arg, is_outgoing, summary_for,
    SourceKind, Summary, SummaryEffect,
};
pub use taint::{
    intern_unresolved_reason, FieldSource, TaintConfig, TaintEngine, TaintNode, TaintNodeId,
    TaintNodeKind, TaintTree, TraceDeps, UNRESOLVED_REASONS,
};
