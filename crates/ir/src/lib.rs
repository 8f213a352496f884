//! # firmres-ir
//!
//! A P-Code-style register-transfer intermediate representation (IR) for
//! binary programs, modeled after the representation Ghidra exposes to
//! analyses in the FIRMRES paper (DSN 2024, §IV-C).
//!
//! The IR is the substrate every other FIRMRES crate builds on:
//!
//! * [`Varnode`] — a typed storage location `(address space, offset, size)`,
//!   the operand unit of every IR operation.
//! * [`PcodeOp`] — a single register-transfer operation
//!   `<addr: output OP input1, input2, …>`.
//! * [`Function`] / [`BasicBlock`] — a control-flow graph of operations,
//!   with a per-function symbol table that names locals and parameters
//!   (what Ghidra's decompiler recovers for real binaries).
//! * [`Program`] — a whole executable: functions, a data segment with
//!   string constants, an import table for library functions, and a
//!   [`CallGraph`].
//!
//! # Examples
//!
//! Build a function that formats a MAC address into a buffer and sends it:
//!
//! ```
//! use firmres_ir::{FunctionBuilder, Program, Varnode};
//!
//! let mut prog = Program::new("rms_connect");
//! let fmt = prog.add_string_constant("{\"mac\":\"%s\"}");
//! let mut fb = FunctionBuilder::new("send_ident", 0x1000);
//! let buf = fb.local("buf", 4);
//! let mac = fb.param("mac", 4);
//! fb.call_import("sprintf", &[buf.clone(), Varnode::ram(fmt, 4), mac]);
//! fb.call_import("SSL_write", &[buf]);
//! fb.ret();
//! prog.add_function(fb.finish());
//! assert_eq!(prog.functions().count(), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;

mod block;
mod callgraph;
mod function;
mod hash;
mod intern;
mod opcode;
mod program;
mod symbol;
mod varnode;

pub use block::{BasicBlock, BlockId};
pub use callgraph::{CallEdge, CallGraph};
pub use function::{Function, FunctionBuilder};
pub use hash::{
    caller_edges_hash, function_content_hash, program_context_hash, program_function_hashes, Fnv128,
};
pub use intern::{FnvBuildHasher, FnvHasher, Interner, Sym};
pub use opcode::Opcode;
pub use program::{import_address, is_import_address, Import, PcodeOp, Program};
pub use symbol::{DataType, Symbol, SymbolTable};
pub use varnode::{AddressSpace, Varnode};

/// A code or data address inside a program image.
///
/// Addresses are plain 64-bit offsets into the flat program address space;
/// the IR does not distinguish segments beyond the [`AddressSpace`] of each
/// varnode.
pub type Address = u64;
