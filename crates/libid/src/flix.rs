//! The `.flix` sealed index artifact.
//!
//! The file uses the cache store's framing ([`firmres_cache::seal`]):
//! magic, schema version, no key echo, the index payload and an FNV-64
//! trailer over everything before it. Writes go through a temp file, an
//! fsync and an atomic rename, and the open is checksum-first and
//! damage-tolerant: any corruption (truncation, bit-flips, oversize
//! counts, trailing garbage) surfaces as a [`FlixError`] diagnostic,
//! never a panic, and callers degrade to full traversal.

use firmres_cache::codec::{
    get_field_source, get_pcode_op, get_varnode, put_field_source, put_pcode_op, put_varnode,
    DecodeError, Reader,
};
use firmres_cache::seal::{open, seal, SealError};
use firmres_dataflow::{
    intern_rejection_reason, LibFunc, LibFuncScripts, LibIndex, LibRegionKey, LibScript, LibStep,
    OpRef,
};
use firmres_ir::BlockId;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Magic bytes of a `.flix` known-library index.
pub const FLIX_MAGIC: &[u8; 4] = b"FLIX";

/// Schema version of the `.flix` layout. Bumped on any encoding
/// change; older files are refused with a diagnostic (the builder
/// re-runs in minutes, so no migration machinery).
pub const FLIX_SCHEMA_VERSION: u16 = 1;

/// Everything that can go wrong opening, decoding, or writing an
/// index. The message is operator-facing; the analysis itself treats
/// any error as "no index" and falls back to full traversal.
#[derive(Debug)]
pub struct FlixError(pub String);

impl fmt::Display for FlixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flix: {}", self.0)
    }
}

impl std::error::Error for FlixError {}

impl From<DecodeError> for FlixError {
    fn from(e: DecodeError) -> FlixError {
        FlixError(format!("malformed index: {e}"))
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_opref(out: &mut Vec<u8>, r: &OpRef) {
    out.extend_from_slice(&r.block.0.to_le_bytes());
    out.extend_from_slice(&(r.index as u64).to_le_bytes());
}

fn get_opref(r: &mut Reader) -> Result<OpRef, DecodeError> {
    let block = BlockId(r.u32()?);
    let index = r.u64()? as usize;
    Ok(OpRef { block, index })
}

fn put_region_key(out: &mut Vec<u8>, k: &LibRegionKey) {
    match k {
        LibRegionKey::Stack(o) => {
            out.push(0);
            out.extend_from_slice(&o.to_le_bytes());
        }
        LibRegionKey::Alloc(a) => {
            out.push(1);
            out.extend_from_slice(&a.to_le_bytes());
        }
        LibRegionKey::PtrParam(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
    }
}

fn get_region_key(r: &mut Reader) -> Result<LibRegionKey, DecodeError> {
    match r.u8()? {
        0 => Ok(LibRegionKey::Stack(r.u64()? as i64)),
        1 => Ok(LibRegionKey::Alloc(r.u64()?)),
        2 => Ok(LibRegionKey::PtrParam(r.u32()?)),
        t => Err(DecodeError(format!("unknown region-key tag {t}"))),
    }
}

fn put_step(out: &mut Vec<u8>, step: &LibStep) {
    match step {
        LibStep::OpenValue {
            parent,
            at,
            v,
            depth,
        } => {
            out.push(0);
            out.extend_from_slice(&parent.to_le_bytes());
            put_opref(out, at);
            put_varnode(out, v);
            out.extend_from_slice(&depth.to_le_bytes());
        }
        LibStep::OpenRegion {
            parent,
            region,
            before,
            depth,
        } => {
            out.push(1);
            out.extend_from_slice(&parent.to_le_bytes());
            put_region_key(out, region);
            match before {
                Some(r) => {
                    out.push(1);
                    put_opref(out, r);
                }
                None => out.push(0),
            }
            out.extend_from_slice(&depth.to_le_bytes());
        }
        LibStep::Close => out.push(2),
        LibStep::Transform { id, parent, op } => {
            out.push(3);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&parent.to_le_bytes());
            put_pcode_op(out, op);
        }
        LibStep::Write {
            id,
            parent,
            op,
            via,
        } => {
            out.push(4);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&parent.to_le_bytes());
            put_pcode_op(out, op);
            put_string(out, via);
        }
        LibStep::ThroughCall {
            id,
            parent,
            op,
            callee,
        } => {
            out.push(5);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&parent.to_le_bytes());
            put_pcode_op(out, op);
            put_string(out, callee);
        }
        LibStep::Leaf { parent, source } => {
            out.push(6);
            out.extend_from_slice(&parent.to_le_bytes());
            put_field_source(out, source);
        }
        LibStep::Resume {
            id,
            parent,
            v,
            param,
            depth,
        } => {
            out.push(7);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&parent.to_le_bytes());
            put_varnode(out, v);
            out.extend_from_slice(&param.to_le_bytes());
            out.extend_from_slice(&depth.to_le_bytes());
        }
    }
}

fn get_step(r: &mut Reader) -> Result<LibStep, DecodeError> {
    match r.u8()? {
        0 => Ok(LibStep::OpenValue {
            parent: r.u32()?,
            at: get_opref(r)?,
            v: get_varnode(r)?,
            depth: r.u32()?,
        }),
        1 => {
            let parent = r.u32()?;
            let region = get_region_key(r)?;
            let before = match r.u8()? {
                0 => None,
                1 => Some(get_opref(r)?),
                t => return Err(DecodeError(format!("bad before marker {t}"))),
            };
            Ok(LibStep::OpenRegion {
                parent,
                region,
                before,
                depth: r.u32()?,
            })
        }
        2 => Ok(LibStep::Close),
        3 => Ok(LibStep::Transform {
            id: r.u32()?,
            parent: r.u32()?,
            op: get_pcode_op(r)?,
        }),
        4 => Ok(LibStep::Write {
            id: r.u32()?,
            parent: r.u32()?,
            op: get_pcode_op(r)?,
            via: r.string()?,
        }),
        5 => Ok(LibStep::ThroughCall {
            id: r.u32()?,
            parent: r.u32()?,
            op: get_pcode_op(r)?,
            callee: r.string()?,
        }),
        6 => Ok(LibStep::Leaf {
            parent: r.u32()?,
            source: get_field_source(r)?,
        }),
        7 => Ok(LibStep::Resume {
            id: r.u32()?,
            parent: r.u32()?,
            v: get_varnode(r)?,
            param: r.u32()?,
            depth: r.u32()?,
        }),
        t => Err(DecodeError(format!("unknown step tag {t}"))),
    }
}

fn put_script(out: &mut Vec<u8>, s: &LibScript) {
    out.extend_from_slice(&(s.steps.len() as u32).to_le_bytes());
    for step in &s.steps {
        put_step(out, step);
    }
}

fn get_script(r: &mut Reader) -> Result<LibScript, DecodeError> {
    let n = r.seq_len()?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        steps.push(get_step(r)?);
    }
    Ok(LibScript { steps })
}

/// Encode an index into complete `.flix` file bytes (magic through
/// trailer).
pub fn encode_index(index: &LibIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&index.const_ceiling().to_le_bytes());
    out.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for (hash, f) in index.iter() {
        out.extend_from_slice(&hash.to_le_bytes());
        put_string(&mut out, &f.lib);
        put_string(&mut out, &f.version);
        put_string(&mut out, &f.func);
        out.extend_from_slice(&f.entry.to_le_bytes());
        out.extend_from_slice(&(f.scripts.params.len() as u32).to_le_bytes());
        for (i, s) in &f.scripts.params {
            out.extend_from_slice(&i.to_le_bytes());
            put_script(&mut out, s);
        }
        match &f.scripts.returns {
            Some(s) => {
                out.push(1);
                put_script(&mut out, s);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(f.scripts.rejected.len() as u32).to_le_bytes());
        for (role, reason) in &f.scripts.rejected {
            put_string(&mut out, role);
            put_string(&mut out, reason);
        }
    }
    seal(FLIX_MAGIC, FLIX_SCHEMA_VERSION, &[], &out)
}

/// Decode complete `.flix` file bytes. Checksum-first: a valid trailer
/// is required before any field is interpreted, so corruption anywhere
/// in the file (including trailing garbage, which shifts the trailer)
/// is caught up front.
pub fn decode_index(bytes: &[u8]) -> Result<LibIndex, FlixError> {
    let payload = open(bytes, FLIX_MAGIC, FLIX_SCHEMA_VERSION, &[]).map_err(|e| {
        FlixError(match e {
            SealError::Truncated => {
                format!("file too short to be an index ({} bytes)", bytes.len())
            }
            SealError::BadMagic => "bad magic: not a .flix index".to_string(),
            SealError::SchemaMismatch { found } => format!(
                "schema version {found} (this build reads {FLIX_SCHEMA_VERSION}); rebuild the index"
            ),
            e => format!("{e}: truncated or corrupt index"),
        })
    })?;
    let mut r = Reader::new(payload);
    let const_ceiling = r.u64()?;
    let n = r.seq_len()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let hash = r.u128()?;
        let lib = r.string()?;
        let version = r.string()?;
        let func = r.string()?;
        let entry = r.u64()?;
        let nparams = r.seq_len()?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            let idx = r.u32()?;
            params.push((idx, get_script(&mut r)?));
        }
        let returns = match r.u8()? {
            0 => None,
            1 => Some(get_script(&mut r)?),
            t => return Err(FlixError(format!("bad returns marker {t}"))),
        };
        let nrej = r.seq_len()?;
        let mut rejected = Vec::with_capacity(nrej);
        for _ in 0..nrej {
            let role = r.string()?;
            let reason = r.string()?;
            rejected.push((role, intern_rejection_reason(&reason)));
        }
        entries.push((
            hash,
            LibFunc {
                lib,
                version,
                func,
                entry,
                scripts: LibFuncScripts {
                    params,
                    returns,
                    rejected,
                },
            },
        ));
    }
    if r.remaining() != 0 {
        return Err(FlixError(format!(
            "{} bytes of trailing payload after the last entry",
            r.remaining()
        )));
    }
    Ok(LibIndex::new(entries, const_ceiling))
}

/// Seal an index to disk: write to a sibling temp file, fsync, then
/// atomically rename into place (a reader never observes a half-written
/// index).
pub fn write_index(path: &Path, index: &LibIndex) -> Result<(), FlixError> {
    let bytes = encode_index(index);
    let tmp = path.with_extension("flix.tmp");
    let io = |what: &str, e: std::io::Error| FlixError(format!("{what} {}: {e}", tmp.display()));
    let mut f = fs::File::create(&tmp).map_err(|e| io("create", e))?;
    f.write_all(&bytes).map_err(|e| io("write", e))?;
    f.sync_all().map_err(|e| io("sync", e))?;
    drop(f);
    fs::rename(&tmp, path)
        .map_err(|e| FlixError(format!("rename into {}: {e}", path.display())))?;
    Ok(())
}

/// Open an index from disk. Any I/O or format problem is a diagnostic,
/// never a panic; callers treat an error as "analyze without an index".
pub fn load_index(path: &Path) -> Result<LibIndex, FlixError> {
    let bytes = fs::read(path).map_err(|e| FlixError(format!("read {}: {e}", path.display())))?;
    decode_index(&bytes)
}
