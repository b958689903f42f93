//! Trace capture and replay.
//!
//! Records a window of any [`TraceSource`] into a compact binary format
//! (21 bytes per micro-op) that can be written to disk and replayed later.
//! This is how the suite supports the paper's §3.1 practice of "re-using
//! input traces" for run-to-run comparability, and it makes captured
//! workload windows portable between machines and simulator versions.

use crate::op::{MemRef, MicroOp, OpKind, Privilege};
use crate::source::TraceSource;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CSTRACE1";

/// A recorded window of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    label: String,
    ops: Vec<MicroOp>,
}

impl RecordedTrace {
    /// Records the next `n` micro-ops of `src` (fewer if it ends).
    pub fn record<S: TraceSource>(src: &mut S, n: usize) -> Self {
        let label = src.label().to_owned();
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            match src.next_op() {
                Some(op) => ops.push(op),
                None => break,
            }
        }
        Self { label, ops }
    }

    /// Builds a trace from raw ops.
    pub fn from_ops(label: impl Into<String>, ops: Vec<MicroOp>) -> Self {
        Self { label: label.into(), ops }
    }

    /// The recorded ops.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// The source's label at record time.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serializes the trace to a writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        let label = self.label.as_bytes();
        w.write_all(&(label.len() as u32).to_le_bytes())?;
        w.write_all(label)?;
        w.write_all(&(self.ops.len() as u64).to_le_bytes())?;
        for op in &self.ops {
            let (kind, flag) = encode_kind(op.kind);
            w.write_all(&op.pc.to_le_bytes())?;
            w.write_all(&[kind, flag])?;
            let (addr, size) = match op.mem {
                Some(m) => (m.addr, m.size),
                None => (0, 0),
            };
            w.write_all(&addr.to_le_bytes())?;
            w.write_all(&[size, u8::from(op.privilege.is_kernel()), op.dep1, op.dep2])?;
        }
        Ok(())
    }

    /// Deserializes a trace from a reader.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic number or malformed records,
    /// and propagates I/O errors from `r`.
    pub fn load<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a CSTRACE1 file"));
        }
        let mut len4 = [0u8; 4];
        r.read_exact(&mut len4)?;
        let label_len = u32::from_le_bytes(len4) as usize;
        if label_len > 4096 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "label too long"));
        }
        let mut label = vec![0u8; label_len];
        r.read_exact(&mut label)?;
        let label = String::from_utf8(label)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "label not UTF-8"))?;
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let count = u64::from_le_bytes(len8) as usize;
        let mut ops = Vec::with_capacity(count.min(1 << 24));
        for _ in 0..count {
            let mut rec = [0u8; 22];
            r.read_exact(&mut rec)?;
            let pc = u64::from_le_bytes(rec[0..8].try_into().expect("slice of 8"));
            let kind = decode_kind(rec[8], rec[9])?;
            let addr = u64::from_le_bytes(rec[10..18].try_into().expect("slice of 8"));
            let size = rec[18];
            let privilege = if rec[19] != 0 { Privilege::Kernel } else { Privilege::User };
            let mem = if kind.is_mem() {
                if size == 0 || size > 64 {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "bad access size"));
                }
                Some(MemRef::new(addr, size))
            } else {
                None
            };
            ops.push(MicroOp { pc, kind, mem, privilege, dep1: rec[20], dep2: rec[21] });
        }
        Ok(Self { label, ops })
    }

    /// Consumes the trace into a replaying source that loops forever.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn into_loop_source(self) -> crate::source::LoopSource {
        crate::source::LoopSource::new(self.ops)
    }

    /// Consumes the trace into a replaying source that plays once.
    pub fn into_source(self) -> crate::source::VecSource {
        crate::source::VecSource::with_label(self.ops, self.label)
    }
}

fn encode_kind(kind: OpKind) -> (u8, u8) {
    match kind {
        OpKind::IntAlu => (0, 0),
        OpKind::IntMul => (1, 0),
        OpKind::IntDiv => (2, 0),
        OpKind::Fp => (3, 0),
        OpKind::Load => (4, 0),
        OpKind::Store => (5, 0),
        OpKind::Branch { mispredict } => (6, u8::from(mispredict)),
    }
}

fn decode_kind(kind: u8, flag: u8) -> io::Result<OpKind> {
    Ok(match kind {
        0 => OpKind::IntAlu,
        1 => OpKind::IntMul,
        2 => OpKind::IntDiv,
        3 => OpKind::Fp,
        4 => OpKind::Load,
        5 => OpKind::Store,
        6 => OpKind::Branch { mispredict: flag != 0 },
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "unknown op kind")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    #[test]
    fn roundtrip_preserves_every_op() {
        let mut src = WorkloadProfile::tpcc().build_source(0, 99);
        let trace = RecordedTrace::record(&mut src, 5_000);
        assert_eq!(trace.len(), 5_000);
        let mut buf = Vec::new();
        trace.save(&mut buf).expect("in-memory write");
        let back = RecordedTrace::load(&mut buf.as_slice()).expect("parse");
        assert_eq!(back, trace);
        assert_eq!(back.label(), "TPC-C");
    }

    #[test]
    fn replay_matches_the_live_source() {
        let mut live = WorkloadProfile::mcf().build_source(1, 7);
        let trace = RecordedTrace::record(&mut live, 1_000);
        let mut fresh = WorkloadProfile::mcf().build_source(1, 7);
        let mut replay = trace.into_source();
        for _ in 0..1_000 {
            assert_eq!(replay.next_op(), fresh.next_op());
        }
        assert!(replay.next_op().is_none(), "replay window ends");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = RecordedTrace::load(&mut &b"NOTATRACE......"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_is_an_error() {
        let mut src = WorkloadProfile::mcf().build_source(0, 1);
        let trace = RecordedTrace::record(&mut src, 100);
        let mut buf = Vec::new();
        trace.save(&mut buf).expect("write");
        buf.truncate(buf.len() - 7);
        assert!(RecordedTrace::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn loop_replay_wraps() {
        let trace = RecordedTrace::from_ops(
            "t",
            vec![MicroOp::alu(0x40_0000), MicroOp::load(0x40_0004, 0x1000, 8)],
        );
        let mut src = trace.into_loop_source();
        let a = src.next_op().unwrap();
        src.next_op().unwrap();
        assert_eq!(src.next_op().unwrap(), a);
    }
}
