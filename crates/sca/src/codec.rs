//! Compact binary persistence for trace sets.
//!
//! Million-trace campaigns are expensive to collect; attackers (and
//! evaluators) store them and re-analyze offline. This is a small,
//! versioned, dependency-light binary format:
//!
//! ```text
//! magic "PSCT" | version u16 | label len u16 | label bytes
//! | trace count u64 | per trace: value f64 | pt [16] | ct [16]
//! ```
//!
//! Version 2 appends two label bytes per trace — the TVLA pass and the
//! plaintext class (`0xFF` = unclassed, i.e. a known-plaintext CPA
//! window) — so recorded campaigns replay with their full TVLA structure
//! intact. All integers little-endian. Readers accept both versions
//! ([`read_trace_set`] drops the labels, [`read_recording`] keeps them)
//! and reject bad magic, unknown versions and truncated payloads.

use crate::trace::{Trace, TraceSet};
use crate::tvla::PlaintextClass;
use bytes::{Buf, BufMut, BytesMut};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"PSCT";
const VERSION: u16 = 1;
const VERSION_LABELED: u16 = 2;
/// Per-trace byte width of the two formats.
const V1_TRACE_BYTES: usize = 40;
const V2_TRACE_BYTES: usize = 42;
/// Wire value of a `None` class byte.
const CLASS_NONE: u8 = 0xFF;

/// Errors from [`read_trace_set`].
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u16),
    /// The payload ended early or contained invalid lengths.
    Truncated,
    /// Label bytes were not UTF-8.
    BadLabel,
    /// A version-2 class byte was not a valid [`PlaintextClass`] code.
    BadClass(u8),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a PSCT trace file"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace format version {v}"),
            CodecError::Truncated => write!(f, "truncated trace payload"),
            CodecError::BadLabel => write!(f, "label is not valid UTF-8"),
            CodecError::BadClass(c) => write!(f, "invalid plaintext-class byte {c:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Serialize a trace set to a writer (pass `&mut file` for files).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace_set<W: Write>(set: &TraceSet, mut writer: W) -> Result<(), CodecError> {
    let label = set.label.as_bytes();
    let mut header = BytesMut::with_capacity(4 + 2 + 2 + label.len() + 8);
    header.put_slice(MAGIC);
    header.put_u16_le(VERSION);
    header.put_u16_le(label.len().min(u16::MAX as usize) as u16);
    header.put_slice(&label[..label.len().min(u16::MAX as usize)]);
    header.put_u64_le(set.len() as u64);
    writer.write_all(&header)?;

    let mut buf = BytesMut::with_capacity(40 * 1024);
    for t in set.iter() {
        buf.put_f64_le(t.value);
        buf.put_slice(&t.plaintext);
        buf.put_slice(&t.ciphertext);
        if buf.len() >= 32 * 1024 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// One recorded trace with its TVLA labels (version-2 payload unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledTrace {
    /// The observation itself.
    pub trace: Trace,
    /// TVLA pass (0 = unprimed, 1 = primed; 0 for CPA collection).
    pub pass: u8,
    /// TVLA plaintext class; `None` for known-plaintext CPA windows.
    pub class: Option<PlaintextClass>,
}

/// A labelled, fully replayable recording of one channel's campaign
/// slice — what [`read_recording`] returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Channel label (e.g. the SMC key name, or `PCPU`).
    pub label: String,
    /// Traces in collection order, with their TVLA labels.
    pub traces: Vec<LabeledTrace>,
}

impl Recording {
    /// Drop the labels, keeping the plain trace set (offline CPA shape).
    #[must_use]
    pub fn into_trace_set(self) -> TraceSet {
        let mut set = TraceSet::with_capacity(self.label, self.traces.len());
        for t in self.traces {
            set.push(t.trace);
        }
        set
    }
}

/// Serialize a labeled recording (version-2 format: per-trace TVLA pass
/// and plaintext class survive the round trip, so replayed campaigns
/// rebuild identical TVLA matrices).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_recording<W: Write>(
    label: &str,
    traces: &[LabeledTrace],
    mut writer: W,
) -> Result<(), CodecError> {
    let label = label.as_bytes();
    let mut header = BytesMut::with_capacity(4 + 2 + 2 + label.len() + 8);
    header.put_slice(MAGIC);
    header.put_u16_le(VERSION_LABELED);
    header.put_u16_le(label.len().min(u16::MAX as usize) as u16);
    header.put_slice(&label[..label.len().min(u16::MAX as usize)]);
    header.put_u64_le(traces.len() as u64);
    writer.write_all(&header)?;

    let mut buf = BytesMut::with_capacity(V2_TRACE_BYTES * 1024);
    for t in traces {
        buf.put_f64_le(t.trace.value);
        buf.put_slice(&t.trace.plaintext);
        buf.put_slice(&t.trace.ciphertext);
        buf.put_u8(t.pass);
        buf.put_u8(t.class.map_or(CLASS_NONE, |c| c.index() as u8));
        if buf.len() >= 32 * 1024 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Traces per [`RecordingReader::read_chunk`] call when a whole file is
/// read; bounds the staging buffer whatever count the header declares.
const WHOLE_FILE_CHUNK: usize = 4096;

/// An early end of input is a truncated payload, not an I/O failure.
fn eof_is_truncation(e: std::io::Error) -> CodecError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        CodecError::Truncated
    } else {
        CodecError::Io(e)
    }
}

fn read_one(buf: &mut &[u8], version: u16) -> Result<LabeledTrace, CodecError> {
    let value = buf.get_f64_le();
    let mut plaintext = [0u8; 16];
    buf.copy_to_slice(&mut plaintext);
    let mut ciphertext = [0u8; 16];
    buf.copy_to_slice(&mut ciphertext);
    let (pass, class) = if version == VERSION_LABELED {
        let pass = buf.get_u8();
        let class = match buf.get_u8() {
            CLASS_NONE => None,
            idx => Some(*PlaintextClass::ALL.get(idx as usize).ok_or(CodecError::BadClass(idx))?),
        };
        (pass, class)
    } else {
        (0, None)
    };
    Ok(LabeledTrace { trace: Trace { value, plaintext, ciphertext }, pass, class })
}

/// Deserialize a trace set from a reader. Accepts both format versions;
/// version-2 TVLA labels are dropped (use [`read_recording`] to keep
/// them).
///
/// # Errors
///
/// See [`CodecError`] for the failure modes.
pub fn read_trace_set<R: Read>(reader: R) -> Result<TraceSet, CodecError> {
    Ok(read_recording(reader)?.into_trace_set())
}

/// Read only the channel label from a trace-file header (the cheap probe
/// replay front ends use to discover which channels a directory of
/// recordings holds — no payload is read).
///
/// # Errors
///
/// See [`CodecError`] for the failure modes.
pub fn read_label<R: Read>(reader: R) -> Result<String, CodecError> {
    Ok(RecordingReader::new(reader)?.label)
}

/// Deserialize a recording, keeping the per-trace TVLA labels. Version-1
/// files read back with `pass = 0`, `class = None`.
///
/// # Errors
///
/// See [`CodecError`] for the failure modes.
pub fn read_recording<R: Read>(reader: R) -> Result<Recording, CodecError> {
    let mut reader = RecordingReader::new(reader)?;
    let mut traces = Vec::new();
    let mut chunk = Vec::new();
    while reader.read_chunk(WHOLE_FILE_CHUNK, &mut chunk)? > 0 {
        traces.extend_from_slice(&chunk);
    }
    Ok(Recording { label: reader.label, traces })
}

/// Incremental reader over one recording: the header is parsed eagerly,
/// then traces stream out in caller-sized chunks — memory stays
/// O(chunk), not O(file), so a single worker can replay million-trace
/// shard files. This is the one header parser: [`read_recording`],
/// [`read_trace_set`] and [`read_label`] are built on it. It accepts both
/// format versions and rejects bad magic/version/label/class bytes,
/// truncation and trailing garbage.
#[derive(Debug)]
pub struct RecordingReader<R: Read> {
    reader: R,
    label: String,
    version: u16,
    remaining: u64,
    end_checked: bool,
    buf: Vec<u8>,
}

impl<R: Read> RecordingReader<R> {
    /// Parse the header, leaving the reader at the first trace record.
    ///
    /// # Errors
    ///
    /// See [`CodecError`] for the failure modes.
    pub fn new(mut reader: R) -> Result<Self, CodecError> {
        let mut head = [0u8; 8];
        reader.read_exact(&mut head).map_err(eof_is_truncation)?;
        if &head[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != VERSION && version != VERSION_LABELED {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let mut label = vec![0u8; u16::from_le_bytes([head[6], head[7]]) as usize];
        reader.read_exact(&mut label).map_err(eof_is_truncation)?;
        let label = String::from_utf8(label).map_err(|_| CodecError::BadLabel)?;
        let mut count = [0u8; 8];
        reader.read_exact(&mut count).map_err(eof_is_truncation)?;
        let remaining = u64::from_le_bytes(count);
        Ok(Self { reader, label, version, remaining, end_checked: false, buf: Vec::new() })
    }

    /// The recording's channel label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Traces not yet read.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read up to `max` traces into `out` (cleared first). Returns the
    /// number read; `0` means the recording is exhausted. The final call
    /// also verifies the payload ends exactly at the declared count
    /// (trailing bytes are [`CodecError::Truncated`]).
    ///
    /// # Errors
    ///
    /// See [`CodecError`] for the failure modes.
    pub fn read_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<LabeledTrace>,
    ) -> Result<usize, CodecError> {
        out.clear();
        let take = usize::try_from(self.remaining).unwrap_or(usize::MAX).min(max.max(1));
        if self.remaining == 0 {
            if !self.end_checked {
                self.end_checked = true;
                if self.reader.read(&mut [0u8; 1])? != 0 {
                    return Err(CodecError::Truncated);
                }
            }
            return Ok(0);
        }
        let trace_bytes = if self.version == VERSION { V1_TRACE_BYTES } else { V2_TRACE_BYTES };
        self.buf.resize(take * trace_bytes, 0);
        self.reader.read_exact(&mut self.buf).map_err(eof_is_truncation)?;
        let mut slice = &self.buf[..];
        out.reserve(take);
        for _ in 0..take {
            out.push(read_one(&mut slice, self.version)?);
        }
        self.remaining -= take as u64;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(n: usize) -> TraceSet {
        let mut set = TraceSet::new("PHPC");
        for i in 0..n {
            set.push(Trace {
                value: i as f64 * 0.125 - 3.0,
                plaintext: core::array::from_fn(|b| (i + b) as u8),
                ciphertext: core::array::from_fn(|b| (i * 7 + b) as u8),
            });
        }
        set
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let set = sample_set(257);
        let mut bytes = Vec::new();
        write_trace_set(&set, &mut bytes).unwrap();
        let back = read_trace_set(&bytes[..]).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.label, "PHPC");
    }

    #[test]
    fn empty_set_roundtrips() {
        let set = TraceSet::new("empty");
        let mut bytes = Vec::new();
        write_trace_set(&set, &mut bytes).unwrap();
        let back = read_trace_set(&bytes[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.label, "empty");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = Vec::new();
        write_trace_set(&sample_set(3), &mut bytes).unwrap();
        bytes[0] = b'X';
        assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::BadMagic)));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = Vec::new();
        write_trace_set(&sample_set(3), &mut bytes).unwrap();
        bytes[4] = 99;
        assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::UnsupportedVersion(99))));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let mut bytes = Vec::new();
        write_trace_set(&sample_set(5), &mut bytes).unwrap();
        for cut in [1usize, 7, 9, bytes.len() - 1] {
            let r = read_trace_set(&bytes[..cut]);
            assert!(
                matches!(r, Err(CodecError::Truncated) | Err(CodecError::BadMagic)),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = Vec::new();
        write_trace_set(&sample_set(2), &mut bytes).unwrap();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(read_trace_set(&bytes[..]), Err(CodecError::Truncated)));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("psc_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.psct");
        let set = sample_set(100);
        write_trace_set(&set, std::fs::File::create(&path).unwrap()).unwrap();
        let back = read_trace_set(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        assert!(CodecError::BadMagic.to_string().contains("PSCT"));
        assert!(CodecError::UnsupportedVersion(7).to_string().contains('7'));
        assert!(CodecError::BadClass(9).to_string().contains("0x09"));
    }

    fn sample_recording(n: usize) -> Vec<LabeledTrace> {
        (0..n)
            .map(|i| LabeledTrace {
                trace: Trace {
                    value: i as f64 * 0.5 - 1.0,
                    plaintext: core::array::from_fn(|b| (i + b) as u8),
                    ciphertext: core::array::from_fn(|b| (i * 5 + b) as u8),
                },
                pass: (i % 2) as u8,
                class: match i % 4 {
                    0 => Some(PlaintextClass::AllZeros),
                    1 => Some(PlaintextClass::AllOnes),
                    2 => Some(PlaintextClass::Random),
                    _ => None,
                },
            })
            .collect()
    }

    #[test]
    fn labeled_roundtrip_preserves_labels() {
        let traces = sample_recording(101);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let back = read_recording(&bytes[..]).unwrap();
        assert_eq!(back.label, "PHPC");
        assert_eq!(back.traces, traces);
    }

    #[test]
    fn labeled_files_read_as_plain_trace_sets() {
        let traces = sample_recording(9);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let set = read_trace_set(&bytes[..]).unwrap();
        assert_eq!(set.len(), 9);
        for (plain, labeled) in set.iter().zip(&traces) {
            assert_eq!(*plain, labeled.trace);
        }
    }

    #[test]
    fn v1_files_read_as_unlabeled_recordings() {
        let set = sample_set(7);
        let mut bytes = Vec::new();
        write_trace_set(&set, &mut bytes).unwrap();
        let recording = read_recording(&bytes[..]).unwrap();
        assert_eq!(recording.traces.len(), 7);
        assert!(recording.traces.iter().all(|t| t.pass == 0 && t.class.is_none()));
        assert_eq!(recording.into_trace_set(), set);
    }

    #[test]
    fn labeled_rejects_bad_class_byte() {
        let traces = sample_recording(1);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] = 7;
        assert!(matches!(read_recording(&bytes[..]), Err(CodecError::BadClass(7))));
    }

    #[test]
    fn read_label_probes_header_only() {
        let mut bytes = Vec::new();
        write_recording("PHPC", &sample_recording(3), &mut bytes).unwrap();
        assert_eq!(read_label(&bytes[..]).unwrap(), "PHPC");
        // v1 files probe the same way.
        let mut v1 = Vec::new();
        write_trace_set(&sample_set(2), &mut v1).unwrap();
        assert_eq!(read_label(&v1[..]).unwrap(), "PHPC");
        assert!(matches!(read_label(&bytes[..6]), Err(CodecError::Truncated)));
        assert!(matches!(read_label(&b"XXXXXXXXXX"[..]), Err(CodecError::BadMagic)));
    }

    #[test]
    fn windowed_reader_matches_whole_file_reader() {
        let traces = sample_recording(101);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        let whole = read_recording(&bytes[..]).unwrap();
        let mut reader = RecordingReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.label(), "PHPC");
        assert_eq!(reader.remaining(), 101);
        let mut streamed = Vec::new();
        let mut chunk = Vec::new();
        while reader.read_chunk(17, &mut chunk).unwrap() > 0 {
            assert!(chunk.len() <= 17, "chunks bound memory");
            streamed.extend_from_slice(&chunk);
        }
        assert_eq!(streamed, whole.traces);
        assert_eq!(reader.remaining(), 0);
        // Exhausted readers keep returning 0.
        assert_eq!(reader.read_chunk(17, &mut chunk).unwrap(), 0);
    }

    #[test]
    fn windowed_reader_reads_v1_files() {
        let set = sample_set(9);
        let mut bytes = Vec::new();
        write_trace_set(&set, &mut bytes).unwrap();
        let mut reader = RecordingReader::new(&bytes[..]).unwrap();
        let mut chunk = Vec::new();
        let mut n = 0;
        while reader.read_chunk(4, &mut chunk).unwrap() > 0 {
            assert!(chunk.iter().all(|t| t.pass == 0 && t.class.is_none()));
            n += chunk.len();
        }
        assert_eq!(n, 9);
    }

    #[test]
    fn windowed_reader_rejects_truncation_and_garbage() {
        let traces = sample_recording(8);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();

        let mut reader = RecordingReader::new(&bytes[..bytes.len() - 1]).unwrap();
        let mut chunk = Vec::new();
        let mut result = Ok(1);
        while matches!(result, Ok(n) if n > 0) {
            result = reader.read_chunk(3, &mut chunk);
        }
        assert!(matches!(result, Err(CodecError::Truncated)), "{result:?}");

        let mut garbage = bytes.clone();
        garbage.extend_from_slice(&[0u8; 4]);
        let mut reader = RecordingReader::new(&garbage[..]).unwrap();
        let mut result = Ok(1);
        while matches!(result, Ok(n) if n > 0) {
            result = reader.read_chunk(64, &mut chunk);
        }
        assert!(matches!(result, Err(CodecError::Truncated)), "{result:?}");

        assert!(matches!(RecordingReader::new(&b"XXXXXXXXXX"[..]), Err(CodecError::BadMagic)));
        assert!(matches!(RecordingReader::new(&bytes[..6]), Err(CodecError::Truncated)));
    }

    #[test]
    fn labeled_rejects_truncation() {
        let traces = sample_recording(4);
        let mut bytes = Vec::new();
        write_recording("PHPC", &traces, &mut bytes).unwrap();
        assert!(matches!(read_recording(&bytes[..bytes.len() - 1]), Err(CodecError::Truncated)));
    }
}
