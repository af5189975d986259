//! Length-prefixed frames over a byte stream.
//!
//! The daemon's transport is deliberately minimal: every message is one
//! frame, `[payload length: u32 BE][tag: u32 BE][payload bytes]`, where
//! the payload is one of the engine spine's line-based text documents
//! (`mutree-request v1` in, `mutree-report v4` / `mutree-error v1` out,
//! plus the shutdown/drain control pair). The tag is an opaque client
//! correlation id: the server echoes a request's tag on its response, so
//! a client that pipelines can match responses to requests without the
//! protocol dictating ordering.
//!
//! A frame leaves in one write. Both ends set `TCP_NODELAY`, so the
//! kernel sends each write at once rather than waiting to coalesce it,
//! and every write on the raw `TcpStream` is its own `send(2)` and may be
//! its own segment, each waking the peer's reader. [`write_frame`]
//! therefore assembles header and payload in one buffer and hands the
//! stream one `write_all`: one send per frame.
//!
//! The length prefix is validated **before** any payload allocation:
//! a frame longer than [`MAX_FRAME_LEN`] is refused without reading it,
//! so a hostile or buggy client cannot make the daemon allocate
//! gigabytes by lying in the header. 16 MiB comfortably fits the largest
//! inline request the solver accepts (a 256-taxon matrix serializes to
//! well under 1 MiB) with room for future growth.

use std::io::{self, Read, Write};

/// Upper bound on a frame's payload length, in bytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (connection reset, ...).
    Io(io::Error),
    /// The stream ended mid-frame: inside the 8-byte header or before
    /// the promised payload length arrived. Carries the tag when the
    /// header was complete enough to know it.
    Truncated(Option<u32>),
    /// The header promised a payload longer than [`MAX_FRAME_LEN`];
    /// nothing was allocated or read past the header.
    Oversized {
        /// The frame's correlation tag.
        tag: u32,
        /// The promised payload length.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Truncated(_) => f.write_str("truncated frame"),
            FrameError::Oversized { len, .. } => {
                write!(f, "oversized frame: {len} bytes (limit {MAX_FRAME_LEN})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame with a single `write_all` (see the module docs) and
/// flushes the stream.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn write_frame(w: &mut impl Write, tag: u32, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&tag.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end of stream (the peer closed
/// between frames); an end of stream *inside* a frame is
/// [`FrameError::Truncated`].
///
/// # Errors
///
/// [`FrameError`] on I/O failure, truncation, or an oversized length
/// prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u32, Vec<u8>)>, FrameError> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated(None))
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let tag = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { tag, len });
    }
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut payload[at..]) {
            Ok(0) => return Err(FrameError::Truncated(Some(tag))),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some((tag, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        write_frame(&mut buf, 8, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some((7, b"hello".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((8, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_length_tag_and_payload() {
        for payload in [&b""[..], b"mutree-report v4\n", &[0xa5; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, 0x0102_0304, payload).unwrap();
            assert_eq!(w.writes.len(), 1, "{} payload bytes", payload.len());
            assert_eq!(w.flushes, 1);
            let frame = &w.writes[0];
            assert_eq!(frame.len(), 8 + payload.len());
            assert_eq!(frame[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(frame[4..8], [1, 2, 3, 4]);
            assert_eq!(&frame[8..], payload);
        }
    }

    #[test]
    fn truncated_header_and_payload_are_distinguished_from_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"abcdef").unwrap();
        // Half a header.
        let mut r = &buf[..3];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated(None))
        ));
        // Full header, half a payload.
        let mut r = &buf[..10];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated(Some(1)))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&42u32.to_be_bytes());
        let mut r = buf.as_slice();
        match read_frame(&mut r) {
            Err(FrameError::Oversized { tag, len }) => {
                assert_eq!(tag, 42);
                assert_eq!(len, u32::MAX as usize);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
