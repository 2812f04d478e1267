//! A small fixed-layout binary codec and the RPC frame format.
//!
//! Alpenhorn messages must be fixed-size (cover traffic has to be
//! indistinguishable from real traffic), so the codec favours explicit
//! fixed-width fields; variable-length data is always carried with an
//! explicit length prefix inside a fixed-size padded field.
//!
//! [`Frame`] is the outermost envelope of the client ↔ coordinator RPC
//! protocol (see [`crate::rpc`]): a magic-tagged, versioned, length-prefixed,
//! checksummed wrapper that lets the receiving side reject malformed,
//! mis-versioned, or corrupted traffic at the boundary before any message
//! decoding runs.

use std::io::{ErrorKind, Read, Write};

use crate::crc32c;
use crate::error::WireError;

/// Append-only encoder producing a byte vector.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends raw bytes with no length prefix (fixed-size field).
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends variable-length bytes with a `u32` length prefix.
    pub fn put_var_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.put_bytes(v)
    }

    /// Appends `v` into a field of exactly `width` bytes: one length byte,
    /// the data, and zero padding. Panics if `v.len() >= width`.
    pub fn put_padded(&mut self, v: &[u8], width: usize) -> &mut Self {
        assert!(
            v.len() < width,
            "padded field overflow: {} bytes into width {width}",
            v.len()
        );
        self.put_u8(v.len() as u8);
        self.put_bytes(v);
        for _ in 0..(width - 1 - v.len()) {
            self.buf.push(0);
        }
        self
    }

    /// Returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length of the encoded buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::UnexpectedEnd { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, context)
    }

    /// Reads a fixed-size array.
    pub fn get_array<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<[u8; N], WireError> {
        let b = self.take(N, context)?;
        let mut out = [0u8; N];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// Reads variable-length bytes written by [`Encoder::put_var_bytes`].
    pub fn get_var_bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_u32(context)? as usize;
        self.take(len, context)
    }

    /// Reads a padded field written by [`Encoder::put_padded`]. Non-zero
    /// padding is rejected, so each field value has exactly one encoding.
    pub fn get_padded(
        &mut self,
        width: usize,
        context: &'static str,
    ) -> Result<&'a [u8], WireError> {
        let len = self.get_u8(context)? as usize;
        if len >= width {
            return Err(WireError::InvalidValue { context });
        }
        let (value, padding) = self.take(width - 1, context)?.split_at(len);
        if padding.iter().any(|&b| b != 0) {
            return Err(WireError::InvalidValue { context });
        }
        Ok(value)
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns an error if any input remains.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Errors from reading a frame off a byte stream: either the underlying I/O
/// failed or the frame itself was malformed.
#[derive(Debug)]
pub enum FrameIoError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The frame was structurally invalid (bad magic, version, length, or
    /// checksum).
    Wire(WireError),
}

impl core::fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameIoError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameIoError::Wire(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameIoError {}

impl From<std::io::Error> for FrameIoError {
    fn from(e: std::io::Error) -> Self {
        FrameIoError::Io(e)
    }
}

impl From<WireError> for FrameIoError {
    fn from(e: WireError) -> Self {
        FrameIoError::Wire(e)
    }
}

/// The length-prefixed, versioned, checksummed RPC frame.
///
/// Layout (integers big-endian, except the checksum):
///
/// ```text
/// +-------+---------+-----------+----------------+------------+
/// | magic | version |  length   |    payload     |  checksum  |
/// | 2 B   | 1 B     | 4 B (u32) | `length` bytes | 4 B (LE)   |
/// +-------+---------+-----------+----------------+------------+
/// ```
///
/// The checksum is CRC-32C (Castagnoli) over everything before it (header
/// and payload), so truncation, bit flips, and length corruption are all
/// caught. It is the one little-endian field of the frame: a CRC's natural
/// byte order, as in RFC 3720. The trailer is a corruption detector, never
/// an authenticator — it was four bytes of an *unkeyed* SHA-256 through v4 —
/// and a CRC gives the same 32-bit strength against random damage, detects
/// every burst of up to 32 bits outright, and costs a table lookup per byte
/// instead of a hash compression per block.
///
/// Versioning rule: any change to the frame layout or to the encoding of the
/// RPC messages inside it bumps [`Frame::VERSION`]. Receivers accept exactly
/// that version; anything else — including the SHA-256-trailer versions 3 and
/// 4, the pre-batch 5 and 6, the pre-announcement 7 and 8, the retired
/// telemetry layout 10, the Bloom-filter mailboxes of 9 and the two-HKDF
/// onion layers of 11 — is rejected with [`WireError::UnsupportedVersion`].
/// A frame carries no trace context: every request that belongs to a trace
/// names its `(protocol, round)`, from which each receiver derives the round
/// correlation id (`alpenhorn_obs::correlation_id`) itself.
pub struct Frame;

impl Frame {
    /// Magic bytes every frame starts with ("AH" for Alpenhorn).
    pub const MAGIC: [u8; 2] = *b"AH";
    /// The protocol version this implementation speaks. History: v1 = the
    /// first RPC surface; v2 added [`crate::rpc::RpcError::Unavailable`]
    /// (typed transient server faults); v3 added the `retry_after_ms` backoff
    /// hint to `Unavailable` (overload shedding); v4 added an optional
    /// telemetry block (the round correlation id) beside the plain v3; v5
    /// (plain) and v6 (telemetry) replaced the truncated SHA-256 trailer of
    /// v3 and v4 with CRC-32C; v7 (plain) and v8 (telemetry) added
    /// [`crate::rpc::Request::Batch`] and [`crate::rpc::Response::Batch`]; v9
    /// (plain) and v10 (telemetry) added the mailbox count to
    /// `SubmitDialing`, the announced next round to `DialingMailbox` and
    /// [`crate::rpc::RpcError::StaleRoundInfo`]. The telemetry layout was then
    /// retired, leaving v9 as the one frame. v11 keeps v9's layout and
    /// encodings, but a dialing mailbox's opaque filter bytes are a
    /// Golomb-coded dial set instead of a Bloom filter, so a peer of the
    /// other meaning fails at its first frame rather than at a mailbox
    /// parse. v12 keeps v11's layout and encodings, but each onion layer's
    /// AEAD key is one HMAC over the DH point instead of two chained HKDFs,
    /// so an onion of the other derivation is refused at the first frame
    /// instead of acked and then dropped at hop 0. 10 and 11 stay retired.
    pub const VERSION: u8 = 12;
    /// Header length: magic + version + length prefix.
    pub const HEADER_LEN: usize = 2 + 1 + 4;
    /// Trailing checksum length.
    pub const CHECKSUM_LEN: usize = 4;
    /// Maximum payload size a frame may carry (16 MiB). A length prefix
    /// beyond this is rejected before any allocation happens.
    pub const MAX_PAYLOAD_LEN: usize = 1 << 24;
    /// How far [`Frame::read_from`] lets its buffer run ahead of the bytes
    /// that have actually arrived, so a peer cannot make the receiver reserve
    /// a whole [`Frame::MAX_PAYLOAD_LEN`] on the strength of a header alone.
    const READ_STEP: usize = 64 * 1024;

    fn checksum(parts: &[&[u8]]) -> [u8; Self::CHECKSUM_LEN] {
        parts
            .iter()
            .fold(0, |crc, part| crc32c::append(crc, part))
            .to_le_bytes()
    }

    /// Parses and validates a frame header, returning the payload length.
    fn parse_header(header: &[u8]) -> Result<usize, WireError> {
        if header[..2] != Self::MAGIC {
            return Err(WireError::BadMagic);
        }
        if header[2] != Self::VERSION {
            return Err(WireError::UnsupportedVersion { version: header[2] });
        }
        let claimed = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
        if claimed > Self::MAX_PAYLOAD_LEN {
            return Err(WireError::FrameTooLarge { claimed });
        }
        Ok(claimed)
    }

    fn try_encode(payload: &[u8]) -> Result<Vec<u8>, WireError> {
        if payload.len() > Self::MAX_PAYLOAD_LEN {
            return Err(WireError::FrameTooLarge {
                claimed: payload.len(),
            });
        }
        let mut out = Vec::with_capacity(Self::HEADER_LEN + payload.len() + Self::CHECKSUM_LEN);
        out.extend_from_slice(&Self::MAGIC);
        out.push(Self::VERSION);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        let checksum = Self::checksum(&[&out]);
        out.extend_from_slice(&checksum);
        Ok(out)
    }

    /// Wraps `payload` in a complete frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`Frame::MAX_PAYLOAD_LEN`]; no RPC
    /// message comes close (mailbox responses are the largest and are bounded
    /// by the round's mailbox size). [`Frame::write_to`] reports the same
    /// condition as an error instead.
    pub fn encode(payload: &[u8]) -> Vec<u8> {
        Self::try_encode(payload).expect("frame payload exceeds the maximum")
    }

    /// Decodes one complete frame from `buf`, returning the payload.
    ///
    /// The whole buffer must be exactly one frame; malformed input (wrong
    /// magic, unsupported version, oversized or lying length prefix,
    /// truncation, checksum mismatch) is rejected with a typed error and
    /// never panics.
    pub fn decode(buf: &[u8]) -> Result<&[u8], WireError> {
        if buf.len() < Self::HEADER_LEN + Self::CHECKSUM_LEN {
            return Err(WireError::UnexpectedEnd {
                context: "frame header",
            });
        }
        let claimed = Self::parse_header(&buf[..Self::HEADER_LEN])?;
        let total = Self::HEADER_LEN + claimed + Self::CHECKSUM_LEN;
        if buf.len() < total {
            return Err(WireError::UnexpectedEnd {
                context: "frame payload",
            });
        }
        if buf.len() > total {
            return Err(WireError::TrailingBytes {
                remaining: buf.len() - total,
            });
        }
        let (body, trailer) = buf.split_at(total - Self::CHECKSUM_LEN);
        if trailer != Self::checksum(&[body]) {
            return Err(WireError::ChecksumMismatch);
        }
        Ok(&body[Self::HEADER_LEN..])
    }

    /// Writes `payload` as one frame to `writer` and flushes. A payload over
    /// [`Frame::MAX_PAYLOAD_LEN`] is refused with
    /// [`std::io::ErrorKind::InvalidInput`] before anything is written.
    pub fn write_to(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
        let frame = Self::try_encode(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        writer.write_all(&frame)?;
        writer.flush()
    }

    /// Reads one complete frame from `reader`, returning the payload.
    ///
    /// Two reads for a frame that arrives whole: the header, then everything
    /// after it. Magic, version and the length bound are checked before any
    /// allocation, and the buffer then grows with the bytes received, never
    /// more than a bounded step ahead of them.
    pub fn read_from(reader: &mut impl Read) -> Result<Vec<u8>, FrameIoError> {
        let mut header = [0u8; Self::HEADER_LEN];
        reader.read_exact(&mut header)?;
        let claimed = Self::parse_header(&header)?;
        let rest = claimed + Self::CHECKSUM_LEN;
        let mut buf = Vec::new();
        let mut filled = 0;
        while filled < rest {
            if filled == buf.len() {
                buf.resize(rest.min(filled + Self::READ_STEP), 0);
            }
            match reader.read(&mut buf[filled..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into()),
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        if buf[claimed..] != Self::checksum(&[&header, &buf[..claimed]]) {
            return Err(WireError::ChecksumMismatch.into());
        }
        buf.truncate(claimed);
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7).put_u16(300).put_u32(70_000).put_u64(1 << 40);
        let buf = e.finish();
        assert_eq!(buf.len(), 1 + 2 + 4 + 8);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_u8("a").unwrap(), 7);
        assert_eq!(d.get_u16("b").unwrap(), 300);
        assert_eq!(d.get_u32("c").unwrap(), 70_000);
        assert_eq!(d.get_u64("d").unwrap(), 1 << 40);
        d.finish().unwrap();
    }

    #[test]
    fn var_bytes_round_trip() {
        let mut e = Encoder::new();
        e.put_var_bytes(b"hello");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_var_bytes("v").unwrap(), b"hello");
    }

    #[test]
    fn padded_field_is_fixed_width() {
        let mut e = Encoder::new();
        e.put_padded(b"alice@example.org", 64);
        let buf = e.finish();
        assert_eq!(buf.len(), 64);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.get_padded(64, "email").unwrap(), b"alice@example.org");
        d.finish().unwrap();
    }

    #[test]
    fn padded_field_same_size_regardless_of_content() {
        let mut short = Encoder::new();
        short.put_padded(b"a@b", 64);
        let mut long = Encoder::new();
        long.put_padded(b"someone.with.a.long.name@example.com", 64);
        assert_eq!(short.finish().len(), long.finish().len());
    }

    #[test]
    #[should_panic(expected = "padded field overflow")]
    fn padded_field_overflow_panics() {
        let mut e = Encoder::new();
        e.put_padded(&[0u8; 64], 64);
    }

    #[test]
    fn decoder_detects_truncation() {
        let buf = [1u8, 2];
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.get_u32("field"),
            Err(WireError::UnexpectedEnd { context: "field" })
        ));
    }

    #[test]
    fn decoder_detects_trailing_bytes() {
        let buf = [1u8, 2, 3];
        let mut d = Decoder::new(&buf);
        d.get_u8("x").unwrap();
        assert_eq!(d.finish(), Err(WireError::TrailingBytes { remaining: 2 }));
    }

    #[test]
    fn get_array_round_trip() {
        let mut e = Encoder::new();
        e.put_bytes(&[9u8; 32]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let arr: [u8; 32] = d.get_array("key").unwrap();
        assert_eq!(arr, [9u8; 32]);
    }

    #[test]
    fn golden_frame_bytes() {
        // Fixed bytes, not a reconstruction: any change to the layout, the
        // versions, the CRC or its byte order shows up here.
        let payload = b"hello alpenhorn";
        let v12 = [
            b'A', b'H', 12, 0, 0, 0, 15, // magic, version, length
            b'h', b'e', b'l', b'l', b'o', b' ', b'a', b'l', b'p', b'e', b'n', b'h', b'o', b'r',
            b'n', // payload
            0xC2, 0x08, 0x02, 0x0F, // CRC-32C, little-endian
        ];
        assert_eq!(Frame::encode(payload), v12);
        assert_eq!(Frame::decode(&v12).unwrap(), payload);
        assert_eq!(Frame::encode(&[]).len(), 11);
    }

    #[test]
    fn retired_frame_versions_are_unsupported() {
        // A well-formed v3 and v4 frame (truncated SHA-256 trailer), v5 and
        // v6 frame (CRC-32C trailer, no batch messages), v7 and v8 frame (no
        // announced dialing rounds), v9 frame (Bloom-filter dialing
        // mailboxes), v10 frame (the retired telemetry block) and v11 frame
        // (two-HKDF onion layer keys) must be answered with the version
        // error, not a checksum mismatch.
        for (version, telemetry) in [
            (3u8, &[][..]),
            (4, &[0u8; 8][..]),
            (5, &[][..]),
            (6, &[0u8; 8][..]),
            (7, &[][..]),
            (8, &[0u8; 8][..]),
            (9, &[][..]),
            (10, &[0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF][..]),
            (11, &[][..]),
        ] {
            let mut old = Vec::new();
            old.extend_from_slice(&Frame::MAGIC);
            old.push(version);
            old.extend_from_slice(&5u32.to_be_bytes());
            old.extend_from_slice(telemetry);
            old.extend_from_slice(b"hello");
            if version < 5 {
                let mut hasher = alpenhorn_crypto::sha256::Sha256::new();
                hasher.update(&old);
                old.extend_from_slice(&hasher.finalize()[..Frame::CHECKSUM_LEN]);
            } else {
                let checksum = Frame::checksum(&[&old]);
                old.extend_from_slice(&checksum);
            }
            assert_eq!(
                Frame::decode(&old),
                Err(WireError::UnsupportedVersion { version })
            );
            assert!(matches!(
                Frame::read_from(&mut &old[..]),
                Err(FrameIoError::Wire(WireError::UnsupportedVersion { version: v })) if v == version
            ));
        }
    }

    #[test]
    fn oversized_payload_is_an_error_on_write() {
        let payload = vec![0u8; Frame::MAX_PAYLOAD_LEN + 1];
        let mut wire = Vec::new();
        assert_eq!(
            Frame::write_to(&mut wire, &payload).unwrap_err().kind(),
            ErrorKind::InvalidInput
        );
        assert!(wire.is_empty(), "nothing is written for a refused frame");
    }

    /// Hands out `data` at most `chunk` bytes per `read`, then fails with
    /// `BrokenPipe`; records the largest buffer it was ever offered.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
        largest_offer: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_offer = self.largest_offer.max(buf.len());
            if self.data.is_empty() {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_buffer_follows_arrival_not_the_claimed_length() {
        // A header claiming the full 16 MiB, one payload byte, then failure.
        let mut sent = Vec::new();
        sent.extend_from_slice(&Frame::MAGIC);
        sent.push(Frame::VERSION);
        sent.extend_from_slice(&(Frame::MAX_PAYLOAD_LEN as u32).to_be_bytes());
        sent.push(0);
        let mut reader = Trickle {
            data: &sent,
            chunk: usize::MAX,
            largest_offer: 0,
        };
        assert!(matches!(
            Frame::read_from(&mut reader),
            Err(FrameIoError::Io(e)) if e.kind() == ErrorKind::BrokenPipe
        ));
        assert_eq!(reader.largest_offer, Frame::READ_STEP);
    }

    #[test]
    fn frames_delivered_one_byte_per_read_decode() {
        // Larger than one growth step, so the buffer grows mid-frame.
        let payload: Vec<u8> = (0..Frame::READ_STEP + 1000).map(|i| i as u8).collect();
        let mut sent = Vec::new();
        Frame::write_to(&mut sent, &payload).unwrap();
        let mut reader = Trickle {
            data: &sent,
            chunk: 1,
            largest_offer: 0,
        };
        assert_eq!(Frame::read_from(&mut reader).unwrap(), payload);
        assert!(reader.data.is_empty(), "exactly one frame is consumed");
    }

    #[test]
    fn padded_rejects_nonzero_padding() {
        let mut e = Encoder::new();
        e.put_padded(b"a@b", 64);
        let mut buf = e.finish();
        buf[63] = 1;
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.get_padded(64, "email"),
            Err(WireError::InvalidValue { .. })
        ));
    }

    #[test]
    fn padded_rejects_corrupt_length() {
        let mut buf = vec![0u8; 64];
        buf[0] = 64; // length byte >= width
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            d.get_padded(64, "email"),
            Err(WireError::InvalidValue { .. })
        ));
    }
}
