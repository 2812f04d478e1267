//! Dial tokens and dialing requests.
//!
//! A dial token is a 256-bit pseudorandom value generated from a keywheel
//! (§5 of the paper). To call a friend, a client submits the token for the
//! current round through the mixnet; the last mixnet server encodes each
//! dialing mailbox as a Golomb-coded set of the tokens it received (the
//! paper uses a Bloom filter; see `alpenhorn-bloom`).

use crate::codec::Decoder;
use crate::constants::{DIAL_REQUEST_LEN, DIAL_TOKEN_LEN};
use crate::error::WireError;
use crate::mailbox::MailboxId;

/// A 256-bit dial token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DialToken(pub [u8; DIAL_TOKEN_LEN]);

impl DialToken {
    /// Token bytes.
    pub fn as_bytes(&self) -> &[u8; DIAL_TOKEN_LEN] {
        &self.0
    }
}

/// A dialing request as submitted by a client to the mixnet: the recipient's
/// mailbox ID (in plaintext, like add-friend requests) and the dial token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DialRequest {
    /// Destination mailbox (or [`MailboxId::COVER`] for cover traffic).
    pub mailbox: MailboxId,
    /// The dial token. For cover traffic this is a uniformly random value,
    /// which is indistinguishable from a real token.
    pub token: DialToken,
}

impl DialRequest {
    /// Encodes the request into its fixed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the request into `out` (cleared first), so round-driven
    /// callers can reuse one buffer across rounds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(DIAL_REQUEST_LEN);
        out.extend_from_slice(&self.mailbox.0.to_be_bytes());
        out.extend_from_slice(&self.token.0);
        debug_assert_eq!(out.len(), DIAL_REQUEST_LEN);
    }

    /// Decodes a request from its fixed wire form.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() != DIAL_REQUEST_LEN {
            return Err(WireError::WrongLength {
                expected: DIAL_REQUEST_LEN,
                actual: buf.len(),
            });
        }
        let mut d = Decoder::new(buf);
        let mailbox = MailboxId(d.get_u32("dial mailbox")?);
        let token = DialToken(d.get_array("dial token")?);
        d.finish()?;
        Ok(DialRequest { mailbox, token })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let req = DialRequest {
            mailbox: MailboxId(5),
            token: DialToken([0xabu8; 32]),
        };
        let buf = req.encode();
        assert_eq!(buf.len(), DIAL_REQUEST_LEN);
        assert_eq!(DialRequest::decode(&buf).unwrap(), req);
    }

    #[test]
    fn cover_round_trip() {
        let req = DialRequest {
            mailbox: MailboxId::COVER,
            token: DialToken([0u8; 32]),
        };
        let decoded = DialRequest::decode(&req.encode()).unwrap();
        assert!(decoded.mailbox.is_cover());
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(matches!(
            DialRequest::decode(&[0u8; 10]),
            Err(WireError::WrongLength { .. })
        ));
        assert!(matches!(
            DialRequest::decode(&[0u8; DIAL_REQUEST_LEN + 1]),
            Err(WireError::WrongLength { .. })
        ));
    }

    #[test]
    fn all_requests_same_size() {
        let a = DialRequest {
            mailbox: MailboxId(0),
            token: DialToken([0u8; 32]),
        };
        let b = DialRequest {
            mailbox: MailboxId::COVER,
            token: DialToken([0xffu8; 32]),
        };
        assert_eq!(a.encode().len(), b.encode().len());
    }
}
