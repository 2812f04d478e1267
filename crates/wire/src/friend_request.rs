//! The friend request structure (Figure 3 of the paper) and its envelope.
//!
//! A [`FriendRequest`] is the plaintext that one user IBE-encrypts to another
//! during the add-friend protocol: the sender's identity, long-term signing
//! key, a signature by that key, the PKGs' multi-signature attesting that the
//! key belongs to the identity, and an ephemeral Diffie-Hellman key plus the
//! dialing round at which the resulting keywheel starts.
//!
//! An [`AddFriendEnvelope`] is what actually enters the mixnet: the
//! recipient's mailbox ID in plaintext plus the fixed-size IBE ciphertext
//! (or all zeros for cover traffic).

use crate::codec::{Decoder, Encoder};
use crate::constants::{
    ADD_FRIEND_REQUEST_LEN, DH_PK_LEN, FRIEND_REQUEST_LEN, IBE_CIPHERTEXT_LEN, IDENTITY_FIELD_LEN,
    MULTISIG_LEN, SIGNATURE_LEN, SIGNING_PK_LEN,
};
use crate::error::WireError;
use crate::identity::{get_identity, put_identity, Identity};
use crate::mailbox::MailboxId;
use crate::round::Round;

/// The plaintext body of an add-friend request (Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FriendRequest {
    /// The sender's email address.
    pub sender: Identity,
    /// The sender's long-term signing public key (BLS, G2).
    pub sender_key: [u8; SIGNING_PK_LEN],
    /// Signature by `sender_key` over `(sender, dialing_key, dialing_round)`.
    pub sender_sig: [u8; SIGNATURE_LEN],
    /// Aggregated multi-signature by the PKGs over `(sender, sender_key, round)`,
    /// attesting that `sender_key` is the registered key for `sender`.
    pub pkg_sigs: [u8; MULTISIG_LEN],
    /// The add-friend round in which the PKG signatures were issued.
    pub pkg_round: Round,
    /// Ephemeral Diffie-Hellman public key (G1) for the keywheel shared secret.
    pub dialing_key: [u8; DH_PK_LEN],
    /// The dialing round at which the new keywheel starts.
    pub dialing_round: Round,
}

impl FriendRequest {
    /// Encodes the request body into its fixed wire form.
    ///
    /// The identity is carried in a padded fixed-width field so that every
    /// friend request has exactly the same length regardless of the email
    /// address.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(FRIEND_REQUEST_LEN + 8);
        put_identity(&mut e, &self.sender);
        e.put_bytes(&self.sender_key);
        e.put_bytes(&self.sender_sig);
        e.put_bytes(&self.pkg_sigs);
        e.put_u64(self.pkg_round.0);
        e.put_bytes(&self.dialing_key);
        e.put_u64(self.dialing_round.0);
        e.finish()
    }

    /// Wire length of an encoded friend request body.
    pub const ENCODED_LEN: usize = FRIEND_REQUEST_LEN + 8;

    /// Decodes a request body.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() != Self::ENCODED_LEN {
            return Err(WireError::WrongLength {
                expected: Self::ENCODED_LEN,
                actual: buf.len(),
            });
        }
        let mut d = Decoder::new(buf);
        let sender = get_identity(&mut d, "sender identity")?;
        let sender_key = d.get_array("sender key")?;
        let sender_sig = d.get_array("sender signature")?;
        let pkg_sigs = d.get_array("pkg multi-signature")?;
        let pkg_round = Round(d.get_u64("pkg round")?);
        let dialing_key = d.get_array("dialing key")?;
        let dialing_round = Round(d.get_u64("dialing round")?);
        d.finish()?;
        Ok(FriendRequest {
            sender,
            sender_key,
            sender_sig,
            pkg_sigs,
            pkg_round,
            dialing_key,
            dialing_round,
        })
    }

    /// The message that the sender signs with their long-term key:
    /// `(sender, dialing_key, dialing_round)` as in Algorithm 1 step 2a.
    pub fn sender_signed_message(&self) -> Vec<u8> {
        Self::signed_message_parts(&self.sender, &self.dialing_key, self.dialing_round)
    }

    /// Builds the sender-signed message from its parts (used by the sender
    /// before the request exists).
    pub fn signed_message_parts(
        sender: &Identity,
        dialing_key: &[u8; DH_PK_LEN],
        dialing_round: Round,
    ) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(b"alpenhorn-friend-request-v1");
        e.put_padded(sender.as_bytes(), IDENTITY_FIELD_LEN);
        e.put_bytes(dialing_key);
        e.put_u64(dialing_round.0);
        e.finish()
    }

    /// The message that the PKGs sign when extracting a user's round key:
    /// `(identity, signing key, round)` as in Algorithm 1 step 1.
    pub fn pkg_attestation_message(
        identity: &Identity,
        signing_key: &[u8; SIGNING_PK_LEN],
        round: Round,
    ) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(b"alpenhorn-pkg-attestation-v1");
        e.put_padded(identity.as_bytes(), IDENTITY_FIELD_LEN);
        e.put_bytes(signing_key);
        e.put_u64(round.0);
        e.finish()
    }
}

/// A complete add-friend submission as sent into the mixnet (innermost layer
/// of the onion): a plaintext mailbox ID plus the fixed-size IBE ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddFriendEnvelope {
    /// Destination mailbox, or [`MailboxId::COVER`] for cover traffic.
    pub mailbox: MailboxId,
    /// IBE ciphertext of the encoded [`FriendRequest`], or all zeros for
    /// cover traffic. Always exactly [`IBE_CIPHERTEXT_LEN`] + 8 bytes
    /// (the body carries the extra `pkg_round` field).
    pub ciphertext: Vec<u8>,
}

impl AddFriendEnvelope {
    /// The fixed ciphertext length carried in every envelope.
    pub const CIPHERTEXT_LEN: usize = IBE_CIPHERTEXT_LEN + 8;
    /// The fixed total envelope length.
    pub const ENCODED_LEN: usize = ADD_FRIEND_REQUEST_LEN + 8;

    /// Creates a cover-traffic envelope (all-zero ciphertext).
    pub fn cover() -> Self {
        AddFriendEnvelope {
            mailbox: MailboxId::COVER,
            ciphertext: vec![0u8; Self::CIPHERTEXT_LEN],
        }
    }

    /// Whether this envelope is (structurally) cover traffic.
    pub fn is_cover(&self) -> bool {
        self.mailbox.is_cover()
    }

    /// Encodes the envelope into its fixed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the envelope into `out` (cleared first), so round-driven
    /// callers can reuse one buffer across rounds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert_eq!(
            self.ciphertext.len(),
            Self::CIPHERTEXT_LEN,
            "envelope ciphertext must be fixed-size"
        );
        out.clear();
        out.reserve(Self::ENCODED_LEN);
        out.extend_from_slice(&self.mailbox.0.to_be_bytes());
        out.extend_from_slice(&self.ciphertext);
        debug_assert_eq!(out.len(), Self::ENCODED_LEN);
    }

    /// Decodes an envelope from its fixed wire form.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() != Self::ENCODED_LEN {
            return Err(WireError::WrongLength {
                expected: Self::ENCODED_LEN,
                actual: buf.len(),
            });
        }
        let mut d = Decoder::new(buf);
        let mailbox = MailboxId(d.get_u32("envelope mailbox")?);
        let ciphertext = d
            .get_bytes(Self::CIPHERTEXT_LEN, "envelope ciphertext")?
            .to_vec();
        d.finish()?;
        Ok(AddFriendEnvelope {
            mailbox,
            ciphertext,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> FriendRequest {
        FriendRequest {
            sender: Identity::new("alice@example.com").unwrap(),
            sender_key: [1u8; SIGNING_PK_LEN],
            sender_sig: [2u8; SIGNATURE_LEN],
            pkg_sigs: [3u8; MULTISIG_LEN],
            pkg_round: Round(17),
            dialing_key: [4u8; DH_PK_LEN],
            dialing_round: Round(42),
        }
    }

    #[test]
    fn friend_request_round_trip() {
        let req = sample_request();
        let buf = req.encode();
        assert_eq!(buf.len(), FriendRequest::ENCODED_LEN);
        assert_eq!(FriendRequest::decode(&buf).unwrap(), req);
    }

    #[test]
    fn encoded_length_independent_of_identity() {
        let mut a = sample_request();
        a.sender = Identity::new("a@b.co").unwrap();
        let mut b = sample_request();
        b.sender = Identity::new("a.much.longer.address@some.subdomain.example.org").unwrap();
        assert_eq!(a.encode().len(), b.encode().len());
    }

    #[test]
    fn truncated_request_rejected() {
        let buf = sample_request().encode();
        assert!(matches!(
            FriendRequest::decode(&buf[..buf.len() - 1]),
            Err(WireError::WrongLength { .. })
        ));
    }

    #[test]
    fn corrupt_identity_rejected() {
        let mut buf = sample_request().encode();
        buf[0] = 63; // claim a 63-byte identity, mostly zero padding bytes
        assert!(FriendRequest::decode(&buf).is_err());
    }

    #[test]
    fn signed_messages_are_domain_separated() {
        let req = sample_request();
        let sender_msg = req.sender_signed_message();
        let pkg_msg =
            FriendRequest::pkg_attestation_message(&req.sender, &req.sender_key, Round(17));
        assert_ne!(sender_msg, pkg_msg);
    }

    #[test]
    fn signed_message_depends_on_round() {
        let req = sample_request();
        let m1 = FriendRequest::signed_message_parts(&req.sender, &req.dialing_key, Round(1));
        let m2 = FriendRequest::signed_message_parts(&req.sender, &req.dialing_key, Round(2));
        assert_ne!(m1, m2);
    }

    #[test]
    fn envelope_round_trip() {
        let env = AddFriendEnvelope {
            mailbox: MailboxId(9),
            ciphertext: vec![5u8; AddFriendEnvelope::CIPHERTEXT_LEN],
        };
        let buf = env.encode();
        assert_eq!(buf.len(), AddFriendEnvelope::ENCODED_LEN);
        assert_eq!(AddFriendEnvelope::decode(&buf).unwrap(), env);
    }

    #[test]
    fn cover_envelope_same_size_as_real() {
        let cover = AddFriendEnvelope::cover();
        let real = AddFriendEnvelope {
            mailbox: MailboxId(3),
            ciphertext: vec![0xaa; AddFriendEnvelope::CIPHERTEXT_LEN],
        };
        assert_eq!(cover.encode().len(), real.encode().len());
        assert!(cover.is_cover());
        assert!(!real.is_cover());
    }

    #[test]
    #[should_panic(expected = "fixed-size")]
    fn envelope_with_wrong_ciphertext_size_panics_on_encode() {
        let env = AddFriendEnvelope {
            mailbox: MailboxId(0),
            ciphertext: vec![0u8; 10],
        };
        env.encode();
    }
}
