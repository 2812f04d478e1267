//! Protocol-wide size constants.
//!
//! These sizes define the fixed wire layout of requests. They are chosen to
//! match the cryptographic primitives used by this reproduction (BLS12-381
//! points for keys and signatures, ChaCha20-Poly1305 for the AEAD). The
//! paper's prototype used the BN-256 curve, so absolute sizes differ slightly
//! (the paper's add-friend request is 308 bytes; ours is
//! [`ADD_FRIEND_REQUEST_LEN`]); EXPERIMENTS.md reports both.

/// Maximum length of an identity (email address) on the wire, including the
/// one-byte length prefix of the padded field.
pub const IDENTITY_FIELD_LEN: usize = 64;

/// Maximum number of characters in an identity string.
pub const MAX_IDENTITY_LEN: usize = IDENTITY_FIELD_LEN - 1;

/// Compressed BLS12-381 G1 point length (DH keys, signatures, IBE ephemeral keys).
pub const G1_LEN: usize = 48;

/// Compressed BLS12-381 G2 point length (long-term signing public keys, IBE
/// identity keys).
pub const G2_LEN: usize = 96;

/// Long-term signing public key length (BLS public key in G2).
pub const SIGNING_PK_LEN: usize = G2_LEN;

/// Signature length (BLS signature in G1).
pub const SIGNATURE_LEN: usize = G1_LEN;

/// Aggregated PKG multi-signature length (same as a single BLS signature).
pub const MULTISIG_LEN: usize = G1_LEN;

/// Ephemeral Diffie-Hellman public key length (G1).
pub const DH_PK_LEN: usize = G1_LEN;

/// IBE ciphertext ephemeral component length (G1).
pub const IBE_EPHEMERAL_LEN: usize = G1_LEN;

/// AEAD tag length.
pub const AEAD_TAG_LEN: usize = 16;

/// AEAD nonce length.
pub const AEAD_NONCE_LEN: usize = 12;

/// Dial token length (256-bit pseudorandom value, §5).
pub const DIAL_TOKEN_LEN: usize = 32;

/// Session key length returned by `Call` (§3).
pub const SESSION_KEY_LEN: usize = 32;

/// Length of the plaintext `FriendRequest` body (Figure 3) on the wire:
/// identity field + signing key + sender signature + PKG multi-signature +
/// DH key + dialing round.
pub const FRIEND_REQUEST_LEN: usize =
    IDENTITY_FIELD_LEN + SIGNING_PK_LEN + SIGNATURE_LEN + MULTISIG_LEN + DH_PK_LEN + 8;

/// Length of an IBE-encrypted friend request: ephemeral G1 point plus the
/// AEAD-sealed body.
pub const IBE_CIPHERTEXT_LEN: usize = IBE_EPHEMERAL_LEN + FRIEND_REQUEST_LEN + AEAD_TAG_LEN;

/// Length of a complete add-friend request as submitted to the mixnet
/// (mailbox ID in plaintext plus the IBE ciphertext). This is the per-request
/// unit of mailbox bandwidth in Figure 6.
pub const ADD_FRIEND_REQUEST_LEN: usize = 4 + IBE_CIPHERTEXT_LEN;

/// Length of a dialing request as submitted to the mixnet (mailbox ID plus
/// dial token). Dialing mailboxes are encoded as sets of token hashes, so this
/// size only affects upstream bandwidth.
pub const DIAL_REQUEST_LEN: usize = 4 + DIAL_TOKEN_LEN;

/// Per-hop overhead added by one onion layer: ephemeral DH public key plus
/// the AEAD tag.
pub const ONION_LAYER_OVERHEAD: usize = DH_PK_LEN + AEAD_TAG_LEN;

/// The paper's measured add-friend request size in bytes (for reporting
/// alongside ours in the evaluation harness).
pub const PAPER_ADD_FRIEND_REQUEST_LEN: usize = 308;

/// The paper's IBE ciphertext component size in bytes (§8.6).
pub const PAPER_IBE_CIPHERTEXT_LEN: usize = 64;

// Size-relationship invariants, checked at compile time.
//
// Our BLS12-381-based add-friend layout is somewhat larger than the paper's
// BN-256 layout but within the same order of magnitude (< 2x), and the
// dialing protocol's efficiency claim (§5) rests on dial requests being much
// smaller than add-friend requests.
const _: () = {
    assert!(FRIEND_REQUEST_LEN == 64 + 96 + 48 + 48 + 48 + 8);
    assert!(ADD_FRIEND_REQUEST_LEN < 2 * PAPER_ADD_FRIEND_REQUEST_LEN);
    assert!(ADD_FRIEND_REQUEST_LEN > PAPER_ADD_FRIEND_REQUEST_LEN / 2);
    assert!(DIAL_REQUEST_LEN * 5 < ADD_FRIEND_REQUEST_LEN);
};
