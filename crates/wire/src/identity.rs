//! User identities.
//!
//! Alpenhorn identifies users by their email address (§3 of the paper); an
//! identity is the only thing a caller needs to know about a friend. The
//! [`Identity`] type normalizes addresses (lowercase ASCII) so that hashing
//! to mailboxes and IBE public keys is consistent between sender and
//! recipient.

use crate::codec::{Decoder, Encoder};
use crate::constants::{IDENTITY_FIELD_LEN, MAX_IDENTITY_LEN};
use crate::error::WireError;

/// A validated, normalized user identity (an email address).
///
/// # Examples
///
/// ```
/// use alpenhorn_wire::Identity;
///
/// let id = Identity::new("Alice@Example.COM").unwrap();
/// assert_eq!(id.as_str(), "alice@example.com");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Identity(String);

impl Identity {
    /// Parses and normalizes an identity string.
    ///
    /// The string must be non-empty ASCII of at most [`MAX_IDENTITY_LEN`]
    /// bytes, containing exactly one `@` with a non-empty local part and
    /// domain. Uppercase characters are folded to lowercase.
    pub fn new(s: &str) -> Result<Self, WireError> {
        let normalized = s.trim().to_ascii_lowercase();
        if normalized.is_empty()
            || normalized.len() > MAX_IDENTITY_LEN
            || !normalized.is_ascii()
            || normalized.chars().any(|c| c.is_control() || c == ' ')
        {
            return Err(WireError::InvalidIdentity(s.to_string()));
        }
        let mut parts = normalized.splitn(2, '@');
        let local = parts.next().unwrap_or("");
        let domain = parts.next().unwrap_or("");
        if local.is_empty() || domain.is_empty() || domain.contains('@') {
            return Err(WireError::InvalidIdentity(s.to_string()));
        }
        Ok(Identity(normalized))
    }

    /// Returns the normalized identity string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the identity as bytes (the form that is hashed on the wire).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// The domain part of the address (used by the PKG's simulated email
    /// verification).
    pub fn domain(&self) -> &str {
        self.0.split_once('@').map(|(_, d)| d).unwrap_or("")
    }

    /// The local part of the address.
    pub fn local_part(&self) -> &str {
        self.0.split_once('@').map(|(l, _)| l).unwrap_or("")
    }
}

impl core::fmt::Display for Identity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl core::str::FromStr for Identity {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Identity::new(s)
    }
}

/// Writes `identity` into its fixed-width wire field.
pub(crate) fn put_identity(e: &mut Encoder, identity: &Identity) {
    e.put_padded(identity.as_bytes(), IDENTITY_FIELD_LEN);
}

/// Reads an identity field written by [`put_identity`]. Only the normalized
/// form is accepted: bytes that [`Identity::new`] would rewrite (uppercase,
/// surrounding whitespace) are rejected rather than decoded to the identity
/// they normalize to, so every identity has exactly one encoding.
pub(crate) fn get_identity(
    d: &mut Decoder<'_>,
    context: &'static str,
) -> Result<Identity, WireError> {
    let raw = d.get_padded(IDENTITY_FIELD_LEN, context)?;
    let s =
        core::str::from_utf8(raw).map_err(|_| WireError::InvalidIdentity("<non-utf8>".into()))?;
    let identity = Identity::new(s)?;
    if identity.as_str() != s {
        return Err(WireError::InvalidIdentity(s.to_string()));
    }
    Ok(identity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_identities() {
        for s in [
            "alice@example.com",
            "bob@gmail.com",
            "a@b.co",
            "user.name+tag@sub.domain.org",
        ] {
            assert!(Identity::new(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn normalization_lowercases_and_trims() {
        let id = Identity::new("  Bob@GMail.Com ").unwrap();
        assert_eq!(id.as_str(), "bob@gmail.com");
    }

    #[test]
    fn invalid_identities() {
        for s in [
            "",
            "no-at-sign",
            "@missing-local.com",
            "missing-domain@",
            "two@@ats.com",
            "has space@example.com",
            "ünïcode@example.com",
        ] {
            assert!(Identity::new(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn too_long_identity_rejected() {
        let local = "a".repeat(MAX_IDENTITY_LEN);
        let s = format!("{local}@x.com");
        assert!(Identity::new(&s).is_err());
    }

    #[test]
    fn parts() {
        let id = Identity::new("carol@students.mit.edu").unwrap();
        assert_eq!(id.local_part(), "carol");
        assert_eq!(id.domain(), "students.mit.edu");
    }

    #[test]
    fn equality_after_normalization() {
        assert_eq!(
            Identity::new("Alice@Example.com").unwrap(),
            Identity::new("alice@example.COM").unwrap()
        );
    }

    #[test]
    fn wire_field_accepts_only_the_normalized_form() {
        let mut e = Encoder::new();
        put_identity(&mut e, &Identity::new("alice@x.org").unwrap());
        let canonical = e.finish();
        let mut d = Decoder::new(&canonical);
        assert_eq!(get_identity(&mut d, "id").unwrap().as_str(), "alice@x.org");

        for raw in ["Alice@x.org", " alice@x.org"] {
            let mut e = Encoder::new();
            e.put_padded(raw.as_bytes(), IDENTITY_FIELD_LEN);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert!(
                matches!(
                    get_identity(&mut d, "id"),
                    Err(WireError::InvalidIdentity(_))
                ),
                "{raw:?} must not decode"
            );
        }
    }

    #[test]
    fn from_str_works() {
        let id: Identity = "dave@example.net".parse().unwrap();
        assert_eq!(id.as_str(), "dave@example.net");
    }
}
