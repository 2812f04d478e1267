//! Email delivery abstraction and the simulated implementation.
//!
//! Registration (§4.6 of the paper) relies on proving control of an email
//! address: the PKG mails a secret confirmation token to the address being
//! registered. This reproduction cannot send real mail, so the substrate is a
//! [`MailDelivery`] trait with a [`SimulatedMail`] implementation that
//! records messages in per-identity inboxes which the test harness (playing
//! the role of the user's mail client) can read back. Only the delivery is
//! simulated; every other part of the registration state machine is
//! unchanged.

use std::collections::HashMap;

use parking_lot::Mutex;

use alpenhorn_wire::Identity;

/// A delivered confirmation email.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailMessage {
    /// Which PKG sent it (servers are identified by name).
    pub from_server: String,
    /// Subject line.
    pub subject: String,
    /// The secret confirmation token.
    pub token: [u8; 32],
}

/// Something that can deliver a confirmation token to an email address.
pub trait MailDelivery: Send + Sync {
    /// Delivers a confirmation token to `recipient`.
    fn send_confirmation(&self, recipient: &Identity, from_server: &str, token: [u8; 32]);
}

/// In-memory mail delivery: each identity has an inbox of messages.
#[derive(Default)]
pub struct SimulatedMail {
    inboxes: Mutex<HashMap<Identity, Vec<MailMessage>>>,
}

impl SimulatedMail {
    /// Creates an empty simulated mail system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads (without removing) the inbox of `identity`.
    pub fn inbox(&self, identity: &Identity) -> Vec<MailMessage> {
        self.inboxes
            .lock()
            .get(identity)
            .cloned()
            .unwrap_or_default()
    }

    /// Returns the most recent confirmation token sent to `identity` by
    /// `from_server`, if any. This is what a user reads out of their inbox
    /// to complete registration.
    pub fn latest_token(&self, identity: &Identity, from_server: &str) -> Option<[u8; 32]> {
        self.inboxes
            .lock()
            .get(identity)?
            .iter()
            .rev()
            .find(|m| m.from_server == from_server)
            .map(|m| m.token)
    }

    /// Number of messages delivered to `identity`.
    pub fn message_count(&self, identity: &Identity) -> usize {
        self.inboxes
            .lock()
            .get(identity)
            .map(|v| v.len())
            .unwrap_or(0)
    }
}

impl MailDelivery for SimulatedMail {
    fn send_confirmation(&self, recipient: &Identity, from_server: &str, token: [u8; 32]) {
        self.inboxes
            .lock()
            .entry(recipient.clone())
            .or_default()
            .push(MailMessage {
                from_server: from_server.to_string(),
                subject: format!("Alpenhorn registration confirmation from {from_server}"),
                token,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Identity {
        Identity::new(s).unwrap()
    }

    #[test]
    fn delivery_and_readback() {
        let mail = SimulatedMail::new();
        let alice = id("alice@example.com");
        assert_eq!(mail.message_count(&alice), 0);
        assert!(mail.latest_token(&alice, "pkg-0").is_none());

        mail.send_confirmation(&alice, "pkg-0", [1u8; 32]);
        mail.send_confirmation(&alice, "pkg-1", [2u8; 32]);
        mail.send_confirmation(&alice, "pkg-0", [3u8; 32]);

        assert_eq!(mail.message_count(&alice), 3);
        // The latest token per server wins.
        assert_eq!(mail.latest_token(&alice, "pkg-0"), Some([3u8; 32]));
        assert_eq!(mail.latest_token(&alice, "pkg-1"), Some([2u8; 32]));
        assert_eq!(mail.latest_token(&alice, "pkg-9"), None);
    }

    #[test]
    fn inboxes_are_separate() {
        let mail = SimulatedMail::new();
        mail.send_confirmation(&id("a@x.com"), "pkg-0", [1u8; 32]);
        assert_eq!(mail.message_count(&id("b@x.com")), 0);
        assert_eq!(mail.inbox(&id("a@x.com")).len(), 1);
        assert!(mail.inbox(&id("a@x.com"))[0].subject.contains("pkg-0"));
    }
}
