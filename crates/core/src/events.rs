//! Events surfaced to the application.
//!
//! The paper's prototype delivers `NewFriend` and `IncomingCall` callbacks;
//! this crate returns the equivalent information as values from the
//! round-processing methods, which an application drains after each round.

use alpenhorn_keywheel::SessionKey;
use alpenhorn_wire::{Identity, Round, SIGNING_PK_LEN};

/// Something that happened while processing a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A new friend request arrived (the paper's `NewFriend` callback).
    ///
    /// If the client's auto-accept policy is enabled (the default, matching
    /// the paper's walkthrough where Bob accepts because the PKGs vouched for
    /// the sender), a confirmation request is queued automatically; otherwise
    /// the application must call [`crate::Client::accept_friend_request`] or
    /// [`crate::Client::reject_friend_request`].
    FriendRequestReceived {
        /// The sender's email address.
        from: Identity,
        /// The sender's long-term signing key, attested by the PKGs.
        their_key: [u8; SIGNING_PK_LEN],
        /// Whether the request was accepted automatically.
        auto_accepted: bool,
    },
    /// A friendship is confirmed: both sides now share a keywheel.
    FriendConfirmed {
        /// The friend's email address.
        friend: Identity,
        /// The dialing round at which the shared keywheel starts.
        dialing_round: Round,
    },
    /// A friend request was discarded because it failed verification.
    FriendRequestRejected {
        /// The claimed sender.
        from: Identity,
        /// Human-readable reason (bad PKG multi-signature, bad sender
        /// signature, key mismatch with an out-of-band or TOFU key).
        reason: String,
    },
    /// The client placed an outgoing call this round (the return value of the
    /// paper's `Call`).
    OutgoingCallPlaced {
        /// The friend being called.
        friend: Identity,
        /// The application intent attached to the call.
        intent: u32,
        /// The session key both sides will derive.
        session_key: SessionKey,
        /// The dialing round the call was placed in.
        round: Round,
    },
    /// An incoming call was found in the round's dial set (the paper's
    /// `IncomingCall` callback).
    IncomingCall {
        /// The calling friend.
        from: Identity,
        /// The application intent attached to the call.
        intent: u32,
        /// The session key both sides derive.
        session_key: SessionKey,
        /// The dialing round the call was received in.
        round: Round,
    },
}

impl ClientEvent {
    /// Convenience: whether this event is an incoming call.
    pub fn is_incoming_call(&self) -> bool {
        matches!(self, ClientEvent::IncomingCall { .. })
    }

    /// Convenience: whether this event is a confirmed friendship.
    pub fn is_friend_confirmed(&self) -> bool {
        matches!(self, ClientEvent::FriendConfirmed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_predicates() {
        let confirmed = ClientEvent::FriendConfirmed {
            friend: Identity::new("a@b.co").unwrap(),
            dialing_round: Round(3),
        };
        assert!(confirmed.is_friend_confirmed());
        assert!(!confirmed.is_incoming_call());

        let call = ClientEvent::IncomingCall {
            from: Identity::new("a@b.co").unwrap(),
            intent: 1,
            session_key: SessionKey([0u8; 32]),
            round: Round(9),
        };
        assert!(call.is_incoming_call());
        assert!(!call.is_friend_confirmed());
    }
}
