//! Round driving over the RPC surface.
//!
//! The scenario engine opens and closes rounds through [`Request`] dispatch
//! rather than the `cluster_mut()` escape hatch. That matters for durability:
//! mutations made through the escape hatch are not journalled, so a
//! crash-restart scenario driven that way would recover a deployment that
//! disagrees with what clients saw. Driving through the same admin RPCs
//! `alpenhornd` serves keeps every scripted run honest about what reaches
//! the WAL.

use alpenhorn::{Transport, TransportError};
use alpenhorn_wire::rpc::{AddFriendRoundWire, DialingRoundWire, RoundStatsWire};
use alpenhorn_wire::{Request, Response, Round, RpcError};

/// An error driving a round: the transport failed, the coordinator returned
/// a typed error, or the response had the wrong shape.
#[derive(Debug)]
pub enum DriveError {
    /// The transport failed outright.
    Transport(TransportError),
    /// The coordinator refused the request.
    Rpc(RpcError),
    /// The coordinator answered with an unexpected response variant.
    UnexpectedResponse(&'static str),
}

impl core::fmt::Display for DriveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriveError::Transport(e) => write!(f, "round driving transport error: {e}"),
            DriveError::Rpc(e) => write!(f, "round driving refused: {e:?}"),
            DriveError::UnexpectedResponse(what) => {
                write!(f, "unexpected response while {what}")
            }
        }
    }
}

impl std::error::Error for DriveError {}

impl From<TransportError> for DriveError {
    fn from(e: TransportError) -> Self {
        DriveError::Transport(e)
    }
}

/// Opens add-friend round `round` sized for `expected_real` real requests
/// and returns the round parameters.
pub fn begin_add_friend_round<T: Transport + ?Sized>(
    admin: &mut T,
    round: Round,
    expected_real: u64,
) -> Result<AddFriendRoundWire, DriveError> {
    match admin.call(Request::BeginAddFriendRound {
        round,
        expected_real,
    })? {
        Response::AddFriendRoundInfo(info) => Ok(info),
        Response::Error(e) => Err(DriveError::Rpc(e)),
        _ => Err(DriveError::UnexpectedResponse(
            "opening an add-friend round",
        )),
    }
}

/// Closes add-friend round `round` (running the mixnet and publishing
/// mailboxes) and returns the round statistics.
pub fn close_add_friend_round<T: Transport + ?Sized>(
    admin: &mut T,
    round: Round,
) -> Result<RoundStatsWire, DriveError> {
    match admin.call(Request::CloseAddFriendRound { round })? {
        Response::RoundClosed(stats) => Ok(stats),
        Response::Error(e) => Err(DriveError::Rpc(e)),
        _ => Err(DriveError::UnexpectedResponse(
            "closing an add-friend round",
        )),
    }
}

/// Opens dialing round `round` sized for `expected_real` real dial tokens
/// and returns the round parameters.
pub fn begin_dialing_round<T: Transport + ?Sized>(
    admin: &mut T,
    round: Round,
    expected_real: u64,
) -> Result<DialingRoundWire, DriveError> {
    match admin.call(Request::BeginDialingRound {
        round,
        expected_real,
    })? {
        Response::DialingRoundInfo(info) => Ok(info),
        Response::Error(e) => Err(DriveError::Rpc(e)),
        _ => Err(DriveError::UnexpectedResponse("opening a dialing round")),
    }
}

/// Closes dialing round `round` and returns the round statistics.
pub fn close_dialing_round<T: Transport + ?Sized>(
    admin: &mut T,
    round: Round,
) -> Result<RoundStatsWire, DriveError> {
    match admin.call(Request::CloseDialingRound { round })? {
        Response::RoundClosed(stats) => Ok(stats),
        Response::Error(e) => Err(DriveError::Rpc(e)),
        _ => Err(DriveError::UnexpectedResponse("closing a dialing round")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn::LoopbackTransport;
    use alpenhorn_coordinator::{Cluster, ClusterConfig};

    #[test]
    fn drives_a_full_round_pair_over_rpc() {
        let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(60)));
        let info = begin_add_friend_round(&mut net, Round(1), 4).unwrap();
        assert_eq!(info.round, Round(1));
        let stats = close_add_friend_round(&mut net, Round(1)).unwrap();
        assert_eq!(stats.client_messages, 0);
        let info = begin_dialing_round(&mut net, Round(1), 4).unwrap();
        assert_eq!(info.round, Round(1));
        close_dialing_round(&mut net, Round(1)).unwrap();
    }

    #[test]
    fn double_open_is_a_typed_error() {
        let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(61)));
        begin_add_friend_round(&mut net, Round(1), 1).unwrap();
        assert!(matches!(
            begin_add_friend_round(&mut net, Round(2), 1),
            Err(DriveError::Rpc(_))
        ));
    }
}
