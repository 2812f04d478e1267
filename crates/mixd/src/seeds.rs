//! Seed derivation for mix servers.
//!
//! Every [`MixdServer`](crate::MixdServer) derives its two servers' seeds
//! from only the cluster seed and its chain position, so a `mixd` process
//! and a daemon built in-process for the same position (what
//! [`MixChain::in_process`](crate::MixChain::in_process) does) produce
//! byte-identical rounds.

use alpenhorn_wire::RoundKind;

/// Derives the per-protocol chain seed from the cluster seed.
pub fn chain_seed(cluster_seed: [u8; 32], protocol: RoundKind) -> [u8; 32] {
    let mut seed = cluster_seed;
    seed[29] ^= match protocol {
        RoundKind::AddFriend => 0x11,
        RoundKind::Dialing => 0x22,
    };
    seed
}

/// Derives the seed for the server at chain position `index` of a chain
/// seeded with `chain_seed`.
pub fn server_seed(chain_seed: [u8; 32], index: usize) -> [u8; 32] {
    let mut seed = chain_seed;
    seed[0] ^= index as u8;
    seed[1] ^= (index >> 8) as u8;
    seed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocols_get_distinct_chain_seeds() {
        let seed = [7u8; 32];
        let add = chain_seed(seed, RoundKind::AddFriend);
        let dial = chain_seed(seed, RoundKind::Dialing);
        assert_ne!(add, dial);
        assert_ne!(add, seed);
        assert_ne!(dial, seed);
        // The tweak touches exactly one byte, so independent server-index
        // tweaks (bytes 0..2) cannot collide with it.
        assert_eq!(
            add.iter().zip(seed.iter()).filter(|(a, b)| a != b).count(),
            1
        );
    }
}
