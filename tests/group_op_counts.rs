//! Counts of the group operations one add-friend extraction costs, read
//! from `alpenhorn_ibe::ops`.
//!
//! The counters are process-wide, so this file holds exactly one test: no
//! other test runs in its process to move them. `scripts/ci.sh` runs it as
//! its own stage.

use alpenhorn::{
    Client, ClientConfig, Identity, LoopbackTransport, Round, Transport, TransportError,
};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_ibe::ops::{self, OpCounts};
use alpenhorn_ibe::sig::Signature;
use alpenhorn_wire::{Request, Response};

/// Loopback that notes the counts around the extraction RPC and at the
/// submission, so the server's and the client's shares can be told apart,
/// and keeps the extraction request's signature.
struct Metered {
    inner: LoopbackTransport,
    /// Counts at the start and end of the `ExtractIdentityKeys` call.
    extraction: Option<(OpCounts, OpCounts)>,
    /// The extraction request's signature.
    auth: Option<Signature>,
    /// Counts when the submission is sent.
    submit: Option<OpCounts>,
}

impl Transport for Metered {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        let extracting = match &request {
            Request::ExtractIdentityKeys { auth, .. } => {
                self.auth = Some(Signature::from_bytes(auth).unwrap());
                true
            }
            Request::SubmitAddFriend { .. } => {
                self.submit = Some(ops::snapshot());
                false
            }
            _ => false,
        };
        let before = ops::snapshot();
        let response = self.inner.call(request)?;
        if extracting {
            self.extraction = Some((before, ops::snapshot()));
        }
        Ok(response)
    }
}

#[test]
fn an_extraction_hashes_each_input_once_and_the_client_checks_aggregates() {
    let bob = Identity::new("bob@gmail.com").unwrap();
    let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(7)));
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    assert_eq!(pkg_keys.len(), 3);
    let mut client = Client::new(bob.clone(), pkg_keys, ClientConfig::default(), [7; 32]);
    client.register(&mut net).unwrap();
    net.with_cluster(|c| c.begin_add_friend_round(Round(1), 1))
        .unwrap();
    let mut metered = Metered {
        inner: net.clone(),
        extraction: None,
        auth: None,
        submit: None,
    };
    client.participate_add_friend(&mut metered).unwrap();

    // The coordinator's 3-PKG extraction: the request verified once (one G1
    // hash, two pairings), the identity hashed to G2 once and the
    // attestation message to G1 once. Per PKG it would be 6, 3 and 6.
    let one_extraction = OpCounts {
        hash_to_g1: 2,
        hash_to_g2: 1,
        pairings: 2,
    };
    let auth = metered.auth.expect("the client extracted");
    let before = ops::snapshot();
    let shares = net
        .with_cluster(|c| c.extract_identity_keys(&bob, Round(1), &auth))
        .unwrap();
    assert_eq!(shares.len(), 3);
    assert_eq!(ops::snapshot().since(&before), one_extraction);
    // Served over the client's transport, it costs the same.
    let (start, end) = metered.extraction.expect("the client extracted");
    assert_eq!(end.since(&start), one_extraction);

    // Between the reply and the submission the client checks the
    // attestations as one multi-signature (one G1 hash, two pairings) and
    // the key shares as one aggregate (two pairings; its identity hash is
    // cached). A cover request adds no curve hash or pairing.
    let accept = metered.submit.expect("the client submitted").since(&end);
    assert_eq!(
        accept,
        OpCounts {
            hash_to_g1: 1,
            hash_to_g2: 0,
            pairings: 2 + 2,
        }
    );
}
