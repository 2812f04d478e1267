//! Failure-injection integration tests: malformed input, misbehaving clients,
//! lost mailboxes, and recovery paths.

use alpenhorn::{
    Client, ClientConfig, ClientError, ClientEvent, Identity, LoopbackTransport, Round, Transport,
};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::bf::encrypt as ibe_encrypt;
use alpenhorn_mixnet::onion::wrap_onion;
use alpenhorn_wire::{AddFriendEnvelope, MailboxId, Request, Response, RpcError};

fn id(s: &str) -> Identity {
    Identity::new(s).unwrap()
}

fn deployment(seed: u8) -> LoopbackTransport {
    LoopbackTransport::new(Cluster::new(ClusterConfig::test(seed)))
}

fn registered_client(net: &mut LoopbackTransport, email: &str, seed: u8) -> Client {
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    let mut c = Client::new(id(email), pkg_keys, ClientConfig::default(), [seed; 32]);
    c.register(net).unwrap();
    c
}

/// Submits `onion` for add-friend `round` the way a client does: one
/// `SubmitAddFriend` RPC, here without a rate-limit token.
fn submit_add_friend(net: &mut LoopbackTransport, round: Round, onion: Vec<u8>) -> Response {
    net.call(Request::SubmitAddFriend {
        round,
        onion,
        token: None,
    })
    .unwrap()
}

#[test]
fn entry_server_rejects_malformed_submissions() {
    let mut net = deployment(90);
    let info = net
        .with_cluster(|c| c.begin_add_friend_round(Round(1), 4))
        .unwrap();
    // Too small, too large, and empty submissions are all rejected.
    for bad in [vec![0u8; 10], vec![0u8; info.onion_len + 1], Vec::new()] {
        assert!(matches!(
            submit_add_friend(&mut net, Round(1), bad),
            Response::Error(RpcError::WrongRequestSize { .. })
        ));
    }
    // Submissions for a round that is not open are rejected too.
    assert!(matches!(
        submit_add_friend(&mut net, Round(7), vec![0u8; info.onion_len]),
        Response::Error(RpcError::RoundNotOpen { .. })
    ));
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();

    // Dialing submissions take the same checks, plus the mailbox count the
    // onion was built for.
    let admin = net.clone();
    let mut submit_dialing = |num_mailboxes: u32, len: usize| {
        net.call(Request::SubmitDialing {
            round: Round(1),
            num_mailboxes,
            onion: vec![0u8; len],
            token: None,
        })
        .unwrap()
    };
    assert!(matches!(
        submit_dialing(1, 10),
        Response::Error(RpcError::RoundNotOpen { .. })
    ));
    let info = admin
        .with_cluster(|c| c.begin_dialing_round(Round(1), 4))
        .unwrap();
    assert!(matches!(
        submit_dialing(info.num_mailboxes + 1, info.onion_len),
        Response::Error(RpcError::StaleRoundInfo { .. })
    ));
    assert!(matches!(
        submit_dialing(info.num_mailboxes, info.onion_len - 1),
        Response::Error(RpcError::WrongRequestSize { .. })
    ));
}

#[test]
fn garbage_onions_are_dropped_by_the_mixnet_not_delivered() {
    // A malicious client submits correctly-sized garbage; the mixnet drops it
    // during layer decryption and honest traffic is unaffected.
    let mut net = deployment(91);
    let mut alice = registered_client(&mut net, "alice@example.com", 1);
    let mut bob = registered_client(&mut net, "bob@gmail.com", 2);
    alice.add_friend(id("bob@gmail.com"), None);

    let info = net
        .with_cluster(|c| c.begin_add_friend_round(Round(1), 2))
        .unwrap();
    alice.participate_add_friend(&mut net).unwrap();
    bob.participate_add_friend(&mut net).unwrap();
    assert_eq!(
        submit_add_friend(&mut net, Round(1), vec![0xAB; info.onion_len]),
        Response::Ack
    );
    let stats = net
        .with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    assert_eq!(stats.client_messages, 3);
    assert_eq!(stats.dropped, 1);

    // Bob still receives Alice's request.
    let events = bob.process_add_friend_mailbox(&mut net).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e, ClientEvent::FriendRequestReceived { .. })));
    alice.process_add_friend_mailbox(&mut net).unwrap();
}

#[test]
fn spoofed_friend_requests_without_pkg_attestation_are_rejected() {
    // An adversary who knows Bob's email can IBE-encrypt a friend request to
    // him (encryption is public), but cannot produce a valid PKG
    // multi-signature binding the claimed identity to a signing key, so Bob's
    // client rejects the request.
    let mut net = deployment(92);
    let mut bob = registered_client(&mut net, "bob@gmail.com", 3);
    let mut rng = ChaChaRng::from_seed_bytes([66u8; 32]);

    let info = net
        .with_cluster(|c| c.begin_add_friend_round(Round(1), 2))
        .unwrap();
    bob.participate_add_friend(&mut net).unwrap();

    // Forge a structurally valid friend request claiming to be from Alice.
    let forged = alpenhorn_wire::FriendRequest {
        sender: id("alice@example.com"),
        sender_key: [1u8; alpenhorn_wire::SIGNING_PK_LEN],
        sender_sig: [2u8; alpenhorn_wire::SIGNATURE_LEN],
        pkg_sigs: [3u8; alpenhorn_wire::MULTISIG_LEN],
        pkg_round: info.round,
        dialing_key: [4u8; alpenhorn_wire::DH_PK_LEN],
        dialing_round: Round(5),
    };
    let ciphertext = ibe_encrypt(
        &info.master_public,
        b"bob@gmail.com",
        &forged.encode(),
        &mut rng,
    );
    let envelope = AddFriendEnvelope {
        mailbox: MailboxId::for_recipient(&id("bob@gmail.com"), info.num_mailboxes),
        ciphertext,
    };
    let onion = wrap_onion(&envelope.encode(), &info.onion_keys, &mut rng);
    assert_eq!(submit_add_friend(&mut net, Round(1), onion), Response::Ack);
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();

    let events = bob.process_add_friend_mailbox(&mut net).unwrap();
    assert!(
        events
            .iter()
            .all(|e| matches!(e, ClientEvent::FriendRequestRejected { .. })),
        "forged request must be rejected, got {events:?}"
    );
    assert!(!bob.keywheels().contains(&id("alice@example.com")));
}

#[test]
fn missing_mailbox_is_reported_and_round_can_be_abandoned() {
    let mut net = deployment(93);
    let mut alice = registered_client(&mut net, "alice@example.com", 4);
    let mut bob = registered_client(&mut net, "bob@gmail.com", 5);

    // Establish a friendship so Alice has a keywheel to advance.
    alice.add_friend(id("bob@gmail.com"), None);
    for r in 1..=2u64 {
        net.with_cluster(|c| c.begin_add_friend_round(Round(r), 2))
            .unwrap();
        alice.participate_add_friend(&mut net).unwrap();
        bob.participate_add_friend(&mut net).unwrap();
        net.with_cluster(|c| c.close_add_friend_round(Round(r)))
            .unwrap();
        alice.process_add_friend_mailbox(&mut net).unwrap();
        bob.process_add_friend_mailbox(&mut net).unwrap();
    }

    // A dialing round is opened and closed, then the CDN expires it before
    // Alice can download (e.g. she was offline for a day, §5.1).
    net.with_cluster(|c| c.begin_dialing_round(Round(1), 2))
        .unwrap();
    alice.participate_dialing(&mut net).unwrap();
    bob.participate_dialing(&mut net).unwrap();
    net.with_cluster(|c| c.close_dialing_round(Round(1)))
        .unwrap();
    net.with_cluster(|c| c.cdn().expire_before(Round(2)));

    assert_eq!(
        alice.process_dialing_mailbox(&mut net),
        Err(ClientError::MissingMailbox)
    );
    // She gives up on the round; forward secrecy is preserved by advancing.
    alice.abandon_dialing_round(Round(1));
    assert!(alice
        .keywheels()
        .dial_token(&id("bob@gmail.com"), Round(1), 0)
        .unwrap()
        .is_err());
}

#[test]
fn double_registration_and_duplicate_tokens_handled() {
    let mut net = deployment(94);
    let mut alice = registered_client(&mut net, "alice@example.com", 6);
    // Registering again with the same key is a harmless no-op.
    assert!(alice.register(&mut net).is_ok());

    // A different client claiming the same address cannot take it over.
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    let mut imposter = Client::new(
        id("alice@example.com"),
        pkg_keys,
        ClientConfig::default(),
        [77u8; 32],
    );
    assert!(imposter.register(&mut net).is_err());
}

#[test]
fn calls_to_removed_friends_fail_cleanly() {
    let mut net = deployment(95);
    let mut alice = registered_client(&mut net, "alice@example.com", 8);
    let mut bob = registered_client(&mut net, "bob@gmail.com", 9);
    alice.add_friend(id("bob@gmail.com"), None);
    for r in 1..=2u64 {
        net.with_cluster(|c| c.begin_add_friend_round(Round(r), 2))
            .unwrap();
        alice.participate_add_friend(&mut net).unwrap();
        bob.participate_add_friend(&mut net).unwrap();
        net.with_cluster(|c| c.close_add_friend_round(Round(r)))
            .unwrap();
        alice.process_add_friend_mailbox(&mut net).unwrap();
        bob.process_add_friend_mailbox(&mut net).unwrap();
    }
    alice.remove_friend(&id("bob@gmail.com"));
    assert_eq!(
        alice.call(id("bob@gmail.com"), 0),
        Err(ClientError::NotAFriend(id("bob@gmail.com")))
    );
}

// ---------------------------------------------------------------------------
// Storage crash/torn-write injection (`alpenhorn-storage`): truncated WAL
// tails, corrupted records, and mid-snapshot crashes must all recover to a
// valid prefix of the logged state — never panic, never load garbage.
// ---------------------------------------------------------------------------

mod storage_injection {
    use alpenhorn_storage::{record, LogRecord, Wal};
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alpenhorn-failure-injection-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A deterministic mixed-record workload: varying kinds and payload
    /// sizes (empty, small, multi-hundred-byte), like the coordinator's
    /// journal traffic.
    fn mixed_records(count: usize, seed: u8) -> Vec<LogRecord> {
        (0..count)
            .map(|i| {
                let kind = (i % 7) as u8;
                let len = match i % 5 {
                    0 => 0,
                    1 => 9,
                    2 => 48,
                    3 => 137,
                    _ => 300,
                };
                let byte = seed.wrapping_add(i as u8);
                LogRecord::new(kind, vec![byte; len])
            })
            .collect()
    }

    fn write_wal(path: &std::path::Path, records: &[LogRecord]) {
        let (mut wal, recovery) = Wal::open(path).unwrap();
        assert!(recovery.records.is_empty());
        for r in records {
            wal.append(r.kind, &r.payload).unwrap();
        }
        wal.sync().unwrap();
    }

    /// The acceptance workload: 10k mixed records round-trip byte-identically
    /// through append + replay.
    #[test]
    fn wal_replay_of_10k_mixed_records_is_byte_identical() {
        let dir = tmpdir("10k");
        let path = dir.join("wal.log");
        let records = mixed_records(10_000, 3);
        write_wal(&path, &records);

        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.tail_error, None);
        assert_eq!(recovery.records, records);
        // Byte-identical: re-encoding the replayed records reproduces the
        // exact file contents.
        let mut reencoded = Vec::new();
        for r in &recovery.records {
            reencoded.extend_from_slice(&record::encode(r.kind, &r.payload));
        }
        assert_eq!(reencoded, std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(dir).unwrap();
    }

    proptest! {
        /// Torn tail: cutting the WAL at *any* byte offset recovers a clean
        /// prefix of the appended records, truncates the garbage, and leaves
        /// the log appendable — without panicking.
        #[test]
        fn truncation_at_any_offset_recovers_a_prefix(
            count in 1usize..40,
            seed in any::<u8>(),
            cut_permille in 0u32..1000,
        ) {
            let dir = tmpdir(&format!("cut-{count}-{seed}-{cut_permille}"));
            let path = dir.join("wal.log");
            let records = mixed_records(count, seed);
            write_wal(&path, &records);

            let full = std::fs::read(&path).unwrap();
            let cut = full.len() * cut_permille as usize / 1000;
            std::fs::write(&path, &full[..cut]).unwrap();

            let (mut wal, recovery) = Wal::open(&path).unwrap();
            // The recovered records are exactly a prefix of what was logged.
            prop_assert!(recovery.records.len() <= records.len());
            prop_assert_eq!(&recovery.records[..], &records[..recovery.records.len()]);
            // And appends continue cleanly after recovery.
            wal.append(0xAA, b"post-recovery append").unwrap();
            drop(wal);
            let (_, after) = Wal::open(&path).unwrap();
            prop_assert_eq!(after.truncated_bytes, 0);
            prop_assert_eq!(after.records.last().unwrap().kind, 0xAA);
            std::fs::remove_dir_all(dir).unwrap();
        }

        /// Corrupted record: flipping any single bit anywhere in the WAL
        /// recovers a clean prefix — the flipped record and everything after
        /// it are dropped, everything before is intact, and nothing panics.
        #[test]
        fn bit_flip_at_any_offset_recovers_a_prefix(
            count in 1usize..30,
            seed in any::<u8>(),
            flip_permille in 0u32..1000,
            bit in 0u8..8,
        ) {
            let dir = tmpdir(&format!("flip-{count}-{seed}-{flip_permille}-{bit}"));
            let path = dir.join("wal.log");
            let records = mixed_records(count, seed);
            write_wal(&path, &records);

            let mut bytes = std::fs::read(&path).unwrap();
            let flip_at = (bytes.len() - 1) * flip_permille as usize / 1000;
            bytes[flip_at] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();

            let (_, recovery) = Wal::open(&path).unwrap();
            prop_assert!(recovery.records.len() < records.len() + 1);
            prop_assert_eq!(&recovery.records[..], &records[..recovery.records.len()]);
            prop_assert!(recovery.tail_error.is_some(), "a flip is always detected");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// Mid-snapshot crash: a checkpoint that dies before the atomic rename
    /// (half-written temp file) or right after it (stale previous generation
    /// not yet deleted) recovers the correct state either way.
    #[test]
    fn mid_snapshot_crash_recovers_previous_generation() {
        use alpenhorn_storage::{Durability, Durable, Persist, StorageConfig, StorageError};

        #[derive(Default)]
        struct Appended(Vec<u8>);
        impl Persist for Appended {
            fn encode_snapshot(&self) -> Vec<u8> {
                self.0.clone()
            }
            fn restore_snapshot(&mut self, payload: &[u8]) -> Result<(), StorageError> {
                self.0 = payload.to_vec();
                Ok(())
            }
            fn apply_record(&mut self, _kind: u8, payload: &[u8]) -> Result<(), StorageError> {
                self.0.extend_from_slice(payload);
                Ok(())
            }
        }

        let dir = tmpdir("midsnap");
        {
            let (mut d, _) =
                Durable::open(Appended::default(), &dir, StorageConfig::default()).unwrap();
            d.state_mut().0.extend_from_slice(b"abc");
            d.record(1, b"abc", Durability::Buffered).unwrap();
            d.checkpoint().unwrap(); // generation 1
            d.state_mut().0.extend_from_slice(b"def");
            d.record(1, b"def", Durability::Buffered).unwrap();
        }
        // Crash mid-checkpoint: half-written snapshot temp for generation 2.
        std::fs::write(dir.join("snapshot-2.tmp"), b"AL\x01\xff half written").unwrap();
        {
            let (d, report) =
                Durable::open(Appended::default(), &dir, StorageConfig::default()).unwrap();
            assert_eq!(report.generation, 1);
            assert_eq!(d.state().0, b"abcdef");
        }
        // Crash after the rename but with a *corrupt* newest snapshot and the
        // previous generation still on disk: fall back one generation and
        // re-apply its WAL suffix.
        let snap1 = std::fs::read(dir.join("snapshot-1.snap")).unwrap();
        {
            let (mut d, _) =
                Durable::open(Appended::default(), &dir, StorageConfig::default()).unwrap();
            d.state_mut().0.extend_from_slice(b"ghi");
            d.record(1, b"ghi", Durability::Buffered).unwrap();
            d.checkpoint().unwrap(); // generation 2
        }
        let snap2_path = dir.join("snapshot-2.snap");
        let mut snap2 = std::fs::read(&snap2_path).unwrap();
        let last = snap2.len() - 1;
        snap2[last] ^= 0xff;
        std::fs::write(&snap2_path, &snap2).unwrap();
        std::fs::write(dir.join("snapshot-1.snap"), &snap1).unwrap();
        {
            let (d, report) =
                Durable::open(Appended::default(), &dir, StorageConfig::default()).unwrap();
            assert_eq!(report.generation, 1);
            assert_eq!(report.snapshot_fallbacks, 1);
            // Generation 1's snapshot content: its WAL was already compacted
            // away, so recovery lands exactly on the resurrected snapshot —
            // a valid prefix of history, never garbage.
            assert_eq!(d.state().0, b"abc");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Disconnect-mid-call retry idempotency (ISSUE 6): the scripted
// `FaultPlan::disconnect_at` fault executes the request on the server and
// *then* severs the connection before the reply arrives — the worst case for
// a retrying client, because the retry re-executes an already-applied
// mutation. Every mutating RPC must absorb that replay without a double
// effect on the coordinator's ledgers.
// ---------------------------------------------------------------------------

mod disconnect_mid_call {
    use super::*;
    use alpenhorn::{FaultPlan, FaultyTransport, InjectedFault, RetryPolicy};
    use alpenhorn_coordinator::service::{CoordinatorService, RateLimitPolicy, ServiceConfig};

    /// A plan that injects nothing except lost replies at the given call
    /// indices (request executed, response discarded, transport poisoned).
    fn disconnect_plan(seed: u64, disconnect_at: Vec<u64>) -> FaultPlan {
        FaultPlan {
            disconnect_at,
            ..FaultPlan::quiet(seed)
        }
    }

    fn retrying_config() -> ClientConfig {
        ClientConfig {
            retry: RetryPolicy::aggressive_test(),
            ..ClientConfig::default()
        }
    }

    fn disconnect_count(faulty: &FaultyTransport<LoopbackTransport>) -> usize {
        faulty
            .schedule()
            .iter()
            .filter(|(_, f)| matches!(f, InjectedFault::Disconnect))
            .count()
    }

    /// `Register` and `CompleteRegistration` both lose their replies
    /// mid-call; the retries replay both against PKG state that already
    /// holds the identity, and exactly one registration results.
    #[test]
    fn register_and_complete_registration_survive_lost_replies() {
        let net = deployment(95);
        // Call 0 = Register (executed, reply lost); call 1 = its retry;
        // call 2 = CompleteRegistration (executed, reply lost); call 3 = retry.
        let mut faulty = FaultyTransport::new(net.clone(), disconnect_plan(1, vec![0, 2]));
        let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
        let mut alice = Client::new(
            id("alice@example.com"),
            pkg_keys,
            retrying_config(),
            [1u8; 32],
        );
        alice.register(&mut faulty).unwrap();

        assert_eq!(disconnect_count(&faulty), 2, "both replays exercised");
        assert!(alice.is_registered());
        // The server holds exactly the client's key — the replayed Register
        // did not clobber or duplicate the registration.
        let registered = net
            .with_cluster(|c| c.registered_signing_key(&id("alice@example.com")))
            .expect("registered after retries");
        assert_eq!(registered.to_bytes(), alice.signing_public_key().to_bytes());
    }

    /// Token issuance and onion submission both lose their replies mid-call
    /// during a rate-limited add-friend round. The retried issuance re-signs
    /// the *same* blinded message without charging the budget twice, and the
    /// retried submission is deduplicated without burning a second token. In
    /// the next round the client batches round info, extraction and issuance
    /// into one call, and that batch's reply is lost: the resent batch is
    /// just as free.
    #[test]
    fn token_issuance_and_submission_replays_never_double_spend() {
        const BUDGET: u32 = 7;
        let service = CoordinatorService::with_config(
            Cluster::new(ClusterConfig::test(96)),
            ServiceConfig {
                rate_limit: Some(RateLimitPolicy {
                    budget_per_day: BUDGET,
                }),
            },
        );
        let net = LoopbackTransport::with_service(service);
        let mut alice = registered_client(&mut net.clone(), "alice@example.com", 1);
        alice.set_retry_policy(RetryPolicy::aggressive_test());
        alice.add_friend(id("bob@gmail.com"), None);
        net.with_cluster(|c| c.begin_add_friend_round(Round(1), 1))
            .unwrap();

        // Rate-limited participation: GetAddFriendRoundInfo (0),
        // IssueRateLimitToken (1, reply lost; retry = 2),
        // ExtractIdentityKeys (3), SubmitAddFriend (4, reply lost; retry = 5).
        // Round 2: Batch (6, reply lost; retry = 7), SubmitAddFriend (8).
        let mut faulty = FaultyTransport::new(net.clone(), disconnect_plan(2, vec![1, 4, 6]));
        alice.participate_add_friend(&mut faulty).unwrap();
        assert_eq!(disconnect_count(&faulty), 2, "both replays exercised");

        // One token charged (not two): the replayed issuance hit the
        // issuer's seen-set and re-signed for free.
        assert_eq!(
            net.service()
                .remaining_token_budget(&id("alice@example.com")),
            Some(BUDGET - 1)
        );
        // One token spent and one submission batched (not two): the
        // replayed onion was acked by content-addressed dedup.
        assert_eq!(net.service().spent_token_count(), Some(1));
        let stats = net
            .with_cluster(|c| c.close_add_friend_round(Round(1)))
            .unwrap();
        assert_eq!(stats.client_messages, 1);

        net.with_cluster(|c| c.begin_add_friend_round(Round(2), 1))
            .unwrap();
        alice.participate_add_friend(&mut faulty).unwrap();
        assert_eq!(disconnect_count(&faulty), 3, "the batch replay exercised");
        assert_eq!(
            faulty.calls(),
            9,
            "round 2 took a batch, its retry, a submit"
        );
        assert_eq!(
            net.service()
                .remaining_token_budget(&id("alice@example.com")),
            Some(BUDGET - 2)
        );
        assert_eq!(net.service().spent_token_count(), Some(2));
        let stats = net
            .with_cluster(|c| c.close_add_friend_round(Round(2)))
            .unwrap();
        assert_eq!(stats.client_messages, 1);
    }

    /// A `Deregister` whose reply is lost mid-call: the retry replays the
    /// deregistration against PKGs that already dropped the identity, and
    /// the server answers the replay with an idempotent ack.
    #[test]
    fn deregister_survives_lost_reply() {
        let mut net = deployment(97);
        let mut alice = registered_client(&mut net, "alice@example.com", 1);
        alice.set_retry_policy(RetryPolicy::aggressive_test());

        let mut faulty = FaultyTransport::new(net.clone(), disconnect_plan(3, vec![0]));
        alice.deregister(&mut faulty).unwrap();

        assert_eq!(disconnect_count(&faulty), 1);
        assert!(!alice.is_registered());
        assert!(net
            .with_cluster(|c| c.registered_signing_key(&id("alice@example.com")))
            .is_none());
    }
}
