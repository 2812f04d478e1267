//! Property-based tests (proptest) on cross-crate invariants: wire encodings
//! round-trip, keywheels stay synchronized, dial sets never miss and decode
//! only their canonical encoding, and
//! Anytrust-IBE decrypts exactly when the full key set is present.

use proptest::prelude::*;

use alpenhorn_bloom::DialSet;
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::anytrust::{aggregate_identity_keys, aggregate_master_publics};
use alpenhorn_ibe::bf::{decrypt, encrypt, MasterSecret};
use alpenhorn_keywheel::Keywheel;
use alpenhorn_wire::{
    AddFriendEnvelope, DialRequest, DialToken, FriendRequest, Identity, MailboxId, Round,
};

fn arb_identity() -> impl Strategy<Value = Identity> {
    ("[a-z0-9]{1,12}", "[a-z0-9]{1,10}", "[a-z]{2,5}")
        .prop_map(|(local, domain, tld)| Identity::new(&format!("{local}@{domain}.{tld}")).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn friend_request_encoding_round_trips(
        sender in arb_identity(),
        sender_key in any::<[u8; 32]>(),
        sig_seed in any::<u8>(),
        pkg_round in 0u64..1_000_000,
        dialing_round in 0u64..1_000_000,
    ) {
        let request = FriendRequest {
            sender,
            sender_key: [sender_key[0]; alpenhorn_wire::SIGNING_PK_LEN],
            sender_sig: [sig_seed; alpenhorn_wire::SIGNATURE_LEN],
            pkg_sigs: [sig_seed.wrapping_add(1); alpenhorn_wire::MULTISIG_LEN],
            pkg_round: Round(pkg_round),
            dialing_key: [sig_seed.wrapping_add(2); alpenhorn_wire::DH_PK_LEN],
            dialing_round: Round(dialing_round),
        };
        let encoded = request.encode();
        prop_assert_eq!(encoded.len(), FriendRequest::ENCODED_LEN);
        prop_assert_eq!(FriendRequest::decode(&encoded).unwrap(), request);
    }

    #[test]
    fn dial_request_encoding_round_trips(mailbox in any::<u32>(), token in any::<[u8; 32]>()) {
        let request = DialRequest { mailbox: MailboxId(mailbox), token: DialToken(token) };
        prop_assert_eq!(DialRequest::decode(&request.encode()).unwrap(), request);
    }

    #[test]
    fn envelope_encoding_round_trips(mailbox in any::<u32>(), fill in any::<u8>()) {
        let envelope = AddFriendEnvelope {
            mailbox: MailboxId(mailbox),
            ciphertext: vec![fill; AddFriendEnvelope::CIPHERTEXT_LEN],
        };
        prop_assert_eq!(AddFriendEnvelope::decode(&envelope.encode()).unwrap(), envelope);
    }

    #[test]
    fn identity_normalization_is_idempotent(id in arb_identity()) {
        let renormalized = Identity::new(id.as_str()).unwrap();
        prop_assert_eq!(renormalized, id);
    }

    #[test]
    fn mailbox_assignment_is_stable_and_in_range(id in arb_identity(), count in 1u32..500) {
        let a = MailboxId::for_recipient(&id, count);
        let b = MailboxId::for_recipient(&id, count);
        prop_assert_eq!(a, b);
        prop_assert!(a.as_u32() < count);
    }

    #[test]
    fn keywheels_from_same_secret_agree_at_any_reachable_round(
        secret in any::<[u8; 32]>(),
        start in 0u64..1000,
        a_advance in 0u64..50,
        b_advance in 0u64..50,
        probe in 0u64..50,
        intent in 0u32..10,
    ) {
        let mut a = Keywheel::new(secret, Round(start));
        let mut b = Keywheel::new(secret, Round(start));
        a.advance_to(Round(start + a_advance)).unwrap();
        b.advance_to(Round(start + b_advance)).unwrap();
        // Any round both wheels can still reach yields identical tokens and
        // session keys.
        let round = Round(start + a_advance.max(b_advance) + probe);
        prop_assert_eq!(a.dial_token(round, intent).unwrap(), b.dial_token(round, intent).unwrap());
        prop_assert_eq!(
            a.session_key(round, intent).unwrap().0,
            b.session_key(round, intent).unwrap().0
        );
        // And rounds strictly before a wheel's position are unreachable.
        if a_advance > 0 {
            prop_assert!(a.dial_token(Round(start + a_advance - 1), intent).is_err());
        }
    }

    #[test]
    fn dial_set_never_produces_false_negatives(
        items in proptest::collection::vec(any::<[u8; 32]>(), 0..200),
    ) {
        let set = DialSet::new(&items);
        let bytes = set.to_bytes();
        prop_assert_eq!(DialSet::validate(&bytes), Ok(items.len()));
        let restored = DialSet::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&restored, &set);
        prop_assert_eq!(restored.to_bytes(), bytes);
        for item in &items {
            prop_assert!(restored.contains(item));
        }
    }

    #[test]
    fn dial_set_bit_flips_fail_or_re_encode_exactly(
        items in proptest::collection::vec(any::<[u8; 32]>(), 0..64),
        position in any::<u64>(),
    ) {
        let mut flipped = DialSet::new(&items).to_bytes();
        let bit = (position % (flipped.len() as u64 * 8)) as usize;
        flipped[bit / 8] ^= 0x80 >> (bit % 8);
        let decoded = DialSet::from_bytes(&flipped);
        prop_assert_eq!(DialSet::validate(&flipped).err(), decoded.as_ref().err().copied());
        if let Ok(set) = decoded {
            prop_assert_eq!(set.to_bytes(), flipped);
        }
    }

    #[test]
    fn dial_set_truncated_or_extended_is_refused(
        items in proptest::collection::vec(any::<[u8; 32]>(), 0..64),
        extra in proptest::collection::vec(any::<u8>(), 1..9),
    ) {
        let bytes = DialSet::new(&items).to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(DialSet::from_bytes(&bytes[..cut]).is_err());
            prop_assert!(DialSet::validate(&bytes[..cut]).is_err());
        }
        let extended = [&bytes[..], &extra[..]].concat();
        prop_assert!(DialSet::from_bytes(&extended).is_err());
        prop_assert!(DialSet::validate(&extended).is_err());
    }
}

proptest! {
    // Pairing operations are expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn anytrust_ibe_decrypts_iff_all_shares_present(
        seed in any::<[u8; 32]>(),
        num_pkgs in 1usize..5,
        message in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut rng = ChaChaRng::from_seed_bytes(seed);
        let secrets: Vec<MasterSecret> =
            (0..num_pkgs).map(|_| MasterSecret::generate(&mut rng)).collect();
        let publics: Vec<_> = secrets.iter().map(|s| s.public()).collect();
        let mpk = aggregate_master_publics(&publics);
        let ciphertext = encrypt(&mpk, b"bob@gmail.com", &message, &mut rng);

        let keys: Vec<_> = secrets.iter().map(|s| s.extract(b"bob@gmail.com")).collect();
        let full = aggregate_identity_keys(&keys);
        prop_assert_eq!(decrypt(&full, &ciphertext).unwrap(), message);

        if num_pkgs > 1 {
            let partial = aggregate_identity_keys(&keys[..num_pkgs - 1]);
            prop_assert!(decrypt(&partial, &ciphertext).is_err());
        }
    }
}
