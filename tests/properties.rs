//! Property-based tests of the core invariants, spanning crates.

use epidemic::aggregation::estimator::trimmed_mean;
use epidemic::aggregation::rule::{Rule, UpdateRule};
use epidemic::aggregation::value::InstanceMap;
use epidemic::aggregation::{InstanceState, Message, MessageBody};
use epidemic::common::NodeId;
use epidemic::net::codec::{decode_datagram, WirePayload};
use epidemic::net::Frame;
use epidemic::newscast::{Descriptor, View};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL | prop::num::f64::ZERO
}

fn small_f64() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

/// Sends `msg` through the wire codec and back.
fn wire_round_trip(msg: &Message) -> Message {
    match decode_datagram(&Frame::Aggregation(msg).encode()) {
        Ok(WirePayload::Aggregation(decoded)) => decoded,
        other => panic!("not an aggregation frame: {other:?}"),
    }
}

proptest! {
    // ---- scalar update rules -------------------------------------------

    #[test]
    fn average_conserves_sum(a in small_f64(), b in small_f64()) {
        let m = Rule::Average.merge(a, b);
        prop_assert!((2.0 * m - (a + b)).abs() <= 1e-6 * (1.0 + a.abs() + b.abs()));
    }

    #[test]
    fn rules_are_symmetric(a in small_f64(), b in small_f64()) {
        for rule in [Rule::Average, Rule::Min, Rule::Max] {
            prop_assert_eq!(rule.merge(a, b), rule.merge(b, a));
        }
    }

    #[test]
    fn merge_result_is_bounded_by_inputs(a in small_f64(), b in small_f64()) {
        // Every rule's output lies within [min(a,b), max(a,b)] — the key
        // stability property: exchanges never create runaway values.
        let (lo, hi) = (a.min(b), a.max(b));
        for rule in [Rule::Average, Rule::Min, Rule::Max] {
            let m = rule.merge(a, b);
            prop_assert!(m >= lo && m <= hi, "{} out of [{}, {}]", m, lo, hi);
        }
    }

    #[test]
    fn geometric_mean_conserves_product(a in 1e-3..1e3f64, b in 1e-3..1e3f64) {
        let m = Rule::GeometricMean.merge(a, b);
        prop_assert!((m * m - a * b).abs() / (a * b) < 1e-9);
    }

    // ---- instance maps --------------------------------------------------

    #[test]
    fn map_merge_conserves_per_leader_mass(
        a_entries in prop::collection::btree_map(0u64..8, 0.0..1.0f64, 0..6),
        b_entries in prop::collection::btree_map(0u64..8, 0.0..1.0f64, 0..6),
    ) {
        let a = InstanceMap::from_entries(a_entries.clone());
        let b = InstanceMap::from_entries(b_entries.clone());
        let merged = InstanceMap::merge(&a, &b);
        for leader in 0u64..8 {
            let before = a.get(leader).unwrap_or(0.0) + b.get(leader).unwrap_or(0.0);
            let after = 2.0 * merged.get(leader).unwrap_or(0.0);
            prop_assert!((before - after).abs() < 1e-12);
        }
        // The union of keys survives.
        prop_assert_eq!(
            merged.len(),
            a_entries.keys().chain(b_entries.keys()).collect::<std::collections::BTreeSet<_>>().len()
        );
    }

    #[test]
    fn map_merge_is_symmetric(
        a_entries in prop::collection::btree_map(0u64..8, 0.0..1.0f64, 0..6),
        b_entries in prop::collection::btree_map(0u64..8, 0.0..1.0f64, 0..6),
    ) {
        let a = InstanceMap::from_entries(a_entries);
        let b = InstanceMap::from_entries(b_entries);
        prop_assert_eq!(InstanceMap::merge(&a, &b), InstanceMap::merge(&b, &a));
    }

    // ---- trimmed mean ---------------------------------------------------

    #[test]
    fn trimmed_mean_is_bounded(values in prop::collection::vec(small_f64(), 1..40)) {
        let tm = trimmed_mean(&values).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(tm >= lo - 1e-9 && tm <= hi + 1e-9);
    }

    #[test]
    fn trimmed_mean_ignores_extreme_third(
        mut values in prop::collection::vec(100.0..101.0f64, 7..30),
        outlier in 1e7..1e9f64,
    ) {
        // Corrupt up to floor(t/3) entries with huge outliers; the trimmed
        // mean must stay in the clean band.
        let k = values.len() / 3;
        for v in values.iter_mut().take(k) {
            *v = outlier;
        }
        let tm = trimmed_mean(&values).unwrap();
        prop_assert!((100.0..=101.0).contains(&tm), "tm = {}", tm);
    }

    // ---- newscast views -------------------------------------------------

    #[test]
    fn view_merge_invariants(
        own in prop::collection::vec((0u32..50, 0u32..100), 0..20),
        received in prop::collection::vec((0u32..50, 0u32..100), 0..20),
        capacity in 1usize..15,
        self_node in 0u32..50,
    ) {
        let mut view = View::new(capacity);
        for (node, ts) in own {
            if node != self_node {
                view.insert(Descriptor::new(node, ts));
            }
        }
        let received: Vec<Descriptor> = received
            .into_iter()
            .map(|(node, ts)| Descriptor::new(node, ts))
            .collect();
        view.merge_with(&received, self_node);
        // Invariants: bounded, no self, no duplicates, freshest-first.
        prop_assert!(view.len() <= capacity);
        prop_assert!(!view.contains(self_node));
        let entries = view.entries();
        let ids: std::collections::HashSet<u32> = entries.iter().map(|d| d.node).collect();
        prop_assert_eq!(ids.len(), entries.len());
        for pair in entries.windows(2) {
            prop_assert!(pair[0].timestamp >= pair[1].timestamp);
        }
    }

    // ---- wire codec -----------------------------------------------------

    #[test]
    fn codec_round_trips_scalar_messages(
        from in 0u64..1000,
        epoch in 0u64..1000,
        scalars in prop::collection::vec(finite_f64(), 0..5),
        is_request in any::<bool>(),
    ) {
        let states: Vec<InstanceState> = scalars.into_iter().map(InstanceState::Scalar).collect();
        let msg = if is_request {
            Message::request(NodeId::new(from), epoch, states)
        } else {
            Message::reply(NodeId::new(from), epoch, states)
        };
        let decoded = wire_round_trip(&msg);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn codec_round_trips_map_messages(
        entries in prop::collection::btree_map(0u64..100, finite_f64(), 0..30),
    ) {
        let msg = Message::request(
            NodeId::new(1),
            2,
            vec![InstanceState::Map(InstanceMap::from_entries(entries))],
        );
        let decoded = wire_round_trip(&msg);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn codec_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_datagram(&data); // must return Err, not panic
    }

    // ---- theory ---------------------------------------------------------

    #[test]
    fn crash_variance_monotone_in_pf(n in 100usize..100_000, cycles in 1u32..40) {
        let lo = epidemic::aggregation::theory::crash_variance_ratio(
            0.05, n, epidemic::aggregation::theory::RHO_PUSH_PULL, cycles);
        let hi = epidemic::aggregation::theory::crash_variance_ratio(
            0.25, n, epidemic::aggregation::theory::RHO_PUSH_PULL, cycles);
        prop_assert!(hi > lo);
    }

    #[test]
    fn epoch_message_body_tags_are_stable(epoch in 0u64..u64::MAX) {
        // Control messages survive the codec for any epoch value.
        for msg in [
            Message::epoch_notice(NodeId::new(3), epoch),
            Message::refuse(NodeId::new(3), epoch),
        ] {
            let decoded = wire_round_trip(&msg);
            prop_assert_eq!(decoded.epoch, epoch);
            prop_assert!(matches!(
                decoded.body,
                MessageBody::EpochNotice | MessageBody::Refuse
            ));
        }
    }
}
