//! Property-based tests of the wire codec.
//!
//! One generic property covers every [`WirePayload`] variant: a payload
//! turned into a `Frame` encodes to exactly `encoded_len()` bytes,
//! decodes back to itself, routes by destination behind the mux prefix
//! (through the same named wrappers the runtime sends with), and no
//! strict prefix of its bytes decodes. Two more hold the mux bundle
//! envelope to the same trust boundary: garbage behind the bundle
//! version never panics, and a cut bundle yields exactly its complete
//! leading frames, then one `Truncated`.

use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{InstanceState, Message};
use epidemic_common::NodeId;
use epidemic_net::codec::{
    decode_datagram, decode_mux_datagram, decode_rpc_response, encode_mux_catalog_frame,
    encode_mux_directory_frame, encode_mux_frame, encode_mux_piggyback_frame,
    encode_mux_query_frame, encode_rpc_request, encode_rpc_response, for_each_mux_frame,
    DecodeError, MuxBundle, WirePayload, MUX_BUNDLE_VERSION,
};
use epidemic_net::directory::{DirectoryPayload, IntroduceEntry, Piggyback};
use epidemic_newscast::node::ViewPayload;
use epidemic_newscast::Descriptor;
use epidemic_query::{
    kind_from_code, AdmissionConfig, CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse,
    RpcStatus,
};
use proptest::prelude::*;
use std::net::{IpAddr, SocketAddr};

/// Query names: 1–19 chars from a wire-safe alphabet (stays well under
/// the u8 length prefix).
fn query_name() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
    prop::collection::vec(0u8..ALPHABET.len() as u8, 1..20).prop_map(|idx| {
        idx.into_iter()
            .map(|i| ALPHABET[i as usize] as char)
            .collect()
    })
}

/// A wire-valid query descriptor (floats stay finite and bounded so
/// decoded equality is exact).
fn query_descriptor() -> impl Strategy<Value = QueryDescriptor> {
    (
        (query_name(), any::<u8>(), 1u32..1_000),
        (2u64..100_000, 0.0f64..1.0, 0u64..10_000_000),
        (-1e9f64..1e9, any::<u32>(), 1u32..u32::MAX),
    )
        .prop_map(
            |((name, code, gamma), (cycle, frac, ttl), (default, rate, burst))| QueryDescriptor {
                name,
                kind: kind_from_code(code % 8).expect("kind code in range"),
                gamma,
                cycle_length: cycle,
                timeout: 1 + (frac * (cycle - 2) as f64) as u64,
                ttl_ms: ttl,
                default_value: default,
                admission: AdmissionConfig {
                    rate_per_sec: rate,
                    burst,
                },
            },
        )
}

/// Any of the four aggregation message bodies.
fn message() -> impl Strategy<Value = Message> {
    let state = (
        any::<bool>(),
        -1e12f64..1e12,
        prop::collection::vec((any::<u64>(), 0.0f64..1.0), 0..8),
    )
        .prop_map(|(is_map, scalar, entries)| {
            if is_map {
                InstanceState::Map(InstanceMap::from_entries(entries))
            } else {
                InstanceState::Scalar(scalar)
            }
        });
    (
        any::<u64>(),
        any::<u64>(),
        0u8..4,
        prop::collection::vec(state, 0..5),
    )
        .prop_map(|(from, epoch, tag, states)| {
            let from = NodeId::new(from);
            match tag {
                0 => Message::request(from, epoch, states),
                1 => Message::reply(from, epoch, states),
                2 => Message::epoch_notice(from, epoch),
                _ => Message::refuse(from, epoch),
            }
        })
}

fn descriptors(max: usize) -> impl Strategy<Value = Vec<Descriptor>> {
    prop::collection::vec((any::<u32>(), any::<u32>()), 0..max)
        .prop_map(|raw| raw.iter().map(|&(n, t)| Descriptor::new(n, t)).collect())
}

/// IPv4 or IPv6 socket addresses.
fn socket_addr() -> impl Strategy<Value = SocketAddr> {
    (any::<bool>(), any::<u32>(), any::<u32>()).prop_map(|(v6, ip, port)| {
        let ip = if v6 {
            let mut octets = [0u8; 16];
            octets[..4].copy_from_slice(&ip.to_le_bytes());
            octets[12..].copy_from_slice(&port.to_le_bytes());
            IpAddr::from(octets)
        } else {
            IpAddr::from(ip.to_le_bytes())
        };
        SocketAddr::new(ip, (port >> 16) as u16)
    })
}

fn catalog_entry() -> impl Strategy<Value = CatalogEntry> {
    (
        query_descriptor(),
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(descriptor, version, deleted, installed_at, expires_at)| CatalogEntry {
                descriptor,
                version,
                deleted,
                installed_at,
                expires_at,
            },
        )
}

/// Every [`WirePayload`] variant, and every tag 0–14 beneath them.
fn wire_payload() -> impl Strategy<Value = WirePayload> {
    prop_oneof![
        message().prop_map(WirePayload::Aggregation),
        (any::<u32>(), any::<bool>(), any::<bool>(), descriptors(40)).prop_map(
            |(from, reply, delta, descriptors)| WirePayload::Directory(DirectoryPayload::View {
                view: ViewPayload { from, descriptors },
                reply,
                delta,
            })
        ),
        any::<u32>().prop_map(|from| WirePayload::Directory(DirectoryPayload::Join { from })),
        (
            any::<u32>(),
            prop::collection::vec(
                (any::<u32>(), any::<u32>(), prop::option::of(socket_addr())),
                0..24
            ),
        )
            .prop_map(|(from, raw)| {
                let peers = raw
                    .into_iter()
                    .map(|(node, timestamp, addr)| IntroduceEntry {
                        node,
                        timestamp,
                        addr,
                    })
                    .collect();
                WirePayload::Directory(DirectoryPayload::Introduce { from, peers })
            }),
        (
            message(),
            any::<u32>(),
            descriptors(8),
            prop::collection::vec((any::<u32>(), socket_addr()), 0..6),
        )
            .prop_map(|(message, from, descriptors, addrs)| {
                let piggyback = Piggyback {
                    from,
                    descriptors,
                    addrs,
                };
                WirePayload::Piggybacked(message, piggyback)
            }),
        (any::<u64>(), prop::collection::vec(catalog_entry(), 0..6)).prop_map(|(from, entries)| {
            WirePayload::Catalog {
                from: NodeId::new(from),
                entries,
            }
        }),
        (query_name(), message())
            .prop_map(|(query, message)| WirePayload::Query { query, message }),
        (
            any::<u64>(),
            0u8..4,
            query_name(),
            -1e9f64..1e9,
            query_descriptor()
        )
            .prop_map(|(id, op, name, value, descriptor)| {
                WirePayload::Rpc(match op {
                    0 => RpcRequest::Install { id, descriptor },
                    1 => RpcRequest::Remove { id, name },
                    2 => RpcRequest::Submit { id, name, value },
                    _ => RpcRequest::Read { id, name },
                })
            }),
        (any::<u64>(), 0u8..6, -1e9f64..1e9, any::<u64>()).prop_map(
            |(id, code, estimate, epoch)| WirePayload::RpcReply(RpcResponse {
                id,
                status: RpcStatus::from_code(code).expect("status code in range"),
                estimate,
                epoch,
            })
        ),
    ]
}

/// The bytes the runtime actually sends for `payload` to vnode `to`:
/// the named wrapper for each mux-routed kind, the bare frame for RPC.
fn wrapper_bytes(payload: &WirePayload, to: NodeId) -> Vec<u8> {
    match payload {
        WirePayload::Aggregation(m) => encode_mux_frame(to, m),
        WirePayload::Piggybacked(m, pb) => encode_mux_piggyback_frame(to, m, pb),
        WirePayload::Directory(d) => encode_mux_directory_frame(to, d),
        WirePayload::Catalog { from, entries } => encode_mux_catalog_frame(to, *from, entries),
        WirePayload::Query { query, message } => encode_mux_query_frame(to, query, message),
        WirePayload::Rpc(request) => encode_rpc_request(request),
        WirePayload::RpcReply(response) => encode_rpc_response(response),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_wire_payload_round_trips_through_frame(
        payload in wire_payload(),
        to in any::<u64>(),
        bump in 1u8..255,
    ) {
        let frame = payload.as_frame();
        let encoded = frame.encode();
        // The counting writer and the real encoder agree on size…
        prop_assert_eq!(frame.encoded_len(), encoded.len(), "size of {:?}", payload);
        // …the one decoder inverts the one encoder…
        let decoded = decode_datagram(&encoded).expect("round trip");
        prop_assert_eq!(decoded.as_frame(), frame);
        // …no strict prefix decodes…
        for len in 0..encoded.len() {
            prop_assert_eq!(
                decode_datagram(&encoded[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {}", len
            );
        }
        // …and a foreign version is rejected before any body parsing.
        let mut bad = encoded.clone();
        let foreign = bad[0].wrapping_add(bump);
        bad[0] = foreign;
        prop_assert_eq!(decode_datagram(&bad), Err(DecodeError::BadVersion(foreign)));

        // The mux prefix routes by destination, and the runtime's named
        // wrappers emit exactly these bytes.
        let to = NodeId::new(to);
        let muxed = frame.encode_mux(to);
        prop_assert_eq!(muxed.len(), 1 + 8 + encoded.len());
        prop_assert_eq!(&muxed[9..], &encoded[..]);
        prop_assert_eq!(decode_mux_datagram(&muxed), Ok((to, payload.clone())));
        for len in 0..muxed.len() {
            prop_assert!(decode_mux_datagram(&muxed[..len]).is_err());
        }
        match &payload {
            WirePayload::Rpc(_) | WirePayload::RpcReply(_) => {
                prop_assert_eq!(wrapper_bytes(&payload, to), encoded);
            }
            _ => prop_assert_eq!(wrapper_bytes(&payload, to), muxed),
        }
    }

    #[test]
    fn truncated_frames_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        tag in 0u8..16,
    ) {
        // Arbitrary bytes: decoders must reject or decode, never panic —
        // also when the header is valid and only the body is garbage.
        let _ = decode_datagram(&raw);
        let _ = decode_mux_datagram(&raw);
        let _ = decode_rpc_response(&raw);
        let mut framed = vec![epidemic_net::codec::WIRE_VERSION, tag];
        framed.extend_from_slice(&raw);
        let _ = decode_datagram(&framed);
    }

    #[test]
    fn bundle_garbage_never_panics(
        raw in prop::collection::vec(any::<u8>(), 0..256),
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..8),
    ) {
        // Arbitrary bytes behind the bundle version: any verdict but a
        // panic, and never silence — every datagram yields an item.
        let mut bundle = vec![MUX_BUNDLE_VERSION];
        bundle.extend_from_slice(&raw);
        let mut items = 0usize;
        for_each_mux_frame(&bundle, |_| items += 1);
        prop_assert!(items >= 1);
        // Well-formed length prefixes around garbage frames: one verdict
        // per frame, each judged alone.
        let mut framed = vec![MUX_BUNDLE_VERSION];
        for chunk in &chunks {
            framed.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
            framed.extend_from_slice(chunk);
        }
        let mut verdicts = 0usize;
        for_each_mux_frame(&framed, |_| verdicts += 1);
        prop_assert_eq!(verdicts, chunks.len().max(1));
    }

    #[test]
    fn bundle_prefixes_yield_leading_frames_then_one_truncated(
        payloads in prop::collection::vec(wire_payload(), 2..6),
        to in any::<u64>(),
    ) {
        let mut bundle = MuxBundle::new();
        let mut sent = Vec::new();
        for (k, payload) in payloads.iter().enumerate() {
            let dest = NodeId::new(to.wrapping_add(k as u64));
            if bundle.push(dest, &payload.as_frame()).is_none() {
                break;
            }
            sent.push((dest, payload.clone()));
        }
        let bytes = bundle.datagram().to_vec();
        let mut whole = Vec::new();
        for_each_mux_frame(&bytes, |frame| whole.push(frame));
        let expected: Vec<_> = sent.iter().cloned().map(Ok).collect();
        prop_assert_eq!(&whole, &expected);
        // Where each frame ends inside the datagram (a bare frame ends at
        // the datagram's end).
        let mut ends = Vec::new();
        if sent.len() == 1 {
            ends.push(bytes.len());
        } else {
            let mut at = 1usize;
            for (dest, payload) in &sent {
                at += 2 + payload.as_frame().encode_mux(*dest).len();
                ends.push(at);
            }
        }
        for len in 0..bytes.len() {
            let mut got = Vec::new();
            for_each_mux_frame(&bytes[..len], |frame| got.push(frame));
            let complete = ends.iter().filter(|&&end| end <= len).count();
            prop_assert_eq!(&got[..complete.min(got.len())], &expected[..complete]);
            // A cut at a frame boundary leaves a shorter valid bundle;
            // any other cut ends in exactly one `Truncated`.
            if complete > 0 && ends.contains(&len) {
                prop_assert_eq!(got.len(), complete, "prefix of length {}", len);
            } else {
                prop_assert_eq!(got.len(), complete + 1, "prefix of length {}", len);
                prop_assert_eq!(&got[complete], &Err(DecodeError::Truncated));
            }
        }
    }
}
