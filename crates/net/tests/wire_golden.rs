//! Golden bytes: one fixed frame per wire tag (0–14) and per mux-framed
//! kind, pinned as hex. The fixtures were captured from the per-tag
//! encoders that preceded the `Frame` codec; a diff here means the wire
//! format changed, which needs a new `WIRE_VERSION` or `MUX_WIRE_VERSION`.
//! The last fixture is a two-frame mux bundle, its hex written out from
//! the envelope layout around two of the pinned mux frames: bundling
//! wraps frames, it never re-encodes them.

use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{AggregateKind, InstanceState, Message};
use epidemic_common::NodeId;
use epidemic_net::codec::{
    decode_datagram, decode_mux_datagram, encode_mux_catalog_frame, encode_mux_directory_frame,
    encode_mux_frame, encode_mux_piggyback_frame, encode_mux_query_frame, encode_rpc_request,
    encode_rpc_response, for_each_mux_frame, Frame, MuxBundle, MUX_BUNDLE_VERSION,
    MUX_WIRE_VERSION, WIRE_VERSION,
};
use epidemic_net::directory::{DirectoryPayload, IntroduceEntry, Piggyback};
use epidemic_newscast::node::ViewPayload;
use epidemic_newscast::Descriptor;
use epidemic_query::{
    AdmissionConfig, CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse, RpcStatus,
};

/// `(fixture name, hex bytes)`, in the order [`frames`] builds them.
const GOLDEN: &[(&str, &str)] = &[
        ("tag00_request", "040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f"),
        ("tag01_reply", "0401ffffffffffffffff0900000000000000010000000000000000f8bf"),
        ("tag02_epoch_notice", "040205000000000000000b00000000000000"),
        ("tag03_refuse", "040306000000000000000c00000000000000"),
        ("tag04_view", "0404efbeadde02000100000009000000ffffffff00000000"),
        ("tag05_view_reply", "0405efbeadde02000100000009000000ffffffff00000000"),
        ("tag06_join", "0406efbe0000"),
        ("tag07_introduce", "04070700000003000100000063000000000200000000000000047f000001c80fffffffffffffffff0620010db8000000000000000000000001ffff"),
        ("tag08_delta_view", "0408efbeadde02000100000009000000ffffffff00000000"),
        ("tag09_delta_view_reply", "0409efbeadde02000100000009000000ffffffff00000000"),
        ("tag10_piggybacked", "040a0c00000002010000000900000002000000ffffffff0201000000040a010203591b020000000620010db8000000000000000000000009ffff040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f"),
        ("tag11_catalog", "040b2a000000000000000200086c6f61642e703939050c000000ee020000000000009600000000000000905f01000000000000000000000004c0640000001900000003000000003930000000000000c98f01000000000004676f6e65030a000000e803000000000000c800000000000000000000000000000000000000000000000000000000000000090000000100000000000000000000000000000000"),
        ("tag12_query", "040c086c6f61642e7039390401ffffffffffffffff0900000000000000010000000000000000f8bf"),
        ("tag13_install", "040d010000000000000000086c6f61642e703939050c000000ee020000000000009600000000000000905f01000000000000000000000004c06400000019000000"),
        ("tag13_remove", "040dffffffffffffffff010171"),
        ("tag13_submit", "040d0300000000000000020171000000000000c0bf"),
        ("tag13_read", "040d04000000000000000300"),
        ("tag14_response", "040e09000000000000000000000000000290401f00000000000000"),
        ("mux_aggregation", "02ff03000000000000040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f"),
        ("mux_piggybacked", "021f00000000000000040a0c00000002010000000900000002000000ffffffff0201000000040a010203591b020000000620010db8000000000000000000000009ffff0401ffffffffffffffff0900000000000000010000000000000000f8bf"),
        ("mux_directory_view", "0284030000000000000408efbeadde02000100000009000000ffffffff00000000"),
        ("mux_directory_introduce", "02850300000000000004070700000003000100000063000000000200000000000000047f000001c80fffffffffffffffff0620010db8000000000000000000000001ffff"),
        ("mux_catalog", "020500000000000000040b02000000000000000200086c6f61642e703939050c000000ee020000000000009600000000000000905f01000000000000000000000004c0640000001900000003000000003930000000000000c98f01000000000004676f6e65030a000000e803000000000000c800000000000000000000000000000000000000000000000000000000000000090000000100000000000000000000000000000000"),
        ("mux_query", "024d00000000000000040c086c6f61642e703939040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f"),
        ("bundle_two_frames", "03490002ff03000000000000040007000000000000002a000000000000000200000000000000000a400102000300000000000000000000000000c03f8403000000000000000000000000f03f21000284030000000000000408efbeadde02000100000009000000ffffffff00000000"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixture frames, encoded through the public API.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let request = Message::request(
        NodeId::new(7),
        42,
        vec![
            InstanceState::Scalar(3.25),
            InstanceState::Map(InstanceMap::from_entries([(3, 0.125), (900, 1.0)])),
        ],
    );
    let reply = Message::reply(NodeId::new(u64::MAX), 9, vec![InstanceState::Scalar(-1.5)]);
    let view = |reply, delta| DirectoryPayload::View {
        view: ViewPayload {
            from: 0xDEAD_BEEF,
            descriptors: vec![Descriptor::new(1, 9), Descriptor::new(u32::MAX, 0)],
        },
        reply,
        delta,
    };
    let introduce = DirectoryPayload::Introduce {
        from: 7,
        peers: vec![
            IntroduceEntry {
                node: 1,
                timestamp: 99,
                addr: None,
            },
            IntroduceEntry {
                node: 2,
                timestamp: 0,
                addr: Some("127.0.0.1:4040".parse().unwrap()),
            },
            IntroduceEntry {
                node: u32::MAX,
                timestamp: u32::MAX,
                addr: Some("[2001:db8::1]:65535".parse().unwrap()),
            },
        ],
    };
    let piggyback = Piggyback {
        from: 12,
        descriptors: vec![Descriptor::new(1, 9), Descriptor::new(2, u32::MAX)],
        addrs: vec![
            (1, "10.1.2.3:7001".parse().unwrap()),
            (2, "[2001:db8::9]:65535".parse().unwrap()),
        ],
    };
    let descriptor = QueryDescriptor::new("load.p99", AggregateKind::Variance)
        .with_gamma(12)
        .with_cycle_length(750)
        .with_ttl_ms(90_000)
        .with_default_value(-2.5)
        .with_admission(AdmissionConfig::limited(100, 25));
    let entries = vec![
        CatalogEntry {
            descriptor: descriptor.clone(),
            version: 3,
            deleted: false,
            installed_at: 12_345,
            expires_at: 102_345,
        },
        CatalogEntry {
            descriptor: QueryDescriptor::new("gone", AggregateKind::Count),
            version: 9,
            deleted: true,
            installed_at: 0,
            expires_at: 0,
        },
    ];
    let agg = |msg: &Message| Frame::Aggregation(msg).encode();
    let dir = |payload: &DirectoryPayload| Frame::Directory(payload).encode();
    vec![
        ("tag00_request", agg(&request)),
        ("tag01_reply", agg(&reply)),
        (
            "tag02_epoch_notice",
            agg(&Message::epoch_notice(NodeId::new(5), 11)),
        ),
        ("tag03_refuse", agg(&Message::refuse(NodeId::new(6), 12))),
        ("tag04_view", dir(&view(false, false))),
        ("tag05_view_reply", dir(&view(true, false))),
        ("tag06_join", dir(&DirectoryPayload::Join { from: 0xBEEF })),
        ("tag07_introduce", dir(&introduce)),
        ("tag08_delta_view", dir(&view(false, true))),
        ("tag09_delta_view_reply", dir(&view(true, true))),
        (
            "tag10_piggybacked",
            Frame::Piggybacked(&request, &piggyback).encode(),
        ),
        (
            "tag11_catalog",
            Frame::Catalog {
                from: NodeId::new(42),
                entries: &entries,
            }
            .encode(),
        ),
        (
            "tag12_query",
            Frame::Query {
                query: "load.p99",
                message: &reply,
            }
            .encode(),
        ),
        (
            "tag13_install",
            encode_rpc_request(&RpcRequest::Install { id: 1, descriptor }),
        ),
        (
            "tag13_remove",
            encode_rpc_request(&RpcRequest::Remove {
                id: u64::MAX,
                name: "q".into(),
            }),
        ),
        (
            "tag13_submit",
            encode_rpc_request(&RpcRequest::Submit {
                id: 3,
                name: "q".into(),
                value: -0.125,
            }),
        ),
        (
            "tag13_read",
            encode_rpc_request(&RpcRequest::Read {
                id: 4,
                name: String::new(),
            }),
        ),
        (
            "tag14_response",
            encode_rpc_response(&RpcResponse {
                id: 9,
                status: RpcStatus::Ok,
                estimate: 1024.5,
                epoch: 31,
            }),
        ),
        (
            "mux_aggregation",
            encode_mux_frame(NodeId::new(1023), &request),
        ),
        (
            "mux_piggybacked",
            encode_mux_piggyback_frame(NodeId::new(31), &reply, &piggyback),
        ),
        (
            "mux_directory_view",
            encode_mux_directory_frame(NodeId::new(900), &view(false, true)),
        ),
        (
            "mux_directory_introduce",
            encode_mux_directory_frame(NodeId::new(901), &introduce),
        ),
        (
            "mux_catalog",
            encode_mux_catalog_frame(NodeId::new(5), NodeId::new(2), &entries),
        ),
        (
            "mux_query",
            encode_mux_query_frame(NodeId::new(77), "load.p99", &request),
        ),
        ("bundle_two_frames", {
            // mux_aggregation, then mux_directory_view, in one datagram.
            let mut bundle = MuxBundle::new();
            bundle.push(NodeId::new(1023), &Frame::Aggregation(&request));
            bundle.push(NodeId::new(900), &Frame::Directory(&view(false, true)));
            bundle.datagram().to_vec()
        }),
    ]
}

#[test]
fn every_tag_encodes_to_its_golden_bytes() {
    assert_eq!(WIRE_VERSION, 4);
    assert_eq!(MUX_WIRE_VERSION, 2);
    assert_eq!(MUX_BUNDLE_VERSION, 3);
    let frames = frames();
    assert_eq!(frames.len(), GOLDEN.len());
    for ((name, bytes), (golden_name, golden_hex)) in frames.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(&hex(bytes), golden_hex, "wire bytes of {name} changed");
        // Every fixture is also a well-formed datagram.
        let decoded = if name.starts_with("mux_") {
            decode_mux_datagram(bytes).map(|_| ())
        } else if name.starts_with("bundle_") {
            let mut verdicts = Vec::new();
            for_each_mux_frame(bytes, |frame| verdicts.push(frame.map(|_| ())));
            assert_eq!(verdicts.len(), 2, "{name} carries two frames");
            verdicts.into_iter().collect()
        } else {
            decode_datagram(bytes).map(|_| ())
        };
        assert_eq!(decoded, Ok(()), "{name} does not decode");
    }
    // Tags 0–14 are all covered.
    let tags: std::collections::BTreeSet<u8> = frames
        .iter()
        .filter(|(name, _)| name.starts_with("tag"))
        .map(|(_, bytes)| bytes[1])
        .collect();
    assert_eq!(tags, (0..=14).collect());
}
