//! Binary wire format.
//!
//! A frame is little-endian, versioned, and deliberately simple:
//!
//! ```text
//! u8  version (=4; 2 and 3 are reserved for the mux prefix and bundle below)
//! u8  body tag: 0 request, 1 reply, 2 epoch notice, 3 refuse,
//!               4 view exchange, 5 view reply, 6 join, 7 introduce,
//!               8 delta view exchange, 9 delta view reply,
//!               10 piggybacked aggregation,
//!               11 catalog gossip, 12 query aggregation,
//!               13 rpc request, 14 rpc response
//! -- aggregation bodies (tags 0-3) --
//! u64 sender id
//! u64 epoch
//! -- request/reply only --
//! u16 instance count
//!   per instance: u8 state tag (0 scalar, 1 map)
//!     scalar: f64
//!     map:    u16 entry count, then (u64 leader, f64 estimate)*
//! -- membership bodies (tags 4-5 full view, 8-9 delta view) --
//! u32 sender id
//! u16 descriptor count, then (u32 node, u32 timestamp)*
//! -- bootstrap bodies (tags 6-7) --
//! u32 sender id
//! -- introduce (tag 7) only --
//! u16 entry count, then per entry:
//!   u32 node, u32 timestamp,
//!   u8 addr kind (0 none, 4 IPv4, 6 IPv6), [ip bytes, u16 port]
//! -- piggybacked aggregation (tag 10) --
//! u32 sender membership id
//! u8 descriptor count, then (u32 node, u32 timestamp)*
//! u8 address count, then per entry:
//!   u32 node, u8 addr kind (4 IPv4, 6 IPv6), ip bytes, u16 port
//! ... then one complete aggregation message (version + tag 0-3) ...
//! -- catalog gossip (tag 11) --
//! u64 sender id
//! u16 entry count, then per entry:
//!   descriptor (u8 name len, name bytes, u8 kind code, u32 gamma,
//!               u64 cycle length, u64 timeout, u64 ttl,
//!               f64 default value, u32 admission rate, u32 burst)
//!   u32 entry version, u8 deleted, u64 installed at, u64 expires at
//! -- query aggregation (tag 12) --
//! u8 name len, name bytes
//! ... then one complete aggregation message (version + tag 0-3) ...
//! -- rpc request (tag 13) --
//! u64 request id
//! u8 op (0 install, 1 remove, 2 submit, 3 read)
//!   install: descriptor (as in tag 11)
//!   remove/read: u8 name len, name bytes
//!   submit: u8 name len, name bytes, f64 value
//! -- rpc response (tag 14) --
//! u64 request id, u8 status, f64 estimate, u64 epoch
//! ```
//!
//! Delta view messages (tags 8/9) share the full-view body layout; the
//! tag alone tells the receiver whether the payload is the sender's whole
//! view (replace your record of what it holds) or only the descriptors
//! you were not known to hold (extend it). Tag 10 lets a membership
//! trailer ride on an aggregation datagram already leaving the socket —
//! descriptors keep views fresh between gossip cycles and the optional
//! addresses spread the address book without introducer round trips.
//!
//! The multiplexed runtime ([`crate::mux`]) hosts many protocol nodes
//! behind one socket, so its datagrams carry a routing prefix in front of
//! the regular frame ([`Frame::encode_mux`]):
//!
//! ```text
//! u8  mux version (=2)
//! u64 destination virtual-node id
//! ... the version-4 frame bytes ...
//! ```
//!
//! A plain socket's datagram carries one frame. A mux datagram carries
//! one mux frame or a **bundle** of several, all bound for vnodes behind
//! the same destination socket ([`MuxBundle`]):
//!
//! ```text
//! u8  bundle version (=3)
//! then per frame: u16 length, that many bytes of one mux frame
//! ```
//!
//! A bundle stays under [`MAX_BUNDLE`] bytes; a bundle of one frame is
//! sent bare (the plain mux frame), and [`for_each_mux_frame`] reads
//! either form. Bundling changes the datagram, never a frame: each frame
//! inside is byte-identical to [`Frame::encode_mux`]'s output.
//!
//! # One encoder, one decoder
//!
//! A [`Frame`] borrows whatever is being sent — one variant per
//! [`WirePayload`] variant — and [`Frame::encode_into`] is the only code
//! that lays out a body. Sizes come from running that same encoder
//! against a private byte-counting [`WireWrite`] ([`Frame::encoded_len`]),
//! so a traffic model's byte count cannot drift from the bytes a socket
//! sends, and [`Frame::encode`] / [`Frame::encode_mux`] allocate exactly
//! once ([`Frame::encode_mux_into`] appends to a reused buffer instead).
//! [`decode_datagram`] is the only tag dispatcher, [`decode_mux_datagram`]
//! the only mux-prefix unwrapper and [`for_each_mux_frame`] the only
//! bundle unwrapper; for every frame
//! `decode_datagram(&f.encode())?.as_frame() == f`.
//!
//! Decoding is the trust boundary: an f64 that becomes protocol state (a
//! scalar state, an instance-map estimate, a descriptor default) must be
//! finite and map leaders strictly ascending, as the encoder writes them;
//! anything else is a [`DecodeError`], never a panic or a poisoned
//! estimate. Submitted values are left to `QueryPlane::submit`, which
//! answers NaN/±∞ `BadRequest` where a decode failure could only drop
//! the request unanswered.

use crate::directory::{DirectoryPayload, IntroduceEntry, Piggyback};
use epidemic_aggregation::value::InstanceMap;
use epidemic_aggregation::{InstanceState, Message, MessageBody};
use epidemic_common::NodeId;
use epidemic_newscast::node::ViewPayload;
use epidemic_newscast::Descriptor;
use epidemic_query::descriptor::{kind_code, kind_from_code, AdmissionConfig, MAX_NAME_LEN};
use epidemic_query::{CatalogEntry, QueryDescriptor, RpcRequest, RpcResponse, RpcStatus};
use std::error::Error;
use std::fmt;
use std::net::{IpAddr, SocketAddr};

/// Wire format version of every frame. Version 1 lacked the delta view
/// and piggyback tags, version 3 the query plane (tags 11–14). On mux
/// sockets version 2 is the routing prefix and 3 the bundle envelope
/// ([`MUX_BUNDLE_VERSION`]), so the framings can never be confused.
pub const WIRE_VERSION: u8 = 4;

/// Wire version of the virtual-node-routed frames emitted by
/// [`Frame::encode_mux`]. Distinct from [`WIRE_VERSION`] so a mux socket
/// and a plain socket can never misparse each other's datagrams.
pub const MUX_WIRE_VERSION: u8 = 2;

/// Wire version of a mux bundle: several mux frames coalesced into one
/// datagram for one destination socket ([`MuxBundle`]).
pub const MUX_BUNDLE_VERSION: u8 = 3;

/// Largest bundle [`MuxBundle::push`] builds: a 1500-byte MTU minus the
/// 40-byte IPv6 and 8-byte UDP headers, so a cross-host bundle is never
/// fragmented. A single frame larger than this still goes out, alone and
/// bare.
pub const MAX_BUNDLE: usize = 1452;

/// Bytes of the mux routing prefix: version + destination vnode id.
const MUX_PREFIX_LEN: usize = 1 + 8;

/// Bytes in front of every frame of a bundle: its `u16` length.
const BUNDLE_LEN_PREFIX: usize = 2;

/// Error raised when a datagram cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The datagram ended before the frame did.
    Truncated,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown body, state, address, kind, op or status tag.
    BadTag(u8),
    /// A carried string (query name) was not valid UTF-8.
    BadName,
    /// A value bound for protocol state was NaN or infinite.
    NonFinite,
    /// Instance-map leaders were repeated or out of order.
    UnsortedMap,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::BadName => write!(f, "query name is not valid UTF-8"),
            DecodeError::NonFinite => write!(f, "non-finite value"),
            DecodeError::UnsortedMap => write!(f, "instance map leaders not strictly ascending"),
        }
    }
}

impl Error for DecodeError {}

/// A little-endian byte sink (stand-in for the `bytes` crate's `BufMut`,
/// which is unavailable offline). Implementors provide `put_slice`; the
/// typed writers are defined on top of it.
pub trait WireWrite {
    /// Appends raw bytes.
    fn put_slice(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian IEEE-754 `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl WireWrite for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`WireWrite`] that only counts: [`Frame::encoded_len`] runs the real
/// encoder against it.
struct ByteCount(usize);

impl WireWrite for ByteCount {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// One outbound frame, borrowing its contents — the encode-side twin of
/// [`WirePayload`], variant for variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame<'a> {
    /// Aggregation protocol traffic (tags 0–3).
    Aggregation(&'a Message),
    /// Aggregation traffic with a membership trailer riding along
    /// (tag 10).
    Piggybacked(&'a Message, &'a Piggyback),
    /// Membership / bootstrap traffic (tags 4–9).
    Directory(&'a DirectoryPayload),
    /// Query catalog gossip (tag 11).
    Catalog {
        /// Sending node.
        from: NodeId,
        /// The sender's full entry list, tombstones included.
        entries: &'a [CatalogEntry],
    },
    /// A named query's aggregation frame (tag 12).
    Query {
        /// Owning query.
        query: &'a str,
        /// The carried aggregation message.
        message: &'a Message,
    },
    /// A client RPC request (tag 13).
    Rpc(&'a RpcRequest),
    /// A client RPC response (tag 14).
    RpcReply(&'a RpcResponse),
}

impl Frame<'_> {
    /// Writes the frame (version byte, tag, body) into `w`. This is the
    /// single definition of every tag's byte layout.
    pub fn encode_into(&self, w: &mut impl WireWrite) {
        match *self {
            Frame::Aggregation(msg) => put_message(w, msg),
            Frame::Piggybacked(msg, pb) => {
                put_header(w, 10);
                w.put_u32_le(pb.from);
                w.put_u8(pb.descriptors.len() as u8);
                put_descriptors(w, &pb.descriptors);
                w.put_u8(pb.addrs.len() as u8);
                for &(node, addr) in &pb.addrs {
                    w.put_u32_le(node);
                    put_addr(w, addr);
                }
                put_message(w, msg);
            }
            Frame::Directory(DirectoryPayload::View { view, reply, delta }) => {
                // 4/5 full view, 8/9 delta; the odd tag is the reply.
                put_header(w, 4 + u8::from(*reply) + 4 * u8::from(*delta));
                w.put_u32_le(view.from);
                w.put_u16_le(view.descriptors.len() as u16);
                put_descriptors(w, &view.descriptors);
            }
            Frame::Directory(DirectoryPayload::Join { from }) => {
                put_header(w, 6);
                w.put_u32_le(*from);
            }
            Frame::Directory(DirectoryPayload::Introduce { from, peers }) => {
                put_header(w, 7);
                w.put_u32_le(*from);
                w.put_u16_le(peers.len() as u16);
                for entry in peers {
                    w.put_u32_le(entry.node);
                    w.put_u32_le(entry.timestamp);
                    match entry.addr {
                        None => w.put_u8(0),
                        Some(addr) => put_addr(w, addr),
                    }
                }
            }
            Frame::Catalog { from, entries } => {
                put_header(w, 11);
                w.put_u64_le(from.as_u64());
                w.put_u16_le(entries.len() as u16);
                for entry in entries {
                    put_descriptor(w, &entry.descriptor);
                    w.put_u32_le(entry.version);
                    w.put_u8(u8::from(entry.deleted));
                    w.put_u64_le(entry.installed_at);
                    w.put_u64_le(entry.expires_at);
                }
            }
            Frame::Query { query, message } => {
                put_header(w, 12);
                put_name(w, query);
                put_message(w, message);
            }
            Frame::Rpc(request) => {
                put_header(w, 13);
                w.put_u64_le(request.id());
                w.put_u8(request.op_code());
                match request {
                    RpcRequest::Install { descriptor, .. } => put_descriptor(w, descriptor),
                    RpcRequest::Remove { name, .. } | RpcRequest::Read { name, .. } => {
                        put_name(w, name)
                    }
                    RpcRequest::Submit { name, value, .. } => {
                        put_name(w, name);
                        w.put_f64_le(*value);
                    }
                }
            }
            Frame::RpcReply(response) => {
                put_header(w, 14);
                w.put_u64_le(response.id);
                w.put_u8(response.status as u8);
                w.put_f64_le(response.estimate);
                w.put_u64_le(response.epoch);
            }
        }
    }

    /// Exact byte length of [`encode`](Self::encode)'s output, computed
    /// by running the encoder against a counting sink — no allocation.
    pub fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_into(&mut count);
        count.0
    }

    /// Encodes the frame into one exactly-sized buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes the frame behind a mux routing prefix addressed to the
    /// virtual node `to`, into one exactly-sized buffer.
    pub fn encode_mux(&self, to: NodeId) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MUX_PREFIX_LEN + self.encoded_len());
        self.encode_mux_into(to, &mut buf);
        buf
    }

    /// Appends the frame, behind a mux routing prefix addressed to the
    /// virtual node `to`, to `buf` — [`encode_mux`](Self::encode_mux)
    /// without the allocation.
    pub fn encode_mux_into(&self, to: NodeId, buf: &mut Vec<u8>) {
        buf.put_u8(MUX_WIRE_VERSION);
        buf.put_u64_le(to.as_u64());
        self.encode_into(buf);
    }
}

/// One outbound mux datagram under construction: mux frames for one
/// destination socket, appended in order, under a [`MAX_BUNDLE`] cap.
///
/// The buffer always holds the bundle layout (`u8` version 3, then
/// `(u16 len, mux frame)*`); a bundle of one frame is sent bare, as the
/// plain mux frame, so [`datagram`](Self::datagram) skips the envelope
/// then. Cleared bundles keep their buffer, so a reused bundle encodes
/// without allocating.
#[derive(Debug)]
pub struct MuxBundle {
    buf: Vec<u8>,
    frames: usize,
}

impl Default for MuxBundle {
    fn default() -> Self {
        MuxBundle::new()
    }
}

impl MuxBundle {
    /// An empty bundle.
    pub fn new() -> Self {
        MuxBundle {
            buf: vec![MUX_BUNDLE_VERSION],
            frames: 0,
        }
    }

    /// Appends `frame`, routed to the virtual node `to`, and returns its
    /// mux frame length — or `None`, leaving the bundle unchanged, when
    /// the bundle already holds a frame and this one would take it past
    /// [`MAX_BUNDLE`]. An empty bundle accepts any frame.
    pub fn push(&mut self, to: NodeId, frame: &Frame<'_>) -> Option<usize> {
        let mark = self.buf.len();
        self.buf.put_u16_le(0);
        frame.encode_mux_into(to, &mut self.buf);
        if self.frames > 0 && self.buf.len() > MAX_BUNDLE {
            self.buf.truncate(mark);
            return None;
        }
        let len = self.buf.len() - mark - BUNDLE_LEN_PREFIX;
        // A frame too large for the prefix can only be a lone, bare one.
        self.buf[mark..mark + BUNDLE_LEN_PREFIX].copy_from_slice(&(len as u16).to_le_bytes());
        self.frames += 1;
        Some(len)
    }

    /// Frames in the bundle.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The bytes to send: the bare mux frame for a bundle of one, the
    /// whole envelope otherwise.
    pub fn datagram(&self) -> &[u8] {
        if self.frames == 1 {
            &self.buf[1 + BUNDLE_LEN_PREFIX..]
        } else {
            &self.buf
        }
    }

    /// Empties the bundle, keeping its buffer.
    pub fn clear(&mut self) {
        self.buf.truncate(1);
        self.frames = 0;
    }
}

fn put_header(w: &mut impl WireWrite, tag: u8) {
    w.put_u8(WIRE_VERSION);
    w.put_u8(tag);
}

/// A complete aggregation message: version, tag 0–3, body.
fn put_message(w: &mut impl WireWrite, msg: &Message) {
    let (tag, states) = match &msg.body {
        MessageBody::Request(s) => (0, Some(s)),
        MessageBody::Reply(s) => (1, Some(s)),
        MessageBody::EpochNotice => (2, None),
        MessageBody::Refuse => (3, None),
    };
    put_header(w, tag);
    w.put_u64_le(msg.from.as_u64());
    w.put_u64_le(msg.epoch);
    let Some(states) = states else {
        return; // control messages end at the epoch
    };
    w.put_u16_le(states.len() as u16);
    for state in states {
        match state {
            InstanceState::Scalar(v) => {
                w.put_u8(0);
                w.put_f64_le(*v);
            }
            InstanceState::Map(map) => {
                w.put_u8(1);
                w.put_u16_le(map.len() as u16);
                for (leader, estimate) in map.iter() {
                    w.put_u64_le(leader);
                    w.put_f64_le(estimate);
                }
            }
        }
    }
}

fn put_descriptors(w: &mut impl WireWrite, descriptors: &[Descriptor]) {
    for d in descriptors {
        w.put_u32_le(d.node);
        w.put_u32_le(d.timestamp);
    }
}

fn put_addr(w: &mut impl WireWrite, addr: SocketAddr) {
    match addr {
        SocketAddr::V4(a) => {
            w.put_u8(4);
            w.put_slice(&a.ip().octets());
        }
        SocketAddr::V6(a) => {
            w.put_u8(6);
            w.put_slice(&a.ip().octets());
        }
    }
    w.put_u16_le(addr.port());
}

fn put_name(w: &mut impl WireWrite, name: &str) {
    debug_assert!(name.len() <= MAX_NAME_LEN);
    w.put_u8(name.len() as u8);
    w.put_slice(name.as_bytes());
}

fn put_descriptor(w: &mut impl WireWrite, d: &QueryDescriptor) {
    put_name(w, &d.name);
    w.put_u8(kind_code(d.kind));
    w.put_u32_le(d.gamma);
    w.put_u64_le(d.cycle_length);
    w.put_u64_le(d.timeout);
    w.put_u64_le(d.ttl_ms);
    w.put_f64_le(d.default_value);
    w.put_u32_le(d.admission.rate_per_sec);
    w.put_u32_le(d.admission.burst);
}

/// Any decodable datagram body: an aggregation-plane [`Message`]
/// (tags 0–3), a membership-plane [`DirectoryPayload`] (tags 4–9), an
/// aggregation message with a piggybacked membership trailer (tag 10), or
/// query-plane traffic (tags 11–14).
#[derive(Debug, Clone, PartialEq)]
pub enum WirePayload {
    /// Aggregation protocol traffic.
    Aggregation(Message),
    /// Membership / bootstrap traffic.
    Directory(DirectoryPayload),
    /// Aggregation traffic with a membership trailer riding along.
    Piggybacked(Message, Piggyback),
    /// Query catalog gossip (tag 11).
    Catalog {
        /// Sending node.
        from: NodeId,
        /// The sender's full entry list, tombstones included.
        entries: Vec<CatalogEntry>,
    },
    /// A named query's aggregation frame (tag 12).
    Query {
        /// Owning query.
        query: String,
        /// The carried aggregation message.
        message: Message,
    },
    /// A client RPC request (tag 13).
    Rpc(RpcRequest),
    /// A client RPC response (tag 14).
    RpcReply(RpcResponse),
}

impl WirePayload {
    /// The [`Frame`] that encodes back to this payload's bytes.
    pub fn as_frame(&self) -> Frame<'_> {
        match self {
            WirePayload::Aggregation(message) => Frame::Aggregation(message),
            WirePayload::Directory(payload) => Frame::Directory(payload),
            WirePayload::Piggybacked(message, piggyback) => Frame::Piggybacked(message, piggyback),
            WirePayload::Catalog { from, entries } => Frame::Catalog {
                from: *from,
                entries,
            },
            WirePayload::Query { query, message } => Frame::Query { query, message },
            WirePayload::Rpc(request) => Frame::Rpc(request),
            WirePayload::RpcReply(response) => Frame::RpcReply(response),
        }
    }
}

/// Bounds-checked little-endian reads that advance through a datagram;
/// running out of bytes is [`DecodeError::Truncated`], never a panic.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.bytes(N)?.try_into().expect("length checked"))
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }
    /// An f64 bound for protocol state: NaN and ±∞ are rejected here, at
    /// the one place untrusted floats enter.
    fn finite_f64(&mut self) -> Result<f64, DecodeError> {
        let v = self.f64()?;
        v.is_finite().then_some(v).ok_or(DecodeError::NonFinite)
    }
    /// Capacity for `count` wire entries of at least `entry_bytes` each,
    /// capped by what the datagram can still hold, so a lying count
    /// cannot force a large allocation.
    fn capacity(&self, count: usize, entry_bytes: usize) -> usize {
        count.min(self.0.len() / entry_bytes)
    }
    fn version(&mut self, expected: u8) -> Result<(), DecodeError> {
        match self.u8()? {
            v if v == expected => Ok(()),
            v => Err(DecodeError::BadVersion(v)),
        }
    }
}

/// Decodes any datagram, dispatching on its tag. This is the only tag
/// dispatcher; the per-body readers below are private to it.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the datagram is truncated, has an unknown
/// version, carries an unknown tag or a malformed name, or carries a
/// non-finite value bound for protocol state.
pub fn decode_datagram(data: &[u8]) -> Result<WirePayload, DecodeError> {
    let r = &mut Reader(data);
    r.version(WIRE_VERSION)?;
    let tag = r.u8()?;
    Ok(match tag {
        0..=3 => WirePayload::Aggregation(get_message_body(r, tag)?),
        4 | 5 | 8 | 9 => {
            let from = r.u32()?;
            let count = usize::from(r.u16()?);
            let descriptors = get_descriptors(r, count)?;
            WirePayload::Directory(DirectoryPayload::View {
                view: ViewPayload { from, descriptors },
                reply: tag == 5 || tag == 9,
                delta: tag >= 8,
            })
        }
        6 => WirePayload::Directory(DirectoryPayload::Join { from: r.u32()? }),
        7 => {
            let from = r.u32()?;
            let count = usize::from(r.u16()?);
            let mut peers = Vec::with_capacity(r.capacity(count, 9));
            for _ in 0..count {
                let node = r.u32()?;
                let timestamp = r.u32()?;
                let addr = match r.u8()? {
                    0 => None,
                    kind => Some(get_addr(r, kind)?),
                };
                peers.push(IntroduceEntry {
                    node,
                    timestamp,
                    addr,
                });
            }
            WirePayload::Directory(DirectoryPayload::Introduce { from, peers })
        }
        10 => {
            let from = r.u32()?;
            let count = usize::from(r.u8()?);
            let descriptors = get_descriptors(r, count)?;
            let count = usize::from(r.u8()?);
            let mut addrs = Vec::with_capacity(r.capacity(count, 11));
            for _ in 0..count {
                let node = r.u32()?;
                let kind = r.u8()?;
                addrs.push((node, get_addr(r, kind)?));
            }
            let piggyback = Piggyback {
                from,
                descriptors,
                addrs,
            };
            WirePayload::Piggybacked(get_message(r)?, piggyback)
        }
        11 => {
            let from = NodeId::new(r.u64()?);
            let count = usize::from(r.u16()?);
            let mut entries = Vec::with_capacity(r.capacity(count, 67));
            for _ in 0..count {
                entries.push(CatalogEntry {
                    descriptor: get_descriptor(r)?,
                    version: r.u32()?,
                    deleted: r.u8()? != 0,
                    installed_at: r.u64()?,
                    expires_at: r.u64()?,
                });
            }
            WirePayload::Catalog { from, entries }
        }
        12 => {
            let query = get_name(r)?;
            WirePayload::Query {
                query,
                message: get_message(r)?,
            }
        }
        13 => {
            let id = r.u64()?;
            WirePayload::Rpc(match r.u8()? {
                0 => RpcRequest::Install {
                    id,
                    descriptor: get_descriptor(r)?,
                },
                1 => RpcRequest::Remove {
                    id,
                    name: get_name(r)?,
                },
                2 => RpcRequest::Submit {
                    id,
                    name: get_name(r)?,
                    value: r.f64()?,
                },
                3 => RpcRequest::Read {
                    id,
                    name: get_name(r)?,
                },
                op => return Err(DecodeError::BadTag(op)),
            })
        }
        14 => {
            let id = r.u64()?;
            let code = r.u8()?;
            // Estimates travel to clients, never into protocol state, so
            // they are passed through as sent.
            WirePayload::RpcReply(RpcResponse {
                id,
                status: RpcStatus::from_code(code).ok_or(DecodeError::BadTag(code))?,
                estimate: r.f64()?,
                epoch: r.u64()?,
            })
        }
        t => return Err(DecodeError::BadTag(t)),
    })
}

/// A nested aggregation message (tags 10 and 12 carry one whole).
fn get_message(r: &mut Reader<'_>) -> Result<Message, DecodeError> {
    r.version(WIRE_VERSION)?;
    match r.u8()? {
        tag @ 0..=3 => get_message_body(r, tag),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn get_message_body(r: &mut Reader<'_>, tag: u8) -> Result<Message, DecodeError> {
    let from = NodeId::new(r.u64()?);
    let epoch = r.u64()?;
    let body = match tag {
        2 => MessageBody::EpochNotice,
        3 => MessageBody::Refuse,
        _ => {
            let count = usize::from(r.u16()?);
            let mut states = Vec::with_capacity(r.capacity(count, 3));
            for _ in 0..count {
                states.push(match r.u8()? {
                    0 => InstanceState::Scalar(r.finite_f64()?),
                    1 => InstanceState::Map(get_map(r)?),
                    t => return Err(DecodeError::BadTag(t)),
                });
            }
            if tag == 0 {
                MessageBody::Request(states)
            } else {
                MessageBody::Reply(states)
            }
        }
    };
    Ok(Message { from, epoch, body })
}

fn get_map(r: &mut Reader<'_>) -> Result<InstanceMap, DecodeError> {
    let count = usize::from(r.u16()?);
    let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(r.capacity(count, 16));
    for _ in 0..count {
        let leader = r.u64()?;
        if pairs.last().is_some_and(|&(prev, _)| prev >= leader) {
            return Err(DecodeError::UnsortedMap);
        }
        pairs.push((leader, r.finite_f64()?));
    }
    Ok(InstanceMap::from_entries(pairs))
}

fn get_descriptors(r: &mut Reader<'_>, count: usize) -> Result<Vec<Descriptor>, DecodeError> {
    let mut descriptors = Vec::with_capacity(r.capacity(count, 8));
    for _ in 0..count {
        let node = r.u32()?;
        descriptors.push(Descriptor::new(node, r.u32()?));
    }
    Ok(descriptors)
}

fn get_addr(r: &mut Reader<'_>, kind: u8) -> Result<SocketAddr, DecodeError> {
    let ip = match kind {
        4 => IpAddr::from(r.array::<4>()?),
        6 => IpAddr::from(r.array::<16>()?),
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(SocketAddr::new(ip, r.u16()?))
}

fn get_name(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    let len = usize::from(r.u8()?);
    let bytes = r.bytes(len)?;
    let name = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadName)?;
    Ok(name.to_string())
}

fn get_descriptor(r: &mut Reader<'_>) -> Result<QueryDescriptor, DecodeError> {
    let name = get_name(r)?;
    let code = r.u8()?;
    let kind = kind_from_code(code).ok_or(DecodeError::BadTag(code))?;
    let mut descriptor = QueryDescriptor::new(name, kind);
    descriptor.gamma = r.u32()?;
    descriptor.cycle_length = r.u64()?;
    descriptor.timeout = r.u64()?;
    descriptor.ttl_ms = r.u64()?;
    descriptor.default_value = r.finite_f64()?;
    let rate_per_sec = r.u32()?;
    let burst = r.u32()?;
    descriptor.admission = if rate_per_sec == 0 && burst == 0 {
        AdmissionConfig::UNLIMITED
    } else {
        AdmissionConfig::limited(rate_per_sec, burst)
    };
    Ok(descriptor)
}

/// Decodes a mux-framed datagram into the destination virtual-node id
/// and the carried payload, whichever plane it belongs to. This is the
/// only mux-prefix unwrapper.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the routing prefix is truncated or has
/// the wrong version, or if the carried payload fails to decode.
pub fn decode_mux_datagram(data: &[u8]) -> Result<(NodeId, WirePayload), DecodeError> {
    let r = &mut Reader(data);
    r.version(MUX_WIRE_VERSION)?;
    let to = NodeId::new(r.u64()?);
    Ok((to, decode_datagram(r.0)?))
}

/// Hands every mux frame a datagram carries to `f`, decoded through
/// [`decode_mux_datagram`]: each frame of a version-3 bundle in order, or
/// the datagram itself as a bundle of one. This is the only bundle
/// unwrapper.
///
/// Every frame is judged alone: a frame that fails to decode is one `Err`
/// and the next frame still decodes. A length prefix that overruns the
/// datagram — or an envelope with no frame at all — ends the bundle with
/// one [`DecodeError::Truncated`]. Every datagram yields at least one
/// item.
pub fn for_each_mux_frame(
    data: &[u8],
    mut f: impl FnMut(Result<(NodeId, WirePayload), DecodeError>),
) {
    let Some((&MUX_BUNDLE_VERSION, mut rest)) = data.split_first() else {
        return f(decode_mux_datagram(data));
    };
    if rest.is_empty() {
        return f(Err(DecodeError::Truncated));
    }
    while !rest.is_empty() {
        let r = &mut Reader(rest);
        let Ok(frame) = r.u16().and_then(|len| r.bytes(usize::from(len))) else {
            return f(Err(DecodeError::Truncated));
        };
        rest = r.0;
        f(decode_mux_datagram(frame));
    }
}

/// Decodes a client RPC response (tag 14).
///
/// # Errors
///
/// As [`decode_datagram`], plus [`DecodeError::BadTag`] for any other
/// well-formed frame.
pub fn decode_rpc_response(data: &[u8]) -> Result<RpcResponse, DecodeError> {
    match decode_datagram(data)? {
        WirePayload::RpcReply(response) => Ok(response),
        _ => Err(DecodeError::BadTag(data[1])),
    }
}

/// [`Frame::Aggregation`] behind a mux prefix addressed to `to`.
pub fn encode_mux_frame(to: NodeId, msg: &Message) -> Vec<u8> {
    Frame::Aggregation(msg).encode_mux(to)
}

/// [`Frame::Piggybacked`] behind a mux prefix addressed to `to`.
pub fn encode_mux_piggyback_frame(to: NodeId, msg: &Message, piggyback: &Piggyback) -> Vec<u8> {
    Frame::Piggybacked(msg, piggyback).encode_mux(to)
}

/// [`Frame::Directory`] behind a mux prefix addressed to `to`.
pub fn encode_mux_directory_frame(to: NodeId, payload: &DirectoryPayload) -> Vec<u8> {
    Frame::Directory(payload).encode_mux(to)
}

/// [`Frame::Query`] behind a mux prefix addressed to `to`.
pub fn encode_mux_query_frame(to: NodeId, query: &str, msg: &Message) -> Vec<u8> {
    Frame::Query {
        query,
        message: msg,
    }
    .encode_mux(to)
}

/// [`Frame::Catalog`] behind a mux prefix addressed to `to`.
pub fn encode_mux_catalog_frame(to: NodeId, from: NodeId, entries: &[CatalogEntry]) -> Vec<u8> {
    Frame::Catalog { from, entries }.encode_mux(to)
}

/// [`Frame::Rpc`], unprefixed: clients talk to the RPC listener directly.
pub fn encode_rpc_request(request: &RpcRequest) -> Vec<u8> {
    Frame::Rpc(request).encode()
}

/// [`Frame::RpcReply`], unprefixed.
pub fn encode_rpc_response(response: &RpcResponse) -> Vec<u8> {
    Frame::RpcReply(response).encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_aggregation::AggregateKind;

    /// Encodes `frame`, checks its size and that it decodes back to
    /// itself, and returns the bytes.
    fn round_trip(frame: Frame<'_>) -> Vec<u8> {
        let encoded = frame.encode();
        assert_eq!(encoded.len(), frame.encoded_len(), "{frame:?}");
        assert_eq!(decode_datagram(&encoded).expect("decode").as_frame(), frame);
        encoded
    }

    fn agg(msg: &Message) -> Vec<u8> {
        round_trip(Frame::Aggregation(msg))
    }

    fn sample_request() -> Message {
        Message::request(
            NodeId::new(7),
            42,
            vec![
                InstanceState::Scalar(1.0),
                InstanceState::Map(InstanceMap::from_entries([(1, 0.5)])),
            ],
        )
    }

    #[test]
    fn round_trip_scalar_request() {
        agg(&Message::request(
            NodeId::new(7),
            42,
            vec![InstanceState::Scalar(3.25), InstanceState::Scalar(-1.5)],
        ));
    }

    #[test]
    fn round_trip_map_reply() {
        let map = InstanceMap::from_entries([(3, 0.125), (900, 1.0), (u64::MAX, 1e-30)]);
        agg(&Message::reply(
            NodeId::new(u64::MAX),
            u64::MAX,
            vec![InstanceState::Map(map), InstanceState::Scalar(0.0)],
        ));
    }

    #[test]
    fn round_trip_control_messages() {
        agg(&Message::epoch_notice(NodeId::new(0), 0));
        agg(&Message::refuse(NodeId::new(1), 9));
    }

    #[test]
    fn round_trip_empty_states_and_map() {
        agg(&Message::request(NodeId::new(2), 1, vec![]));
        agg(&Message::request(
            NodeId::new(2),
            1,
            vec![InstanceState::Map(InstanceMap::new())],
        ));
    }

    #[test]
    fn round_trip_special_floats() {
        // Extreme finite values survive the wire bit for bit…
        agg(&Message::request(
            NodeId::new(3),
            2,
            vec![
                InstanceState::Scalar(f64::MAX),
                InstanceState::Scalar(f64::MIN_POSITIVE),
                InstanceState::Map(InstanceMap::from_entries([(1, -f64::MAX)])),
            ],
        ));
        // …but NaN and ±∞ never become protocol state, whether they sit in
        // a scalar or in an instance-map estimate.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for state in [
                InstanceState::Scalar(bad),
                InstanceState::Map(InstanceMap::from_entries([(1, 0.5), (2, bad)])),
            ] {
                let msg = Message::request(NodeId::new(3), 2, vec![state]);
                let encoded = Frame::Aggregation(&msg).encode();
                assert_eq!(decode_datagram(&encoded), Err(DecodeError::NonFinite));
            }
        }
    }

    #[test]
    fn non_finite_query_plane_values_are_rejected() {
        let install = RpcRequest::Install {
            id: 2,
            descriptor: sample_descriptor("q").with_default_value(f64::INFINITY),
        };
        assert_eq!(
            decode_datagram(&encode_rpc_request(&install)),
            Err(DecodeError::NonFinite)
        );
        let catalog = [CatalogEntry {
            descriptor: sample_descriptor("q").with_default_value(f64::NAN),
            version: 1,
            deleted: false,
            installed_at: 0,
            expires_at: 0,
        }];
        let gossip = Frame::Catalog {
            from: NodeId::new(1),
            entries: &catalog,
        };
        assert_eq!(
            decode_datagram(&gossip.encode()),
            Err(DecodeError::NonFinite)
        );
        // A submitted NaN reaches the query plane, which answers it
        // `BadRequest`; client-side response estimates pass through too.
        let submit = RpcRequest::Submit {
            id: 1,
            name: "q".into(),
            value: f64::NAN,
        };
        let Ok(WirePayload::Rpc(RpcRequest::Submit { value, .. })) =
            decode_datagram(&encode_rpc_request(&submit))
        else {
            panic!("submit did not decode");
        };
        assert!(value.is_nan());
        let reply = RpcResponse {
            id: 3,
            status: RpcStatus::Ok,
            estimate: f64::INFINITY,
            epoch: 1,
        };
        let decoded = decode_rpc_response(&encode_rpc_response(&reply)).unwrap();
        assert_eq!(decoded.estimate, f64::INFINITY);
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let encoded = agg(&sample_request());
        for len in 0..encoded.len() {
            let err = decode_datagram(&encoded[..len]).unwrap_err();
            assert_eq!(err, DecodeError::Truncated, "prefix of length {len}");
        }
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut encoded = agg(&Message::refuse(NodeId::new(1), 0));
        encoded[0] = 99;
        assert_eq!(decode_datagram(&encoded), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn decode_rejects_bad_tags() {
        let mut encoded = agg(&Message::refuse(NodeId::new(1), 0));
        encoded[1] = 99;
        assert_eq!(decode_datagram(&encoded), Err(DecodeError::BadTag(99)));

        let mut encoded = agg(&Message::request(
            NodeId::new(1),
            0,
            vec![InstanceState::Scalar(1.0)],
        ));
        encoded[20] = 7; // the state tag
        assert_eq!(decode_datagram(&encoded), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn decode_rejects_unsorted_instance_maps() {
        // Leaders 1 then 1 again: a map the encoder can never produce.
        let mut encoded = agg(&Message::request(
            NodeId::new(1),
            0,
            vec![InstanceState::Map(InstanceMap::from_entries([
                (1, 0.5),
                (2, 0.5),
            ]))],
        ));
        // header 18 + count 2 + state tag 1 + map len 2 + first pair 16.
        encoded[39] = 1;
        assert_eq!(decode_datagram(&encoded), Err(DecodeError::UnsortedMap));
    }

    #[test]
    fn encoding_is_compact() {
        // The paper argues COUNT messages stay small ("a few hundred
        // bytes" for 20 instances); verify the format's arithmetic.
        let map = InstanceMap::from_entries((0..20u64).map(|l| (l, 1.0 / 20.0)));
        let msg = Message::request(NodeId::new(1), 5, vec![InstanceState::Map(map)]);
        assert!(agg(&msg).len() < 350);
    }

    #[test]
    fn delta_and_full_views_use_distinct_tags() {
        let view = ViewPayload {
            from: 1,
            descriptors: vec![Descriptor::new(2, 3)],
        };
        let encode = |reply, delta| {
            round_trip(Frame::Directory(&DirectoryPayload::View {
                view: view.clone(),
                reply,
                delta,
            }))
        };
        assert_eq!(encode(false, false)[1], 4);
        assert_eq!(encode(true, false)[1], 5);
        assert_eq!(encode(false, true)[1], 8);
        assert_eq!(encode(true, true)[1], 9);
        // Same body layout: only the tag byte differs.
        assert_eq!(encode(false, false)[2..], encode(false, true)[2..]);
        // A c=30 view exchange: each side ships 31 descriptors.
        let full = DirectoryPayload::View {
            view: ViewPayload {
                from: 0,
                descriptors: (0..31).map(|i| Descriptor::new(i, i)).collect(),
            },
            reply: false,
            delta: false,
        };
        assert_eq!(
            Frame::Directory(&full).encoded_len(),
            1 + 1 + 4 + 2 + 31 * 8
        );
    }

    #[test]
    fn mux_frames_route_and_reject_plain_datagrams() {
        let msg = Message::refuse(NodeId::new(1), 0);
        let frame = encode_mux_frame(NodeId::new(1023), &msg);
        assert_eq!(
            decode_mux_datagram(&frame),
            Ok((NodeId::new(1023), WirePayload::Aggregation(msg.clone())))
        );
        for len in 0..frame.len() {
            assert_eq!(
                decode_mux_datagram(&frame[..len]),
                Err(DecodeError::Truncated),
                "prefix of length {len}"
            );
        }
        // A plain datagram hitting a mux socket must not decode, nor the
        // reverse.
        assert_eq!(
            decode_mux_datagram(&agg(&msg)),
            Err(DecodeError::BadVersion(WIRE_VERSION))
        );
        assert_eq!(
            decode_datagram(&frame),
            Err(DecodeError::BadVersion(MUX_WIRE_VERSION))
        );
    }

    fn unwrap_all(data: &[u8]) -> Vec<Result<(NodeId, WirePayload), DecodeError>> {
        let mut frames = Vec::new();
        for_each_mux_frame(data, |frame| frames.push(frame));
        frames
    }

    #[test]
    fn bundles_unwrap_frame_by_frame() {
        let good = Message::refuse(NodeId::new(1), 0);
        let poison = Message::request(NodeId::new(2), 0, vec![InstanceState::Scalar(f64::NAN)]);
        let mut bundle = MuxBundle::new();
        for (to, msg) in [(10, &good), (11, &poison), (12, &good)] {
            let len = bundle.push(NodeId::new(to), &Frame::Aggregation(msg));
            assert_eq!(len, Some(encode_mux_frame(NodeId::new(to), msg).len()));
        }
        assert_eq!(bundle.frames(), 3);
        let bytes = bundle.datagram().to_vec();
        assert_eq!(bytes[0], MUX_BUNDLE_VERSION);
        // The bad frame costs only itself.
        let ok = |to| Ok((NodeId::new(to), WirePayload::Aggregation(good.clone())));
        assert_eq!(
            unwrap_all(&bytes),
            vec![ok(10), Err(DecodeError::NonFinite), ok(12)]
        );
        // A length prefix that overruns ends the bundle with one error.
        let mut overrun = bytes.clone();
        overrun.truncate(bytes.len() - 1);
        assert_eq!(
            unwrap_all(&overrun),
            vec![
                ok(10),
                Err(DecodeError::NonFinite),
                Err(DecodeError::Truncated)
            ]
        );
        // An envelope with no frame, and a bundle nested in a bundle, are
        // malformed; a bare mux frame is a bundle of one.
        assert_eq!(
            unwrap_all(&[MUX_BUNDLE_VERSION]),
            vec![Err(DecodeError::Truncated)]
        );
        let mut nested = vec![MUX_BUNDLE_VERSION];
        nested.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        nested.extend_from_slice(&bytes);
        assert_eq!(
            unwrap_all(&nested),
            vec![Err(DecodeError::BadVersion(MUX_BUNDLE_VERSION))]
        );
        assert_eq!(
            unwrap_all(&encode_mux_frame(NodeId::new(10), &good)),
            vec![ok(10)]
        );
        // Cleared, the bundle keeps its buffer and sends one frame bare.
        bundle.clear();
        bundle.push(NodeId::new(10), &Frame::Aggregation(&good));
        assert_eq!(
            bundle.datagram(),
            &encode_mux_frame(NodeId::new(10), &good)[..]
        );
    }

    #[test]
    fn bundles_stay_under_the_cap() {
        let msg = Message::request(NodeId::new(1), 0, vec![InstanceState::Scalar(0.5)]);
        let frame = Frame::Aggregation(&msg);
        let mut bundle = MuxBundle::new();
        while bundle.push(NodeId::new(0), &frame).is_some() {}
        let per_frame = 2 + frame.encode_mux(NodeId::new(0)).len();
        assert_eq!(bundle.frames(), (MAX_BUNDLE - 1) / per_frame);
        assert!(bundle.datagram().len() <= MAX_BUNDLE);
        // A lone frame past the cap is accepted, and sent bare.
        let big = Message::request(NodeId::new(1), 0, vec![InstanceState::Scalar(0.5); 200]);
        let mut alone = MuxBundle::new();
        assert!(alone
            .push(NodeId::new(0), &Frame::Aggregation(&big))
            .is_some());
        assert!(alone.datagram().len() > MAX_BUNDLE);
        assert_eq!(alone.datagram()[0], MUX_WIRE_VERSION);
        assert_eq!(alone.push(NodeId::new(0), &frame), None);
    }

    fn sample_descriptor(name: &str) -> QueryDescriptor {
        QueryDescriptor::new(name, AggregateKind::Variance)
            .with_gamma(12)
            .with_cycle_length(750)
            .with_ttl_ms(90_000)
            .with_default_value(-2.5)
            .with_admission(AdmissionConfig::limited(100, 25))
    }

    #[test]
    fn catalog_decode_rejects_corruption() {
        let entries = [CatalogEntry {
            descriptor: sample_descriptor("load.p99"),
            version: 3,
            deleted: false,
            installed_at: 12_345,
            expires_at: 102_345,
        }];
        let encoded = round_trip(Frame::Catalog {
            from: NodeId::new(1),
            entries: &entries,
        });
        // An unknown aggregate kind code must not decode. The kind byte
        // sits right after the first name (header 12 + name len byte).
        let mut bad_kind = encoded.clone();
        bad_kind[12 + 1 + entries[0].descriptor.name.len()] = 250;
        assert_eq!(decode_datagram(&bad_kind), Err(DecodeError::BadTag(250)));
        // Invalid UTF-8 in the name is rejected, not lossily accepted.
        let mut bad_name = encoded;
        bad_name[13] = 0xFF;
        assert_eq!(decode_datagram(&bad_name), Err(DecodeError::BadName));
    }

    #[test]
    fn rpc_frames_reject_unknown_ops_and_statuses() {
        let mut bad_op = encode_rpc_request(&RpcRequest::Read {
            id: 1,
            name: "q".to_string(),
        });
        bad_op[10] = 9;
        assert_eq!(decode_datagram(&bad_op), Err(DecodeError::BadTag(9)));
        let mut bad_status = encode_rpc_response(&RpcResponse::ack(1));
        bad_status[10] = 200;
        assert_eq!(
            decode_rpc_response(&bad_status),
            Err(DecodeError::BadTag(200))
        );
        // A well-formed frame of another kind is not a response.
        assert_eq!(
            decode_rpc_response(&agg(&Message::refuse(NodeId::new(1), 0))),
            Err(DecodeError::BadTag(3))
        );
    }

    #[test]
    fn piggyback_carries_a_complete_aggregation_message() {
        let msg = sample_request();
        let pb = Piggyback {
            from: 3,
            descriptors: vec![Descriptor::new(4, 5)],
            addrs: vec![(4, "127.0.0.1:9000".parse().unwrap())],
        };
        let encoded = round_trip(Frame::Piggybacked(&msg, &pb));
        // The trailer sits in front of the plain message's bytes.
        let plain = agg(&msg);
        assert_eq!(encoded[encoded.len() - plain.len()..], plain[..]);
        // A corrupt nested version is reported as such.
        let mut bad = encoded;
        let at = bad.len() - plain.len();
        bad[at] = 77;
        assert_eq!(decode_datagram(&bad), Err(DecodeError::BadVersion(77)));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadVersion(3).to_string().contains('3'));
        assert!(DecodeError::BadTag(9).to_string().contains('9'));
        assert!(DecodeError::NonFinite.to_string().contains("finite"));
    }
}
