//! Syscall-batched datagram I/O: `recvmmsg`/`sendmmsg` with a portable
//! fallback.
//!
//! The multiplexed runtime ([`crate::mux`]) moves one datagram per
//! syscall when it uses `recv_from`/`send_to` — at 10⁴–10⁵ virtual nodes
//! the kernel boundary, not the protocol, becomes the ceiling. Two things
//! shrink it. Workers coalesce outbound mux frames into one datagram per
//! destination socket per flush ([`SendBatch::push_frame`], a
//! [`crate::codec::MuxBundle`] each), so a datagram carries a burst of
//! frames, not one. And on Linux both directions batch: a reader drains
//! up to [`BATCH`] datagrams per `recvmmsg` call, and a flush sends up to
//! [`BATCH`] datagrams per `sendmmsg`.
//!
//! The build environment has no crates.io access, so the two syscall
//! wrappers are declared here directly (glibc exports both on every
//! supported Linux target) behind `#[cfg(target_os = "linux")]`. A
//! portable one-datagram-per-syscall path compiles everywhere and is
//! selectable at runtime ([`IoBackend::Portable`]) for A/B measurement
//! and for keeping the non-Linux code path tested on Linux CI.
//!
//! Selection: [`IoBackend::auto`] picks `Batched` on Linux and
//! `Portable` elsewhere; the `EPIDEMIC_NET_IO` environment variable
//! (`batched` / `portable`) overrides it, which is how CI forces the
//! fallback path on a Linux runner.

use crate::codec::{Frame, MuxBundle};
use epidemic_common::NodeId;
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Datagrams moved per batched syscall (both directions).
pub const BATCH: usize = 32;

/// Largest datagram a receive slot can hold — matches the 64 KiB UDP
/// maximum the runtimes have always assumed.
const MAX_DATAGRAM: usize = 64 * 1024;

/// How a runtime moves datagrams across the kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// `recvmmsg`/`sendmmsg`: up to [`BATCH`] datagrams per syscall.
    /// Only effective on Linux; elsewhere it degrades to `Portable`.
    Batched,
    /// One `recv_from`/`send_to` per datagram — compiles and runs
    /// everywhere, and preserves the pre-batching syscall pattern
    /// exactly (the A/B baseline).
    Portable,
}

impl IoBackend {
    /// The platform default: `Batched` on Linux, `Portable` elsewhere —
    /// unless the `EPIDEMIC_NET_IO` environment variable names a backend
    /// explicitly.
    pub fn auto() -> Self {
        if let Ok(value) = std::env::var("EPIDEMIC_NET_IO") {
            if let Some(forced) = IoBackend::from_override(&value) {
                return forced;
            }
        }
        if cfg!(target_os = "linux") {
            IoBackend::Batched
        } else {
            IoBackend::Portable
        }
    }

    /// Parses an override string (the `EPIDEMIC_NET_IO` value or an
    /// `--io` CLI flag): `batched` / `portable`, case-insensitive.
    pub fn from_override(value: &str) -> Option<Self> {
        match value.to_ascii_lowercase().as_str() {
            "batched" => Some(IoBackend::Batched),
            "portable" => Some(IoBackend::Portable),
            _ => None,
        }
    }

    /// Whether this backend actually batches on the current platform.
    pub fn is_batched(self) -> bool {
        self == IoBackend::Batched && cfg!(target_os = "linux")
    }

    /// The backend's name, in the same lowercase form
    /// [`IoBackend::from_override`] parses — used as a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            IoBackend::Batched => "batched",
            IoBackend::Portable => "portable",
        }
    }
}

/// Reusable receive buffers for one socket: up to [`BATCH`] datagrams per
/// [`RecvBatch::recv`] call on the batched backend, exactly one on the
/// portable backend.
#[derive(Debug)]
pub struct RecvBatch {
    /// `BATCH` slots of `MAX_DATAGRAM` bytes, flat.
    bufs: Box<[u8]>,
    /// Received length per slot (valid for `0..count` of the last call).
    lens: [usize; BATCH],
    /// Source address per slot (valid for `0..count` of the last call);
    /// `None` when the kernel reported an address family we don't parse.
    srcs: [Option<SocketAddr>; BATCH],
}

impl Default for RecvBatch {
    fn default() -> Self {
        RecvBatch::new()
    }
}

impl RecvBatch {
    /// Allocates the slot buffers (`BATCH * 64 KiB`, reused for the life
    /// of the reader).
    pub fn new() -> Self {
        RecvBatch {
            bufs: vec![0u8; BATCH * MAX_DATAGRAM].into_boxed_slice(),
            lens: [0; BATCH],
            srcs: [None; BATCH],
        }
    }

    /// Receives at least one datagram (blocking per the socket's read
    /// timeout), draining whatever else is immediately available on the
    /// batched backend. Returns how many slots were filled — exactly one
    /// syscall was performed either way.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a read timeout surfaces as
    /// `WouldBlock`/`TimedOut` exactly like `recv_from`.
    pub fn recv(&mut self, socket: &UdpSocket, backend: IoBackend) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        if backend == IoBackend::Batched {
            return self.recv_batched(socket);
        }
        let _ = backend;
        let (len, src) = socket.recv_from(&mut self.bufs[..MAX_DATAGRAM])?;
        self.lens[0] = len;
        self.srcs[0] = Some(src);
        Ok(1)
    }

    /// The bytes of datagram `i` of the last [`RecvBatch::recv`] call.
    ///
    /// # Panics
    ///
    /// Panics if `i >= BATCH` (callers index `0..count`).
    pub fn datagram(&self, i: usize) -> &[u8] {
        &self.bufs[i * MAX_DATAGRAM..i * MAX_DATAGRAM + self.lens[i]]
    }

    /// The source address of datagram `i` of the last
    /// [`RecvBatch::recv`] call — the sender's socket, as reported by the
    /// kernel. `None` only for an unparseable address family.
    ///
    /// # Panics
    ///
    /// Panics if `i >= BATCH` (callers index `0..count`).
    pub fn src(&self, i: usize) -> Option<SocketAddr> {
        self.srcs[i]
    }

    #[cfg(target_os = "linux")]
    fn recv_batched(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        use std::os::fd::AsRawFd;
        let mut iovecs = [sys::IoVec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        }; BATCH];
        let mut hdrs = [sys::MmsgHdr::zeroed(); BATCH];
        let mut names = [sys::SockaddrStorage::zeroed(); BATCH];
        for (slot, (iov, hdr)) in iovecs.iter_mut().zip(hdrs.iter_mut()).enumerate() {
            iov.iov_base = self.bufs[slot * MAX_DATAGRAM..].as_mut_ptr().cast();
            iov.iov_len = MAX_DATAGRAM;
            hdr.msg_hdr.msg_iov = iov;
            hdr.msg_hdr.msg_iovlen = 1;
            hdr.msg_hdr.msg_name = names[slot].bytes.as_mut_ptr().cast();
            hdr.msg_hdr.msg_namelen = sys::SockaddrStorage::LEN;
        }
        // SAFETY: every header points at a distinct live slot of `bufs`,
        // at its own iovec, and at its own sockaddr storage; all three
        // arrays outlive the call. The socket fd is valid for the
        // borrow's duration.
        let got = unsafe {
            sys::recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                BATCH as u32,
                sys::MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        for (i, hdr) in hdrs.iter().enumerate().take(got as usize) {
            self.lens[i] = hdr.msg_len as usize;
            self.srcs[i] = names[i].decode();
        }
        Ok(got as usize)
    }
}

/// Outbound datagrams accumulated for ONE socket, flushed with `sendmmsg`
/// (or a `send_to` loop on the portable backend). `M` is caller metadata
/// carried per frame — the mux runtime stores `(node, frame kind)` so a
/// flush can charge each node's traffic cell.
///
/// [`SendBatch::push_frame`] coalesces mux frames: it encodes each one
/// straight into the open [`MuxBundle`] for its target address, so one
/// flush sends one datagram per destination socket (more only past
/// [`MAX_BUNDLE`](crate::codec::MAX_BUNDLE) bytes). [`SendBatch::push`]
/// queues ready-made bytes as a datagram of their own. Both kinds leave
/// through the same flush, and bundle buffers are reused across flushes.
#[derive(Debug)]
pub struct SendBatch<M> {
    /// Datagrams of the current flush, in creation order.
    datagrams: Vec<(Datagram, SocketAddr)>,
    /// Per queued frame, in push order: metadata, frame wire length and
    /// the index of the datagram carrying it.
    frames: Vec<(M, usize, usize)>,
    /// Cleared bundles from earlier flushes, ready for reuse.
    spare: Vec<MuxBundle>,
    /// Kernel verdict per datagram of the flush in progress.
    accepted: Vec<bool>,
}

/// One outbound datagram.
#[derive(Debug)]
enum Datagram {
    /// Mux frames coalesced for one destination socket.
    Bundle(MuxBundle),
    /// Bytes queued whole by [`SendBatch::push`].
    Raw(Vec<u8>),
}

impl Datagram {
    fn bytes(&self) -> &[u8] {
        match self {
            Datagram::Bundle(bundle) => bundle.datagram(),
            Datagram::Raw(bytes) => bytes,
        }
    }
}

/// What one [`SendBatch::flush`] cost and moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flushed {
    /// Send syscalls issued.
    pub syscalls: u64,
    /// Datagrams the kernel accepted.
    pub datagrams: u64,
}

impl<M> Default for SendBatch<M> {
    fn default() -> Self {
        SendBatch::new()
    }
}

impl<M> SendBatch<M> {
    /// An empty batch.
    pub fn new() -> Self {
        SendBatch {
            datagrams: Vec::new(),
            frames: Vec::new(),
            spare: Vec::new(),
            accepted: Vec::new(),
        }
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queues `bytes` as one datagram of their own for `target`.
    pub fn push(&mut self, bytes: Vec<u8>, target: SocketAddr, meta: M) {
        self.frames.push((meta, bytes.len(), self.datagrams.len()));
        self.datagrams.push((Datagram::Raw(bytes), target));
    }

    /// Encodes `frame`, routed to the virtual node `to`, into the open
    /// bundle for `target` — or into a fresh one when there is none or
    /// the frame does not fit — and returns its mux frame length. Frames
    /// for one target leave in push order.
    pub fn push_frame(
        &mut self,
        target: SocketAddr,
        to: NodeId,
        frame: &Frame<'_>,
        meta: M,
    ) -> usize {
        // The target's newest datagram is its only open one.
        let open = self
            .datagrams
            .iter_mut()
            .enumerate()
            .rev()
            .find(|(_, (_, t))| *t == target);
        if let Some((index, (Datagram::Bundle(bundle), _))) = open {
            if let Some(len) = bundle.push(to, frame) {
                self.frames.push((meta, len, index));
                return len;
            }
        }
        let mut bundle = self.spare.pop().unwrap_or_default();
        let len = bundle
            .push(to, frame)
            .expect("an empty bundle takes any frame");
        self.frames.push((meta, len, self.datagrams.len()));
        self.datagrams.push((Datagram::Bundle(bundle), target));
        len
    }

    /// Transmits every queued datagram through `socket`, invoking
    /// `on_result(&meta, frame_len, ok)` once per frame (in push order,
    /// `ok` being its datagram's verdict), then clears the batch.
    ///
    /// A datagram the kernel rejects (e.g. `sendmmsg` stopping early, or
    /// a `send_to` error) reports `ok = false` for each of its frames and
    /// transmission continues with the next datagram — one bad
    /// destination cannot stall the rest of the burst.
    pub fn flush(
        &mut self,
        socket: &UdpSocket,
        backend: IoBackend,
        mut on_result: impl FnMut(&M, usize, bool),
    ) -> Flushed {
        self.accepted.clear();
        let syscalls = self.transmit(socket, backend);
        for (meta, len, datagram) in self.frames.drain(..) {
            on_result(&meta, len, self.accepted[datagram]);
        }
        for (datagram, _) in self.datagrams.drain(..) {
            if let Datagram::Bundle(mut bundle) = datagram {
                bundle.clear();
                self.spare.push(bundle);
            }
        }
        Flushed {
            syscalls,
            datagrams: self.accepted.iter().filter(|&&ok| ok).count() as u64,
        }
    }

    /// Sends every datagram, recording one verdict each in `accepted`;
    /// returns the syscalls used.
    fn transmit(&mut self, socket: &UdpSocket, backend: IoBackend) -> u64 {
        #[cfg(target_os = "linux")]
        if backend == IoBackend::Batched {
            return self.transmit_batched(socket);
        }
        let _ = backend;
        for (datagram, target) in &self.datagrams {
            let ok = socket.send_to(datagram.bytes(), *target).is_ok();
            self.accepted.push(ok);
        }
        self.datagrams.len() as u64
    }

    #[cfg(target_os = "linux")]
    fn transmit_batched(&mut self, socket: &UdpSocket) -> u64 {
        use std::os::fd::AsRawFd;
        let mut syscalls = 0u64;
        let mut start = 0usize;
        while start < self.datagrams.len() {
            let chunk = (self.datagrams.len() - start).min(BATCH);
            let mut addrs = [sys::SockaddrStorage::zeroed(); BATCH];
            let mut iovecs = [sys::IoVec {
                iov_base: std::ptr::null_mut(),
                iov_len: 0,
            }; BATCH];
            let mut hdrs = [sys::MmsgHdr::zeroed(); BATCH];
            for i in 0..chunk {
                let (datagram, target) = &self.datagrams[start + i];
                let bytes = datagram.bytes();
                let namelen = addrs[i].encode(target);
                // The kernel only reads a send buffer; the pointer is
                // `*mut` for the shared `iovec` ABI alone.
                iovecs[i].iov_base = bytes.as_ptr().cast_mut().cast();
                iovecs[i].iov_len = bytes.len();
                hdrs[i].msg_hdr.msg_name = addrs[i].bytes.as_mut_ptr().cast();
                hdrs[i].msg_hdr.msg_namelen = namelen;
                hdrs[i].msg_hdr.msg_iov = &mut iovecs[i];
                hdrs[i].msg_hdr.msg_iovlen = 1;
            }
            // SAFETY: headers 0..chunk each point at a distinct live
            // datagram buffer, its own iovec, and its own sockaddr
            // storage, all outliving the call; the fd is valid for the
            // borrow.
            let sent =
                unsafe { sys::sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), chunk as u32, 0) };
            syscalls += 1;
            if sent > 0 {
                self.accepted.resize(start + sent as usize, true);
                start += sent as usize;
            } else {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // The first datagram of the chunk failed; record it and
                // move on so one dead destination cannot wedge the burst.
                self.accepted.push(false);
                start += 1;
            }
        }
        syscalls
    }
}

/// Raw Linux syscall surface: hand-declared externs and ABI structs (the
/// environment has no crates.io access, so no `libc` crate). Layouts
/// follow the x86-64/AArch64 glibc definitions; `#[repr(C)]` reproduces
/// the kernel's padding from the field types alone.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    use std::net::SocketAddr;

    /// `recvmmsg(2)` flag: return once at least one datagram arrived,
    /// taking whatever else is immediately available.
    pub const MSG_WAITFORONE: i32 = 0x10000;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MsgHdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: u32,
        pub msg_iov: *mut IoVec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct MmsgHdr {
        pub msg_hdr: MsgHdr,
        pub msg_len: u32,
    }

    impl MmsgHdr {
        pub fn zeroed() -> Self {
            // SAFETY: all fields are integers or raw pointers; the
            // all-zero bit pattern is a valid value for each.
            unsafe { std::mem::zeroed() }
        }
    }

    /// Room for a `sockaddr_in6` (the larger of the two families).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SockaddrStorage {
        pub bytes: [u8; 28],
    }

    impl SockaddrStorage {
        /// Byte size of the storage (room for a `sockaddr_in6`).
        pub const LEN: u32 = 28;

        pub fn zeroed() -> Self {
            SockaddrStorage { bytes: [0; 28] }
        }

        /// Parses the kernel-written `sockaddr_in`/`sockaddr_in6` back
        /// into a [`SocketAddr`] (`None` for any other family).
        pub fn decode(&self) -> Option<SocketAddr> {
            let family = u16::from_ne_bytes([self.bytes[0], self.bytes[1]]);
            let port = u16::from_be_bytes([self.bytes[2], self.bytes[3]]);
            match family {
                AF_INET => {
                    let mut ip = [0u8; 4];
                    ip.copy_from_slice(&self.bytes[4..8]);
                    Some(SocketAddr::from((ip, port)))
                }
                AF_INET6 => {
                    let mut ip = [0u8; 16];
                    ip.copy_from_slice(&self.bytes[8..24]);
                    Some(SocketAddr::from((ip, port)))
                }
                _ => None,
            }
        }

        /// Writes `addr` as a kernel `sockaddr_in`/`sockaddr_in6`,
        /// returning the `msg_namelen` to pass alongside.
        pub fn encode(&mut self, addr: &SocketAddr) -> u32 {
            match addr {
                SocketAddr::V4(v4) => {
                    self.bytes[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                    self.bytes[2..4].copy_from_slice(&v4.port().to_be_bytes());
                    self.bytes[4..8].copy_from_slice(&v4.ip().octets());
                    self.bytes[8..16].fill(0); // sin_zero
                    16
                }
                SocketAddr::V6(v6) => {
                    self.bytes[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                    self.bytes[2..4].copy_from_slice(&v6.port().to_be_bytes());
                    self.bytes[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                    self.bytes[8..24].copy_from_slice(&v6.ip().octets());
                    self.bytes[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                    28
                }
            }
        }
    }

    extern "C" {
        pub fn recvmmsg(
            sockfd: i32,
            msgvec: *mut MmsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut c_void,
        ) -> i32;

        pub fn sendmmsg(sockfd: i32, msgvec: *mut MmsgHdr, vlen: u32, flags: i32) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{for_each_mux_frame, WirePayload, MAX_BUNDLE};
    use epidemic_aggregation::{InstanceState, Message};
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let b = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let to = b.local_addr().unwrap();
        (a, b, to)
    }

    fn backends() -> Vec<IoBackend> {
        if cfg!(target_os = "linux") {
            vec![IoBackend::Batched, IoBackend::Portable]
        } else {
            vec![IoBackend::Portable]
        }
    }

    #[test]
    fn override_parsing() {
        assert_eq!(
            IoBackend::from_override("batched"),
            Some(IoBackend::Batched)
        );
        assert_eq!(
            IoBackend::from_override("Portable"),
            Some(IoBackend::Portable)
        );
        assert_eq!(IoBackend::from_override("turbo"), None);
        assert_eq!(IoBackend::from_override(""), None);
    }

    #[test]
    fn batched_is_linux_only() {
        assert_eq!(IoBackend::Batched.is_batched(), cfg!(target_os = "linux"),);
        assert!(!IoBackend::Portable.is_batched());
    }

    #[test]
    fn round_trips_a_burst_on_every_backend() {
        for backend in backends() {
            let (tx, rx, to) = pair();
            let mut batch: SendBatch<usize> = SendBatch::new();
            let total = BATCH + 7; // forces a second sendmmsg chunk
            for i in 0..total {
                batch.push(format!("datagram-{i}").into_bytes(), to, i);
            }
            let mut sent = Vec::new();
            let flushed = batch.flush(&tx, backend, |&i, len, ok| {
                assert!(ok, "send {i} failed");
                assert_eq!(len, format!("datagram-{i}").len());
                sent.push(i);
            });
            assert_eq!(flushed.datagrams, total as u64);
            let syscalls = flushed.syscalls;
            assert_eq!(sent, (0..total).collect::<Vec<_>>());
            assert!(batch.is_empty(), "flush must clear the batch");
            if backend.is_batched() {
                assert_eq!(syscalls, 2, "expected ceil({total}/{BATCH}) syscalls");
            } else {
                assert_eq!(syscalls, total as u64);
            }

            let from = tx.local_addr().unwrap();
            let mut recv = RecvBatch::new();
            let mut got = Vec::new();
            let mut recv_syscalls = 0u64;
            while got.len() < total {
                let count = recv.recv(&rx, backend).expect("burst lost");
                recv_syscalls += 1;
                for d in 0..count {
                    got.push(String::from_utf8(recv.datagram(d).to_vec()).unwrap());
                    assert_eq!(recv.src(d), Some(from), "{backend:?}: wrong source");
                }
            }
            got.sort();
            let mut want: Vec<String> = (0..total).map(|i| format!("datagram-{i}")).collect();
            want.sort();
            assert_eq!(got, want);
            if backend.is_batched() {
                assert!(
                    recv_syscalls < total as u64,
                    "batched recv used {recv_syscalls} syscalls for {total} datagrams"
                );
            }
        }
    }

    #[test]
    fn recv_times_out_like_recv_from() {
        for backend in backends() {
            let rx = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            rx.set_read_timeout(Some(Duration::from_millis(30)))
                .unwrap();
            let mut recv = RecvBatch::new();
            let err = recv.recv(&rx, backend).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{backend:?}: unexpected timeout kind {:?}",
                err.kind()
            );
        }
    }

    #[test]
    fn failed_sends_are_reported_without_stalling_the_burst() {
        for backend in backends() {
            let (tx, _rx, to) = pair();
            // An IPv6 destination on an IPv4 socket: the kernel rejects
            // it, the surrounding IPv4 datagrams must still go through.
            // Both frames bundled for it fail with it.
            let bad: SocketAddr = "[::1]:9".parse().unwrap();
            let msg = Message::refuse(NodeId::new(1), 0);
            let frame = Frame::Aggregation(&msg);
            let mut batch: SendBatch<u8> = SendBatch::new();
            batch.push(b"ok-0".to_vec(), to, 0);
            batch.push_frame(bad, NodeId::new(2), &frame, 1);
            batch.push_frame(bad, NodeId::new(3), &frame, 2);
            batch.push(b"ok-3".to_vec(), to, 3);
            let mut results = Vec::new();
            let flushed = batch.flush(&tx, backend, |&tag, _len, ok| results.push((tag, ok)));
            assert_eq!(
                results,
                vec![(0, true), (1, false), (2, false), (3, true)],
                "{backend:?}"
            );
            assert_eq!(flushed.datagrams, 2, "{backend:?}");
        }
    }

    /// Sends `batch` from `tx` and unwraps every frame `rx` receives, in
    /// arrival order, with the datagram count.
    fn send_and_unwrap(
        batch: &mut SendBatch<usize>,
        tx: &UdpSocket,
        rx: &UdpSocket,
        backend: IoBackend,
    ) -> (Vec<(NodeId, WirePayload)>, usize) {
        let flushed = batch.flush(tx, backend, |_, _, ok| assert!(ok));
        let mut recv = RecvBatch::new();
        let (mut frames, mut datagrams) = (Vec::new(), 0);
        while datagrams < flushed.datagrams as usize {
            let count = recv.recv(rx, backend).expect("bundle lost");
            for d in 0..count {
                datagrams += 1;
                for_each_mux_frame(recv.datagram(d), |frame| frames.push(frame.unwrap()));
            }
        }
        (frames, datagrams)
    }

    #[test]
    fn frames_for_one_socket_share_a_datagram() {
        for backend in backends() {
            let (tx, rx, to) = pair();
            let msgs: Vec<Message> = (0..40)
                .map(|i| Message::request(NodeId::new(i), i, vec![InstanceState::Scalar(0.5)]))
                .collect();
            let mut batch: SendBatch<usize> = SendBatch::new();
            let mut lens = Vec::new();
            for (i, msg) in msgs.iter().enumerate() {
                let frame = Frame::Aggregation(msg);
                let len = batch.push_frame(to, NodeId::new(i as u64), &frame, i);
                assert_eq!(len, frame.encode_mux(NodeId::new(i as u64)).len());
                lens.push(len);
            }
            assert_eq!(batch.len(), 40);
            let (frames, datagrams) = send_and_unwrap(&mut batch, &tx, &rx, backend);
            // 40 frames of 49 bundled bytes each need two bundles under
            // the cap, and arrive in push order.
            let per_bundle = (MAX_BUNDLE - 1) / (lens[0] + 2);
            assert_eq!(datagrams, 40usize.div_ceil(per_bundle), "{backend:?}");
            let want: Vec<(NodeId, WirePayload)> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| (NodeId::new(i as u64), WirePayload::Aggregation(m.clone())))
                .collect();
            assert_eq!(frames, want, "{backend:?}");
        }
    }

    #[test]
    fn oversized_frames_travel_alone_and_bare() {
        let (tx, rx, to) = pair();
        let small = Message::refuse(NodeId::new(1), 0);
        let big = Message::request(
            NodeId::new(2),
            0,
            vec![InstanceState::Scalar(1.0); MAX_BUNDLE / 9],
        );
        let mut batch: SendBatch<usize> = SendBatch::new();
        batch.push_frame(to, NodeId::new(0), &Frame::Aggregation(&small), 0);
        batch.push_frame(to, NodeId::new(0), &Frame::Aggregation(&big), 1);
        batch.push_frame(to, NodeId::new(0), &Frame::Aggregation(&small), 2);
        let (frames, datagrams) = send_and_unwrap(&mut batch, &tx, &rx, IoBackend::Portable);
        assert_eq!(datagrams, 3, "a frame past the cap must not be bundled");
        let kinds: Vec<bool> = frames
            .iter()
            .map(|(_, p)| *p == WirePayload::Aggregation(big.clone()))
            .collect();
        assert_eq!(kinds, vec![false, true, false], "push order kept");
        // A second flush reuses the bundles' buffers.
        batch.push_frame(to, NodeId::new(0), &Frame::Aggregation(&small), 0);
        let (frames, datagrams) = send_and_unwrap(&mut batch, &tx, &rx, IoBackend::Portable);
        assert_eq!((frames.len(), datagrams), (1, 1));
    }
}
