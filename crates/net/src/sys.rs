//! The socket calls `std::net` does not offer, declared straight from
//! the already-linked C library: an `SO_REUSEADDR` listener bind, a
//! nonblocking connect, and `poll(2)`, the fabric driver's readiness
//! wait. Constants and struct layouts are those of Linux on x86-64 and
//! aarch64; the fabric targets Linux only.

#[cfg(not(target_os = "linux"))]
compile_error!("selsync-net declares Linux socket constants and layouts");

use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, IntoRawFd};
use std::time::Duration;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const EINPROGRESS: i32 = 115;

/// Readable (or a pending connection on a listener).
pub(crate) const POLLIN: i16 = 0x1;
/// Writable (or a nonblocking connect finished, either way).
pub(crate) const POLLOUT: i16 = 0x4;

/// `struct sockaddr_in`; `sin_port` and `sin_addr` in network order.
#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// `struct sockaddr_in6`; `sin6_port` in network order.
#[repr(C)]
struct SockaddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// `struct pollfd`: one descriptor of a [`wait_ready`] call.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `sock` for `events` ([`POLLIN`] / [`POLLOUT`]).
    pub(crate) fn new(sock: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: sock.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Did the last wait report anything (including an error or hang-up)
    /// on this descriptor?
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// A new TCP socket of `domain`, owned by a `TcpStream` so every error
/// path below closes it on drop.
fn new_socket(domain: c_int, flags: c_int) -> io::Result<TcpStream> {
    // SAFETY: `socket` takes no pointers; a non-negative return is a
    // fresh descriptor nothing else owns, handed straight to TcpStream.
    unsafe {
        let fd = socket(domain, SOCK_STREAM | SOCK_CLOEXEC | flags, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(TcpStream::from_raw_fd(fd))
    }
}

/// Bind a listener with `SO_REUSEADDR`, so a restarted rank can
/// reclaim its advertised port while the previous process's accepted
/// connections still sit in `TIME_WAIT` / `FIN_WAIT` (a parameter
/// server respawned with `--resume` rebinds the same address seconds
/// after the old one was killed). `std::net::TcpListener::bind` offers
/// no hook between `socket()` and `bind()`. Anything but a literal IPv4
/// address falls back to the plain std bind, which costs only restart
/// latency, never correctness.
pub(crate) fn bind_reuse(addr: &str) -> io::Result<TcpListener> {
    let Ok(SocketAddr::V4(v4)) = addr.parse::<SocketAddr>() else {
        return TcpListener::bind(addr);
    };
    let sock = new_socket(AF_INET, 0)?;
    let fd = sock.as_raw_fd();
    let one: c_int = 1;
    let sa = SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from_ne_bytes(v4.ip().octets()),
        sin_zero: [0; 8],
    };
    // SAFETY: `fd` is open for the whole block (owned by `sock`); the
    // option and address pointers point at live locals whose sizes are
    // the lengths passed alongside them.
    let failed = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&raw const one).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        ) != 0
            || bind(
                fd,
                (&raw const sa).cast::<c_void>(),
                std::mem::size_of::<SockaddrIn>() as u32,
            ) != 0
            || listen(fd, 128) != 0
    };
    if failed {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: ownership of the descriptor moves from `sock` to the
    // listener; `into_raw_fd` keeps `sock` from closing it.
    Ok(unsafe { TcpListener::from_raw_fd(sock.into_raw_fd()) })
}

/// Start a nonblocking connect to `addr`. The returned stream is
/// nonblocking and usually still connecting: it turns writable
/// ([`POLLOUT`]) once the connect settles, and `take_error` then tells
/// success from failure.
///
/// # Errors
/// Socket creation failures and connect errors other than
/// `EINPROGRESS` (an immediately refused loopback connect, say).
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let v4;
    let v6;
    let (domain, sa, len): (c_int, *const c_void, usize) = match addr {
        SocketAddr::V4(a) => {
            v4 = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: a.port().to_be(),
                sin_addr: u32::from_ne_bytes(a.ip().octets()),
                sin_zero: [0; 8],
            };
            (
                AF_INET,
                (&raw const v4).cast(),
                std::mem::size_of::<SockaddrIn>(),
            )
        }
        SocketAddr::V6(a) => {
            v6 = SockaddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: a.port().to_be(),
                sin6_flowinfo: a.flowinfo(),
                sin6_addr: a.ip().octets(),
                sin6_scope_id: a.scope_id(),
            };
            (
                AF_INET6,
                (&raw const v6).cast(),
                std::mem::size_of::<SockaddrIn6>(),
            )
        }
    };
    let sock = new_socket(domain, SOCK_NONBLOCK)?;
    // SAFETY: the descriptor is open (owned by `sock`) and `sa` points
    // at a live local address struct of exactly `len` bytes.
    if unsafe { connect(sock.as_raw_fd(), sa, len as u32) } != 0 {
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINPROGRESS) {
            return Err(e);
        }
    }
    Ok(sock)
}

/// Sleep until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits indefinitely); sub-millisecond timeouts round up. An
/// interrupted wait returns early, like a spurious wake-up.
///
/// # Errors
/// `poll(2)` failures other than `EINTR`.
pub(crate) fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |d| {
        c_int::try_from(d.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `struct
    // pollfd`-layout values, valid for the whole call, and its length
    // is the count passed.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A restarted rank must reclaim its advertised port immediately,
    /// even though the dead process's accepted connections (local port
    /// = the listen port) linger in `TIME_WAIT` after an active close.
    /// This is exactly the `--resume` respawn path: without
    /// `SO_REUSEADDR` the rebind fails with `AddrInUse` for up to a
    /// minute.
    #[test]
    fn rebind_same_port_after_active_close_succeeds() {
        let first = bind_reuse("127.0.0.1:0").unwrap();
        let addr = first.local_addr().unwrap().to_string();
        let client = TcpStream::connect(&addr).unwrap();
        let (accepted, _) = first.accept().unwrap();
        // accepted side closes first (the active closer) → its end of
        // the connection, which owns the listen port, enters TIME_WAIT
        drop(accepted);
        drop(client);
        drop(first);
        thread::sleep(Duration::from_millis(50));
        let again = bind_reuse(&addr).expect("rebind of a just-released port");
        assert_eq!(again.local_addr().unwrap().to_string(), addr);
    }
}
