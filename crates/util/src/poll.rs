//! Minimal nonblocking readiness polling for the service layer.
//!
//! The reactor in `cnet-net` needs one thing the safe standard library
//! cannot express: "park this thread until any of these sockets is ready".
//! On Linux a [`Poller`] wraps an epoll instance through `extern "C"`
//! declarations of `epoll_create1` / `epoll_ctl` / `epoll_wait` — symbols
//! exported by the libc that `std` already links, so the workspace stays
//! hermetic (no `libc` crate, no registry dependency; see DESIGN.md,
//! "Dependencies"). The epoll fd is held as an [`std::os::fd::OwnedFd`]
//! so it closes on drop.
//!
//! Polling is **level-triggered**: a socket with unread input (or writable
//! buffer space, when write interest is registered) reports ready on every
//! [`Poller::wait`] until drained. Level-triggered readiness keeps the
//! per-connection state machine simple — a short read is never a lost
//! wakeup, just a future one.
//!
//! On non-Linux platforms the same API degrades to a portable fallback
//! that sleeps briefly and reports every registered source as ready;
//! correct (the caller's nonblocking reads/writes return `WouldBlock`
//! immediately) but it burns a little CPU per idle connection, so the
//! Linux path is the one that gets benchmarked.
//!
//! A [`Waker`] lets any thread interrupt a blocked [`Poller::wait`]. On
//! Linux it is one `eventfd`, declared beside the epoll externs and
//! registered in the poller under a caller-chosen token: [`Waker::wake`]
//! adds one to its counter, which makes it readable, and
//! [`Waker::drain`] reads the counter back to zero. One fd and two
//! syscalls to build, where a socket pair would cost a listener, a
//! handshake and an ephemeral port. The fallback poller already returns
//! every few milliseconds and reports the waker's token each time, so its
//! waker holds no fd at all.

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// What readiness a registered source should be watched for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source has bytes to read (or a peer hangup).
    pub readable: bool,
    /// Wake when the source can accept writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the steady state of an idle connection.
    pub const READABLE: Interest = Interest { readable: true, writable: false };

    /// Neither: the source stays registered but muted (only an error or
    /// hangup still reports) — a listener that must not accept for now.
    pub const NONE: Interest = Interest { readable: false, writable: false };

    /// Read and write readiness — used while a response is partially
    /// flushed and the connection waits for buffer space.
    pub const READABLE_WRITABLE: Interest = Interest { readable: true, writable: true };
}

/// One readiness report from [`Poller::wait`].
///
/// Error and hangup conditions are folded into *both* flags: the caller's
/// next read observes EOF or the error, and the next write surfaces it —
/// exactly the paths a level-triggered reactor already handles.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the source was registered with.
    pub token: u64,
    /// The source is readable (or has hung up / errored).
    pub readable: bool,
    /// The source is writable (or has hung up / errored).
    pub writable: bool,
}

/// A readiness queue over nonblocking sockets. See the module docs.
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates a new, empty readiness queue.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { inner: sys::Poller::new()? })
    }

    /// Starts watching `source` for `interest`, tagging future events with
    /// `token`. The source must already be in nonblocking mode; tokens are
    /// caller-chosen and need not be unique (the reactor uses slot ids).
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(source.as_raw_fd(), token, interest)
    }

    /// Changes the interest set (and token) of an already-registered source.
    pub fn modify(&self, source: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(source.as_raw_fd(), token, interest)
    }

    /// Stops watching `source`. Must be called before the source is closed;
    /// dropping a registered fd without deregistering leaves a stale epoll
    /// entry until the kernel notices the close.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.inner.deregister(source.as_raw_fd())
    }

    /// Blocks until at least one registered source is ready, `timeout`
    /// elapses (`None` = wait forever), or a [`Waker`] fires. Clears
    /// `events` and fills it with the ready set; returns the event count.
    /// A signal interruption reports as zero events rather than an error.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.inner.wait(events, timeout)?;
        Ok(events.len())
    }
}

/// A cross-thread wakeup handle for a [`Poller`]; see the module docs.
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// Builds a waker and registers it in `poller` under `token`. Events
    /// carrying `token` mean "someone called [`Waker::wake`]" — call
    /// [`Waker::drain`] and re-check shared state.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        Ok(Waker { inner: sys::Waker::new(&poller.inner, token)? })
    }

    /// Wakes the poller. Safe to call from any thread, any number of
    /// times; wakes coalesce until the next [`drain`](Self::drain).
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }

    /// Consumes pending wakes so the (level-triggered) poller stops
    /// reporting the waker as readable. Call on every waker event.
    pub fn drain(&self) {
        self.inner.drain();
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Linux backend: epoll and eventfd through `extern "C"` declarations
    //! against the libc `std` already links. This module owns the only
    //! `unsafe` in the polling layer; everything above it is safe code.

    use super::{Event, Interest};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// `struct epoll_event` from `<sys/epoll.h>`. The kernel ABI packs it
    /// on x86_64 (12 bytes, unaligned u64 payload); other architectures
    /// use the natural C layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        // SAFETY (of the declarations): these signatures match the libc
        // prototypes for the epoll family and eventfd on every Linux
        // target; std links libc, so the symbols are always present.
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: u32, flags: c_int) -> c_int;
    }

    /// Upper bound on events decoded per `epoll_wait` call. Level-triggered
    /// polling re-reports anything still ready, so a small fixed buffer
    /// never loses events — it only spreads a large ready set over
    /// several wakeups.
    const MAX_EVENTS: usize = 512;

    pub struct Poller {
        epfd: OwnedFd,
        /// Scratch buffer for `epoll_wait`, reused across calls.
        buf: Box<[EpollEvent; MAX_EVENTS]>,
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a negative return is
            // an error reported through errno, checked below.
            #[allow(unsafe_code)]
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created epoll fd we exclusively
            // own; wrapping it in OwnedFd gives close-on-drop.
            #[allow(unsafe_code)]
            let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Poller { epfd, buf: Box::new([EpollEvent { events: 0, data: 0 }; MAX_EVENTS]) })
        }

        fn ctl(&self, op: c_int, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = ev;
            let ptr = match ev.as_mut() {
                Some(e) => e as *mut EpollEvent,
                None => std::ptr::null_mut(),
            };
            // SAFETY: `ptr` is either null (EPOLL_CTL_DEL ignores it) or
            // points at a live stack-local EpollEvent for the duration of
            // the call; the kernel only reads it.
            #[allow(unsafe_code)]
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent { events: interest_bits(interest), data: token }),
            )
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent { events: interest_bits(interest), data: token }),
            )
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round up so a 100µs timeout does not busy-spin as 0ms.
                Some(d) => d.as_millis().max(1).min(c_int::MAX as u128) as c_int,
            };
            // SAFETY: the buffer outlives the call and MAX_EVENTS matches
            // its length; the kernel writes at most `maxevents` entries.
            #[allow(unsafe_code)]
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                // A signal during the wait is a spurious (empty) wakeup,
                // not a poller failure.
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for i in 0..n as usize {
                // Copy out of the (possibly packed) struct before use —
                // no references into packed fields.
                let raw = self.buf[i];
                let bits = raw.events;
                let token = raw.data;
                let err = bits & (EPOLLERR | EPOLLHUP) != 0;
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0 || err,
                    writable: bits & EPOLLOUT != 0 || err,
                });
            }
            Ok(())
        }
    }

    /// An `eventfd` counter in nonblocking mode, registered readable.
    pub struct Waker {
        fd: File,
    }

    impl Waker {
        pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
            // SAFETY: eventfd takes no pointers; a negative return is an
            // error reported through errno, checked below.
            #[allow(unsafe_code)]
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a freshly created eventfd we exclusively own;
            // wrapping it gives close-on-drop, and the kernel drops its
            // epoll entry with the last close.
            #[allow(unsafe_code)]
            let fd = File::from(unsafe { OwnedFd::from_raw_fd(fd) });
            poller.register(fd.as_raw_fd(), token, Interest::READABLE)?;
            Ok(Waker { fd })
        }

        pub fn wake(&self) -> io::Result<()> {
            loop {
                match (&self.fd).write(&1u64.to_ne_bytes()) {
                    Ok(_) => return Ok(()),
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // The counter is at its maximum: a wake is pending.
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        }

        pub fn drain(&self) {
            // One read returns the whole count and resets it to zero; a
            // zero counter reports `WouldBlock`.
            let mut count = [0u8; 8];
            while let Err(ref e) = (&self.fd).read(&mut count) {
                if e.kind() != io::ErrorKind::Interrupted {
                    return;
                }
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: no readiness syscall, so `wait` sleeps in short
    //! slices and reports every registered source as ready. Callers run
    //! nonblocking I/O anyway, so spurious readiness is merely a few
    //! `WouldBlock` reads per slice — correct but not benchmark-grade.

    use super::{Event, Interest};
    use crate::sync::Mutex;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    pub struct Poller {
        registered: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    /// How long one fallback wait slice sleeps: bounds waker latency.
    const SLICE: Duration = Duration::from_millis(2);

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { registered: Mutex::new(Vec::new()) })
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.lock().push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut reg = self.registered.lock();
            for entry in reg.iter_mut() {
                if entry.0 == fd {
                    *entry = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().retain(|e| e.0 != fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            std::thread::sleep(match timeout {
                Some(t) => t.min(SLICE),
                None => SLICE,
            });
            for &(_, token, interest) in self.registered.lock().iter() {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                });
            }
            Ok(())
        }
    }

    /// No fd: `wait` returns every slice anyway, so the waker is an
    /// always-ready entry under its token and waking it is a no-op.
    pub struct Waker;

    impl Waker {
        pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
            poller.register(-1, token, Interest::READABLE)?;
            Ok(Waker)
        }

        pub fn wake(&self) -> io::Result<()> {
            Ok(())
        }

        pub fn drain(&self) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    /// A connected nonblocking socket pair for driving the poller, which
    /// watches any fd the same way.
    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    /// Waits until an event with `token` and the asked-for readiness shows
    /// up, with a bounded number of poll rounds.
    fn wait_for(poller: &mut Poller, token: u64, readable: bool) -> Event {
        let mut events = Vec::new();
        for _ in 0..500 {
            poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == token && (!readable || e.readable))
            {
                return *ev;
            }
        }
        panic!("no event for token {token} within budget");
    }

    #[test]
    fn readable_event_fires_when_bytes_arrive() {
        let mut poller = Poller::new().unwrap();
        let (tx, rx) = pair();
        poller.register(&rx, 7, Interest::READABLE).unwrap();
        (&tx).write_all(b"x").unwrap();
        let ev = wait_for(&mut poller, 7, true);
        assert!(ev.readable);
        let mut buf = [0u8; 8];
        assert_eq!((&rx).read(&mut buf).unwrap(), 1);
        poller.deregister(&rx).unwrap();
    }

    #[test]
    fn timeout_expires_without_events() {
        let mut poller = Poller::new().unwrap();
        let (_tx, rx) = pair();
        poller.register(&rx, 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_millis(30))).unwrap();
        // Linux: nothing is readable, so the wait blocks for the timeout
        // and returns empty. The fallback may report spurious readiness;
        // either way the call returns promptly.
        assert!(start.elapsed() < Duration::from_secs(5));
        #[cfg(target_os = "linux")]
        assert!(events.iter().all(|e| e.token != 1) || events.is_empty());
    }

    #[test]
    fn writable_interest_reports_on_an_open_socket() {
        let mut poller = Poller::new().unwrap();
        let (tx, _rx) = pair();
        poller.register(&tx, 3, Interest::READABLE_WRITABLE).unwrap();
        let ev = wait_for(&mut poller, 3, false);
        assert!(ev.writable, "fresh socket buffer should accept writes");
    }

    #[test]
    fn modify_switches_interest() {
        let mut poller = Poller::new().unwrap();
        let (tx, rx) = pair();
        poller.register(&rx, 9, Interest::READABLE).unwrap();
        (&tx).write_all(b"y").unwrap();
        wait_for(&mut poller, 9, true);
        // Retag under a new token; the old token must stop appearing.
        poller.modify(&rx, 10, Interest::READABLE).unwrap();
        let ev = wait_for(&mut poller, 10, true);
        assert!(ev.readable);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, u64::MAX).unwrap());
        let mut poller = poller;
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
        });
        let ev = wait_for(&mut poller, u64::MAX, true);
        assert!(ev.readable);
        waker.drain();
        handle.join().unwrap();
        // After draining, the waker should go quiet on Linux.
        #[cfg(target_os = "linux")]
        {
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
            assert!(events.iter().all(|e| e.token != u64::MAX));
        }
    }

    #[test]
    fn wakes_coalesce_and_drain_clears_them() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 42).unwrap();
        for _ in 0..1000 {
            waker.wake().unwrap();
        }
        let ev = wait_for(&mut poller, 42, true);
        assert!(ev.readable);
        waker.drain();
        #[cfg(target_os = "linux")]
        {
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
            assert!(events.iter().all(|e| e.token != 42), "drain must clear readiness");
        }
    }

    #[test]
    fn a_wake_before_the_wait_is_not_lost() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 11).unwrap();
        waker.wake().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(events.iter().any(|e| e.token == 11 && e.readable), "{events:?}");
        assert!(start.elapsed() < Duration::from_secs(5), "the wait ran to its timeout");
        waker.drain();
    }

    #[test]
    fn hangup_reports_as_readable() {
        let mut poller = Poller::new().unwrap();
        let (tx, rx) = pair();
        poller.register(&rx, 5, Interest::READABLE).unwrap();
        drop(tx);
        let ev = wait_for(&mut poller, 5, true);
        assert!(ev.readable, "peer close must surface as readability (EOF)");
    }
}
