//! Minimal readiness-notification layer: raw `epoll` + `eventfd` FFI.
//!
//! Like the dependency shims under `shims/`, this is a deliberate,
//! documented stand-in for an external crate (`mio`/`libc`) that the
//! offline build cannot fetch. It declares exactly the five libc
//! symbols the reactor needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, plus `read`/`write`/`close` on the eventfd
//! — and wraps them in a safe [`Poller`]/[`Waker`] pair. All `unsafe`
//! in the crate lives in this module.
//!
//! # Portability
//!
//! The epoll path is **Linux-only** (the only platform this workspace
//! targets in CI). On other platforms a fallback [`Poller`] with the
//! same API sleep-polls in ~1 ms slices: functionally equivalent —
//! every `wait` reports all registered tokens and the reactor's
//! nonblocking reads sort out who is actually readable — but degraded
//! (up to 1 ms wake latency, ~1 kHz idle polling instead of 0% CPU).
//! The struct layout caveat: the kernel's `struct epoll_event` is
//! packed on x86-64 only; `EpollEvent` mirrors that with a
//! target-conditional `repr(packed)`.

use std::time::Duration;

/// Token value [`Poller::wait`] never reports: reserved for the
/// internal wakeup channel.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

#[cfg(target_os = "linux")]
pub(crate) use linux::{Poller, Waker};

#[cfg(not(target_os = "linux"))]
pub(crate) use fallback::{Poller, Waker};

/// Clamp an optional wait budget to epoll's millisecond resolution:
/// `None` blocks forever (-1), `Some` rounds *up* so a deadline is
/// never woken before it is due.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
            ms.min(i32::MAX as u128) as i32
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    #![allow(unsafe_code)]

    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLLIN: u32 = 0x1;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Mirror of the kernel's `struct epoll_event`. The kernel ABI
    /// packs this struct on x86-64 only; everywhere else it has
    /// natural alignment — hence the target-conditional packing.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        // `events` is written by the kernel, never read here (the
        // reactor only registers EPOLLIN, so readiness is implied by
        // presence in the output array).
        #[allow(dead_code)]
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// An fd this module opened itself (epoll instance, eventfd);
    /// closed on drop. Sockets stay owned by their `UdpSocket`s.
    struct OwnedFd(i32);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            // Nothing useful to do on close failure during teardown.
            unsafe { close(self.0) };
        }
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// The epoll-backed readiness poller. One per reactor loop.
    pub(crate) struct Poller {
        epfd: OwnedFd,
        wake: Arc<OwnedFd>,
    }

    /// Cross-thread wakeup handle: writing the eventfd makes a
    /// concurrent (or the next) [`Poller::wait`] return immediately.
    /// Holds the eventfd alive via `Arc`, so waking a dropped poller
    /// is a harmless write to a still-open fd, never to a recycled
    /// descriptor.
    #[derive(Clone)]
    pub(crate) struct Waker {
        wake: Arc<OwnedFd>,
    }

    impl Waker {
        /// Wake the poller. Infallible by design: the only errors an
        /// eventfd write can produce here (EAGAIN on counter
        /// saturation) still leave the fd readable, i.e. the wakeup
        /// is already pending.
        pub fn wake(&self) {
            let one: u64 = 1;
            let _ = unsafe { write(self.wake.0, (&one as *const u64).cast(), 8) };
        }
    }

    impl Poller {
        /// A fresh epoll instance with its wakeup eventfd registered
        /// under [`super::WAKE_TOKEN`].
        pub fn new() -> io::Result<Poller> {
            let epfd = OwnedFd(cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?);
            let wake = OwnedFd(cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?);
            let poller = Poller { epfd, wake: Arc::new(wake) };
            poller.add(poller.wake.0, super::WAKE_TOKEN)?;
            Ok(poller)
        }

        /// Register interest in readability of `fd`, reported as
        /// `token`. Level-triggered (the reactor drains to
        /// `WouldBlock` anyway). `token` must not be
        /// [`super::WAKE_TOKEN`].
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            debug_assert_ne!(token, super::WAKE_TOKEN, "token reserved for the waker");
            self.add(fd, token)
        }

        fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: EPOLLIN, data: token };
            cvt(unsafe { epoll_ctl(self.epfd.0, EPOLL_CTL_ADD, fd, &mut ev) })?;
            Ok(())
        }

        /// A wakeup handle usable from any thread.
        pub(crate) fn waker(&self) -> Waker {
            Waker { wake: Arc::clone(&self.wake) }
        }

        /// Block until an fd is readable, the waker fires, or
        /// `timeout` elapses (`None` = forever). Fills `ready` with
        /// the tokens of readable fds; a wakeup is drained internally
        /// and produces no token (callers check their command queue
        /// every iteration regardless).
        pub fn wait(&self, ready: &mut Vec<u64>, timeout: Option<Duration>) -> io::Result<()> {
            ready.clear();
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let n = loop {
                let r = unsafe {
                    epoll_wait(
                        self.epfd.0,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        super::timeout_ms(timeout),
                    )
                };
                match r {
                    -1 if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted => {
                        continue;
                    }
                    -1 => return Err(io::Error::last_os_error()),
                    n => break n as usize,
                }
            };
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct before use.
                let token = ev.data;
                if token == super::WAKE_TOKEN {
                    // Reset the eventfd counter; EAGAIN (lost the race
                    // to another drain) is fine.
                    let mut buf = [0u8; 8];
                    let _ = unsafe { read(self.wake.0, buf.as_mut_ptr(), 8) };
                } else {
                    ready.push(token);
                }
            }
            Ok(())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// Portable fallback poller: no readiness syscall, so `wait`
    /// sleep-polls in ~1 ms slices and reports *every* registered
    /// token; the reactor's nonblocking reads establish actual
    /// readiness. Degraded but correct — see the module docs.
    pub(crate) struct Poller {
        tokens: Mutex<Vec<u64>>,
        woken: Arc<AtomicBool>,
    }

    /// Cross-thread wakeup handle for the fallback poller.
    #[derive(Clone)]
    pub(crate) struct Waker {
        woken: Arc<AtomicBool>,
    }

    impl Waker {
        /// Make the current (within its next 1 ms slice) or next
        /// `wait` return immediately.
        pub fn wake(&self) {
            self.woken.store(true, Ordering::SeqCst);
        }
    }

    const SLICE: Duration = Duration::from_millis(1);

    impl Poller {
        /// A fresh fallback poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { tokens: Mutex::new(Vec::new()), woken: Arc::new(AtomicBool::new(false)) })
        }

        /// Remember `token`; the fd itself is not used (readiness is
        /// probed by the caller's nonblocking reads).
        pub fn register(&self, _fd: RawFd, token: u64) -> io::Result<()> {
            self.tokens.lock().unwrap_or_else(|e| e.into_inner()).push(token);
            Ok(())
        }

        /// A wakeup handle usable from any thread.
        pub(crate) fn waker(&self) -> Waker {
            Waker { woken: Arc::clone(&self.woken) }
        }

        /// Sleep-poll until woken or `timeout` elapses, then report
        /// all registered tokens as (possibly) ready.
        pub fn wait(&self, ready: &mut Vec<u64>, timeout: Option<Duration>) -> io::Result<()> {
            let deadline = timeout.map(|t| Instant::now() + t);
            while !self.woken.swap(false, Ordering::SeqCst) {
                let slice = match deadline {
                    Some(d) => match d.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => left.min(SLICE),
                        _ => break,
                    },
                    None => SLICE,
                };
                std::thread::sleep(slice);
                break; // one slice per wait: the caller re-probes sockets
            }
            ready.clear();
            ready.extend_from_slice(&self.tokens.lock().unwrap_or_else(|e| e.into_inner()));
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_ms_rounds_up_and_clamps() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
        assert_eq!(timeout_ms(Some(Duration::from_micros(7_001))), 8);
        assert_eq!(timeout_ms(Some(Duration::from_secs(u64::MAX))), i32::MAX);
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let t0 = std::time::Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut ready = Vec::new();
        poller.wait(&mut ready, Some(Duration::from_secs(30))).expect("wait");
        assert!(t0.elapsed() < Duration::from_secs(10), "waker did not interrupt wait");
        assert!(!ready.contains(&WAKE_TOKEN));
        h.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn registered_udp_socket_reports_readable() {
        use std::os::fd::AsRawFd;
        let rx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_nonblocking(true).expect("nonblocking");
        let tx = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
        let poller = Poller::new().expect("poller");
        poller.register(rx.as_raw_fd(), 7).expect("register");
        tx.send_to(b"x", rx.local_addr().unwrap()).expect("send");
        let mut ready = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            poller.wait(&mut ready, Some(Duration::from_millis(100))).expect("wait");
            if ready.contains(&7) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "datagram never became readable");
        }
    }
}
