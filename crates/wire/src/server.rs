//! The one TCP serve loop behind all three daemons (`alpenhornd`, `mixd`,
//! `cdnd`), and [`connect`], the client half that dials them.
//!
//! The loop is run-to-completion:
//!
//! * the **accept loop** admits connections up to
//!   [`ServerConfig::max_connections`] and sheds the excess before a thread
//!   exists for it — with the daemon's [`Handler::shed_reply`], or by
//!   closing the connection;
//! * each admitted connection gets one scoped **connection thread** that
//!   reads a frame, calls [`Handler::respond`] itself, and writes the reply:
//!   one wake-up when the request arrives and one at the client when the
//!   reply does, with no hand-off in between.
//!
//! Every protocol served here is strict request/response, so one request is
//! in flight per connection (which also preserves per-connection order) and
//! `max_connections` bounds both the requests executing at once and the
//! frames buffered. A frame that does not decode gets the protocol's
//! [`Handler::error_reply`] and the connection is dropped — the stream
//! offset can no longer be trusted; a response too large to frame, or a
//! request whose handler panicked, gets the same error reply in its place.
//! [`ServerHandle::shutdown`] stops accepting, shuts every open socket down
//! (peers see EOF) and joins every thread of the server.
//!
//! Like the rest of this crate the module is std-only: daemons count
//! connections into their own metrics through [`Handler::on_event`].

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::codec::{Frame, FrameIoError};

/// How long a shed reply may block the accept loop before the connection is
/// dropped without it.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// A point in a connection's life, reported through [`Handler::on_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionEvent {
    /// A connection was admitted and got its thread.
    Opened,
    /// An admitted connection closed.
    Closed,
    /// A connection over the cap was shed.
    Shed,
}

/// A daemon's side of [`serve`]: its request handler plus the replies and
/// the hook the loop needs from the protocol.
pub trait Handler: Sync {
    /// Answers one request frame's payload. A payload that does not decode
    /// must come back as the protocol's error response, never as a panic.
    fn respond(&self, payload: &[u8]) -> Vec<u8>;

    /// The protocol's error response carrying `detail`.
    fn error_reply(&self, detail: &str) -> Vec<u8>;

    /// What a connection over the cap is told before it is closed; `None`
    /// closes it without a reply.
    fn shed_reply(&self) -> Option<Vec<u8>> {
        None
    }

    /// Observes the connection lifecycle, for metrics.
    fn on_event(&self, _event: ConnectionEvent) {}
}

/// Daemon state that answers one request at a time. The loop serves it as
/// `Mutex<T>`; connections over the cap are closed without a reply.
pub trait Exclusive: Send {
    /// [`Handler::respond`], with the daemon mutex held.
    fn respond(&mut self, payload: &[u8]) -> Vec<u8>;

    /// [`Handler::error_reply`].
    fn error_reply(detail: &str) -> Vec<u8>;

    /// [`Handler::on_event`].
    fn on_event(_event: ConnectionEvent) {}
}

impl<T: Exclusive> Handler for Mutex<T> {
    fn respond(&self, payload: &[u8]) -> Vec<u8> {
        match self.lock() {
            Ok(mut state) => state.respond(payload),
            // A request panicked mid-update: answer errors rather than serve
            // state that may be torn.
            Err(_) => T::error_reply("daemon state poisoned by an earlier request"),
        }
    }

    fn error_reply(&self, detail: &str) -> Vec<u8> {
        T::error_reply(detail)
    }

    fn on_event(&self, event: ConnectionEvent) {
        T::on_event(event)
    }
}

/// Per-connection I/O timeouts and the connection cap.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection thread waits for the next request frame before
    /// dropping the connection. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a blocked reply write may stall before the connection is
    /// dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections, and with it the bound on
    /// concurrently executing requests and buffered frames. A connection
    /// beyond the cap is shed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    /// 60 s to read a request, 30 s to write a reply, 1024 connections.
    fn default() -> Self {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 1024,
        }
    }
}

/// A running [`serve`] loop.
///
/// Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, shuts every open connection down (peers see EOF; a
    /// request already buffered gets no reply), and joins the accept thread
    /// and through it every connection thread. A request already executing
    /// runs to completion first. Once this returns, connects are refused,
    /// the handler has been dropped and no further request is dispatched.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Err(panic) = self.accept_thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Binds `addr` (port 0 for an ephemeral port) and serves `handler` there
/// under `config`, returning once the listener is bound and accepting.
pub fn serve<H: Handler + Send + 'static>(
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    handler: H,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = thread::Builder::new()
        .name(format!("serve {local_addr}"))
        .spawn(move || accept_loop(listener, &config, &handler, &accept_stop))?;
    Ok(ServerHandle {
        local_addr,
        stop,
        accept_thread,
    })
}

fn accept_loop<H: Handler>(
    listener: TcpListener,
    config: &ServerConfig,
    handler: &H,
    stop: &AtomicBool,
) {
    // A second handle on every live connection's socket, so shutdown can
    // wake a thread blocked in `read`. A connection thread removes its own
    // entry on exit; the map's size is the live connection count. Nothing
    // done under the lock can leave the map torn, so poison is ignored.
    let live: Mutex<HashMap<u64, TcpStream>> = Mutex::default();
    let lock_live = || live.lock().unwrap_or_else(PoisonError::into_inner);
    // The scope joins every connection thread before the accept thread (and
    // with it `ServerHandle::shutdown`) returns.
    thread::scope(|scope| {
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            if lock_live().len() >= config.max_connections {
                handler.on_event(ConnectionEvent::Shed);
                if let Some(reply) = handler.shed_reply() {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
                    let _ = Frame::write_to(&mut stream, &reply);
                }
                continue;
            }
            // A connection shutdown could not reach is one it could not
            // stop; refuse it rather than serve it untracked.
            let Ok(tracked) = stream.try_clone() else {
                continue;
            };
            lock_live().insert(id, tracked);
            handler.on_event(ConnectionEvent::Opened);
            let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                serve_connection(stream, handler, config, stop);
                lock_live().remove(&id);
                handler.on_event(ConnectionEvent::Closed);
            });
            if spawned.is_err() {
                lock_live().remove(&id);
                handler.on_event(ConnectionEvent::Closed);
            }
        }
        for stream in lock_live().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    });
}

/// Serves one connection until the peer disconnects, stalls past the I/O
/// timeouts, sends an undecodable frame, or the server shuts down. Each
/// request runs to completion on this thread: read, respond, reply.
fn serve_connection<H: Handler>(
    mut stream: TcpStream,
    handler: &H,
    config: &ServerConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.read_timeout);
    let _ = stream.set_write_timeout(config.write_timeout);
    loop {
        let reply = match Frame::read_from(&mut stream) {
            // A request the socket had already buffered when shutdown closed
            // it is dropped, not dispatched.
            Ok(_) if stop.load(Ordering::SeqCst) => return,
            Ok(payload) => {
                let reply = catch_unwind(AssertUnwindSafe(|| handler.respond(&payload)))
                    .unwrap_or_else(|_| handler.error_reply("the request handler panicked"));
                if reply.len() > Frame::MAX_PAYLOAD_LEN {
                    handler.error_reply("response exceeds the maximum frame size")
                } else {
                    reply
                }
            }
            // The peer went away (EOF surfaces as UnexpectedEof), stalled
            // past the read timeout, or the socket failed.
            Err(FrameIoError::Io(_)) => return,
            Err(FrameIoError::Wire(e)) => {
                let reply = handler.error_reply(&format!("undecodable frame: {e}"));
                let _ = Frame::write_to(&mut stream, &reply);
                return;
            }
        };
        if Frame::write_to(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Dials `addr`, trying each resolved address in turn with a
/// `connect_timeout` bound, and returns the first connection with Nagle off
/// and `io_timeout` on reads and writes (`None`: no timeout).
pub fn connect(
    addr: impl ToSocketAddrs,
    connect_timeout: Duration,
    io_timeout: Option<Duration>,
) -> io::Result<TcpStream> {
    let mut last = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(io_timeout)?;
                stream.set_write_timeout(io_timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to no candidates",
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The toy protocol: a reply is `ok:` + the request, an error is `err:` +
    /// the detail. `panic` panics, `big` answers more than a frame holds.
    fn echo(payload: &[u8]) -> Vec<u8> {
        match payload {
            b"panic" => panic!("toy handler asked to panic"),
            b"big" => vec![0; Frame::MAX_PAYLOAD_LEN + 1],
            _ => [b"ok:", payload].concat(),
        }
    }

    fn toy_error(detail: &str) -> Vec<u8> {
        [b"err:", detail.as_bytes()].concat()
    }

    /// A shared toy handler recording its connection events.
    struct Echo {
        shed_reply: Option<Vec<u8>>,
        events: Arc<Mutex<Vec<ConnectionEvent>>>,
    }

    impl Handler for Echo {
        fn respond(&self, payload: &[u8]) -> Vec<u8> {
            echo(payload)
        }
        fn error_reply(&self, detail: &str) -> Vec<u8> {
            toy_error(detail)
        }
        fn shed_reply(&self) -> Option<Vec<u8>> {
            self.shed_reply.clone()
        }
        fn on_event(&self, event: ConnectionEvent) {
            self.events.lock().unwrap().push(event);
        }
    }

    /// The same protocol as daemon state behind a mutex.
    struct LockedEcho;

    impl Exclusive for LockedEcho {
        fn respond(&mut self, payload: &[u8]) -> Vec<u8> {
            echo(payload)
        }
        fn error_reply(detail: &str) -> Vec<u8> {
            toy_error(detail)
        }
    }

    type Events = Arc<Mutex<Vec<ConnectionEvent>>>;

    fn serve_echo(max_connections: usize, shed_reply: Option<&[u8]>) -> (ServerHandle, Events) {
        let events = Events::default();
        let handler = Echo {
            shed_reply: shed_reply.map(<[u8]>::to_vec),
            events: Arc::clone(&events),
        };
        let config = ServerConfig {
            max_connections,
            ..ServerConfig::default()
        };
        (serve("127.0.0.1:0", config, handler).unwrap(), events)
    }

    fn dial(handle: &ServerHandle) -> TcpStream {
        connect(
            handle.local_addr(),
            Duration::from_secs(5),
            Some(Duration::from_secs(30)),
        )
        .unwrap()
    }

    fn call(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, FrameIoError> {
        Frame::write_to(stream, payload)?;
        Frame::read_from(stream)
    }

    fn count(events: &Events, event: ConnectionEvent) -> usize {
        events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| **e == event)
            .count()
    }

    #[test]
    fn connection_over_the_cap_gets_the_shed_reply_then_eof() {
        let (handle, events) = serve_echo(1, Some(b"busy"));
        let mut first = dial(&handle);
        assert_eq!(call(&mut first, b"hi").unwrap(), b"ok:hi");

        let mut shed = dial(&handle);
        assert_eq!(Frame::read_from(&mut shed).unwrap(), b"busy");
        assert!(matches!(
            Frame::read_from(&mut shed),
            Err(FrameIoError::Io(_))
        ));

        // The admitted connection is unaffected.
        assert_eq!(call(&mut first, b"again").unwrap(), b"ok:again");
        handle.shutdown();
        assert_eq!(count(&events, ConnectionEvent::Shed), 1);
        assert_eq!(count(&events, ConnectionEvent::Opened), 1);
    }

    #[test]
    fn connection_over_the_cap_is_closed_without_a_shed_reply() {
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let handle = serve("127.0.0.1:0", config, Mutex::new(LockedEcho)).unwrap();
        let mut first = dial(&handle);
        assert_eq!(call(&mut first, b"hi").unwrap(), b"ok:hi");

        let mut shed = dial(&handle);
        assert!(matches!(call(&mut shed, b"hi"), Err(FrameIoError::Io(_))));

        // Once the slot frees, a new connection is admitted.
        drop(first);
        let mut next = dial(&handle);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while call(&mut next, b"hi").is_err() {
            assert!(std::time::Instant::now() < deadline, "slot never freed");
            std::thread::sleep(Duration::from_millis(5));
            next = dial(&handle);
        }
        handle.shutdown();
    }

    #[test]
    fn undecodable_frame_gets_the_error_reply_then_the_connection_drops() {
        let (handle, events) = serve_echo(8, None);
        let mut stream = dial(&handle);
        use std::io::Write as _;
        stream.write_all(b"XXjunk frame").unwrap();
        let reply = Frame::read_from(&mut stream).unwrap();
        assert!(reply.starts_with(b"err:undecodable frame"), "{reply:?}");
        assert!(matches!(
            Frame::read_from(&mut stream),
            Err(FrameIoError::Io(_))
        ));
        handle.shutdown();
        assert_eq!(count(&events, ConnectionEvent::Closed), 1);
    }

    #[test]
    fn oversized_response_comes_back_as_the_protocol_error() {
        let (handle, _) = serve_echo(8, None);
        let mut stream = dial(&handle);
        assert_eq!(
            call(&mut stream, b"big").unwrap(),
            toy_error("response exceeds the maximum frame size")
        );
        // The stream stays aligned: the connection keeps serving.
        assert_eq!(call(&mut stream, b"hi").unwrap(), b"ok:hi");
        handle.shutdown();
    }

    #[test]
    fn shutdown_refuses_connects_eofs_open_sockets_and_joins_every_thread() {
        let (handle, events) = serve_echo(8, None);
        let addr = handle.local_addr();
        let mut streams: Vec<TcpStream> = (0..3).map(|_| dial(&handle)).collect();
        for stream in &mut streams {
            assert_eq!(call(stream, b"hi").unwrap(), b"ok:hi");
        }

        let started = std::time::Instant::now();
        handle.shutdown();
        // The blocked reads were woken, not left to the 60 s read timeout.
        assert!(started.elapsed() < Duration::from_secs(10));

        // Every thread has exited: the handler (and with it the events
        // handle it held) is dropped, and every admitted connection closed.
        assert_eq!(Arc::strong_count(&events), 1);
        assert_eq!(count(&events, ConnectionEvent::Opened), 3);
        assert_eq!(count(&events, ConnectionEvent::Closed), 3);
        for stream in &mut streams {
            assert!(matches!(call(stream, b"hi"), Err(FrameIoError::Io(_))));
        }
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn poisoned_daemon_mutex_answers_with_the_error_reply() {
        let handle = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            Mutex::new(LockedEcho),
        )
        .unwrap();
        let mut stream = dial(&handle);
        assert_eq!(
            call(&mut stream, b"panic").unwrap(),
            toy_error("the request handler panicked")
        );
        // The panic poisoned the mutex; this and every later connection gets
        // the error reply instead of a panic of its own.
        for mut stream in [stream, dial(&handle)] {
            assert_eq!(
                call(&mut stream, b"hi").unwrap(),
                toy_error("daemon state poisoned by an earlier request")
            );
        }
        handle.shutdown();
    }
}
