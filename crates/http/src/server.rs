//! The listener: accept loop, per-connection threads, keep-alive, and
//! the three-phase graceful shutdown.
//!
//! Threading model: one acceptor thread blocks on
//! [`std::net::TcpListener::accept`]; each accepted connection gets its
//! own thread running the keep-alive loop (frame request → dispatch →
//! write response). The actual query work happens on the
//! [`QueryServer`]'s worker pool — a connection thread spends its life
//! parsing bytes and blocking on a [`aimq_serve::Ticket`], so
//! thread-per-connection is cheap at the concurrency levels a probe
//! budgeted engine can sustain anyway.
//!
//! Shutdown ordering (the part that is easy to get wrong):
//!
//! 1. **Stop accepting** — the shutdown flag flips, the acceptor is
//!    poked awake by a loopback connection and exits.
//! 2. **Drain keep-alive connections** — every connection thread
//!    finishes the request it is serving (including waiting out its
//!    ticket), then notices the flag at the next read tick and closes
//!    instead of idling for another request.
//! 3. **Shut the pool** — only now is [`QueryServer::shutdown`] called:
//!    admission closes, the workers drain the queue, and the final
//!    stats snapshot observes every reply delivered.
//!
//! Because step 3 happens strictly after step 2, no connection can be
//! holding a ticket the pool will never redeem, and the "no dropped
//! replies on shutdown" regression tests hold over real sockets.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use aimq::AimqSystem;
use aimq_serve::{ServeConfig, ServeStatsSnapshot};
use aimq_storage::{Flag, WebDatabase};

use crate::routes::{dispatch, AppState};
use crate::wire::{Decoder, FrameError, Response};

/// How often a parked connection thread wakes to check the shutdown
/// flag (also the upper bound on how stale a keep-alive drain can be).
const READ_TICK: Duration = Duration::from_millis(50);

/// Front-door knobs.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Name of the single index exposed under `/indexes/:name/search`.
    pub index: String,
    /// The serving runtime's configuration (pool size, queue,
    /// deadlines, engine knobs).
    pub serve: ServeConfig,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:7700".to_string(),
            index: "cardb".to_string(),
            serve: ServeConfig::default(),
        }
    }
}

/// Poison-recovering lock for the connection-handle registry: a
/// connection thread that panicked has already closed its socket, and
/// joining the remaining threads matters more than cascading.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock() // aimq-lint: allow(lock-discipline) -- local helper; family attributed at the field
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running HTTP front door over one [`aimq_serve::QueryServer`].
pub struct AimqHttpServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    /// Raised by `shutdown()`; the acceptor and every connection loop
    /// read it.
    shutting_down: Arc<Flag>,
    acceptor: Option<JoinHandle<()>>,
    // aimq-lock: family(http-conns) -- leaf lock: push/drain the handle
    // list only; joins happen after the guard is dropped
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AimqHttpServer {
    /// Bind `config.addr` and start serving. The engine (`system`) and
    /// source stack (`db`) are shared with the worker pool exactly as
    /// in the in-process [`aimq_serve::QueryServer`] path — the HTTP
    /// layer adds I/O, never logic.
    pub fn start(
        system: Arc<AimqSystem>,
        db: Arc<dyn WebDatabase>,
        config: HttpConfig,
    ) -> io::Result<AimqHttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let server = aimq_serve::QueryServer::start(system, Arc::clone(&db), config.serve);
        let state = Arc::new(AppState {
            server,
            db,
            index: config.index,
            http_stats: crate::routes::HttpStats::default(),
        });
        let shutting_down = Arc::new(Flag::new());
        // aimq-lock: family(http-conns) -- leaf lock: push/drain the handle
        // list only; joins happen after the guard is dropped
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let state = Arc::clone(&state);
            let shutting_down = Arc::clone(&shutting_down);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutting_down.get() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    state.http_stats.note_connection();
                    let state = Arc::clone(&state);
                    let shutting_down = Arc::clone(&shutting_down);
                    let handle = std::thread::spawn(move || {
                        if handle_connection(&state, &shutting_down, stream).is_err() {
                            // The peer reset or the socket died; the
                            // connection is over either way — count it
                            // so /stats shows transport trouble.
                            state.http_stats.note_connection_error();
                        }
                    });
                    // Reap finished handles as we go (dropping a
                    // finished JoinHandle detaches it) so a long-lived
                    // server doesn't accumulate one per past connection.
                    let mut registry = lock(&conns);
                    registry.retain(|h| !h.is_finished());
                    registry.push(handle);
                }
            })
        };

        Ok(AimqHttpServer {
            addr,
            state,
            shutting_down,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving counters so far (the same snapshot `GET /stats` serves).
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.state.server.stats()
    }

    /// Graceful shutdown in the documented order: stop accepting, drain
    /// keep-alive connections, then shut the worker pool. Returns the
    /// pool's final, fully drained stats snapshot.
    pub fn shutdown(mut self) -> ServeStatsSnapshot {
        self.shutting_down.set();
        // The acceptor blocks in accept(); a loopback connection wakes
        // it so it can observe the flag. If the connect fails the
        // acceptor still exits at the next real connection.
        if TcpStream::connect(self.addr).is_err() {
            self.state.http_stats.note_connection_error();
        }
        if let Some(acceptor) = self.acceptor.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "an acceptor panic has no recovery; draining continues regardless"
            )]
            let _ = acceptor.join();
        }
        // Drain: join every connection thread. Handles are moved out
        // under the lock (the inner block drops the guard), joined
        // after it is released.
        let handles = { std::mem::take(&mut *lock(&self.conns)) };
        for handle in handles {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a connection panic already closed its socket; the drain must continue"
            )]
            let _ = handle.join();
        }
        // Only now — with every ticket redeemed — shut the pool.
        match Arc::try_unwrap(self.state) {
            Ok(state) => state.server.shutdown(),
            // Unreachable in practice (all holders were joined above),
            // but a typed fallback beats a panic: close admission and
            // report the counters as they stand.
            Err(state) => {
                state.server.close();
                state.server.stats()
            }
        }
    }
}

/// One connection's keep-alive loop. An `Err` is a transport failure;
/// protocol failures (unframeable requests) answer 400 and close with
/// `Ok`.
fn handle_connection(
    state: &AppState,
    shutting_down: &Flag,
    mut stream: TcpStream,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut decoder = Decoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every request already buffered (pipelining included).
        loop {
            match decoder.try_decode() {
                Ok(Some(request)) => {
                    let response = dispatch(state, &request);
                    state.http_stats.note_response(response.status);
                    // During drain the response still goes out, but the
                    // connection announces the close instead of
                    // pretending another request would be served.
                    let close = request.wants_close() || shutting_down.get();
                    response.write_to(&mut stream, close)?;
                    if close {
                        return Ok(());
                    }
                }
                Ok(None) => break,
                Err(frame_error) => {
                    // Unframeable streams get one typed 400, then the
                    // connection closes — resynchronizing with a peer
                    // whose framing is broken is guesswork.
                    let response = to_bad_request(&frame_error);
                    state.http_stats.note_response(response.status);
                    response.write_to(&mut stream, true)?;
                    return Ok(());
                }
            }
        }
        if shutting_down.get() {
            // Drain point: nothing buffered forms a complete request,
            // so the keep-alive connection closes here.
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => decoder.extend(chunk.get(..n).unwrap_or_default()),
            // The read tick expired: loop around to re-check the flag.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// The one response a framing error produces.
fn to_bad_request(error: &FrameError) -> Response {
    Response::error(400, "bad_request", &error.to_string())
}
