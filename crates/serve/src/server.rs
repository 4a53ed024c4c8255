//! The TCP front end: newline-delimited JSON connections feeding the router.
//!
//! One listener thread accepts connections; each connection gets a thread that
//! reads request lines, routes them ([`crate::api::decode_request`] →
//! [`Router::submit`] / [`Router::register_graph`]), and writes exactly one
//! reply line per request line, in order. Malformed lines produce a typed error
//! reply (never a dropped connection); the connection closes when the client
//! does. Concurrency across connections is what forms waves — each connection
//! blocks on its own reply, so N clients keep up to N requests in flight.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use eagle_obs::Recorder;

use crate::api::{
    self, PlaceResponse, RegisterGraphResponse, Request, Response, API_SCHEMA_VERSION,
};
use crate::error::EagleError;
use crate::router::{Router, RouterConfig};
use crate::store::PolicyStore;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Router tuning.
    pub router: RouterConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { addr: "127.0.0.1:0".into(), router: RouterConfig::default() }
    }
}

/// A running daemon: listener + router threads, with graceful shutdown.
pub struct Server {
    addr: SocketAddr,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    // Live client sockets, keyed by connection id. Handlers block in `read`
    // until the peer closes, so shutdown half-closes these to unwedge them;
    // each handler removes its own entry on exit.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    listener_thread: Option<JoinHandle<()>>,
    router_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the router and listener threads, and returns immediately.
    pub fn start(
        config: ServerConfig,
        store: Arc<PolicyStore>,
        recorder: Recorder,
    ) -> Result<Server, EagleError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Poll accept so shutdown can stop the loop without a self-connect.
        listener.set_nonblocking(true)?;
        let router = Router::new(store, config.router, recorder);
        let stop = Arc::new(AtomicBool::new(false));

        let router_thread = {
            let router = router.clone();
            std::thread::spawn(move || router.run())
        };
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let listener_thread = {
            let router = router.clone();
            let stop = stop.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
                let mut next_id: u64 = 0;
                let recorder = router.recorder().clone();
                while !stop.load(Ordering::SeqCst) {
                    // A finished handler is joined here, so its stack is
                    // released now rather than at shutdown.
                    for t in conn_threads.extract_if(.., |t| t.is_finished()) {
                        let _ = t.join();
                    }
                    recorder.gauge("serve.connection_threads", conn_threads.len() as f64);
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let id = next_id;
                            next_id += 1;
                            if let Ok(clone) = stream.try_clone() {
                                lock_conns(&conns).insert(id, clone);
                            }
                            let router = router.clone();
                            let handler_conns = conns.clone();
                            let spawned = std::thread::Builder::new().spawn(move || {
                                // A panicking handler must not take the daemon
                                // (or the conns map) with it: count it, drop the
                                // connection, keep serving everyone else.
                                let result =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        serve_connection(stream, &router)
                                    }));
                                if result.is_err() {
                                    router.recorder().add("serve.handler_panics", 1);
                                }
                                lock_conns(&handler_conns).remove(&id);
                            });
                            match spawned {
                                Ok(t) => conn_threads.push(t),
                                // The OS refused a thread: close this client
                                // (the unspawned closure dropped its stream)
                                // and keep accepting the others.
                                Err(_) => {
                                    lock_conns(&conns).remove(&id);
                                    recorder.add("serve.spawn_errors", 1);
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            })
        };
        Ok(Server {
            addr,
            router,
            stop,
            conns,
            listener_thread: Some(listener_thread),
            router_thread: Some(router_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        self.router.recorder()
    }

    /// The router (for in-process submission, e.g. benches).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stops accepting, closes client connections, stops the router, and
    /// joins all threads. Idle connections (blocked in `read`) see EOF;
    /// requests still in flight at shutdown get their connection torn down.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Handlers block in `read` until the peer closes; half-close every
        // live socket so they observe EOF and exit.
        for stream in lock_conns(&self.conns).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        self.router.shutdown();
        if let Some(t) = self.router_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Locks the live-connection map, recovering a poisoned guard: the map holds
/// plain sockets, so a thread that died mid-insert/remove leaves it usable —
/// at worst one stale entry — and shutdown must still be able to half-close
/// every other client instead of panicking the whole daemon.
fn lock_conns(
    conns: &Mutex<HashMap<u64, TcpStream>>,
) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
    conns.lock().unwrap_or_else(|e| e.into_inner())
}

/// One connection: line in, line out, until EOF.
fn serve_connection(stream: TcpStream, router: &Router) {
    // Placement replies are ~one small line; turning Nagle off keeps p99 low.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(&line, router);
        let mut out = api::encode_response(&response);
        out.push('\n');
        if writer.write_all(out.as_bytes()).and_then(|()| writer.flush()).is_err() {
            return;
        }
    }
}

/// Routes one request line to one reply, mapping every failure to a typed
/// error reply that echoes the request id when one was parseable.
fn handle_line(line: &str, router: &Router) -> Response {
    // Routed requests are counted inside the router; replies produced here
    // (validation and protocol failures) are counted at this boundary so
    // `serve.errors` covers every error reply the daemon sends.
    let fail = |id: u64, e: &EagleError| {
        router.recorder().add("serve.errors", 1);
        Response::Place(PlaceResponse::failure(id, e))
    };
    match api::decode_request(line) {
        Ok(Request::Place(req)) => {
            let id = req.id;
            match router.submit(req) {
                Ok(rx) => match rx.recv() {
                    Ok(resp) => Response::Place(resp),
                    Err(_) => {
                        fail(id, &EagleError::Protocol("router shut down mid-request".into()))
                    }
                },
                Err(e) => fail(id, &e),
            }
        }
        Ok(Request::RegisterGraph(req)) => {
            let (graph_key, error) = match router.register_graph(req.graph) {
                Ok(key) => (Some(key), None),
                Err(e) => {
                    router.recorder().add("serve.errors", 1);
                    (None, Some(e.to_api()))
                }
            };
            Response::RegisterGraph(RegisterGraphResponse {
                schema_version: API_SCHEMA_VERSION,
                id: req.id,
                graph_key,
                error,
            })
        }
        // The line did not parse far enough to know what was asked: reply with
        // a `place_result` error envelope and id 0 (the one id we never echo).
        Err(e) => fail(0, &e),
    }
}
