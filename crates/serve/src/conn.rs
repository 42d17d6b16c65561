//! The one line-protocol endpoint, both ends of the connection.
//!
//! **Server side.** An [`Endpoint`] owns a service's whole lifecycle:
//! the non-blocking listener, the accept thread, one reader thread per
//! connection, the `shutdown` verb, the final drain and the close of
//! every connection still open. A [`Service`] — the job server, the
//! fleet router — supplies only what differs between them: how a job is
//! admitted, how its own control verbs are answered, and how it drains.
//!
//! `shutdown` is answered here and nowhere else, in one order: drain
//! (stop admission, every admitted job reaches its terminal reply), ack
//! with the ledger's balanced map, stop accepting, stop reading. The
//! accept thread then drains once more (a no-op after a wire shutdown)
//! and closes the connections, so the ack always beats the close.
//!
//! **Client side.** A [`Client`] is one outgoing connection: connect,
//! `TCP_NODELAY`, a writer half that sends each line in one write, and a
//! [`Lines`] reader half that never buffers more than its line bound.

use crate::ledger::Ledger;
use crate::proto::{read_bounded_line, write_line, Kind, Request, Response, Status};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What one line-protocol service supplies to its [`Endpoint`].
pub trait Service: Send + Sync + 'static {
    /// The ledger that counts the reader's own rejections and whose
    /// balanced map acknowledges `shutdown`.
    fn ledger(&self) -> &Ledger;
    /// Admit one job request that arrived on connection `conn`.
    fn admit(self: &Arc<Self>, reply: &Reply, req: Request, conn: u64);
    /// Answer one control verb other than `shutdown`.
    fn control(self: &Arc<Self>, reply: &Reply, req: &Request);
    /// Stop admitting jobs, without waiting for the backlog.
    fn begin_drain(&self);
    /// Stop admitting jobs and return once every admitted job has its
    /// terminal reply. Called again after the accept loop ends, so a
    /// second call must find nothing left to do.
    fn drain(self: &Arc<Self>);
}

/// A running service behind its listener. Dropping it initiates
/// shutdown and blocks until the drain completes.
pub struct Endpoint<S: Service> {
    addr: SocketAddr,
    service: Arc<S>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl<S: Service> Endpoint<S> {
    /// Bind `addr` with a non-blocking listener, build the service, and
    /// serve it from a `{name}-accept` thread (connections are read on
    /// `{name}-conn` threads, lines over `max_line_bytes` rejected).
    /// `build` gets the flag that stops the accept loop, for background
    /// loops of the service's own that must end with it.
    pub fn start(
        addr: &str,
        name: &str,
        max_line_bytes: usize,
        build: impl FnOnce(&Arc<AtomicBool>) -> io::Result<Arc<S>>,
    ) -> io::Result<Endpoint<S>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = build(&stop)?;
        let accept = {
            let (service, stop) = (Arc::clone(&service), Arc::clone(&stop));
            let conn_name = format!("{name}-conn");
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    accept_and_drain(listener, service, stop, conn_name, max_line_bytes)
                })?
        };
        Ok(Endpoint {
            addr,
            service,
            stop,
            accept: Some(accept),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Programmatic equivalent of the `shutdown` verb.
    pub fn begin_shutdown(&self) {
        self.service.begin_drain();
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Block until the service has drained and the accept thread exited.
    /// Something must initiate shutdown — a `shutdown` verb or
    /// [`Endpoint::begin_shutdown`] — or this blocks forever.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl<S: Service> Drop for Endpoint<S> {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.begin_shutdown();
            self.join();
        }
    }
}

/// Serialised writer half of one client connection: replies from the
/// connection's reader and from whichever thread settles a job
/// interleave line-atomically through the lock.
#[derive(Clone)]
pub struct Reply(Arc<Mutex<TcpStream>>);

impl Reply {
    pub fn send(&self, resp: &Response) {
        let line = resp.to_line();
        // A vanished client must not take the sender down with it; the
        // job still counted its terminal state.
        let _ = write_line(&mut *self.0.lock().unwrap(), line);
    }
}

/// The accept thread: accept until `stop` is set (non-blocking accept,
/// 5 ms idle sleep), reading each connection on its own thread; then
/// drop the listener, drain, and close every connection still open.
/// Reader threads are not joined: they exit on EOF or at that close.
fn accept_and_drain<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    stop: Arc<AtomicBool>,
    conn_name: String,
    max_line_bytes: usize,
) {
    // Reader halves of live connections by accept serial. Each reader
    // thread removes its own entry when it exits, so closed connections
    // hold no descriptor.
    let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
    let mut next_serial = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let serial = next_serial;
                next_serial += 1;
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().unwrap().insert(serial, clone);
                }
                let (conns, service, stop) =
                    (Arc::clone(&conns), Arc::clone(&service), Arc::clone(&stop));
                let _ = std::thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || {
                        read_requests(&service, &stop, stream, serial, max_line_bytes);
                        conns.lock().unwrap().remove(&serial);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    drop(listener);
    service.drain();
    for (_, conn) in conns.lock().unwrap().drain() {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// Read requests off connection `serial` until EOF or `shutdown`. Lines
/// over `max_line_bytes` and lines that do not parse are rejected and
/// skipped; job requests go to [`Service::admit`], other verbs but
/// `shutdown` to [`Service::control`].
fn read_requests<S: Service>(
    service: &Arc<S>,
    stop: &AtomicBool,
    stream: TcpStream,
    serial: u64,
    max_line_bytes: usize,
) {
    let reply = match stream.try_clone() {
        Ok(clone) => Reply(Arc::new(Mutex::new(clone))),
        Err(_) => return,
    };
    let ledger = service.ledger();
    Lines::new(stream, max_line_bytes).each(|line| {
        let Ok(line) = line else {
            ledger.reject(&reply, "", &format!("line exceeds {max_line_bytes} bytes"));
            return true;
        };
        match Request::parse(line) {
            Ok(req) if req.kind.is_job() => service.admit(&reply, req, serial),
            Ok(req) if req.kind == Kind::Shutdown => {
                // The ack must carry the final, balanced counters and
                // beat the close of every connection: drain first, ack,
                // and only then release the accept loop.
                service.drain();
                let ack =
                    Response::new(&req.id, Status::Ok).with_result(ledger.snapshot().as_map());
                reply.send(&ack);
                stop.store(true, Ordering::SeqCst);
                return false;
            }
            Ok(req) => service.control(&reply, &req),
            Err(e) => ledger.reject(&reply, "", &e),
        }
        true
    });
}

/// A line longer than the reader's bound; its bytes were skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oversized;

/// The reading half of a connection: newline-framed lines of at most
/// `max_line_bytes`, decoded lossily and trimmed, blank lines skipped.
pub struct Lines {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
    max_line_bytes: usize,
}

impl Lines {
    pub fn new(stream: TcpStream, max_line_bytes: usize) -> Lines {
        Lines {
            reader: BufReader::new(stream),
            buf: Vec::new(),
            max_line_bytes,
        }
    }

    /// Hand each line to `f` until it returns `false` or the stream ends
    /// (EOF or a read error).
    pub fn each(&mut self, mut f: impl FnMut(Result<&str, Oversized>) -> bool) {
        let mut oversized = false;
        while read_bounded_line(
            &mut self.reader,
            &mut self.buf,
            self.max_line_bytes,
            &mut oversized,
        ) {
            let more = if oversized {
                f(Err(Oversized))
            } else {
                let line = String::from_utf8_lossy(&self.buf);
                let line = line.trim();
                line.is_empty() || f(Ok(line))
            };
            if !more {
                return;
            }
        }
    }
}

/// One outgoing connection: a writer half and a bounded [`Lines`] half.
pub struct Client {
    writer: TcpStream,
    lines: Lines,
}

impl Client {
    /// Connect to `addr` and split the stream. A `timeout` bounds every
    /// read and write, and the connect too (capped at 2 s).
    pub fn connect(
        addr: &str,
        timeout: Option<Duration>,
        max_line_bytes: usize,
    ) -> io::Result<Client> {
        let writer = match timeout {
            Some(t) => {
                let sock_addr = addr
                    .parse::<SocketAddr>()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
                let stream = TcpStream::connect_timeout(&sock_addr, t.min(Duration::from_secs(2)))?;
                stream.set_read_timeout(Some(t))?;
                stream.set_write_timeout(Some(t))?;
                stream
            }
            None => TcpStream::connect(addr)?,
        };
        let _ = writer.set_nodelay(true);
        let lines = Lines::new(writer.try_clone()?, max_line_bytes);
        Ok(Client { writer, lines })
    }

    /// Send one request line in one write.
    pub(crate) fn send(&mut self, req: &Request) -> io::Result<()> {
        write_line(&mut self.writer, req.to_line())
    }

    /// The next reply: `Ok(None)` when the stream ended, `Err` for a
    /// line that is oversized or does not parse.
    pub(crate) fn recv(&mut self) -> Result<Option<Response>, String> {
        let max = self.lines.max_line_bytes;
        let mut got = Ok(None);
        self.lines.each(|line| {
            got = match line {
                Ok(line) => Response::parse(line).map(Some),
                Err(Oversized) => Err(format!("reply exceeds {max} bytes")),
            };
            false
        });
        got
    }

    /// The writer and reader halves, for a caller that drives them from
    /// different threads.
    pub fn split(self) -> (TcpStream, Lines) {
        (self.writer, self.lines)
    }
}

/// One request on a fresh connection bounded by `timeout`; the reply
/// when it parses with status `ok`, `None` on any failure.
pub fn control_roundtrip(
    addr: &str,
    req: &Request,
    timeout: Duration,
    max_line_bytes: usize,
) -> Option<Response> {
    let mut client = Client::connect(addr, Some(timeout), max_line_bytes).ok()?;
    client.send(req).ok()?;
    client.recv().ok()?.filter(|r| r.status == Status::Ok)
}
