//! Line-protocol connection plumbing shared by the server and the fleet
//! router: the reply writer, the accept loop, the per-connection request
//! reader, and the one-shot control round-trip.

use crate::ledger::Ledger;
use crate::proto::{read_bounded_line, write_line, Request, Response, Status};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serialised writer half of one client connection: replies from the
/// connection's reader and from whichever thread settles a job
/// interleave line-atomically through the lock. `None` is a discard
/// sink — a journal-resumed router job whose client is gone still
/// settles (and is counted) but has nowhere to write, unless the client
/// re-sends and reattaches with a live `Reply`.
#[derive(Clone)]
pub struct Reply(Arc<Mutex<Option<TcpStream>>>);

impl Reply {
    pub(crate) fn new(stream: TcpStream) -> Reply {
        Reply(Arc::new(Mutex::new(Some(stream))))
    }

    pub fn discard() -> Reply {
        Reply(Arc::new(Mutex::new(None)))
    }

    pub fn send(&self, resp: &Response) {
        let line = resp.to_line();
        let mut stream = self.0.lock().unwrap();
        // A vanished client must not take the sender down with it; the
        // job still counted its terminal state.
        if let Some(stream) = stream.as_mut() {
            let _ = write_line(stream, line);
        }
    }
}

/// Reader halves of live connections by accept serial. Each reader
/// thread removes its own entry when it exits, so closed connections
/// hold no descriptor.
#[derive(Clone, Default)]
pub struct Conns(Arc<Mutex<HashMap<u64, TcpStream>>>);

impl Conns {
    /// Close every connection still open, unblocking its reader thread.
    pub fn close(self) {
        for (_, conn) in self.0.lock().unwrap().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Accept connections until `stop` is set (non-blocking accept, 5 ms
/// idle sleep), serving each on its own thread named `thread_name` via
/// `serve(stream, serial)`. Reader threads are not joined: they exit on
/// EOF, or when the caller closes the returned registry after its own
/// drain. The listener is dropped on return.
pub fn accept_until<F>(
    listener: TcpListener,
    stop: &AtomicBool,
    thread_name: &str,
    serve: F,
) -> Conns
where
    F: Fn(TcpStream, u64) + Clone + Send + 'static,
{
    let conns = Conns::default();
    let mut next_serial = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let serial = next_serial;
                next_serial += 1;
                if let Ok(clone) = stream.try_clone() {
                    conns.0.lock().unwrap().insert(serial, clone);
                }
                let (conns, serve) = (conns.clone(), serve.clone());
                let _ = std::thread::Builder::new()
                    .name(thread_name.to_string())
                    .spawn(move || {
                        serve(stream, serial);
                        conns.0.lock().unwrap().remove(&serial);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    conns
}

/// Read newline-delimited requests off one connection until EOF. Lines
/// over `max_line_bytes` and lines that do not parse are rejected (via
/// `ledger`) and skipped, as are blank lines; job requests go to
/// `admit`, everything else to `control`, which returns `false` to stop
/// reading (after acknowledging a shutdown).
pub fn read_requests(
    stream: TcpStream,
    max_line_bytes: usize,
    ledger: &Ledger,
    mut admit: impl FnMut(&Reply, Request),
    mut control: impl FnMut(&Reply, &Request) -> bool,
) {
    let reply = match stream.try_clone() {
        Ok(clone) => Reply::new(clone),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut oversized = false;
    while read_bounded_line(&mut reader, &mut buf, max_line_bytes, &mut oversized) {
        if oversized {
            ledger.reject(&reply, "", &format!("line exceeds {max_line_bytes} bytes"));
            continue;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Request::parse(line) {
            Ok(req) if req.kind.is_job() => admit(&reply, req),
            Ok(req) => {
                if !control(&reply, &req) {
                    return;
                }
            }
            Err(e) => ledger.reject(&reply, "", &e),
        }
    }
}

/// One request on a fresh connection, bounded by `timeout` (connect
/// included, capped at 2 s); the reply when it parses with status `ok`,
/// `None` on any failure.
pub fn control_roundtrip(
    addr: &str,
    req: &Request,
    timeout: Duration,
    max_line_bytes: usize,
) -> Option<Response> {
    let sock_addr = addr.parse::<SocketAddr>().ok()?;
    let stream =
        TcpStream::connect_timeout(&sock_addr, timeout.min(Duration::from_secs(2))).ok()?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    write_line(&mut &stream, req.to_line()).ok()?;
    let mut reader = BufReader::new(&stream);
    let mut buf = Vec::new();
    let mut oversized = false;
    if !read_bounded_line(&mut reader, &mut buf, max_line_bytes, &mut oversized) || oversized {
        return None;
    }
    let line = String::from_utf8_lossy(&buf);
    Response::parse(line.trim())
        .ok()
        .filter(|r| r.status == Status::Ok)
}
