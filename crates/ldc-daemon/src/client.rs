//! Blocking `ldcd` client: one Unix-socket connection speaking
//! [`crate::proto`] over [`crate::wire`] frames.
//!
//! [`Client`] is the simple request/response surface (`ping`, `solve`,
//! `stats`, `shutdown`) used by tests and by [`replay`]. Open-loop drivers
//! need pipelining — many solves in flight per connection — so
//! [`Client::split`] hands out independently-owned send and receive
//! halves (two `try_clone`s of the socket) that different threads drive
//! concurrently.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::Duration;

use ldc_batch::JobSpec;

use crate::proto::{Request, Response};
use crate::wire::{read_frame, write_frame, ReadEvent};

/// A connected client.
pub struct Client {
    stream: UnixStream,
}

/// The write half of a split connection.
pub struct Sender {
    stream: UnixStream,
}

/// The read half of a split connection.
pub struct Receiver {
    stream: UnixStream,
}

impl Client {
    /// Connect to a daemon socket, retrying briefly while the server is
    /// still binding (a just-spawned daemon races its first client).
    pub fn connect<P: AsRef<Path>>(path: P) -> io::Result<Client> {
        let path = path.as_ref();
        let mut last = None;
        for _ in 0..100 {
            match UnixStream::connect(path) {
                Ok(stream) => return Ok(Client { stream }),
                Err(e) => {
                    last = Some(e);
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
    }

    /// Send one request frame.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, req.render().as_bytes())
    }

    /// Receive one response frame. `Ok(None)` means the server closed
    /// the connection at a frame boundary (e.g. after a drain).
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        recv_on(&mut self.stream)
    }

    /// Round-trip a ping.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.send(&Request::Ping)?;
        self.expect_one()
    }

    /// Solve one job and wait for its answer (result, busy, or error).
    pub fn solve(&mut self, id: u64, job: &JobSpec) -> io::Result<Response> {
        self.send(&Request::Solve {
            id,
            job: Box::new(job.clone()),
        })?;
        self.expect_one()
    }

    /// Fetch the deterministic stats snapshot.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.send(&Request::Stats)?;
        self.expect_one()
    }

    /// Ask the server to drain; returns its acknowledgement.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.send(&Request::Shutdown)?;
        self.expect_one()
    }

    /// Send raw bytes as one frame — tests use this to deliver payloads
    /// a well-behaved client never would.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Split into independently-driven send/receive halves.
    pub fn split(self) -> io::Result<(Sender, Receiver)> {
        let send = self.stream.try_clone()?;
        Ok((
            Sender { stream: send },
            Receiver {
                stream: self.stream,
            },
        ))
    }

    fn expect_one(&mut self) -> io::Result<Response> {
        self.recv()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before answering",
            )
        })
    }
}

impl Sender {
    /// Send one request frame without waiting for any response.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, req.render().as_bytes())
    }

    /// Signal end-of-requests: half-close the socket so the server
    /// answers what it has and then closes, letting the paired
    /// [`Receiver`] observe EOF.
    pub fn finish(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

impl Receiver {
    /// Receive one response frame; `Ok(None)` on clean close.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        recv_on(&mut self.stream)
    }
}

/// Closed-loop replay of a batch job list through one connection, `id =
/// index`, returning result rows in job order (`busy` answers are retried
/// after their `retry_after_ms`). The rows are exactly the per-job lines
/// `ldc batch` writes for the same list.
pub fn replay<P: AsRef<Path>>(socket_path: P, jobs: &[JobSpec]) -> io::Result<Vec<String>> {
    let mut client = Client::connect(socket_path)?;
    let mut rows = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        loop {
            match client.solve(i as u64, job)? {
                Response::Result { id, row } => {
                    if id != i as u64 {
                        return Err(io::Error::other(format!(
                            "replay answer out of order: sent {i}, got {id}"
                        )));
                    }
                    rows.push(row);
                    break;
                }
                Response::Busy { retry_after_ms } => {
                    thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                Response::Error { code, message } => {
                    return Err(io::Error::other(format!("daemon error {code}: {message}")));
                }
                other => {
                    return Err(io::Error::other(format!("unexpected reply: {other:?}")));
                }
            }
        }
    }
    Ok(rows)
}

fn recv_on(stream: &mut UnixStream) -> io::Result<Option<Response>> {
    loop {
        match read_frame(stream)? {
            ReadEvent::Frame(payload) => {
                return Response::parse(&payload).map(Some).map_err(|(code, msg)| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("{code}: {msg}"))
                })
            }
            ReadEvent::Idle => {}
            ReadEvent::Eof => return Ok(None),
        }
    }
}
