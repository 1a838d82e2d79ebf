//! **`ldcd`** — the long-lived solve daemon (DESIGN.md §15).
//!
//! `ldc batch` pays its startup costs — process spawn, graph builds,
//! cold kernel caches — on every invocation. This crate keeps that
//! state warm in one process and serves solve requests over a Unix
//! domain socket, using a hand-rolled, versioned wire protocol (the
//! workspace is zero-dependency end to end):
//!
//! * [`wire`] — 4-byte big-endian length prefix + UTF-8 JSON frames,
//!   robust to partial reads/writes, capped at [`wire::MAX_FRAME`].
//! * [`proto`] — the `"v":1` request/response grammar; malformed input
//!   maps to typed error codes, never connection teardown.
//! * [`server`] — accept loop, bounded admission queue with typed
//!   `busy` backpressure, solve workers funneling through
//!   [`ldc_batch::Fleet::run_one`] (rows byte-identical to `ldc
//!   batch`), graceful drain on SIGTERM/`shutdown`.
//! * [`client`] — blocking client, splittable for pipelining, and the
//!   closed-loop [`client::replay`] used by the daemon-vs-batch
//!   byte-equality check.
//! * [`signal`] — SIGTERM/SIGINT → drain flag, the crate's one
//!   `unsafe` allowance.
//!
//! The socket layer is Unix-only; [`wire`] and [`proto`] are
//! platform-neutral.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod wire;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;
#[cfg(unix)]
pub mod signal;

#[cfg(unix)]
pub use client::Client;
pub use proto::{Request, Response};
#[cfg(unix)]
pub use server::{serve, ServerConfig, ServerHandle};
