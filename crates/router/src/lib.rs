//! fmm-router: shard `fmm-serve` into a routed fleet.
//!
//! A single `fastmm serve` process bounds its own load and proves a
//! per-process conservation law. This crate scales that story out: a
//! front-end TCP router speaks the same newline-delimited JSON protocol
//! to clients, routes every job to one of N shard servers by the
//! canonical FNV spec hash over a consistent-hash ring ([`ring`]), and
//! keeps the ledger exact across shard death — planned (drain) or
//! chaotic (SIGKILL) — by re-dispatching unacknowledged envelopes under
//! an idempotency key so each job is counted exactly once ([`router`]).
//!
//! Every decision the router makes — admit, dispatch, settle,
//! re-dispatch, hedge, eject/readmit, respawn/breaker, journal
//! append/replay — lives in the crate-private `core` module: a sans-IO
//! state machine that consumes events (a request, a shard reply, a
//! probe result, a timer tick, ...) stamped with the time they happened
//! and returns effects (send a line, reply to a client, append a journal
//! record, kill, spawn, retry after a delay). [`router`] holds it behind
//! one lock and does the socket, process and sleep work; `core`'s unit
//! tests drive it with no I/O, over a thousand seeded interleavings.
//!
//! The fleet-wide invariant, checked by `fastmm fleet` at exit and by
//! the chaos integration tests:
//!
//! ```text
//! accepted == completed + errored + cancelled + deadline_exceeded
//! ```
//!
//! with `shed`/`rejected` refused pre-admission and `redispatched` /
//! `dup_suppressed` as router-level observability counters, not ledger
//! entries. The router's ledger *is* the server's: an
//! [`fmm_serve::ledger::Ledger`] (metric prefix `router_`), and its
//! endpoint is the server's: the router implements
//! [`fmm_serve::conn::Service`] (admission, the fleet verbs, a drain that
//! also shuts the shards down) and a [`fmm_serve::conn::Endpoint`] runs
//! the listener, the readers, the `shutdown` verb and the close. Shard
//! links, probes and cancels are [`fmm_serve::conn::Client`]s. A shard's
//! shutdown ack and the router's are the same
//! [`fmm_serve::StatsSnapshot`] map.
//!
//! The self-healing layer (PR 9) keeps the same ledger exact across
//! *router* death too: a supervisor respawns dead shards at their ring
//! index behind a crash-loop breaker, and a write-ahead job journal
//! ([`journal`]) lets `fastmm fleet --resume` rebuild counters, the
//! idempotency map, and the in-flight set after a SIGKILL.
//!
//! The gray-failure layer (PR 10) covers the failures probes cannot
//! see: a seeded chaos link layer perturbs shard replies
//! (delay/stall/garble) so tests can *produce* gray failures, a
//! latency-outlier detector ([`outlier`]) ejects shards that answer
//! probes but crawl, and hedged requests — budgeted by a fleet-wide
//! retry token bucket — recompute stragglers on a second shard, with
//! their own conservation law:
//!
//! ```text
//! hedges_launched == hedges_won + hedges_lost + hedges_cancelled
//! ```

mod core;
pub mod journal;
pub mod outlier;
pub mod ring;
pub mod router;

pub use journal::{replay, Journal, Replay};
pub use outlier::OutlierDetector;
pub use ring::{spec_hash, Ring};
pub use router::{FleetSnapshot, RouterConfig, RouterHandle, ShardSpawner, StartOptions};
