//! # fmm-serve — a bounded, load-shedding job server
//!
//! Runs the workspace's workloads as network jobs: a multi-threaded TCP
//! server speaking newline-delimited JSON (the same hand-rolled dialect
//! [`fmm_obs::json`] writes and `fastmm report` reads), with the failure
//! behaviour made explicit at every stage instead of implicit in thread
//! scheduling:
//!
//! - **Bounded admission** — a fixed-capacity [`queue::BoundedQueue`];
//!   when it is full a request is *shed* with an immediate
//!   `{"status":"shed"}` reply rather than queued without bound.
//! - **Cooperative deadlines** — each job carries an
//!   [`fmm_faults::CancelToken`] armed with its `deadline_ms`; the
//!   simulators poll it ([`fmm_faults::cancel`]) and unwind at the
//!   deadline, so a `deadline-exceeded` reply means the work actually
//!   stopped, not that it was abandoned on a detached thread.
//! - **Panic isolation** — a poison job (say, Strassen at a
//!   non-power-of-two order) fails *that job* with an `error` reply; the
//!   worker survives and takes the next job.
//! - **Graceful drain** — a `shutdown` control message stops admission,
//!   lets queued and in-flight jobs reach a terminal reply, then answers
//!   and exits. Every accepted job gets exactly one terminal reply:
//!   `accepted == completed + errored + cancelled + deadline_exceeded`
//!   holds in the final counters.
//!
//! A job *is* the `fastmm` command of the same name: [`jobs`] holds each
//! workload's params, defaults, validation and execution once, and
//! `fastmm io|bounds|faults|kernel` map their flags to the same params,
//! run the same [`jobs::JobSpec`] under the same
//! [`fmm_faults::cancel::isolate`] (the sweep engine's cells run under
//! it too), and
//! print its typed [`jobs::Outcome`] where the server replies with
//! `jobs::Outcome::fields`. The server runs every job the command line
//! runs; a deadline or a drain stops a long one through the cancel token
//! its simulator or kernel polls.
//!
//! The conservation law lives in one place, [`ledger`]: the seven
//! counters, the status-to-counter mapping, and the `reject`/`shed`
//! refusals that count and answer together. The line-protocol endpoint
//! lives in one place too, [`conn`]: an [`conn::Endpoint`] owns a
//! service's listener, connection readers, `shutdown` verb (drain → ack
//! with the balanced ledger → stop) and close, and a [`conn::Client`] is
//! every outgoing connection (`loadgen`, the router's shard links and
//! probes). The server and `fmm-router` each implement
//! [`conn::Service`] — admission, their own control verbs, drain — and
//! share the rest.
//!
//! [`loadgen`] is the matching chaos client: seeded (splitmix64) mixes of
//! cheap / expensive / poison / oversized / tiny-deadline requests over N
//! connections, plus a deterministic `pause → blast → resume` burst mode
//! whose shed count depends only on burst size and queue depth.
//!
//! The crate is zero-dependency beyond the workspace: `std::net` sockets,
//! `std::thread` workers, and [`fmm_obs`] telemetry.

pub mod conn;
pub mod jobs;
pub mod ledger;
pub mod loadgen;
pub mod proto;
pub mod queue;
pub mod server;

pub use ledger::{Ledger, StatsSnapshot};
pub use loadgen::{LoadgenConfig, Summary};
pub use proto::{Kind, Request, Response, Status};
pub use queue::BoundedQueue;
pub use server::{ServerConfig, ServerHandle};
