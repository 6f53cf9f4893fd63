//! # tklus-serve — the overload-resilient serving layer
//!
//! Wraps the shared-immutable [`tklus_core::TklusEngine`] with the
//! protection mechanisms a query service needs to degrade *predictably*
//! instead of collapsing when offered load exceeds capacity
//! (DESIGN.md §11):
//!
//! * **admission control** — a bounded, priority-aware queue
//!   ([`AdmissionQueue`]) with a concurrency limit and per-request
//!   deadlines measured from arrival; requests that cannot make their
//!   deadline are shed *at enqueue* with a typed [`Rejected`] reason;
//! * **load shedding with priorities** — under saturation the lowest
//!   [`tklus_model::Priority`] work sheds first (a full queue lets a
//!   higher-priority arrival evict the newest lowest-priority entry), and
//!   an optional [`DegradePolicy`] trades completeness for latency by
//!   tightening `QueryBudget::max_cells` so the engine returns typed
//!   `Completeness::Degraded` exact prefixes;
//! * **typed failures** — a query the engine fails is answered as its own
//!   `ServeError::Engine`; a failure changes no admission decision for
//!   any other request, and nothing retries it;
//! * **graceful drain** — [`TklusServer::drain`] closes admission, lets
//!   in-flight work finish up to a drain deadline, and abandons the rest
//!   *by name* — nothing admitted is ever silently lost.
//!
//! One scheduler makes every one of those decisions: [`Scheduler`], a
//! single-threaded core over caller-supplied millisecond timestamps. Two
//! callers run it, each with its own clock:
//!
//! * [`TklusServer`] — the scheduler behind a mutex, fed wall-clock time
//!   and run by the threads that wait on its tickets;
//! * [`sim`] — a seeded open-loop generator plus a virtual-time
//!   discrete-event loop whose every shed, degrade and drain decision is
//!   reproducible bit-for-bit per seed (the CI overload matrix).

#![warn(missing_docs)]

mod config;
mod health;
mod ingest;
mod metrics;
mod queue;
mod reject;
mod scheduler;
mod server;
pub mod sim;

pub use config::{DegradePolicy, ServeConfig};
pub use ingest::{IngestFailure, IngestSink, SinkError, SinkHealth};
pub use queue::{AdmissionCounters, AdmissionQueue, AdmitResult, Popped, QueuedEntry};
pub use reject::{Rejected, ServeError};
pub use scheduler::Scheduler;
pub use server::{DrainReport, IngestTicket, Ticket, TklusServer};
