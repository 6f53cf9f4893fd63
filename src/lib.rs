//! # TkLUS — Top-k Local User Search
//!
//! A faithful, from-scratch reproduction of *"Finding Top-k Local Users in
//! Geo-Tagged Social Media Data"* (Jiang, Lu, Yang, Cui — ICDE 2015) as a
//! Rust workspace. This facade crate re-exports every subsystem so examples
//! and downstream users can depend on a single crate:
//!
//! ```
//! use tklus::geo::Point;
//!
//! let toronto = Point::new_unchecked(43.6839128037, -79.37356590);
//! let gh = tklus::geo::encode(&toronto, 4).unwrap();
//! assert_eq!(gh.len(), 4);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every reproduced table and figure.

pub use tklus_core as core;
pub use tklus_gen as gen;
pub use tklus_geo as geo;
pub use tklus_graph as graph;
pub use tklus_http as http;
pub use tklus_index as index;
pub use tklus_metrics as metrics;
pub use tklus_model as model;
pub use tklus_serve as serve;
pub use tklus_storage as storage;
pub use tklus_text as text;
pub use tklus_wal as wal;
