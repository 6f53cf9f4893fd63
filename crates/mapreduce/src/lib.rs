//! An in-process MapReduce engine.
//!
//! The paper builds its hybrid index "under Hadoop MapReduce" (Section
//! IV-B2, Algorithms 2 and 3) for scalability and fault tolerance. This
//! crate reproduces the *programming model and execution structure* of that
//! pipeline in-process:
//!
//! * a [`Mapper`] maps each input record to `(key, value)` pairs;
//! * the engine shuffles pairs to reduce partitions through a pluggable
//!   [`Partitioner`] (hash by default; the index build uses a range
//!   partitioner so one spatial key range lands on one simulated node,
//!   matching "all points for a given rectangular area in one computer");
//! * within each partition, pairs are sorted by key and grouped — the
//!   Hadoop guarantee the paper leans on ("the Hadoop MapReduce framework
//!   can guarantee that the key of the inverted index is sorted");
//! * a [`Reducer`] folds each group, and the driver receives per-partition
//!   key-sorted output plus [`JobCounters`].
//!
//! A phase's tasks run on one thread each — the worker count models the
//! simulated cluster's nodes — and the first of them is the caller's: a
//! job of `n` tasks per phase spawns `n − 1` scoped threads per phase, and
//! a one-task job (the in-process index build's default) spawns none.

pub mod counters;
pub mod engine;
pub mod job;
pub mod partition;

pub use counters::JobCounters;
pub use engine::{run_job, JobConfig, JobOutput};
pub use job::{Mapper, Reducer};
pub use partition::{HashPartitioner, Partitioner, RangePartitioner};
