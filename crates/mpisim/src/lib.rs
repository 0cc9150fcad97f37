#![warn(missing_docs)]

//! In-process MPI-style message passing (paper §IV).
//!
//! The paper's distributed BPMF is written against MPI 3.0: asynchronous
//! `MPI_Isend`/`MPI_Irecv`, tag matching, collectives, and hybrid
//! threads-inside-ranks. Real clusters being unavailable here, this crate
//! reproduces that programming model *in process*: every rank is an OS
//! thread, every message is a real buffer handed through a mailbox with MPI
//! matching semantics (FIFO per source/tag pair, no overtaking), and an
//! optional [`NetModel`] imposes latency + bandwidth delays so communication
//! costs behave like a network instead of a memcpy.
//!
//! What transfers to a real MPI build: the entire distributed driver in
//! `bpmf::distributed` — partitioning, send buffering, phase protocols,
//! overlap accounting — is written against [`Comm`], whose surface
//! deliberately mirrors the MPI calls the paper names (buffered `send`,
//! blocking and polling receive, barrier, and the collectives
//! `allreduce` (sum and max, reduced in rank order) and a rooted
//! `gather`).
//! [`wire`] is the little-endian `f64` codec every payload goes through.
//!
//! # Example
//!
//! ```
//! use bpmf_mpisim::Universe;
//!
//! // Two ranks exchange a ping-pong.
//! let results = Universe::run(2, None, |comm| {
//!     if comm.rank() == 0 {
//!         comm.send(1, 7, b"ping");
//!         let (_, reply) = comm.recv(Some(1), 8);
//!         reply.len()
//!     } else {
//!         let (_, msg) = comm.recv(Some(0), 7);
//!         comm.send(0, 8, b"pong!");
//!         msg.len()
//!     }
//! });
//! assert_eq!(results, vec![5, 4]);
//! ```

mod comm;
mod net;
mod universe;
pub mod wire;

pub use comm::{Comm, CommStats, TimeStats};
pub use net::NetModel;
pub use universe::Universe;

/// Message tag type (MPI uses `int`; tags at `RESERVED_TAG_BASE` and above
/// are reserved for collectives).
pub type Tag = u32;

/// First tag reserved for internal collective operations.
pub const RESERVED_TAG_BASE: Tag = u32::MAX - 16;
