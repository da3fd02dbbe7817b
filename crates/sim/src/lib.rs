//! # congest-sim — synchronous CONGEST / CONGEST-clique simulator
//!
//! The paper's model (Section 2): computation proceeds in synchronous
//! rounds; in each round every node may send **one message of `O(log n)`
//! bits** over each incident communication link, messages are delivered at
//! the start of the next round, nodes are reliable, and each node initially
//! knows only `n`, its own identifier and its incident edges. In the
//! **CONGEST clique** variant the communication topology is the complete
//! graph and the input graph is data only.
//!
//! This crate makes that model executable:
//!
//! * [`NodeProgram`] — the per-node state machine interface; a program sees
//!   only its own [`NodeInfo`] (id, `n`, neighbour list), its inbox, the
//!   streams sent to it and its per-node deterministic RNG. Each round it
//!   returns a [`NodeStatus`]: active, halted, or asleep until a given
//!   round ([`NodeStatus::Sleep`]) — a sleeping node is not visited until
//!   that round or a message reaches it.
//! * [`Simulation`] — the round engine, and the only executor: the model's
//!   rounds are synchronous, so a run has one schedule and its rounds,
//!   messages and bits cannot depend on who calls a node program. It runs
//!   the nodes of a round one after another, validates every send
//!   against the bandwidth budget and topology, delivers messages with
//!   one-round latency and collects [`Metrics`] (rounds, messages, bits per
//!   node — the quantities the paper's bounds are about). The engine is
//!   **resumable**: node programs keep their state across
//!   [`Simulation::run_epoch`] calls, out-of-band input is fed between
//!   epochs with [`Simulation::inject`], and
//!   [`Simulation::update_topology`] keeps the communication graph in sync
//!   with an evolving input graph — the substrate for dynamic
//!   (CONGEST-simulated) algorithms.
//! * [`FaultPlan`] — a seeded, deterministic fault schedule (message
//!   drops, payload bit corruption, duplication and scheduled
//!   crash/rejoin windows keyed by epoch) applied at delivery time from
//!   per-sender streams, so a run repeats bit for bit from its seeds. The
//!   default plan is quiet and preserves the paper's reliable model
//!   bit-for-bit.
//! * Streams — the paper's "send the set `S` to the neighbour" steps,
//!   which take `⌈|S| log n / B⌉` rounds: a node hands the whole payload
//!   to [`RoundContext::stream`] once, the stream sends `B` bits of it a
//!   round — each chunk booked and faulted exactly as a message — and the
//!   receiver collects what has arrived with
//!   [`RoundContext::take_streams`]. The simulator does not walk the
//!   chunks: a stream is settled in closed form when it is read, cut or
//!   the epoch ends. [`transfer::rounds_for_bits`] sizes the phases that
//!   carry them.
//!
//! ```
//! use congest_graph::generators::Classic;
//! use congest_sim::{Model, NodeProgram, NodeStatus, RoundContext, SimConfig, Simulation};
//! use congest_wire::BitWriter;
//!
//! /// Every node sends its id to every neighbour, then records what it heard.
//! struct Hello { heard: Vec<u32> }
//!
//! impl NodeProgram for Hello {
//!     type Output = Vec<u32>;
//!     fn on_round(&mut self, ctx: &mut RoundContext<'_>) -> NodeStatus {
//!         match ctx.round() {
//!             0 => {
//!                 let mut w = BitWriter::new();
//!                 ctx.id_codec().encode(&mut w, ctx.id().as_u64());
//!                 let payload = w.finish();
//!                 for &v in ctx.neighbors().to_vec().iter() {
//!                     ctx.send(v, payload.clone()).expect("one id fits in the budget");
//!                 }
//!                 NodeStatus::Active
//!             }
//!             _ => {
//!                 for m in ctx.inbox().to_vec() {
//!                     self.heard.push(m.from.0);
//!                 }
//!                 NodeStatus::Halted
//!             }
//!         }
//!     }
//!     fn finish(&mut self) -> Vec<u32> { std::mem::take(&mut self.heard) }
//! }
//!
//! let graph = Classic::Cycle(6).generate();
//! let sim = Simulation::new(&graph, SimConfig::congest(1), |_info| Hello { heard: vec![] });
//! let report = sim.run();
//! assert_eq!(report.metrics.rounds, 2);
//! assert!(report.outputs.iter().all(|h| h.len() == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod context;
mod engine;
mod error;
mod faults;
mod metrics;
mod program;
mod rng;
mod round;
mod stream;
pub mod transfer;

pub use config::{Bandwidth, CrashWindow, FaultPlan, Model, SimConfig};
pub use context::{ReceivedMessage, RoundContext};
pub use engine::{EpochReport, RunReport, Simulation, Termination};
pub use error::SimError;
pub use metrics::Metrics;
pub use program::{NodeInfo, NodeProgram, NodeStatus};
pub use rng::derive_node_seed;
