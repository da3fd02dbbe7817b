//! The persistent shard worker pool behind
//! [`ShardedTriangleIndex`](crate::ShardedTriangleIndex)'s two-phase
//! pipeline.
//!
//! A batch is three waves — collect, record, insert-collect — and in
//! each one every worker does its own `id mod S` slice end to end:
//! load is balanced statically, by the partition, the way the paper's
//! A2/A3 fix a hash partition before a phase runs, and nothing moves
//! between workers mid-batch. An engine's full state, arena layout
//! included, is therefore a function of its input stream alone. What
//! the pool does manage is the fixed cost of getting work onto other
//! threads, which on a high-rate stream of small batches dominates the
//! intersection work itself:
//!
//! * **Persistence, caller-runs** — the engine thread is worker 0: an
//!   `S`-shard engine owns `S − 1` helper threads, spawned once (lazily,
//!   on the first pipelined batch) and fed work descriptors over
//!   `std::sync::mpsc` channels. In every wave the engine sends the
//!   helpers' jobs first, runs worker 0's job itself, then collects the
//!   `S − 1` responses — so a wave costs `S − 1` wake-ups, not `S` plus
//!   a sleeping engine thread.
//! * **Hand-off only when it pays** — a batch reaches the pool only
//!   if [`worth_handing_off`] says its estimated collect work, in the
//!   pool's own currency (endpoint degrees plus a flat cost per delta),
//!   reaches [`HANDOFF_WORK_FLOOR`] — roughly two wake-ups' worth. Every
//!   other batch takes the engine's strictly ordered path and never
//!   touches the pool, and a batch that does is handed off whole: all
//!   three of its waves go out to the helpers. A waiting side (a helper
//!   between jobs, the engine before the last response) spins for at
//!   most [`SPIN_BEFORE_PARK`] before it blocks, and only while the
//!   machine has a core for every worker; an oversubscribed pool parks
//!   at once.
//!
//! Everything stays safe Rust with no locks on the read path by
//! **round-tripping ownership** instead of sharing borrows:
//!
//! 1. *Collect* (read-only): the engine moves its [`ShardStore`] into an
//!    `Arc`, clones it to every worker, and reclaims sole ownership with
//!    [`Arc::try_unwrap`] once all responses are in — each job drops
//!    its clone *before* responding, so by the time the engine holds all
//!    `S` responses (its own included) the count is back to one.
//! 2. *Record* (write): each [`Shard`]'s `Arc` is moved to its owning
//!    worker along with its routed mutations and moved back in the
//!    response; the writer side never aliases, so there is nothing to
//!    lock. A worker only ever edits in place, through a unique `Arc`
//!    ([`Arc::get_mut`]): outside serve mode every shard is exclusive,
//!    and in serve mode the engine thread first swaps each shard that
//!    has work past the published view pinning it
//!    ([`ShardStore::begin_record`] — a retained buffer caught up by
//!    replaying its log, or a copy when every retained buffer is still
//!    leased) and logs the batch's work for the other retained buffers,
//!    so readers' bytes are never touched and no worker ever copies.
//! 3. *Insert collect* (read-only): same `Arc` round trip on the
//!    post-batch store.
//!
//! Every response also carries the job's busy time, which the engine
//! aggregates into [`WorkerTelemetry`] — how evenly the partition spread
//! a batch; worker 0's busy time is the engine thread's.

use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use congest_graph::{for_each_common, Edge, Triangle};

use crate::delta::{classify, DeltaBatch, DeltaOp, EdgeDelta};
use crate::shard::{Shard, ShardOp, ShardStore};

/// Estimated work ([`ShardStore::intersection_cost`] plus [`ITEM_WORK`]
/// per delta) under which a batch is not handed to the pool: about
/// 100 µs of intersections and list edits, which is what two futex
/// wake-ups cost. Below it the engine applies the batch in order on its
/// own thread. 1 024 deltas reach it whatever their degrees.
const HANDOFF_WORK_FLOOR: usize = 32_768;

/// What one delta costs beside its degree-based estimate:
/// classification, routing, its list edits.
const ITEM_WORK: usize = 32;

/// Whether `batch` is worth the pool: its estimated collect work on the
/// pre-batch `store` — the hand-off currency, counted per raw delta and
/// only until it reaches [`HANDOFF_WORK_FLOOR`] — pays for waking the
/// helpers. A function of the batch and the pre-batch degrees alone, so
/// an engine's path choice is the same at every shard count.
pub(crate) fn worth_handing_off(store: &ShardStore, batch: &DeltaBatch) -> bool {
    let mut work = 0usize;
    batch.into_iter().any(|delta| {
        work += store.intersection_cost(delta.edge) + ITEM_WORK;
        work >= HANDOFF_WORK_FLOOR
    })
}

/// How long a waiting side polls its channel before it blocks. A wave's
/// jobs finish within tens of microseconds of each other, so a short
/// spin usually saves the park and the wake-up on both sides.
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(50);

/// What one worker learned about its slice of a batch during the
/// read-only collect pass.
#[derive(Debug, Default)]
pub(crate) struct WorkerPlan {
    /// Adjacency mutations routed to each owning shard.
    pub(crate) ops: Vec<Vec<ShardOp>>,
    /// Effective insertions (their closing triangles are collected on
    /// the post-batch adjacency in the third phase).
    pub(crate) inserts: Vec<Edge>,
    /// Candidate retired triangles from the slice's effective removals.
    pub(crate) removed: Vec<Triangle>,
    pub(crate) inserts_applied: usize,
    pub(crate) removes_applied: usize,
    pub(crate) noops: usize,
}

/// Aggregated pool telemetry over every pipelined batch of an
/// engine's lifetime: how evenly the batch work spread across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerTelemetry {
    /// Batches that ran the pipeline, and so handed every wave to the
    /// pool. Batches on the strictly ordered path are not counted: they
    /// never reach the pool.
    pub pooled_batches: usize,
    /// Mean over pooled batches of the busiest worker's busy time as a
    /// share of the batch's apply wall time. A hot hub pushes this
    /// toward 1.0 while the mean share stays near `1/S`.
    pub busy_max_share_mean: f64,
    /// Mean over pooled batches of the per-worker mean busy share of
    /// the apply wall time (the pool's utilization).
    pub busy_mean_share_mean: f64,
    /// Retired, always 0: kept only for the frozen `perf_report` referee.
    pub steals: u64,
    /// Retired, always 0: kept only for the frozen `perf_report` referee.
    pub record_split_tasks: u64,
    /// Retired, always 0: kept only for the frozen `perf_report` referee.
    pub split_threshold: usize,
}

/// A work descriptor for one worker. All payloads are owned, which is
/// what lets the workers be persistent (`'static`) without `unsafe`.
enum Job {
    /// Read-only collect pass over `deltas` (this worker's slice):
    /// classify, then collect the removal candidates.
    Collect {
        store: Arc<ShardStore>,
        deltas: Vec<EdgeDelta>,
    },
    /// Apply the routed mutations to this worker's own shard.
    Record {
        shard: Arc<Shard>,
        ops: Vec<ShardOp>,
    },
    /// Read-only collect of the triangles `edges` close on the
    /// post-batch adjacency.
    InsertCollect {
        store: Arc<ShardStore>,
        edges: Vec<Edge>,
    },
}

/// The phase-specific payload of a worker's response.
enum Payload {
    Plan(WorkerPlan),
    Shard(Arc<Shard>),
    Candidates(Vec<Triangle>),
    /// The job's processing panicked; the engine re-raises the panic
    /// when it gathers the wave. Without this a dead helper would leave
    /// the engine waiting forever.
    Panicked(String),
}

/// One worker's response to one job, with its telemetry.
struct Response {
    worker: usize,
    busy: Duration,
    payload: Payload,
}

/// The persistent worker pool of an `S`-shard engine: `S − 1` long-lived
/// helper threads, one job channel each, one shared response channel
/// back; the engine thread is worker 0. Created lazily by the engine on
/// its first pipelined batch and reused for every batch after that;
/// dropped (and joined) with the engine.
pub(crate) struct ShardPool {
    /// `jobs[i]` feeds helper `i + 1`.
    jobs: Vec<Sender<Job>>,
    results: Receiver<Response>,
    handles: Vec<JoinHandle<()>>,
    /// Whether a waiting side spins before it parks: only while every
    /// worker can have a core of its own.
    spin: bool,
    /// Set when a job's panic was re-raised on the engine thread: the
    /// aborted batch's remaining responses are still queued in
    /// `results`, so the pool must not be reused — the engine checks
    /// this and respawns a fresh pool (dropping the stale channel) if a
    /// caller caught the panic and keeps going.
    poisoned: std::cell::Cell<bool>,
}

impl ShardPool {
    /// A pool of `workers` workers: the calling thread plus
    /// `workers − 1` spawned helpers.
    pub(crate) fn new(workers: usize) -> Self {
        let spin = std::thread::available_parallelism().is_ok_and(|cores| workers <= cores.get());
        let (result_tx, results) = channel();
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for worker in 1..workers {
            let (tx, rx) = channel();
            let result_tx = result_tx.clone();
            jobs.push(tx);
            handles.push(std::thread::spawn(move || {
                worker_loop(worker, rx, result_tx, spin)
            }));
        }
        ShardPool {
            jobs,
            results,
            handles,
            spin,
            poisoned: std::cell::Cell::new(false),
        }
    }

    /// Whether a job's panic was re-raised from this pool (see the
    /// `poisoned` field).
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned.get()
    }

    /// Number of workers, the engine thread included.
    pub(crate) fn worker_count(&self) -> usize {
        self.jobs.len() + 1
    }

    fn send(&self, worker: usize, job: Job) {
        self.jobs[worker - 1]
            .send(job)
            .expect("pool helpers outlive the engine");
    }

    fn recv(&self) -> Response {
        let response =
            recv_spinning(&self.results, self.spin).expect("pool helpers respond to every job");
        self.checked(response)
    }

    /// Passes a response through unless its job panicked.
    fn checked(&self, response: Response) -> Response {
        if let Payload::Panicked(message) = &response.payload {
            // The other workers' responses for this batch are still in
            // flight; mark the pool unusable before re-raising so an
            // engine whose caller catches the panic respawns instead of
            // consuming stale payloads. (The engine's store is left as
            // the empty placeholder in that case — the batch state is
            // gone either way, but the failure mode is defined.)
            self.poisoned.set(true);
            panic!("shard pool worker {} panicked: {message}", response.worker);
        }
        response
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the job channels ends the helper loops; join so no
        // thread outlives the engine that owns it.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A blocking receive that, when `spin` is set, first polls for up to
/// [`SPIN_BEFORE_PARK`].
fn recv_spinning<T>(channel: &Receiver<T>, spin: bool) -> Result<T, RecvError> {
    if spin {
        let deadline = Instant::now() + SPIN_BEFORE_PARK;
        loop {
            match channel.try_recv() {
                Ok(message) => return Ok(message),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) if Instant::now() < deadline => std::hint::spin_loop(),
                Err(TryRecvError::Empty) => break,
            }
        }
    }
    channel.recv()
}

/// The engine-side driver of one pooled batch: issues the phases' waves
/// and accumulates per-worker telemetry. Every wave goes through
/// [`dispatch`](BatchRun::dispatch) and [`gather`](BatchRun::gather), so
/// the protocol — helpers' jobs out, worker 0's job here, `S` payloads
/// back — lives in one place.
pub(crate) struct BatchRun<'a> {
    pool: &'a ShardPool,
    started: Instant,
    busy: Vec<Duration>,
    /// The response of worker 0's job, which the engine ran itself.
    ready: Option<Response>,
}

impl<'a> BatchRun<'a> {
    /// Starts a batch on `pool`.
    pub(crate) fn new(pool: &'a ShardPool) -> Self {
        BatchRun {
            pool,
            started: Instant::now(),
            busy: vec![Duration::ZERO; pool.worker_count()],
            ready: None,
        }
    }

    /// Starts a wave of one job per worker: the helpers' jobs are sent
    /// first, then the engine runs worker 0's. Finish with
    /// [`gather`](BatchRun::gather).
    fn dispatch(&mut self, jobs: Vec<Job>) {
        debug_assert_eq!(jobs.len(), self.pool.worker_count());
        let mut jobs = jobs.into_iter();
        let own = jobs.next().expect("a pool has at least one worker");
        for (worker, job) in (1..).zip(jobs) {
            self.pool.send(worker, job);
        }
        self.ready = Some(run_job(0, own));
    }

    /// Completes the dispatched wave: every worker's payload, in worker
    /// order. Re-raises a job's panic, the engine's own included.
    fn gather(&mut self) -> Vec<Payload> {
        let pool = self.pool;
        let workers = pool.worker_count();
        let mut payloads: Vec<Option<Payload>> = (0..workers).map(|_| None).collect();
        for response in self
            .ready
            .take()
            .map(|response| pool.checked(response))
            .into_iter()
            .chain((1..workers).map(|_| pool.recv()))
        {
            self.busy[response.worker] += response.busy;
            payloads[response.worker] = Some(response.payload);
        }
        payloads
            .into_iter()
            .map(|payload| payload.expect("one response per worker"))
            .collect()
    }

    /// Phase 1: hands the store and the per-worker raw slices to the
    /// pool and returns one [`WorkerPlan`] per worker, reclaiming sole
    /// ownership of the store.
    pub(crate) fn collect(
        &mut self,
        store: ShardStore,
        work: Vec<Vec<EdgeDelta>>,
    ) -> (ShardStore, Vec<WorkerPlan>) {
        let store = Arc::new(store);
        let jobs = work
            .into_iter()
            .map(|deltas| Job::Collect {
                store: Arc::clone(&store),
                deltas,
            })
            .collect();
        self.dispatch(jobs);
        let plans = self
            .gather()
            .into_iter()
            .map(|payload| match payload {
                Payload::Plan(plan) => plan,
                _ => unreachable!("collect phase only receives plans"),
            })
            .collect();
        (reclaim(store), plans)
    }

    /// Phase 2 start: moves each shard to its owning worker along with
    /// its routed mutations; the engine writes worker 0's shard before
    /// this returns. The caller can then merge removal candidates while
    /// the helpers write; finish with
    /// [`finish_record`](BatchRun::finish_record).
    pub(crate) fn start_record(&mut self, shards: Vec<Arc<Shard>>, routed: Vec<Vec<ShardOp>>) {
        let jobs = shards
            .into_iter()
            .zip(routed)
            .map(|(shard, ops)| Job::Record { shard, ops })
            .collect();
        self.dispatch(jobs);
    }

    /// Phase 2 end: collects the mutated shards back in slot order.
    pub(crate) fn finish_record(&mut self) -> Vec<Arc<Shard>> {
        self.gather()
            .into_iter()
            .map(|payload| match payload {
                Payload::Shard(shard) => shard,
                _ => unreachable!("record phase only receives shards"),
            })
            .collect()
    }

    /// Phase 3: collects the triangles each worker's effective
    /// insertions close on the post-batch store.
    pub(crate) fn insert_collect(
        &mut self,
        store: ShardStore,
        inserts: Vec<Vec<Edge>>,
    ) -> (ShardStore, Vec<Vec<Triangle>>) {
        let store = Arc::new(store);
        let jobs = inserts
            .into_iter()
            .map(|edges| Job::InsertCollect {
                store: Arc::clone(&store),
                edges,
            })
            .collect();
        self.dispatch(jobs);
        let candidates = self
            .gather()
            .into_iter()
            .map(|payload| match payload {
                Payload::Candidates(candidates) => candidates,
                _ => unreachable!("the insert phase only receives candidates"),
            })
            .collect();
        (reclaim(store), candidates)
    }

    /// Ends the batch: per-batch busy shares relative to the apply's
    /// wall time.
    pub(crate) fn finish(self) -> BatchStats {
        let wall = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let workers = self.busy.len().max(1) as f64;
        let max = self
            .busy
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max);
        let total: f64 = self.busy.iter().map(|d| d.as_secs_f64()).sum();
        BatchStats {
            busy_max_share: (max / wall).min(1.0),
            busy_mean_share: (total / (workers * wall)).min(1.0),
        }
    }
}

/// Takes the store back once a read-only wave is gathered.
fn reclaim(store: Arc<ShardStore>) -> ShardStore {
    Arc::try_unwrap(store).expect("jobs drop their store views before responding")
}

/// One pooled batch's imbalance telemetry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchStats {
    pub(crate) busy_max_share: f64,
    pub(crate) busy_mean_share: f64,
}

/// A helper's loop: exits when the engine drops its job sender.
fn worker_loop(worker: usize, jobs: Receiver<Job>, results: Sender<Response>, spin: bool) {
    while let Ok(job) = recv_spinning(&jobs, spin) {
        let response = run_job(worker, job);
        // The buffer is flushed at the job boundary so the engine
        // thread's `drain` sees helper spans without waiting for this
        // long-lived thread to exit.
        congest_obs::trace::flush_thread();
        if results.send(response).is_err() {
            // Engine dropped mid-batch (panic unwinding): just exit.
            return;
        }
    }
}

/// Runs worker `worker`'s job to its response, on whichever thread
/// calls — a helper's loop or the engine itself.
fn run_job(worker: usize, job: Job) -> Response {
    let worker_span = congest_obs::trace::span("pool", "worker");
    let started = Instant::now();
    // A panicking job must still produce a response, or the engine
    // would wait forever on a dead helper; the engine re-raises the
    // panic when it gathers the wave.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_job(job)))
        .unwrap_or_else(|panic| Payload::Panicked(panic_message(&panic)));
    // The store view is dropped inside `process_job` *before* the
    // response exists (by unwinding, in the panic case), so once the
    // engine holds every response, `Arc::try_unwrap` succeeds.
    drop(worker_span);
    Response {
        worker,
        busy: started.elapsed(),
        payload,
    }
}

/// Executes one job to its response payload. Runs under
/// `catch_unwind` in [`run_job`]; dropping the job's store view
/// before returning (or by unwinding) is what keeps the engine's
/// `Arc::try_unwrap` reliable.
fn process_job(job: Job) -> Payload {
    match job {
        Job::Collect { store, deltas } => {
            let (mut plan, removals) = classify_slice(&store, &deltas);
            congest_obs::span!("sharded", "collect");
            collect_candidates(&store, &removals, &mut plan.removed);
            drop(store);
            Payload::Plan(plan)
        }
        Job::Record { mut shard, ops } => {
            congest_obs::span!("sharded", "record");
            if !ops.is_empty() {
                // Always in place: the engine thread swapped every
                // shard with work past whatever view pinned it
                // (`ShardStore::begin_record`). A shard without work may
                // still be pinned and just rides along.
                let target = Arc::get_mut(&mut shard).expect(
                    "the engine makes every shard with work unique before the record phase",
                );
                for op in ops {
                    target.apply_op(op);
                }
            }
            Payload::Shard(shard)
        }
        Job::InsertCollect { store, edges } => {
            congest_obs::span!("sharded", "collect");
            let mut candidates = Vec::new();
            collect_candidates(&store, &edges, &mut candidates);
            drop(store);
            Payload::Candidates(candidates)
        }
    }
}

/// Best-effort text of a caught worker panic, for the engine-side
/// re-raise.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The first part of the collect pass: coalesce the slice and classify
/// the survivors against the pre-batch edge set
/// ([`delta::classify`](crate::delta::classify), here inside the
/// parallel phase), then route the adjacency mutations to their owning
/// shards. Returns the plan (minus removal candidates) and the
/// effective removal edges.
fn classify_slice(store: &ShardStore, deltas: &[EdgeDelta]) -> (WorkerPlan, Vec<Edge>) {
    let spec = store.spec();
    let (noops, effective) = classify("sharded", deltas, |edge| {
        let (u, v) = edge.endpoints();
        store.has_edge(u, v)
    });
    let mut plan = WorkerPlan {
        ops: vec![Vec::new(); spec.shard_count()],
        noops,
        ..WorkerPlan::default()
    };
    let mut removals: Vec<Edge> = Vec::new();
    // Routing books to the classify layer too.
    congest_obs::span!("sharded", "classify");
    for delta in &effective {
        match delta.op {
            DeltaOp::Insert => {
                plan.inserts.push(delta.edge);
                plan.inserts_applied += 1;
            }
            DeltaOp::Remove => {
                removals.push(delta.edge);
                plan.removes_applied += 1;
            }
        }
        let (u, v) = delta.edge.endpoints();
        for (node, other) in [(u, v), (v, u)] {
            let (shard, local) = spec.locate(node);
            plan.ops[shard].push(ShardOp {
                local,
                other,
                op: delta.op,
            });
        }
    }
    (plan, removals)
}

/// The candidate triangles each edge's endpoints close on `store`,
/// appended to `out`. Used for removal candidates on the pre-batch
/// adjacency and insertion candidates on the post-batch one.
fn collect_candidates(store: &ShardStore, edges: &[Edge], out: &mut Vec<Triangle>) {
    for edge in edges {
        let (u, v) = edge.endpoints();
        for_each_common(store.neighbors(u), store.neighbors(v), |w| {
            out.push(Triangle::new(u, v, w));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::NodeId;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A 6-node store on 2 shards with a triangle {0, 1, 2} and the
    /// wing 0–3.
    fn sample_store() -> ShardStore {
        let mut store = ShardStore::new(6, 2);
        store.seed(v(0), &[v(1), v(2), v(3)]);
        store.seed(v(1), &[v(0), v(2)]);
        store.seed(v(2), &[v(0), v(1)]);
        store.seed(v(3), &[v(0)]);
        store
    }

    #[test]
    fn classify_coalesces_and_routes() {
        let store = sample_store();
        let deltas = vec![
            EdgeDelta::insert(v(4), v(5)),
            EdgeDelta::remove(v(4), v(5)), // supersedes the insert
            EdgeDelta::remove(v(0), v(1)), // effective removal
            EdgeDelta::insert(v(0), v(2)), // already present: no-op
            EdgeDelta::insert(v(1), v(3)), // effective insert
        ];
        let (plan, removals) = classify_slice(&store, &deltas);
        assert_eq!(plan.noops, 3); // coalesced flap insert + dead remove + present insert
        assert_eq!(plan.inserts, vec![congest_graph::Edge::new(v(1), v(3))]);
        assert_eq!(plan.inserts_applied, 1);
        assert_eq!(plan.removes_applied, 1);
        assert_eq!(removals, vec![congest_graph::Edge::new(v(0), v(1))]);
        // Both endpoints of both effective deltas got routed ops.
        assert_eq!(plan.ops.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn candidates_come_from_the_shared_intersection_core() {
        let store = sample_store();
        let mut out = Vec::new();
        collect_candidates(&store, &[congest_graph::Edge::new(v(0), v(1))], &mut out);
        assert_eq!(out, vec![Triangle::new(v(0), v(1), v(2))]);
    }

    #[test]
    #[should_panic(expected = "shard pool worker 0 panicked")]
    fn worker_panics_propagate_to_the_engine_thread() {
        let pool = ShardPool::new(2);
        let mut run = BatchRun::new(&pool);
        // An out-of-range local slot makes `Shard::apply_op` panic on
        // worker 0; the engine must re-raise instead of hanging on the
        // lock-step recv.
        let shards = vec![Arc::new(Shard::new(1)), Arc::new(Shard::new(1))];
        let routed = vec![
            vec![ShardOp {
                local: 99,
                other: v(1),
                op: DeltaOp::Insert,
            }],
            Vec::new(),
        ];
        run.start_record(shards, routed);
        let _ = run.finish_record();
    }

    #[test]
    fn a_reraised_panic_poisons_the_pool() {
        let pool = ShardPool::new(2);
        assert!(!pool.poisoned());
        let mut run = BatchRun::new(&pool);
        let shards = vec![Arc::new(Shard::new(1)), Arc::new(Shard::new(1))];
        let routed = vec![
            vec![ShardOp {
                local: 99,
                other: v(1),
                op: DeltaOp::Insert,
            }],
            Vec::new(),
        ];
        run.start_record(shards, routed);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.finish_record()));
        assert!(caught.is_err());
        // A caller that catches the re-raise must not reuse the pool:
        // the engine checks this flag and respawns.
        assert!(pool.poisoned());
    }

    #[test]
    fn a_helper_panic_is_reraised_and_poisons_the_pool() {
        // The twin of the two tests above for a job that crosses
        // threads: worker 1's job runs on the pool's only helper.
        let pool = ShardPool::new(2);
        let mut run = BatchRun::new(&pool);
        let shards = vec![Arc::new(Shard::new(1)), Arc::new(Shard::new(1))];
        let routed = vec![
            Vec::new(),
            vec![ShardOp {
                local: 99,
                other: v(1),
                op: DeltaOp::Insert,
            }],
        ];
        run.start_record(shards, routed);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.finish_record()));
        let message = panic_message(&*caught.expect_err("the helper's panic is re-raised"));
        assert!(
            message.starts_with("shard pool worker 1 panicked"),
            "{message}"
        );
        assert!(pool.poisoned());
    }

    #[test]
    fn the_engine_thread_is_worker_zero() {
        assert_eq!(ShardPool::new(1).handles.len(), 0);
        let pool = ShardPool::new(2);
        assert_eq!(pool.handles.len(), 1);
        assert_eq!(pool.worker_count(), 2);
    }

    #[test]
    fn pool_round_trips_all_three_phases() {
        let pool = ShardPool::new(2);
        let store = sample_store();
        let mut run = BatchRun::new(&pool);

        // Collect: worker 0 removes {0, 1} — {0,1,2} dies — and worker
        // 1 inserts {2, 3}.
        let work = vec![
            vec![EdgeDelta::remove(v(0), v(1))],
            vec![EdgeDelta::insert(v(2), v(3))],
        ];
        let (mut store, plans) = run.collect(store, work);
        assert_eq!(plans[0].removed, vec![Triangle::new(v(0), v(1), v(2))]);
        assert!(plans[1].removed.is_empty());
        assert_eq!(plans[1].inserts.len(), 1);

        // Record: each shard's owner applies the ops routed to it.
        let mut routed: Vec<Vec<ShardOp>> = vec![Vec::new(); 2];
        for plan in &plans {
            for (dest, ops) in plan.ops.iter().enumerate() {
                routed[dest].extend_from_slice(ops);
            }
        }
        run.start_record(store.take_shards(), routed);
        store.restore_shards(run.finish_record());
        assert!(!store.has_edge(v(0), v(1)));
        assert!(store.has_edge(v(2), v(3)));

        // Insert collect: {2, 3} closes {0, 2, 3} on the new adjacency.
        let inserts = vec![Vec::new(), plans[1].inserts.clone()];
        let (store, candidates) = run.insert_collect(store, inserts);
        let born: Vec<Triangle> = candidates.into_iter().flatten().collect();
        assert_eq!(born, vec![Triangle::new(v(0), v(2), v(3))]);
        assert_eq!(store.half_edges(), 2 * 4);

        let stats = run.finish();
        assert!(stats.busy_max_share >= stats.busy_mean_share);
        assert!(stats.busy_max_share <= 1.0);
    }

    #[test]
    fn the_hand_off_floor_counts_raw_deltas_on_the_pre_batch_store() {
        let store = sample_store();
        let flaps = |len: usize| {
            let mut batch = DeltaBatch::new();
            for i in 0..len {
                if i % 2 == 0 {
                    batch.insert(v(4), v(5));
                } else {
                    batch.remove(v(4), v(5));
                }
            }
            batch
        };
        // 1 024 deltas reach the floor on their flat cost alone, whatever
        // the degrees — even an insert-and-remove flap of one edge.
        assert!(worth_handing_off(
            &store,
            &flaps(HANDOFF_WORK_FLOOR / ITEM_WORK)
        ));
        // Both endpoints have degree 0 (intersection cost 1): 896 flaps
        // estimate 896 × 33 = 29 568, under the floor.
        assert!(!worth_handing_off(&store, &flaps(896)));
        assert!(!worth_handing_off(&store, &DeltaBatch::new()));
        // The same 896 deltas on the edge 0–1, whose endpoints have
        // degrees 3 and 2 (cost 5), estimate 896 × 37 = 33 152: degrees
        // count, and they are the pre-batch ones.
        let mut edge = DeltaBatch::new();
        for _ in 0..448 {
            edge.remove(v(0), v(1)).insert(v(0), v(1));
        }
        assert!(worth_handing_off(&store, &edge));
    }
}
