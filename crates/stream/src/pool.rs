//! The persistent shard worker pool behind
//! [`ShardedTriangleIndex`](crate::ShardedTriangleIndex)'s two-phase
//! pipeline.
//!
//! Two costs shape it. On a high-rate stream of small batches the fixed
//! cost of getting work onto other threads dominates the intersection
//! work itself; and the `id mod S` partition lets a single hot hub
//! serialize its owning worker — exactly the heavy-vertex imbalance the
//! paper's Theorem 1/2 load balancing is designed to avoid.
//! [`ShardPool`] answers both:
//!
//! * **Persistence, caller-runs** — the engine thread is worker 0: an
//!   `S`-shard engine owns `S − 1` helper threads, spawned once (lazily,
//!   on the first pipelined batch) and fed work descriptors over the
//!   `crossbeam` shim's channels. In every wave the engine sends the
//!   helpers' jobs first, runs worker 0's job itself, then collects the
//!   `S − 1` responses — so a wave costs `S − 1` wake-ups, not `S` plus
//!   a sleeping engine thread.
//! * **Hand-off only when it pays** — every wave knows its estimated
//!   work in the pool's own currency (endpoint degrees, op counts). A
//!   wave under [`HANDOFF_WORK_FLOOR`] — roughly two wake-ups' worth —
//!   runs all `S` jobs on the engine thread, in worker order, with no
//!   send: the same jobs, so reports, triangle sets and arena state do
//!   not depend on which thread ran a wave. A waiting side (a helper
//!   between jobs, the engine before the last response) spins for at
//!   most [`SPIN_BEFORE_PARK`] before it blocks, and only while the
//!   machine has a core for every worker; an oversubscribed pool parks
//!   at once.
//! * **Work stealing** — candidate collection (the expensive, read-only
//!   part of a batch) is decomposed into stealable task units: when a
//!   worker's slice of effective deltas carries more estimated
//!   intersection work (sum of endpoint degrees) than the split
//!   threshold, the worker *defers* the slice back to the engine, which
//!   chunks every deferred slice onto a shared
//!   [`Injector`](crossbeam::deque::Injector) queue **before**
//!   dispatching a drain wave to all workers. Seeding the queue up
//!   front makes the spreading deterministic — there is no race where
//!   an idle worker checks an empty queue a microsecond before the hub
//!   owner pushes its tasks — so a hot hub's intersections reliably
//!   spread across the whole pool instead of serializing one worker.
//!   (The insert phase needs no extra wave: its work lists are known to
//!   the engine before dispatch, so oversized ones are pre-chunked onto
//!   the queue and the rest ride along in the per-worker jobs.) The
//!   *record* phase steals too: a shard whose routed mutations exceed
//!   the threshold — and would alone pay for a hand-off — has its
//!   per-slot ops resolved into ready-to-seed post-batch neighbour
//!   lists by a pre-seeded prepare wave ([`BatchRun::record_wave`]), so
//!   the owner lands them as wholesale arena slab replacements instead
//!   of applying every op serially. That is the one place the floor
//!   decides *what* runs, not only where: a seeded list takes a fresh
//!   slab where an edited one keeps its own, so arena layout (never the
//!   lists) can differ between an engine under the floor and one forced
//!   past it.
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
//! Every response also carries the job's busy time and steal count,
//! which the engine aggregates into [`WorkerTelemetry`] — the
//! observability surface for hotspot flattening (see the bench docs);
//! worker 0's busy time is the engine thread's. How many waves a batch
//! handed off or kept lands in the registry as `pool.waves_handed_off`
//! and `pool.waves_inline`.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use congest_graph::{Edge, NodeId, Triangle};
use crossbeam::channel::{unbounded, Receiver, RecvError, Sender, TryRecvError};
use crossbeam::deque::{Injector, Steal};

use crate::delta::{DeltaOp, EdgeDelta};
use crate::shard::{intersect_sorted, PreparedSlot, Shard, ShardOp, ShardStore};

/// Default estimated-intersection-work budget (sum of endpoint degrees
/// over a slice) above which a worker's candidate collection is split
/// into stealable injector tasks. Below it the slice is processed
/// locally: chunking and queue traffic would cost more than they spread.
pub(crate) const DEFAULT_SPLIT_THRESHOLD: usize = 2_048;

/// Estimated work (same currency as the split threshold, plus
/// [`ITEM_WORK`] per item) under which a wave is not handed to the
/// helpers: about 100 µs of intersections and list edits, which is what
/// two futex wake-ups cost. Below it the engine thread runs every
/// worker's job itself.
const HANDOFF_WORK_FLOOR: usize = 32_768;

/// What one delta, edge or routed op costs beside its degree-based
/// estimate: classification, routing, one list edit.
const ITEM_WORK: usize = 32;

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
    /// Candidate retired triangles from effective removals whose slice
    /// stayed within the split threshold (collected by the owner).
    pub(crate) removed: Vec<Triangle>,
    /// Effective removals whose candidate collection was deferred to the
    /// steal wave because the slice exceeded the split threshold.
    pub(crate) deferred_removals: Vec<Edge>,
    pub(crate) inserts_applied: usize,
    pub(crate) removes_applied: usize,
    pub(crate) noops: usize,
}

/// Aggregated pool telemetry over every pipelined batch of an
/// engine's lifetime: how evenly the batch work spread across workers
/// and how often the stealing path actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerTelemetry {
    /// Batches that ran the pipeline, and so went through the pool —
    /// whether or not any of their waves left the engine thread.
    /// Batches on the strictly ordered path are not counted: they never
    /// reach the pool.
    pub pooled_batches: usize,
    /// Mean over pooled batches of the busiest worker's busy time as a
    /// share of the batch's apply wall time. A hot hub with no stealing
    /// pushes this toward 1.0 while the mean share stays near `1/S`;
    /// stealing pulls the two together.
    pub busy_max_share_mean: f64,
    /// Mean over pooled batches of the per-worker mean busy share of
    /// the apply wall time (the pool's utilization).
    pub busy_mean_share_mean: f64,
    /// Total intersection task units executed by a worker that did not
    /// own the slice they came from.
    pub steals: u64,
    /// Total record-prepare task units pushed onto the shared queue:
    /// slot groups of an oversized shard's routed mutations whose
    /// post-batch neighbour lists were merged by the whole pool instead
    /// of serializing the owning worker's record pass.
    pub record_split_tasks: u64,
    /// The split threshold in effect after the last pooled batch. Under
    /// the adaptive controller this drifts with observed imbalance;
    /// pinned engines report their fixed value.
    pub split_threshold: usize,
}

/// One stealable unit of candidate-collection work: intersect the
/// endpoint neighbourhoods of `edges` on the shared read-only store.
struct IntersectTask {
    /// Index of the worker whose slice the edges came from (a pop by
    /// any other worker counts as a steal).
    owner: usize,
    edges: Vec<Edge>,
}

/// One stealable unit of record-preparation work: merge each slot
/// group's routed mutations into the slot's pre-batch neighbour list,
/// yielding the post-batch list ready to be seeded wholesale during the
/// record phase.
struct PrepareTask {
    /// The shard the slots belong to — which is also the index of the
    /// worker that would otherwise apply these ops serially (worker `i`
    /// owns shard `i`), so a pop by any other worker counts as a steal.
    owner: usize,
    /// Routed ops sorted by local slot, whole slots only: at most one
    /// op per `(slot, other)` pair survives the upstream coalesce, so a
    /// single merge pass per equal-slot run is exact.
    ops: Vec<ShardOp>,
}

/// A work descriptor for one worker. All payloads are owned, which is
/// what lets the workers be persistent (`'static`) without `unsafe`.
enum Job {
    /// Read-only collect pass over `deltas` (this worker's slice):
    /// classify, then collect removal candidates locally when the slice
    /// is within the split threshold, deferring them otherwise.
    Collect {
        store: Arc<ShardStore>,
        deltas: Vec<EdgeDelta>,
        split_threshold: usize,
    },
    /// Steal wave: pop tasks from the pre-seeded shared queue until it
    /// is empty (the engine pushes every task before sending any of
    /// these, so all workers see the full queue).
    Drain {
        store: Arc<ShardStore>,
        injector: Arc<Injector<IntersectTask>>,
    },
    /// Record-prepare wave: pop slot groups from the pre-seeded shared
    /// queue and merge each group's ops into the slot's pre-batch list
    /// on the shared read-only store (same seeded-before-drain
    /// discipline as the collect steal wave).
    RecordPrepare {
        store: Arc<ShardStore>,
        injector: Arc<Injector<PrepareTask>>,
    },
    /// Apply the routed mutations to this worker's own shard: prepared
    /// post-batch lists land wholesale first, the remaining ops apply
    /// one by one.
    Record {
        shard: Arc<Shard>,
        ops: Vec<ShardOp>,
        prepared: Vec<PreparedSlot>,
    },
    /// Read-only collect of the triangles `local` closes on the
    /// post-batch adjacency, then drain the (pre-seeded) shared queue of
    /// oversized insert slices.
    InsertCollect {
        store: Arc<ShardStore>,
        local: Vec<Edge>,
        injector: Arc<Injector<IntersectTask>>,
    },
}

/// The phase-specific payload of a worker's response.
enum Payload {
    Plan(WorkerPlan),
    Shard(Arc<Shard>),
    Candidates(Vec<Triangle>),
    Prepared(Vec<PreparedSlot>),
    /// The job's processing panicked; the engine re-raises the panic
    /// when it gathers the wave. Without this a dead helper would leave
    /// the engine waiting forever.
    Panicked(String),
}

/// One worker's response to one job, with its telemetry.
struct Response {
    worker: usize,
    busy: Duration,
    steals: u64,
    payload: Payload,
}

/// The persistent worker pool of an `S`-shard engine: `S − 1` long-lived
/// helper threads, one job channel each, one shared response channel
/// back; the engine thread is worker 0. Created lazily by the engine on
/// its first pipelined batch and reused for every batch and flush after
/// that; dropped (and joined) with the engine.
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
        let (result_tx, results) = unbounded();
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for worker in 1..workers {
            let (tx, rx) = unbounded();
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
/// back — and the hand-off decision live in one place.
pub(crate) struct BatchRun<'a> {
    pool: &'a ShardPool,
    split_threshold: usize,
    /// Estimated work from which a wave is handed to the helpers.
    work_floor: usize,
    started: Instant,
    busy: Vec<Duration>,
    steals: u64,
    record_split_tasks: u64,
    /// Responses of the dispatched wave's jobs the engine ran itself.
    ready: Vec<Response>,
    /// Helper responses the dispatched wave still owes.
    in_flight: usize,
    waves_handed_off: u64,
    waves_inline: u64,
}

impl<'a> BatchRun<'a> {
    /// Starts a batch on `pool`.
    pub(crate) fn new(pool: &'a ShardPool, split_threshold: usize) -> Self {
        let workers = pool.worker_count();
        BatchRun {
            pool,
            split_threshold,
            work_floor: HANDOFF_WORK_FLOOR,
            started: Instant::now(),
            busy: vec![Duration::ZERO; workers],
            steals: 0,
            record_split_tasks: 0,
            ready: Vec::new(),
            in_flight: 0,
            waves_handed_off: 0,
            waves_inline: 0,
        }
    }

    /// Hands every wave to the helpers, whatever its work (an engine
    /// whose parallel threshold is 0 asks for the pool on every batch).
    pub(crate) fn force_handoff(mut self) -> Self {
        self.work_floor = 0;
        self
    }

    /// The hand-off currency of a slice of edges: estimated
    /// intersection work plus [`ITEM_WORK`] each. Stops counting at the
    /// floor, so a big wave is recognised after its first few hundred
    /// edges.
    fn edge_work(&self, store: &ShardStore, edges: impl IntoIterator<Item = Edge>) -> usize {
        let mut work = 0usize;
        for edge in edges {
            if work >= self.work_floor {
                break;
            }
            work += store.intersection_cost(edge) + ITEM_WORK;
        }
        work
    }

    /// Starts a wave of one job per worker, `work` being its estimated
    /// total. At or above the floor the helpers' jobs are sent first and
    /// the engine runs worker 0's; below it the engine runs all of them,
    /// in worker order. Finish with [`gather`](BatchRun::gather).
    fn dispatch(&mut self, jobs: Vec<Job>, work: usize) {
        debug_assert_eq!(jobs.len(), self.pool.worker_count());
        let mut jobs = jobs.into_iter().enumerate();
        let own = jobs.next();
        if work >= self.work_floor {
            self.waves_handed_off += 1;
            for (worker, job) in jobs.by_ref() {
                self.pool.send(worker, job);
                self.in_flight += 1;
            }
        } else {
            self.waves_inline += 1;
        }
        self.ready.extend(
            own.into_iter()
                .chain(jobs)
                .map(|(worker, job)| run_job(worker, job)),
        );
    }

    /// Completes the dispatched wave: every worker's payload, in worker
    /// order. Re-raises a job's panic, the engine's own included.
    fn gather(&mut self) -> Vec<Payload> {
        let pool = self.pool;
        let mut payloads: Vec<Option<Payload>> = (0..pool.worker_count()).map(|_| None).collect();
        let in_flight = std::mem::take(&mut self.in_flight);
        for response in self
            .ready
            .drain(..)
            .map(|response| pool.checked(response))
            .chain((0..in_flight).map(|_| pool.recv()))
        {
            self.busy[response.worker] += response.busy;
            self.steals += response.steals;
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
        let estimate = self.edge_work(&store, work.iter().flatten().map(|delta| delta.edge));
        let store = Arc::new(store);
        let jobs = work
            .into_iter()
            .map(|deltas| Job::Collect {
                store: Arc::clone(&store),
                deltas,
                split_threshold: self.split_threshold,
            })
            .collect();
        self.dispatch(jobs, estimate);
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

    /// Phase 1.5, the steal wave (run only when some worker deferred an
    /// oversized slice): chunks every deferred slice into owner-tagged
    /// tasks on a shared queue, *then* dispatches a drain job to every
    /// worker — all tasks are visible before any worker starts, so the
    /// spreading cannot be missed by unlucky timing. Returns the
    /// reclaimed store and the candidates each worker collected.
    pub(crate) fn steal_wave(
        &mut self,
        store: ShardStore,
        deferred: Vec<(usize, Vec<Edge>)>,
    ) -> (ShardStore, Vec<Vec<Triangle>>) {
        let estimate = self.edge_work(
            &store,
            deferred.iter().flat_map(|(_, edges)| edges).copied(),
        );
        let injector = Arc::new(Injector::new());
        for (owner, edges) in deferred {
            push_chunks(&store, edges, self.split_threshold, owner, &injector);
        }
        let store = Arc::new(store);
        let jobs = (0..self.pool.worker_count())
            .map(|_| Job::Drain {
                store: Arc::clone(&store),
                injector: Arc::clone(&injector),
            })
            .collect();
        self.dispatch(jobs, estimate);
        let all = self.gather_candidates("the steal wave");
        (reclaim(store), all)
    }

    /// Phase 1.75, the record-prepare wave (the write-path analogue of
    /// the collect steal wave): before shards move to their owners, a
    /// shard whose routed mutations carry more estimated merge work
    /// (pre-batch degree plus op count, summed over touched slots) than
    /// the split threshold has those mutations resolved into
    /// ready-to-seed post-batch neighbour lists on the shared read-only
    /// store. The slot groups are chunked onto the shared queue *before*
    /// the drain jobs go out — the same deterministic seeded-before-drain
    /// discipline as [`steal_wave`](BatchRun::steal_wave) — so a hot
    /// shard's write preparation spreads across the whole pool instead
    /// of serializing its owner. Shards within the threshold — or whose
    /// merge work would not alone pay for a hand-off: under the floor
    /// there is nobody to spread it to, and one list edit per op beats
    /// one allocated list per slot — keep their ops (applied serially
    /// by the owner). Returns the reclaimed store and each shard's
    /// prepared slots; when no shard qualifies the wave is skipped
    /// entirely (no jobs are dispatched).
    pub(crate) fn record_wave(
        &mut self,
        store: ShardStore,
        routed: &mut [Vec<ShardOp>],
    ) -> (ShardStore, Vec<Vec<PreparedSlot>>) {
        let workers = self.pool.worker_count();
        let spec = store.spec();
        let injector = Arc::new(Injector::new());
        let mut pushed = 0u64;
        let mut estimate = 0usize;
        for (shard, ops) in routed.iter_mut().enumerate() {
            // Billing every op its slot's whole list can only overstate
            // the cost, so a shard that stays within budget even then
            // (the usual small batch) is settled without a sort.
            let keeps = |cost: usize| cost <= self.split_threshold || cost < self.work_floor;
            let slot_degree = |op: &ShardOp| store.degree(spec.node_of(shard, op.local));
            if keeps(ops.iter().map(|op| slot_degree(op) + 1).sum()) {
                continue;
            }
            // Slot order is free (op order across and inside slots is
            // irrelevant) and gives the exact cost, and later the
            // tasks, over equal-slot runs.
            ops.sort_unstable_by_key(|op| op.local);
            let cost: usize = ops
                .chunk_by(|a, b| a.local == b.local)
                .map(|run| slot_degree(&run[0]) + run.len())
                .sum();
            if keeps(cost) {
                continue;
            }
            estimate += cost;
            pushed += push_prepare_chunks(&store, shard, ops, self.split_threshold, &injector);
            ops.clear();
        }
        self.record_split_tasks += pushed;
        let mut all: Vec<Vec<PreparedSlot>> = (0..workers).map(|_| Vec::new()).collect();
        if pushed == 0 {
            return (store, all);
        }
        let store = Arc::new(store);
        let jobs = (0..workers)
            .map(|_| Job::RecordPrepare {
                store: Arc::clone(&store),
                injector: Arc::clone(&injector),
            })
            .collect();
        self.dispatch(jobs, estimate);
        for payload in self.gather() {
            match payload {
                Payload::Prepared(slots) => {
                    // A stolen group's list belongs to the *owner's*
                    // record job, not the preparer's: route by shard.
                    for slot in slots {
                        all[slot.shard].push(slot);
                    }
                }
                _ => unreachable!("the prepare wave only receives prepared slots"),
            }
        }
        (reclaim(store), all)
    }

    /// Phase 2 start: moves each shard to its owning worker along with
    /// its routed mutations and any prepared post-batch lists from the
    /// record-prepare wave; the engine writes worker 0's shard before
    /// this returns. The caller can then merge removal candidates while
    /// the helpers write; finish with
    /// [`finish_record`](BatchRun::finish_record).
    pub(crate) fn start_record(
        &mut self,
        shards: Vec<Arc<Shard>>,
        routed: Vec<Vec<ShardOp>>,
        prepared: Vec<Vec<PreparedSlot>>,
    ) {
        let items: usize = routed.iter().map(Vec::len).sum::<usize>()
            + prepared.iter().map(Vec::len).sum::<usize>();
        let jobs = shards
            .into_iter()
            .zip(routed)
            .zip(prepared)
            .map(|((shard, ops), prepared)| Job::Record {
                shard,
                ops,
                prepared,
            })
            .collect();
        self.dispatch(jobs, items * ITEM_WORK);
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
    /// insertions close on the post-batch store. The engine knows the
    /// work lists (and the post-record degrees) before dispatching, so
    /// oversized lists are pre-chunked onto the shared queue here and
    /// every worker drains it after its local list — deterministic
    /// spreading with no extra round trip.
    pub(crate) fn insert_collect(
        &mut self,
        store: ShardStore,
        inserts: Vec<Vec<Edge>>,
    ) -> (ShardStore, Vec<Vec<Triangle>>) {
        let estimate = self.edge_work(&store, inserts.iter().flatten().copied());
        let injector = Arc::new(Injector::new());
        let locals: Vec<Vec<Edge>> = inserts
            .into_iter()
            .enumerate()
            .map(|(owner, edges)| {
                if slice_cost(&store, &edges) <= self.split_threshold {
                    edges
                } else {
                    push_chunks(&store, edges, self.split_threshold, owner, &injector);
                    Vec::new()
                }
            })
            .collect();
        let store = Arc::new(store);
        let jobs = locals
            .into_iter()
            .map(|local| Job::InsertCollect {
                store: Arc::clone(&store),
                local,
                injector: Arc::clone(&injector),
            })
            .collect();
        self.dispatch(jobs, estimate);
        let all = self.gather_candidates("the insert phase");
        (reclaim(store), all)
    }

    /// Gathers a wave whose every payload is a candidate list.
    fn gather_candidates(&mut self, wave: &str) -> Vec<Vec<Triangle>> {
        self.gather()
            .into_iter()
            .map(|payload| match payload {
                Payload::Candidates(candidates) => candidates,
                _ => unreachable!("{wave} only receives candidates"),
            })
            .collect()
    }

    /// Ends the batch: per-batch busy shares relative to the apply's
    /// wall time, the steal count, and where the waves ran.
    pub(crate) fn finish(self) -> BatchStats {
        let wall = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let workers = self.busy.len().max(1) as f64;
        let max = self
            .busy
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max);
        let total: f64 = self.busy.iter().map(|d| d.as_secs_f64()).sum();
        for (name, waves) in [
            ("pool.waves_handed_off", self.waves_handed_off),
            ("pool.waves_inline", self.waves_inline),
        ] {
            if waves > 0 {
                congest_obs::counter_add(name, waves);
            }
        }
        BatchStats {
            busy_max_share: (max / wall).min(1.0),
            busy_mean_share: (total / (workers * wall)).min(1.0),
            steals: self.steals,
            record_split_tasks: self.record_split_tasks,
            waves_handed_off: self.waves_handed_off,
            waves_inline: self.waves_inline,
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
    pub(crate) steals: u64,
    pub(crate) record_split_tasks: u64,
    /// Waves whose jobs went out to the helpers.
    pub(crate) waves_handed_off: u64,
    /// Waves the engine thread ran alone, under the work floor.
    pub(crate) waves_inline: u64,
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
    let mut steals = 0u64;
    // A panicking job must still produce a response, or the engine
    // would wait forever on a dead helper; the engine re-raises the
    // panic when it gathers the wave.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_job(job, worker, &mut steals)
    }))
    .unwrap_or_else(|panic| Payload::Panicked(panic_message(&panic)));
    // The store view is dropped inside `process_job` *before* the
    // response exists (by unwinding, in the panic case), so once the
    // engine holds every response, `Arc::try_unwrap` succeeds.
    drop(worker_span);
    Response {
        worker,
        busy: started.elapsed(),
        steals,
        payload,
    }
}

/// Executes one job to its response payload. Runs under
/// `catch_unwind` in [`run_job`]; dropping the job's store view
/// before returning (or by unwinding) is what keeps the engine's
/// `Arc::try_unwrap` reliable.
fn process_job(job: Job, worker: usize, steals: &mut u64) -> Payload {
    match job {
        Job::Collect {
            store,
            deltas,
            split_threshold,
        } => {
            let (mut plan, removals) = classify_slice(&store, &deltas);
            if slice_cost(&store, &removals) <= split_threshold {
                congest_obs::span!("sharded", "collect");
                collect_candidates(&store, &removals, &mut plan.removed);
            } else {
                // Too hot to handle alone: the engine will chunk these
                // onto the shared queue and run a drain wave.
                plan.deferred_removals = removals;
            }
            drop(store);
            Payload::Plan(plan)
        }
        Job::Drain { store, injector } => {
            congest_obs::span!("pool", "drain");
            let mut candidates = Vec::new();
            *steals += drain_injector(&store, &injector, worker, &mut candidates);
            drop(store);
            Payload::Candidates(candidates)
        }
        Job::RecordPrepare { store, injector } => {
            congest_obs::span!("sharded", "record_prepare");
            let spec = store.spec();
            let mut prepared = Vec::new();
            loop {
                match injector.steal() {
                    Steal::Success(mut task) => {
                        if task.owner != worker {
                            *steals += 1;
                        }
                        for run in task.ops.chunk_by_mut(|a, b| a.local == b.local) {
                            let local = run[0].local;
                            let base = store.neighbors(spec.node_of(task.owner, local));
                            let list = merge_ops(base, run);
                            prepared.push(PreparedSlot {
                                shard: task.owner,
                                local,
                                list,
                            });
                        }
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
            drop(store);
            Payload::Prepared(prepared)
        }
        Job::Record {
            mut shard,
            ops,
            prepared,
        } => {
            congest_obs::span!("sharded", "record");
            if !(ops.is_empty() && prepared.is_empty()) {
                // Always in place: the engine thread swapped every
                // shard with work past whatever view pinned it
                // (`ShardStore::begin_record`). A shard without work may
                // still be pinned and just rides along.
                let target = Arc::get_mut(&mut shard).expect(
                    "the engine makes every shard with work unique before the record phase",
                );
                // By reference: the lists were allocated by whichever
                // worker prepared them, and freeing one between every
                // two seeds has the workers park on each other's
                // allocator locks (2.5x the phase on 5000-delta
                // batches). They are freed together when the job ends.
                for slot in &prepared {
                    debug_assert_eq!(
                        slot.shard, worker,
                        "prepared slots are routed to their owner"
                    );
                    target.seed(slot.local, &slot.list);
                }
                for op in ops {
                    target.apply_op(op);
                }
            }
            Payload::Shard(shard)
        }
        Job::InsertCollect {
            store,
            local,
            injector,
        } => {
            congest_obs::span!("sharded", "collect");
            let mut candidates = Vec::new();
            collect_candidates(&store, &local, &mut candidates);
            *steals += drain_injector(&store, &injector, worker, &mut candidates);
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

/// Pops injector tasks until the queue is empty, intersecting each
/// task's edges into `out`. Returns how many tasks were *stolen* (popped
/// by a worker that does not own them). The queue is always fully seeded
/// before any drainer starts (the engine pushes every task before
/// dispatching the jobs that drain it), so `Empty` genuinely means done;
/// `Retry` — which the real crossbeam injector returns under contention,
/// though the mutex-backed shim never does — just loops.
fn drain_injector(
    store: &ShardStore,
    injector: &Injector<IntersectTask>,
    worker: usize,
    out: &mut Vec<Triangle>,
) -> u64 {
    let mut steals = 0;
    loop {
        match injector.steal() {
            Steal::Success(task) => {
                if task.owner != worker {
                    steals += 1;
                }
                collect_candidates(store, &task.edges, out);
            }
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    steals
}

/// The owner-only part of the collect pass: coalesce the slice (at most
/// one op per edge survives — only the last op decides presence),
/// classify the survivors against the pre-batch edge set, route
/// adjacency mutations to their owning shards. Returns the plan (minus
/// removal candidates) and the effective removal edges, whose candidate
/// collection is the stealable part.
fn classify_slice(store: &ShardStore, deltas: &[EdgeDelta]) -> (WorkerPlan, Vec<Edge>) {
    let spec = store.spec();
    let mut plan = WorkerPlan {
        ops: vec![Vec::new(); spec.shard_count()],
        ..WorkerPlan::default()
    };
    let mut removals: Vec<Edge> = Vec::new();
    // Worker-local coalesce: sort by (edge, arrival order) and keep the
    // last op of each equal-edge run. Doing this per worker keeps the
    // whole coalescing cost inside the parallel phase.
    let coalesce_span = congest_obs::trace::span("sharded", "coalesce");
    let mut ordered: Vec<(EdgeDelta, usize)> =
        deltas.iter().copied().zip(0..deltas.len()).collect();
    ordered.sort_unstable_by_key(|&(d, i)| (d.edge, i));
    let mut coalesced: Vec<EdgeDelta> = Vec::with_capacity(ordered.len());
    for (delta, _) in ordered {
        match coalesced.last_mut() {
            Some(last) if last.edge == delta.edge => {
                // The earlier op on this edge is superseded: a no-op.
                *last = delta;
                plan.noops += 1;
            }
            _ => coalesced.push(delta),
        }
    }
    drop(coalesce_span);
    congest_obs::span!("sharded", "classify");
    for delta in &coalesced {
        let (u, v) = delta.edge.endpoints();
        let present = store.has_edge(u, v);
        let effective = match delta.op {
            DeltaOp::Insert => !present,
            DeltaOp::Remove => present,
        };
        if !effective {
            plan.noops += 1;
            continue;
        }
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
        for (node, other) in [(u, v), (v, u)] {
            plan.ops[spec.shard_of(node)].push(ShardOp {
                local: spec.local_index(node),
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
        for w in intersect_sorted(store.neighbors(u), store.neighbors(v)) {
            out.push(Triangle::new(u, v, w));
        }
    }
}

/// Total estimated intersection work of a slice: the sum of endpoint
/// degrees over its edges. This is the quantity the split threshold
/// bounds — a slice over it is spread, one within it stays local.
fn slice_cost(store: &ShardStore, edges: &[Edge]) -> usize {
    edges.iter().map(|e| store.intersection_cost(*e)).sum()
}

/// Chunks a slice into owner-tagged tasks of roughly `threshold`
/// estimated work each and pushes them onto the shared queue (a
/// threshold of 0 makes every edge its own task — the property tests use
/// this to force the steal path). Only the engine thread pushes, and
/// always before dispatching the jobs that drain, so workers never race
/// a producer.
fn push_chunks(
    store: &ShardStore,
    edges: Vec<Edge>,
    threshold: usize,
    owner: usize,
    injector: &Injector<IntersectTask>,
) {
    let budget = threshold.max(1);
    let mut chunk: Vec<Edge> = Vec::new();
    let mut cost = 0usize;
    for edge in edges {
        if !chunk.is_empty() && cost >= budget {
            injector.push(IntersectTask {
                owner,
                edges: std::mem::take(&mut chunk),
            });
            cost = 0;
        }
        cost += store.intersection_cost(edge).max(1);
        chunk.push(edge);
    }
    if !chunk.is_empty() {
        injector.push(IntersectTask {
            owner,
            edges: chunk,
        });
    }
}

/// Merges one slot's coalesced ops into its sorted pre-batch neighbour
/// list, producing the sorted post-batch list in a single pass. The
/// classify phase guarantees every op is effective — inserts are absent
/// from the base, removes are present — so the merge never has to
/// resolve a conflict.
fn merge_ops(base: &[NodeId], ops: &mut [ShardOp]) -> Vec<NodeId> {
    ops.sort_unstable_by_key(|op| op.other);
    let mut out = Vec::with_capacity(base.len() + ops.len());
    let mut i = 0usize;
    for op in ops.iter() {
        while i < base.len() && base[i] < op.other {
            out.push(base[i]);
            i += 1;
        }
        let present = i < base.len() && base[i] == op.other;
        match op.op {
            DeltaOp::Insert => {
                debug_assert!(!present, "effective inserts are absent from the base");
                out.push(op.other);
            }
            DeltaOp::Remove => {
                debug_assert!(present, "effective removes are present in the base");
                if present {
                    i += 1;
                }
            }
        }
    }
    out.extend_from_slice(&base[i..]);
    out
}

/// Chunks an oversized shard's routed ops (sorted by slot) into
/// owner-tagged prepare tasks of roughly `threshold` estimated merge
/// work each (pre-batch degree plus op count per slot; a threshold of 0
/// makes every slot its own task — the property tests use this to force
/// the record steal path) and pushes them onto the shared queue. Returns
/// how many tasks were pushed. A slot's ops are never split across
/// tasks: its post-batch list must come from one merge.
fn push_prepare_chunks(
    store: &ShardStore,
    shard: usize,
    ops: &[ShardOp],
    threshold: usize,
    injector: &Injector<PrepareTask>,
) -> u64 {
    let spec = store.spec();
    let budget = threshold.max(1);
    let mut pushed = 0u64;
    let mut chunk: Vec<ShardOp> = Vec::new();
    let mut cost = 0usize;
    for run in ops.chunk_by(|a, b| a.local == b.local) {
        if !chunk.is_empty() && cost >= budget {
            injector.push(PrepareTask {
                owner: shard,
                ops: std::mem::take(&mut chunk),
            });
            pushed += 1;
            cost = 0;
        }
        cost += (store.degree(spec.node_of(shard, run[0].local)) + run.len()).max(1);
        chunk.extend_from_slice(run);
    }
    if !chunk.is_empty() {
        injector.push(PrepareTask {
            owner: shard,
            ops: chunk,
        });
        pushed += 1;
    }
    pushed
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
    fn slice_cost_gates_the_split_and_chunks_respect_the_budget() {
        let store = sample_store();
        let edge = congest_graph::Edge::new(v(0), v(1)); // cost 3 + 2 = 5
        assert_eq!(slice_cost(&store, &[edge]), 5);
        assert_eq!(slice_cost(&store, &[]), 0);
        // Threshold 0 forces a task per edge.
        let injector = Injector::new();
        push_chunks(&store, vec![edge, edge, edge], 0, 0, &injector);
        assert_eq!(injector.len(), 3);
        // Budget 5: two edges of cost 5 land in separate tasks.
        let injector = Injector::new();
        push_chunks(&store, vec![edge, edge], 5, 0, &injector);
        assert_eq!(injector.len(), 2);
        // A roomy budget keeps the slice in one task.
        let injector = Injector::new();
        push_chunks(&store, vec![edge, edge], 100, 0, &injector);
        assert_eq!(injector.len(), 1);
    }

    #[test]
    fn merge_ops_lands_inserts_and_removes_in_one_pass() {
        let base = vec![v(1), v(3), v(5), v(7)];
        let mut ops = vec![
            ShardOp {
                local: 0,
                other: v(5),
                op: DeltaOp::Remove,
            },
            ShardOp {
                local: 0,
                other: v(0),
                op: DeltaOp::Insert,
            },
            ShardOp {
                local: 0,
                other: v(9),
                op: DeltaOp::Insert,
            },
            ShardOp {
                local: 0,
                other: v(4),
                op: DeltaOp::Insert,
            },
        ];
        assert_eq!(
            merge_ops(&base, &mut ops),
            vec![v(0), v(1), v(3), v(4), v(7), v(9)]
        );
        // Degenerate shapes: empty base, remove-to-empty.
        assert_eq!(
            merge_ops(
                &[],
                &mut [ShardOp {
                    local: 0,
                    other: v(2),
                    op: DeltaOp::Insert,
                }]
            ),
            vec![v(2)]
        );
        assert_eq!(
            merge_ops(
                &[v(2)],
                &mut [ShardOp {
                    local: 0,
                    other: v(2),
                    op: DeltaOp::Remove,
                }]
            ),
            Vec::<NodeId>::new()
        );
    }

    #[test]
    fn prepare_chunks_keep_slot_groups_whole() {
        let store = sample_store();
        // Shard 0 owns nodes {0, 2, 4}: locals 0 (deg 3) and 1 (deg 2).
        let op = |local, other, op| ShardOp {
            local,
            other: v(other),
            op,
        };
        let ops = [
            op(0, 3, DeltaOp::Remove),
            op(0, 5, DeltaOp::Insert),
            op(1, 4, DeltaOp::Insert),
        ];
        // Threshold 0: one task per slot, never per op.
        let injector = Injector::new();
        assert_eq!(push_prepare_chunks(&store, 0, &ops, 0, &injector), 2);
        let Steal::Success(first) = injector.steal() else {
            panic!("two tasks were pushed");
        };
        assert_eq!((first.owner, first.ops.len()), (0, 2));
        assert!(first.ops.iter().all(|op| op.local == 0));
        // A roomy budget packs both slots into one task.
        let injector = Injector::new();
        assert_eq!(push_prepare_chunks(&store, 0, &ops, 1_000, &injector), 1);
    }

    #[test]
    fn drained_tasks_count_steals_by_owner() {
        let store = sample_store();
        let injector = Injector::new();
        injector.push(IntersectTask {
            owner: 0,
            edges: vec![congest_graph::Edge::new(v(0), v(1))],
        });
        injector.push(IntersectTask {
            owner: 1,
            edges: vec![congest_graph::Edge::new(v(0), v(2))],
        });
        let mut out = Vec::new();
        let steals = drain_injector(&store, &injector, 0, &mut out);
        assert_eq!(steals, 1); // only the owner-1 task counts
        assert_eq!(out.len(), 2); // both edges close {0,1,2}
        assert!(injector.is_empty());
    }

    #[test]
    #[should_panic(expected = "shard pool worker 0 panicked")]
    fn worker_panics_propagate_to_the_engine_thread() {
        let pool = ShardPool::new(2);
        let mut run = BatchRun::new(&pool, 0);
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
        run.start_record(shards, routed, vec![Vec::new(), Vec::new()]);
        let _ = run.finish_record();
    }

    #[test]
    fn a_reraised_panic_poisons_the_pool() {
        let pool = ShardPool::new(2);
        assert!(!pool.poisoned());
        let mut run = BatchRun::new(&pool, 0);
        let shards = vec![Arc::new(Shard::new(1)), Arc::new(Shard::new(1))];
        let routed = vec![
            vec![ShardOp {
                local: 99,
                other: v(1),
                op: DeltaOp::Insert,
            }],
            Vec::new(),
        ];
        run.start_record(shards, routed, vec![Vec::new(), Vec::new()]);
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
        let mut run = BatchRun::new(&pool, 0).force_handoff();
        let shards = vec![Arc::new(Shard::new(1)), Arc::new(Shard::new(1))];
        let routed = vec![
            Vec::new(),
            vec![ShardOp {
                local: 99,
                other: v(1),
                op: DeltaOp::Insert,
            }],
        ];
        run.start_record(shards, routed, vec![Vec::new(), Vec::new()]);
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
        // Once with every wave handed to the helper, once with every
        // wave kept on this thread (the batch is far under the floor).
        for forced in [true, false] {
            let pool = ShardPool::new(2);
            let store = sample_store();
            let mut run = BatchRun::new(&pool, 0);
            if forced {
                run = run.force_handoff();
            }

            // Collect: worker 0 removes {0, 1}, worker 1 inserts {2, 3}.
            // Split threshold 0 means worker 0 defers its removal to the
            // steal wave instead of intersecting locally.
            let work = vec![
                vec![EdgeDelta::remove(v(0), v(1))],
                vec![EdgeDelta::insert(v(2), v(3))],
            ];
            let (store, mut plans) = run.collect(store, work);
            assert!(plans.iter().all(|p| p.removed.is_empty()));
            assert_eq!(
                plans[0].deferred_removals,
                vec![congest_graph::Edge::new(v(0), v(1))]
            );
            assert_eq!(plans[1].inserts.len(), 1);

            // Steal wave: the deferred hub removal is chunked up front
            // and drained by whichever worker gets there first.
            let deferred = vec![(0, std::mem::take(&mut plans[0].deferred_removals))];
            let (store, waves) = run.steal_wave(store, deferred);
            let dead: Vec<Triangle> = waves.into_iter().flatten().collect();
            assert_eq!(dead, vec![Triangle::new(v(0), v(1), v(2))]); // {0,1,2} dies

            // Record: route the ops and run the prepare wave. Forced,
            // threshold 0 puts every slot group on the queue, so the ops
            // land as prepared wholesale lists; under the floor the
            // shards keep their ops and no wave runs.
            let mut routed: Vec<Vec<ShardOp>> = vec![Vec::new(); 2];
            for plan in &plans {
                for (dest, ops) in plan.ops.iter().enumerate() {
                    routed[dest].extend_from_slice(ops);
                }
            }
            let (mut store, prepared) = run.record_wave(store, &mut routed);
            assert_eq!(routed.iter().all(Vec::is_empty), forced);
            assert_eq!(prepared.iter().any(|p| !p.is_empty()), forced);
            run.start_record(store.take_shards(), routed, prepared);
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
            let waves = if forced { (5, 0) } else { (0, 4) };
            assert_eq!((stats.waves_handed_off, stats.waves_inline), waves);
        }
    }
}
