//! The campaign server: accept loop, job table, drain lifecycle.
//!
//! One thread accepts connections on a local TCP socket and spawns a
//! handler per connection; handlers parse one [`Request`] and reply
//! (a waited-on submit streams [`Response::Progress`] frames until the
//! final [`Response::Report`], which is sent the moment the job
//! settles). Campaign execution happens on the
//! bounded FIFO [`WorkerPool`]; the [`AdmissionController`] decides at
//! submit time whether a job gets a queue slot at all.
//!
//! The server instruments itself with the same
//! [`MetricsRegistry`] the campaigns use — counters for every job
//! transition, peak-concurrency gauges, and dispatch-wait /
//! report-latency histograms — and serves that registry's snapshot in
//! every [`Response::JobList`].

use crate::admission::{AdmissionController, AdmissionSignals};
use crate::pool::WorkerPool;
use crate::proto::{
    read_frame, write_frame, CancelResult, JobState, JobSummary, ProtoError, RejectReason, Request,
    Response,
};
use crate::unpoison;
use psc_core::report::{self, campaign_banner};
use psc_core::session::Campaign;
use psc_core::spec::CampaignSpec;
use psc_telemetry::metrics::{MetricsHub, MetricsRegistry, MetricsSnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default service endpoint — loopback only; the daemon is a local
/// multiplexer, not a network service.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7145";

/// Settled jobs the server keeps, final frame included, for `Status`,
/// `Cancel` and `Watch` re-attach; older ones are evicted. At full load
/// this is a fraction of a second of completions, far longer than a
/// client's reconnect backoff, and it caps the memory that finished
/// reports hold.
pub const FINISHED_KEPT: usize = 64;

/// Metric names for the server's own [`MetricsRegistry`] (the campaign
/// pipeline names live in [`psc_telemetry::metrics::names`]).
pub mod names {
    /// Submissions received (before admission).
    pub const SUBMITTED: &str = "serve.jobs.submitted";
    /// Submissions admitted to the queue.
    pub const ACCEPTED: &str = "serve.jobs.accepted";
    /// Submissions refused (admission, drain, bad spec).
    pub const REJECTED: &str = "serve.jobs.rejected";
    /// Jobs that ran to completion.
    pub const COMPLETED: &str = "serve.jobs.completed";
    /// Jobs cancelled before or during execution.
    pub const CANCELLED: &str = "serve.jobs.cancelled";
    /// Jobs whose worker failed.
    pub const FAILED: &str = "serve.jobs.failed";
    /// Peak concurrently-running jobs.
    pub const PEAK_RUNNING: &str = "serve.peak_running";
    /// Peak pool queue depth.
    pub const PEAK_QUEUE: &str = "serve.peak_queue_depth";
    /// Queue wait per dispatched job, nanoseconds; its p99 feeds
    /// admission.
    pub const DISPATCH_WAIT_NS: &str = "serve.dispatch_wait_ns";
    /// Submit-to-report latency per completed job, nanoseconds.
    pub const REPORT_LATENCY_NS: &str = "serve.report_latency_ns";
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (use port 0 for an ephemeral port in tests).
    pub addr: String,
    /// Worker threads executing campaigns.
    pub workers: usize,
    /// Admission thresholds.
    pub admission: crate::admission::AdmissionConfig,
    /// When set, every job checkpoints to `spool/job-NNN` at its
    /// spec's cadence, so drained or interrupted jobs resume with
    /// `psc resume`.
    pub spool: Option<PathBuf>,
    /// Cadence of [`Response::Progress`] frames to a waiting client
    /// while its job is in flight. It does not delay the final frame:
    /// that is sent as soon as the job settles.
    pub progress_interval: Duration,
    /// How long a connection may take to deliver its complete request
    /// frame. A stalled or half-open client is refused with the typed
    /// [`RejectReason::DeadlineExceeded`] instead of pinning a
    /// connection-handler thread forever.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_owned(),
            workers: 2,
            admission: crate::admission::AdmissionConfig::default(),
            spool: None,
            progress_interval: Duration::from_millis(100),
            read_deadline: Duration::from_secs(10),
        }
    }
}

struct Job {
    tenant: String,
    spec: CampaignSpec,
    state: JobState,
    stop: Arc<AtomicBool>,
    hub: Arc<MetricsHub>,
    accepted_at: Instant,
    /// The encoded terminal frame — [`Response::Report`] or
    /// [`Response::Rejected`] — set exactly when the job settles.
    final_frame: Option<Arc<Vec<u8>>>,
    /// Connections streaming this job that have not yet taken its
    /// final frame; a settled job is evicted only at zero.
    waiters: usize,
}

impl Job {
    fn new(tenant: String, spec: CampaignSpec, waiters: usize) -> Self {
        Self {
            tenant,
            spec,
            state: JobState::Queued,
            stop: Arc::new(AtomicBool::new(false)),
            hub: Arc::new(MetricsHub::new()),
            accepted_at: Instant::now(),
            final_frame: None,
            waiters,
        }
    }
}

#[derive(Default)]
struct JobTable {
    jobs: BTreeMap<u64, Job>,
    /// Settled job ids, oldest first.
    finished: VecDeque<u64>,
    next_id: u64,
}

impl JobTable {
    /// Log `id` as settled, then evict.
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        self.evict();
    }

    /// A waiting connection lets go of `id`: it has taken the final
    /// frame, or its client went away.
    fn detach(&mut self, id: u64) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.waiters -= 1;
        }
        self.evict();
    }

    /// Drop the oldest settled jobs beyond [`FINISHED_KEPT`], skipping
    /// any that a connection still waits on.
    fn evict(&mut self) {
        let mut excess = self.finished.len().saturating_sub(FINISHED_KEPT);
        if excess == 0 {
            return;
        }
        let jobs = &mut self.jobs;
        self.finished.retain(|id| {
            if excess == 0 || jobs.get(id).is_some_and(|job| job.waiters > 0) {
                return true;
            }
            jobs.remove(id);
            excess -= 1;
            false
        });
    }
}

struct Inner {
    cfg: ServerConfig,
    addr: SocketAddr,
    registry: Arc<MetricsRegistry>,
    admission: AdmissionController,
    pool: Mutex<Option<WorkerPool>>,
    table: Mutex<JobTable>,
    /// Signalled under the table lock on every terminal transition.
    settled: Condvar,
    running: AtomicUsize,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

/// A running campaign service. Dropping the handle does **not** stop
/// the daemon — send [`Request::Drain`] (or call [`Server::shutdown`])
/// and then [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr`, spawn the worker pool and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(MetricsRegistry::new());
        let pool = WorkerPool::new(cfg.workers, registry.histogram(names::DISPATCH_WAIT_NS));
        let inner = Arc::new(Inner {
            admission: AdmissionController::new(cfg.admission),
            cfg,
            addr,
            registry,
            pool: Mutex::new(Some(pool)),
            table: Mutex::new(JobTable::default()),
            settled: Condvar::new(),
            running: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("psc-serve-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))?;
        Ok(Self { inner, accept: Some(accept) })
    }

    /// The actually-bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The server's own metrics (job counters, peaks, latencies).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Stop without draining: refuse new connections, stop workers
    /// after their current job. Jobs still queued are abandoned —
    /// prefer [`Request::Drain`] for a graceful stop.
    pub fn shutdown(&self) {
        stop_accepting(&self.inner);
        if let Some(pool) = unpoison(self.inner.pool.lock()).take() {
            pool.join();
        }
    }

    /// Wait for the accept loop to exit (after a drain or
    /// [`Server::shutdown`]).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Inner {
    fn lock_table(&self) -> MutexGuard<'_, JobTable> {
        unpoison(self.table.lock())
    }

    /// Move `job_id` to the terminal `state` with its final `frame`,
    /// retire it into the finished log and wake every connection
    /// waiting on the table.
    fn settle(&self, table: &mut JobTable, job_id: u64, state: JobState, frame: Vec<u8>) {
        let Some(job) = table.jobs.get_mut(&job_id) else { return };
        job.state = state;
        job.final_frame = Some(Arc::new(frame));
        table.retire(job_id);
        self.settled.notify_all();
    }
}

/// The final frame of a cancelled or failed job.
fn refusal(error: impl Into<String>) -> Vec<u8> {
    Response::Rejected { reason: RejectReason::Failed { error: error.into() } }.encode()
}

fn stop_accepting(inner: &Inner) {
    inner.shutdown.store(true, Ordering::Release);
    // Unblock the accept() call with one throwaway connection.
    let _ = TcpStream::connect(inner.addr);
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let conn_inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name("psc-serve-conn".into())
            .spawn(move || handle_connection(&conn_inner, stream));
    }
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    // A stalled or half-open client must not pin this handler thread:
    // the whole request frame has to arrive within the read deadline.
    let _ = stream.set_read_timeout(Some(inner.cfg.read_deadline));
    let request = match read_frame(&mut stream).and_then(|frame| Request::decode(&frame)) {
        Ok(request) => request,
        Err(ProtoError::Timeout) => {
            let deadline_ms = u64::try_from(inner.cfg.read_deadline.as_millis()).unwrap_or(0);
            let reject =
                Response::Rejected { reason: RejectReason::DeadlineExceeded { deadline_ms } };
            let _ = write_frame(&mut stream, &reject.encode());
            return;
        }
        Err(e) => {
            // A malformed frame gets a typed refusal, never a silent
            // hangup; if even that write fails the peer is gone.
            let reject =
                Response::Rejected { reason: RejectReason::BadSpec { error: e.to_string() } };
            let _ = write_frame(&mut stream, &reject.encode());
            return;
        }
    };
    // Past this point the connection only writes (progress/report
    // streaming); the deadline has done its job.
    let _ = stream.set_read_timeout(None);
    match request {
        Request::Submit { tenant, wait, spec } => {
            handle_submit(inner, &mut stream, tenant, wait, &spec)
        }
        Request::Status => handle_status(inner, &mut stream),
        Request::Cancel { job } => handle_cancel(inner, &mut stream, job),
        Request::Drain => handle_drain(inner, &mut stream),
        Request::Watch { job } => handle_watch(inner, &mut stream, job),
    }
}

/// Re-attach a waiting client to a job it already submitted: verify
/// the job is still in the table, then stream progress until the
/// terminal frame — the reconnect half of `psc submit --wait`'s
/// disconnect tolerance.
fn handle_watch(inner: &Inner, stream: &mut TcpStream, job_id: u64) {
    let known = inner.lock_table().jobs.get_mut(&job_id).map(|job| job.waiters += 1).is_some();
    if !known {
        let _ = write_frame(stream, &refusal(format!("no such job: {job_id}")));
        return;
    }
    stream_until_done(inner, stream, job_id);
}

fn reply(stream: &mut TcpStream, response: &Response) -> bool {
    write_frame(stream, &response.encode()).is_ok()
}

fn reject(inner: &Inner, stream: &mut TcpStream, reason: RejectReason) {
    inner.registry.counter(names::REJECTED).inc();
    let _ = reply(stream, &Response::Rejected { reason });
}

/// Live merge of every running job's pipeline metrics.
fn running_pipeline(table: &JobTable) -> MetricsSnapshot {
    table
        .jobs
        .values()
        .filter(|j| matches!(j.state, JobState::Running | JobState::Stopping))
        .map(|j| j.hub.merged())
        .fold(MetricsSnapshot::default(), MetricsSnapshot::merged)
}

fn handle_submit(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    tenant: String,
    wait: bool,
    spec: &str,
) {
    inner.registry.counter(names::SUBMITTED).inc();
    let spec = match CampaignSpec::parse(spec) {
        Ok(spec) => spec,
        Err(error) => return reject(inner, stream, RejectReason::BadSpec { error }),
    };
    if inner.draining.load(Ordering::Acquire) {
        return reject(inner, stream, RejectReason::Draining);
    }
    let queue_depth = unpoison(inner.pool.lock()).as_ref().map_or(0, WorkerPool::queue_depth);
    let running = inner.running.load(Ordering::Acquire);
    let dispatch_p99_ns = inner.registry.histogram(names::DISPATCH_WAIT_NS).percentile(0.99);
    let job_id = {
        let mut table = inner.lock_table();
        let tenant_jobs = table
            .jobs
            .values()
            .filter(|j| {
                j.tenant == tenant
                    && matches!(j.state, JobState::Queued | JobState::Running | JobState::Stopping)
            })
            .count();
        let signals = AdmissionSignals {
            queue_depth,
            idle_workers: inner.cfg.workers.saturating_sub(running),
            tenant_jobs,
            pipeline: &running_pipeline(&table),
            dispatch_p99_ns,
        };
        if let Err(reason) = inner.admission.admit(&tenant, &signals) {
            drop(table);
            return reject(inner, stream, reason);
        }
        let id = table.next_id;
        table.next_id += 1;
        table.jobs.insert(id, Job::new(tenant, spec, usize::from(wait)));
        id
    };
    inner.registry.counter(names::ACCEPTED).inc();
    inner.registry.gauge(names::PEAK_QUEUE).set_max(queue_depth as u64 + 1);
    let worker_inner = Arc::clone(inner);
    let submitted = unpoison(inner.pool.lock())
        .as_ref()
        .is_some_and(|pool| pool.submit(job_id, move || run_job(&worker_inner, job_id)));
    if !submitted {
        // Raced with a drain between admission and enqueue.
        let mut table = inner.lock_table();
        inner.settle(&mut table, job_id, JobState::Cancelled, refusal("rejected by drain"));
        if wait {
            table.detach(job_id);
        }
        drop(table);
        return reject(inner, stream, RejectReason::Draining);
    }
    if wait {
        stream_until_done(inner, stream, job_id);
    } else {
        let _ = reply(stream, &Response::Accepted { job: job_id });
    }
}

/// Answer [`Response::Accepted`] to a connection counted in the job's
/// `waiters`, stream [`Response::Progress`] frames while the job is in
/// flight, and send the final frame the moment it settles.
fn stream_until_done(inner: &Inner, stream: &mut TcpStream, job_id: u64) {
    if !reply(stream, &Response::Accepted { job: job_id }) {
        inner.lock_table().detach(job_id);
        return;
    }
    let interval = inner.cfg.progress_interval;
    let mut due = Instant::now() + interval;
    let last = 'stream: loop {
        let metrics = {
            let mut table = inner.lock_table();
            loop {
                let Some(job) = table.jobs.get(&job_id) else { return };
                if let Some(frame) = job.final_frame.clone() {
                    table.detach(job_id);
                    break 'stream frame;
                }
                let now = Instant::now();
                if now >= due {
                    break job.hub.merged();
                }
                table = unpoison(inner.settled.wait_timeout(table, due - now)).0;
            }
        };
        if !reply(stream, &Response::Progress { job: job_id, metrics }) {
            // The client went away; the job keeps running.
            inner.lock_table().detach(job_id);
            return;
        }
        due = Instant::now() + interval;
    };
    let _ = write_frame(stream, &last);
}

/// Execute one admitted job on a pool worker.
fn run_job(inner: &Arc<Inner>, job_id: u64) {
    let (spec, stop, hub, accepted_at) = {
        let mut table = inner.lock_table();
        let Some(job) = table.jobs.get_mut(&job_id) else { return };
        if job.state != JobState::Queued {
            return; // cancelled while queued
        }
        job.state = JobState::Running;
        let running = inner.running.fetch_add(1, Ordering::AcqRel) + 1;
        inner.registry.gauge(names::PEAK_RUNNING).set_max(running as u64);
        (job.spec.clone(), Arc::clone(&job.stop), Arc::clone(&job.hub), job.accepted_at)
    };
    let run_spec = spec.clone();
    let spool = inner.cfg.spool.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut campaign = Campaign::from_spec(&run_spec).stop_flag(stop).metrics_hub(hub);
        if let Some(spool) = spool {
            campaign =
                campaign.checkpoint_to(spool.join(format!("job-{job_id:03}")), run_spec.every);
        }
        report::run_session(campaign.session(), &run_spec)
    }));
    inner.running.fetch_sub(1, Ordering::AcqRel);
    // Encode the report before taking the lock: waiters only copy the
    // shared frame out.
    let report = outcome.map(|out| {
        Response::Report {
            job: job_id,
            mode: out.mode,
            stopped_early: out.stopped_early,
            rounds: out.rounds,
            text: campaign_banner(&spec) + &out.body,
            analysis: out.analysis,
        }
        .encode()
    });
    // Counters move before the lock is released, so a woken waiter's
    // client never sees its report ahead of the server's metrics.
    let mut table = inner.lock_table();
    let Some(job) = table.jobs.get(&job_id) else { return };
    match report {
        Ok(_) if job.state == JobState::Stopping => {
            inner.settle(
                &mut table,
                job_id,
                JobState::Cancelled,
                refusal("cancelled while running"),
            );
            inner.registry.counter(names::CANCELLED).inc();
        }
        Ok(frame) => {
            inner.settle(&mut table, job_id, JobState::Completed, frame);
            inner.registry.counter(names::COMPLETED).inc();
            let latency = u64::try_from(accepted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.registry.histogram(names::REPORT_LATENCY_NS).record(latency);
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            inner.settle(&mut table, job_id, JobState::Failed, refusal(message));
            inner.registry.counter(names::FAILED).inc();
        }
    }
}

fn handle_status(inner: &Inner, stream: &mut TcpStream) {
    let jobs = {
        inner
            .lock_table()
            .jobs
            .iter()
            .map(|(&id, job)| JobSummary {
                id,
                tenant: job.tenant.clone(),
                mode: job.spec.mode,
                state: job.state,
            })
            .collect()
    };
    let _ = reply(stream, &Response::JobList { jobs, server: inner.registry.snapshot() });
}

fn handle_cancel(inner: &Inner, stream: &mut TcpStream, job_id: u64) {
    let outcome = {
        let mut table = inner.lock_table();
        let outcome = match table.jobs.get_mut(&job_id) {
            None => CancelResult::NotFound,
            Some(job) => match job.state {
                JobState::Queued => CancelResult::Cancelled,
                JobState::Running | JobState::Stopping => {
                    job.state = JobState::Stopping;
                    job.stop.store(true, Ordering::Release);
                    CancelResult::Stopping
                }
                JobState::Completed | JobState::Cancelled | JobState::Failed => {
                    CancelResult::AlreadyDone
                }
            },
        };
        if outcome == CancelResult::Cancelled {
            // The pool will skip it: run_job refuses non-Queued jobs.
            let frame = refusal("cancelled while queued");
            inner.settle(&mut table, job_id, JobState::Cancelled, frame);
            inner.registry.counter(names::CANCELLED).inc();
        }
        outcome
    };
    let _ = reply(stream, &Response::CancelOutcome { job: job_id, outcome });
}

fn handle_drain(inner: &Arc<Inner>, stream: &mut TcpStream) {
    let first = !inner.draining.swap(true, Ordering::AcqRel);
    let mut rejected = 0u64;
    if first {
        // Reject everything still queued; stop what is running at its
        // next block boundary (it has been checkpointing all along if
        // a spool is configured).
        let queued = unpoison(inner.pool.lock()).as_ref().map_or_else(Vec::new, |p| {
            p.shutdown();
            p.take_queued()
        });
        let mut table = inner.lock_table();
        for pending in queued {
            if table.jobs.get(&pending.id).is_some_and(|job| job.state == JobState::Queued) {
                let frame = refusal("rejected by drain");
                inner.settle(&mut table, pending.id, JobState::Cancelled, frame);
                inner.registry.counter(names::REJECTED).inc();
                rejected += 1;
            }
        }
        for job in table.jobs.values() {
            if matches!(job.state, JobState::Running | JobState::Stopping) {
                job.stop.store(true, Ordering::Release);
            }
        }
    }
    // Wait until nothing is in flight any more; every settle wakes us.
    let mut table = inner.lock_table();
    while table
        .jobs
        .values()
        .any(|j| matches!(j.state, JobState::Queued | JobState::Running | JobState::Stopping))
    {
        table = unpoison(inner.settled.wait(table));
    }
    drop(table);
    if first {
        if let Some(pool) = unpoison(inner.pool.lock()).take() {
            pool.join();
        }
    }
    let completed = inner.registry.counter(names::COMPLETED).get();
    let _ = reply(stream, &Response::Drained { completed, rejected });
    stop_accepting(inner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use psc_core::spec::AnalysisMode;
    use psc_core::{Device, ExperimentConfig};

    fn small_spec() -> CampaignSpec {
        let mut spec =
            CampaignSpec::new(AnalysisMode::Tvla, Device::MacMiniM1, &ExperimentConfig::default());
        spec.traces = 10;
        spec.shards = 1;
        spec
    }

    #[test]
    fn eviction_skips_a_job_a_connection_still_waits_on() {
        let mut table = JobTable::default();
        let kept = FINISHED_KEPT as u64;
        // Job 0 has a waiter that has not taken its final frame.
        for id in 0..=kept + 1 {
            table.jobs.insert(id, Job::new("t".into(), small_spec(), usize::from(id == 0)));
            table.retire(id);
        }
        assert!(table.jobs.contains_key(&0), "a waited-on job was evicted");
        assert!(!table.jobs.contains_key(&1) && !table.jobs.contains_key(&2));
        assert_eq!(table.jobs.len(), FINISHED_KEPT);
        // Once released it ages out like any other settled job.
        table.detach(0);
        table.jobs.insert(kept + 2, Job::new("t".into(), small_spec(), 0));
        table.retire(kept + 2);
        assert!(!table.jobs.contains_key(&0));
        assert_eq!(table.jobs.len(), FINISHED_KEPT);
    }

    #[test]
    fn status_and_submit_answer_after_a_panic_under_the_table_lock() {
        let server =
            Server::start(ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() })
                .expect("bind an ephemeral port");
        let inner = Arc::clone(&server.inner);
        let poisoner = std::thread::spawn(move || {
            let _table = inner.table.lock();
            panic!("deliberate panic while holding the job table");
        });
        assert!(poisoner.join().is_err());
        assert!(server.inner.table.is_poisoned());

        let addr = server.addr();
        let status = Client::connect(addr).expect("connect").status().expect("status");
        assert!(matches!(status, Response::JobList { .. }), "got {status:?}");
        let report = crate::client::submit_and_wait(addr, "t", &small_spec().render())
            .expect("submit and wait");
        assert!(matches!(report, Response::Report { .. }), "got {report:?}");

        let drained = Client::connect(addr).expect("connect").drain().expect("drain");
        assert!(matches!(drained, Response::Drained { completed: 1, .. }), "got {drained:?}");
        server.join();
    }
}
