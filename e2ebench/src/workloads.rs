//! The three workloads: set-up (with reference reports), the timed
//! phase, and the traced run that fills the per-layer ledger.

use crate::inputs::{self, KEY_CHANNEL};
use crate::ledger;
use crate::measure::{self, time, Metric, Tally, SETUP_REPS};
use crate::pipeline::{PipelineTally, TimedSource};
use crate::replica;
use crate::stats::median;
use crate::validate::{self, Failure};
use psc_core::report::{self, CampaignOutcome};
use psc_core::source::{LiveRig, TraceSource};
use psc_core::spec::{AnalysisMode, CampaignSpec, MitigationSetting};
use psc_core::{Campaign, ShardReplay};
use psc_serve::proto::{read_frame, write_frame};
use psc_serve::{Client, Request, Response, Server, ServerConfig};
use psc_telemetry::metrics::names;
use psc_telemetry::{ChannelId, Processor, StreamingCpa};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline attack, live.
    CpaLive,
    /// The same attack replayed from its recording.
    CpaReplay,
    /// Small mixed jobs through an in-process server.
    ServeSmallMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CpaLive, Workload::CpaReplay, Workload::ServeSmallMixed];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpaLive => "cpa_live",
            Workload::CpaReplay => "cpa_replay",
            Workload::ServeSmallMixed => "serve_small_mixed",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Lines for the human report only.
    pub notes: Vec<String>,
}

/// Run parameters shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Scratch directory for recordings, inside the checkout.
    pub work_dir: PathBuf,
}

/// Run `workload`: the timed phase for `trace == false`, the traced
/// per-layer run otherwise.
///
/// # Errors
///
/// A message when the run cannot produce its metrics at all (no server
/// socket, no completed operation); validation failures are counted in
/// the tally instead.
pub fn run(workload: Workload, ctx: &Ctx, trace: bool) -> Result<RunReport, String> {
    match workload {
        Workload::CpaLive => cpa_live(ctx, trace),
        Workload::CpaReplay => cpa_replay(ctx, trace),
        Workload::ServeSmallMixed => serve_small_mixed(ctx, trace),
    }
}

/// The end-to-end report of a timed phase. A phase too thin for its
/// metrics reports none, with the reason as a note.
fn finish(timed: &measure::Timed, setup: &[f64], tally: Tally) -> RunReport {
    let reps: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    let reps = format!("set-up repetitions: {} s", reps.join(", "));
    match measure::end_to_end(timed, setup) {
        Ok((metrics, mut notes)) => {
            notes.push(reps);
            RunReport { metrics, tally, notes }
        }
        Err(e) => RunReport { metrics: Vec::new(), tally, notes: vec![e, reps] },
    }
}

// ---------------------------------------------------------------- CPA

/// The first accepted report of a spec, against which later runs of the
/// same spec are compared byte for byte.
#[derive(Debug, Clone)]
struct Reference {
    body: String,
    analysis: Vec<u8>,
}

/// Validate a live CPA outcome: clean accounting, all PHPC key bytes
/// recovered, and byte-identity with the first accepted run (which this
/// call records when there is none yet).
fn accept_live(out: &CampaignOutcome, reference: &mut Option<Reference>) -> Result<(), Failure> {
    validate::check_clean(&out.body)?;
    validate::check_recovered(&out.body, KEY_CHANNEL)?;
    match reference {
        None => {
            *reference = Some(Reference { body: out.body.clone(), analysis: out.analysis.clone() });
            Ok(())
        }
        Some(r) => {
            validate::check_identical("report body", out.body.as_bytes(), r.body.as_bytes())?;
            validate::check_identical("analysis state", &out.analysis, &r.analysis)
        }
    }
}

/// A replayed outcome must match the live run that recorded it: the
/// same analysis lines and the same encoded analysis state.
fn accept_replay(out: &CampaignOutcome, live: &Reference) -> Result<(), Failure> {
    validate::check_clean(&out.body)?;
    validate::check_identical(
        "analysis lines",
        validate::analysis_lines(&out.body).as_bytes(),
        validate::analysis_lines(&live.body).as_bytes(),
    )?;
    validate::check_identical("analysis state", &out.analysis, &live.analysis)
}

fn replay_source(dir: &Path) -> Result<ShardReplay, Failure> {
    ShardReplay::from_dir(dir).map_err(|e| Failure::Io(e.to_string()))
}

fn replay_op(spec: &CampaignSpec, dir: &Path, live: &Reference) -> Result<u64, Failure> {
    let session =
        Campaign::replay(replay_source(dir)?).keys(&spec.keys()).tune(spec.tune).session();
    let out = report::run_session(session, spec);
    accept_replay(&out, live)?;
    Ok(inputs::observations(spec))
}

/// Record `spec` into a fresh `dir`. Returns the outcome, the wall
/// seconds and the recording's bytes per trace.
fn record(spec: &CampaignSpec, dir: &Path) -> Result<(CampaignOutcome, f64, f64), Failure> {
    let io = |e: std::io::Error| Failure::Io(e.to_string());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut recording = spec.clone();
    recording.record = Some(dir.to_string_lossy().into_owned());
    let (out, secs) = time(|| report::run_spec(&recording));
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(io)? {
        bytes += entry.map_err(io)?.metadata().map_err(io)?.len();
    }
    Ok((out, secs, bytes as f64 / spec.traces as f64))
}

fn live_setup(spec: &CampaignSpec, tally: &mut Tally) -> (Option<Reference>, Vec<f64>) {
    let mut reference = None;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (out, secs) = time(|| report::run_spec(spec));
        tally.record(accept_live(&out, &mut reference));
        setup.push(secs);
    }
    (reference, setup)
}

fn cpa_live(ctx: &Ctx, trace: bool) -> Result<RunReport, String> {
    let spec = inputs::live_spec(ctx.seed);
    let mut tally = Tally::default();
    let (mut reference, setup) = live_setup(&spec, &mut tally);
    if trace {
        let live = reference.ok_or("no accepted live campaign to trace against")?;
        let mut metrics = substrate(&spec, ctx.seconds * 0.3, &mut tally);
        let runs = pipeline_reps(ctx.seconds * 0.3, || traced_live(&spec), &live, &mut tally);
        metrics.extend(pipeline_metrics(&runs));
        let (_, record_s, bytes) =
            record(&spec, &ctx.work_dir.join("record")).map_err(|e| e.to_string())?;
        metrics.extend(codec_metrics(record_s, bytes));
        metrics.extend(fixed_cost_metrics(&spec, &live, &runs)?);
        metrics.extend(serve_probe(ctx.seed, &mut tally)?);
        return Ok(RunReport { metrics, tally, notes: Vec::new() });
    }
    let timed = measure::timed_sequential(ctx.seconds, &mut tally, || {
        accept_live(&report::run_spec(&spec), &mut reference)?;
        Ok(inputs::observations(&spec))
    });
    Ok(finish(&timed, &setup, tally))
}

fn cpa_replay(ctx: &Ctx, trace: bool) -> Result<RunReport, String> {
    let spec = inputs::live_spec(ctx.seed);
    let dir = ctx.work_dir.join("record");
    let mut tally = Tally::default();
    let mut reference = None;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut bytes_per_trace = 0.0;
    for _ in 0..SETUP_REPS {
        let recorded = record(&spec, &dir).and_then(|(out, secs, bytes)| {
            accept_live(&out, &mut reference)?;
            Ok((secs, bytes))
        });
        if let Some((secs, bytes)) = tally.record(recorded) {
            setup.push(secs);
            bytes_per_trace = bytes;
        }
    }
    let live = reference.ok_or("no accepted recording to replay")?;
    if trace {
        let mut metrics = substrate(&spec, ctx.seconds * 0.3, &mut tally);
        let runs =
            pipeline_reps(ctx.seconds * 0.3, || traced_replay(&spec, &dir), &live, &mut tally);
        metrics.extend(pipeline_metrics(&runs));
        metrics.extend(codec_metrics(median(&setup), bytes_per_trace));
        metrics.extend(fixed_cost_metrics(&spec, &live, &runs)?);
        metrics.extend(serve_probe(ctx.seed, &mut tally)?);
        return Ok(RunReport { metrics, tally, notes: Vec::new() });
    }
    let timed =
        measure::timed_sequential(ctx.seconds, &mut tally, || replay_op(&spec, &dir, &live));
    Ok(finish(&timed, &setup, tally))
}

// -------------------------------------------------------------- serve

/// Closed-loop clients driving the server.
const CLIENTS: usize = 2;

/// Worker threads of the in-process server.
const SERVER_WORKERS: usize = 2;

/// The small-job pool with its inline references.
struct Pool {
    specs: Vec<CampaignSpec>,
    texts: Vec<String>,
    /// Inline `campaign_banner + run_spec` text per job.
    refs: Vec<String>,
    /// Inline `run_spec` wall seconds per job.
    inline_s: Vec<f64>,
}

impl Pool {
    fn new(seed: u64) -> Self {
        let specs: Vec<_> = (0..inputs::JOB_POOL).map(|i| inputs::job_spec(seed, i)).collect();
        let texts = specs.iter().map(CampaignSpec::render).collect();
        Self { specs, texts, refs: Vec::new(), inline_s: Vec::new() }
    }

    /// Compute the inline reference of every job. On a repeat, each
    /// reference must equal the first computation's.
    fn compute_refs(&mut self, tally: &mut Tally) {
        let first = self.refs.is_empty();
        for (i, spec) in self.specs.iter().enumerate() {
            let (out, secs) = time(|| report::run_spec(spec));
            let text = report::campaign_banner(spec) + &out.body;
            let checked = validate::check_clean(&out.body).and_then(|_| match first {
                true => Ok(()),
                false => validate::check_identical(
                    "inline report",
                    text.as_bytes(),
                    self.refs[i].as_bytes(),
                ),
            });
            tally.record(checked);
            if first {
                self.refs.push(text);
                self.inline_s.push(secs);
            } else {
                self.inline_s[i] = self.inline_s[i].min(secs);
            }
        }
    }
}

fn start_server() -> Result<Server, String> {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    Server::start(cfg).map_err(|e| format!("cannot start the server: {e}"))
}

fn stop_server(server: Server) {
    server.shutdown();
    server.join();
}

/// One served job, client side.
#[derive(Debug, Clone, Copy)]
struct JobSample {
    index: usize,
    /// Submit sent to Accepted received.
    accept_s: f64,
    /// Submit sent to Report received.
    latency_s: f64,
}

/// Submit `spec` with `--wait` and check the report against `reference`.
fn serve_job(
    addr: SocketAddr,
    tenant: &str,
    spec: &str,
    reference: &str,
) -> Result<(f64, f64), Failure> {
    let proto = |e: psc_serve::ProtoError| Failure::Protocol(e.to_string());
    let mut client = Client::connect(addr).map_err(proto)?;
    let t0 = Instant::now();
    match client.submit(tenant, spec, true).map_err(proto)? {
        Response::Accepted { .. } => {}
        Response::Rejected { reason } => return Err(Failure::Rejected(reason.to_string())),
        other => return Err(Failure::Protocol(format!("answer to submit: {other:?}"))),
    }
    let accept_s = t0.elapsed().as_secs_f64();
    let text = match client.wait_for_report(|_| {}).map_err(proto)? {
        Response::Report { text, .. } => text,
        Response::Rejected { reason } => return Err(Failure::Rejected(reason.to_string())),
        other => return Err(Failure::Protocol(format!("answer to wait: {other:?}"))),
    };
    let latency_s = t0.elapsed().as_secs_f64();
    validate::check_clean(&text)?;
    validate::check_identical("served report", text.as_bytes(), reference.as_bytes())?;
    Ok((accept_s, latency_s))
}

/// [`CLIENTS`] closed-loop clients, each submitting the pool's next job
/// as soon as its previous one reported, until `seconds` have passed.
fn drive_clients(
    addr: SocketAddr,
    pool: &Pool,
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<JobSample>, f64) {
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client: Vec<(Tally, Vec<JobSample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let tenant = format!("client-{c}");
                    let mut tally = Tally::default();
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed) % pool.specs.len();
                        let result =
                            serve_job(addr, &tenant, &pool.texts[index], &pool.refs[index]);
                        if let Some((accept_s, latency_s)) = tally.record(result) {
                            samples.push(JobSample { index, accept_s, latency_s });
                        }
                    }
                    (tally, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (t, s) in per_client {
        tally.absorb(t);
        samples.extend(s);
    }
    (samples, elapsed)
}

fn serve_small_mixed(ctx: &Ctx, trace: bool) -> Result<RunReport, String> {
    let mut tally = Tally::default();
    let mut pool = Pool::new(ctx.seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let started = start_server()?;
        pool.compute_refs(&mut tally);
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            stop_server(started);
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("SETUP_REPS is positive");
    let addr = server.addr();
    if trace {
        let (samples, _) = drive_clients(addr, &pool, ctx.seconds * 0.3, &mut tally);
        stop_server(server);
        return Ok(RunReport {
            metrics: serve_traced(ctx, &pool, &samples, &mut tally)?,
            tally,
            notes: Vec::new(),
        });
    }
    let cpu0 = crate::sys::cpu_time();
    let (samples, elapsed_s) = drive_clients(addr, &pool, ctx.seconds, &mut tally);
    let cpu_s = (crate::sys::cpu_time() - cpu0).as_secs_f64();
    stop_server(server);
    let timed = measure::Timed {
        ops: samples
            .iter()
            .map(|s| measure::OpSample {
                latency_s: s.latency_s,
                observations: inputs::observations(&pool.specs[s.index]),
            })
            .collect(),
        elapsed_s,
        cpu_s,
    };
    Ok(finish(&timed, &setup, tally))
}

// ------------------------------------------------------------- traced

/// Replica observations compared bit for bit before any timing.
const CHECK_OBS: usize = 1024;

/// Observations per timed replica pass.
const PASS_OBS: usize = 2048;

/// Replica passes run at least this many times each ...
const MIN_REPS: usize = 5;

/// ... and traced campaigns at least this many times.
const MIN_PIPELINE_REPS: usize = 3;

/// Substrate layers from the replica of shard 0 of `spec`, alternating
/// untraced and traced passes for `seconds` (at least [`MIN_REPS`]
/// each). A replica that is not bit-identical fails the run.
fn substrate(spec: &CampaignSpec, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let keys = spec.keys();
    let chunk = spec.tune.obs_chunk;
    let mut untraced_prints = Vec::new();
    let mut traced_prints = Vec::new();
    replica::untraced(
        &mut replica::shard0_rig(spec),
        &keys,
        chunk,
        CHECK_OBS,
        Some(&mut untraced_prints),
    );
    replica::traced(
        &mut replica::shard0_rig(spec),
        &keys,
        chunk,
        CHECK_OBS,
        Some(&mut traced_prints),
    );
    let offset = untraced_prints.iter().zip(&traced_prints).position(|(a, b)| a != b);
    tally.record(match offset {
        None if untraced_prints.len() == traced_prints.len() => Ok(()),
        _ => Err(Failure::Mismatch {
            what: "replica observation",
            offset: offset.unwrap_or(untraced_prints.len().min(traced_prints.len())),
        }),
    });
    let mut untraced = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        untraced.push(replica::untraced(
            &mut replica::shard0_rig(spec),
            &keys,
            chunk,
            PASS_OBS,
            None,
        ));
        passes.push(replica::traced(&mut replica::shard0_rig(spec), &keys, chunk, PASS_OBS, None));
    }
    let med =
        |f: &dyn Fn(&replica::TracedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let layer_ns: Vec<f64> = (0..replica::LAYERS.len()).map(|i| med(&|p| p.layer_ns[i])).collect();
    let total_ns = med(&|p| p.total_ns);
    let untraced_ns = median(&untraced);
    let closure = ledger::closure_ratio(&layer_ns, med(&|p| p.total_ns - p.timer_ns));
    tally.record(if ledger::closes(closure) {
        Ok(())
    } else {
        Err(Failure::LedgerOpen(format!(
            "closure ratio {closure:.4} is outside 1 +/- {}",
            ledger::CLOSURE_TOLERANCE
        )))
    });
    let mut metrics: Vec<Metric> = replica::LAYERS
        .iter()
        .zip(&layer_ns)
        .map(|(&name, &ns)| Metric::new(name, ns, "ns"))
        .collect();
    metrics.extend([
        Metric::new("soc.windows_per_obs", med(&|p| p.windows_per_obs), "count"),
        Metric::new("smc.reads_per_obs", med(&|p| p.reads_per_obs), "count"),
        Metric::new("rig.observe_ns", untraced_ns, "ns"),
        Metric::new("trace.closure_ratio", closure, "ratio"),
        Metric::new("trace.overhead_pct", ledger::overhead_pct(total_ns, untraced_ns), "%"),
    ]);
    metrics
}

/// One traced campaign: the wrapped source's tally, the bus counters,
/// and the session's fixed costs.
#[derive(Debug)]
struct PipelineRun {
    spec: CampaignSpec,
    tally: PipelineTally,
    body: String,
    analysis: Vec<u8>,
    high_water: u64,
    recycle_hits: u64,
    recycle_attempts: u64,
    /// Campaign call to the first `run_shard` entry.
    start_s: f64,
    /// Last sink return to the rendered report.
    tail_s: f64,
    /// Rank finalisation of every CPA channel, timed on its own (`None`
    /// for TVLA).
    finalize_s: Option<f64>,
    /// The report renderer, whose CPA form finalises ranks itself.
    render_s: f64,
}

impl PipelineRun {
    fn observations(&self) -> u64 {
        inputs::observations(&self.spec)
    }
}

/// Run a campaign over `source` wrapped in a [`TimedSource`], built by
/// `build` and run as `spec.mode` says, with metrics on.
fn traced_campaign<S: TraceSource + 'static>(
    source: S,
    spec: &CampaignSpec,
    build: impl FnOnce(Campaign<'static>) -> Campaign<'static>,
) -> PipelineRun {
    let timed = TimedSource::new(source);
    let handle = timed.tally();
    let called = Instant::now();
    let session = build(Campaign::from_source(timed)).metrics().session();
    let mut w = psc_sca::checkpoint::PayloadWriter::new();
    let (body, metrics, returned, render_s, finalize_s) = match spec.mode {
        AnalysisMode::Cpa => {
            let report = session.cpa(report::cpa_model);
            let returned = Instant::now();
            let (body, render_s) = time(|| report::render_cpa_body(&report, &spec.key));
            report.cpa.encode_state(&mut w);
            let (_, finalize_s) = time(|| {
                for &k in &report.keys {
                    std::hint::black_box(report.ranks(k, &spec.key));
                }
            });
            (body, report.metrics, returned, render_s, Some(finalize_s))
        }
        AnalysisMode::Tvla | AnalysisMode::Adaptive => {
            let report = session.tvla();
            let returned = Instant::now();
            let (body, render_s) = time(|| report::render_tvla_body(&report));
            report.tvla.encode_state(&mut w);
            (body, report.metrics, returned, render_s, None)
        }
    };
    let rendered = returned + Duration::from_secs_f64(render_s);
    let tally = std::mem::take(&mut *handle.lock().expect("tally lock poisoned by a shard panic"));
    let snapshot = metrics.map(|m| m.snapshot).unwrap_or_default();
    let hits = snapshot.counter(names::RECYCLE_HITS);
    PipelineRun {
        spec: spec.clone(),
        start_s: tally.first_fill.map_or(0.0, |t| (t - called).as_secs_f64()),
        tail_s: tally.last_return.map_or(0.0, |t| (rendered - t).as_secs_f64()),
        tally,
        body,
        analysis: w.into_payload(),
        high_water: snapshot.gauge(names::BUS_HIGH_WATER),
        recycle_hits: hits,
        recycle_attempts: hits + snapshot.counter(names::RECYCLE_MISSES),
        finalize_s,
        render_s,
    }
}

fn live_source(spec: &CampaignSpec) -> LiveRig {
    LiveRig::new(spec.device, spec.victim_kind(), spec.key, spec.seed)
}

/// The `Campaign` methods `Campaign::from_spec` chains for a live spec.
fn live_campaign(spec: &CampaignSpec) -> impl FnOnce(Campaign<'static>) -> Campaign<'static> + '_ {
    move |c| {
        c.keys(&spec.keys())
            .traces(spec.traces)
            .shards(spec.shards)
            .mitigation(spec.mitigation.unwrap_or(MitigationSetting::None).to_config())
            .tune(spec.tune)
    }
}

fn traced_live(spec: &CampaignSpec) -> Result<PipelineRun, Failure> {
    Ok(traced_campaign(live_source(spec), spec, live_campaign(spec)))
}

fn traced_replay(spec: &CampaignSpec, dir: &Path) -> Result<PipelineRun, Failure> {
    let source = replay_source(dir)?;
    Ok(traced_campaign(source, spec, |c| c.keys(&spec.keys()).tune(spec.tune)))
}

/// Repeat a traced campaign for `seconds` (at least [`MIN_PIPELINE_REPS`] times)
/// and validate each against `reference`.
fn pipeline_reps(
    seconds: f64,
    mut run: impl FnMut() -> Result<PipelineRun, Failure>,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<PipelineRun> {
    let mut runs = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_PIPELINE_REPS || start.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        let checked = run().and_then(|r| {
            validate::check_clean(&r.body)?;
            validate::check_identical(
                "analysis lines",
                validate::analysis_lines(&r.body).as_bytes(),
                validate::analysis_lines(&reference.body).as_bytes(),
            )?;
            validate::check_identical("analysis state", &r.analysis, &reference.analysis)?;
            Ok(r)
        });
        runs.extend(tally.record(checked));
    }
    runs
}

/// Nanoseconds per observation of StreamingCpa ingestion, from the
/// captured shard-0 blocks. Replayed blocks carry one channel each, so
/// the per-row time is scaled by rows per observation.
fn cpa_ingest_ns_per_obs(run: &PipelineRun) -> f64 {
    let keys = run.spec.keys();
    let mut cpa = StreamingCpa::new(keys.iter().map(|&k| ChannelId::Smc(k)), report::cpa_model);
    cpa.set_unroll(run.spec.tune.cpa_unroll);
    let rows: u64 = run.tally.captured.iter().map(|b| b.len() as u64).sum();
    let (_, secs) = time(|| {
        for block in &run.tally.captured {
            Processor::on_block(&mut cpa, block);
        }
    });
    std::hint::black_box(&cpa);
    let rows_per_obs = run.tally.rows as f64 / run.observations() as f64;
    ledger::per_unit(secs * 1e9, rows) * rows_per_obs
}

/// The bus-side metrics of `runs`; CPA ingestion is timed on the CPA
/// runs among them.
fn pipeline_metrics(runs: &[PipelineRun]) -> Vec<Metric> {
    let cpa_runs: Vec<f64> = runs
        .iter()
        .filter(|r| r.spec.mode == AnalysisMode::Cpa)
        .map(cpa_ingest_ns_per_obs)
        .collect();
    let med = |f: &dyn Fn(&PipelineRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new(
            "source.fill_ns_per_obs",
            med(&|r| ledger::per_unit(r.tally.fill.as_nanos() as f64, r.observations())),
            "ns",
        ),
        Metric::new(
            "bus.send_ns_per_obs",
            med(&|r| ledger::per_unit(r.tally.send.as_nanos() as f64, r.observations())),
            "ns",
        ),
        Metric::new("bus.high_water_blocks", med(&|r| r.high_water as f64), "count"),
        Metric::new(
            "recycle.hit_ratio",
            med(&|r| ledger::hit_ratio(r.recycle_hits, r.recycle_attempts)),
            "ratio",
        ),
        Metric::new("sca.cpa_ingest_ns_per_obs", median(&cpa_runs), "ns"),
    ]
}

fn codec_metrics(record_s: f64, bytes_per_trace: f64) -> Vec<Metric> {
    vec![
        Metric::new("codec.bytes_per_trace", bytes_per_trace, "B/trace"),
        Metric::new("codec.record_s", record_s, "s"),
    ]
}

/// Median wall seconds of `f` over `reps` calls.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| time(&mut f).1).collect::<Vec<_>>())
}

/// Spec parse and frame round trip for `spec` and its report, plus the
/// session's start, tail, finalisation and render costs from `runs`.
fn fixed_cost_metrics(
    spec: &CampaignSpec,
    reference: &Reference,
    runs: &[PipelineRun],
) -> Result<Vec<Metric>, String> {
    let text = spec.render();
    if CampaignSpec::parse(&text).as_ref() != Ok(spec) {
        return Err("spec does not survive render/parse".into());
    }
    let parse_s = median_time(200, || {
        std::hint::black_box(CampaignSpec::parse(std::hint::black_box(&text)).ok());
    });
    let request = Request::Submit { tenant: "bench".into(), wait: true, spec: text.clone() };
    let response = Response::Report {
        job: 1,
        mode: spec.mode,
        stopped_early: false,
        rounds: 0,
        text: report::campaign_banner(spec) + &reference.body,
        analysis: reference.analysis.clone(),
    };
    let roundtrip = || -> Result<(), String> {
        let mut wire = Vec::new();
        write_frame(&mut wire, &request.encode()).map_err(|e| e.to_string())?;
        write_frame(&mut wire, &response.encode()).map_err(|e| e.to_string())?;
        let mut reader = wire.as_slice();
        let req = Request::decode(&read_frame(&mut reader).map_err(|e| e.to_string())?);
        let resp = Response::decode(&read_frame(&mut reader).map_err(|e| e.to_string())?);
        match (req, resp) {
            (Ok(q), Ok(p)) if q == request && p == response => Ok(()),
            _ => Err("frame round trip changed the message".into()),
        }
    };
    roundtrip()?;
    let frame_s = median_time(50, || {
        let _ = std::hint::black_box(roundtrip());
    });
    let med = |f: &dyn Fn(&PipelineRun) -> Option<f64>| {
        median(&runs.iter().filter_map(f).collect::<Vec<_>>())
    };
    Ok(vec![
        Metric::new("session.start_ms", med(&|r| Some(r.start_s * 1e3)), "ms"),
        Metric::new("session.tail_ms", med(&|r| Some(r.tail_s * 1e3)), "ms"),
        Metric::new("sca.cpa_finalize_us", med(&|r| r.finalize_s.map(|s| s * 1e6)), "us"),
        Metric::new("report.render_us", med(&|r| r.finalize_s.map(|_| r.render_s * 1e6)), "us"),
        Metric::new("spec.parse_us", parse_s * 1e6, "us"),
        Metric::new("proto.frame_roundtrip_us", frame_s * 1e6, "us"),
    ])
}

/// Seconds the traced run of a CPA workload serves small jobs for.
const SERVE_PROBE_S: f64 = 2.0;

/// `serve.accept_ms` and `serve.overhead_ms` from served small jobs:
/// Submit to Accepted, and client latency minus the inline `run_spec`
/// wall of the same spec.
fn serve_layer_metrics(pool: &Pool, samples: &[JobSample]) -> Vec<Metric> {
    let accept: Vec<f64> = samples.iter().map(|s| s.accept_s * 1e3).collect();
    let overhead: Vec<f64> =
        samples.iter().map(|s| (s.latency_s - pool.inline_s[s.index]) * 1e3).collect();
    vec![
        Metric::new("serve.accept_ms", median(&accept), "ms"),
        Metric::new("serve.overhead_ms", median(&overhead), "ms"),
    ]
}

/// The serve layer seen from a CPA workload's traced run: the small-job
/// pool of the same seed, served for [`SERVE_PROBE_S`].
fn serve_probe(seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut pool = Pool::new(seed);
    pool.compute_refs(tally);
    let server = start_server()?;
    let (samples, _) = drive_clients(server.addr(), &pool, SERVE_PROBE_S, tally);
    stop_server(server);
    Ok(serve_layer_metrics(&pool, &samples))
}

fn serve_traced(
    ctx: &Ctx,
    pool: &Pool,
    samples: &[JobSample],
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let live = inputs::live_spec(ctx.seed);
    let mut metrics = substrate(&live, ctx.seconds * 0.2, tally);
    // Every pool job once through the traced pipeline, checked against
    // its inline reference.
    let mut runs = Vec::new();
    for (i, spec) in pool.specs.iter().enumerate() {
        let run = traced_campaign(live_source(spec), spec, live_campaign(spec));
        let text = report::campaign_banner(spec) + &run.body;
        let checked = validate::check_clean(&run.body).and_then(|_| {
            validate::check_identical("traced report", text.as_bytes(), pool.refs[i].as_bytes())
        });
        if tally.record(checked).is_some() {
            runs.push(run);
        }
    }
    let cpa_spec =
        pool.specs.iter().find(|s| s.mode == AnalysisMode::Cpa).expect("the pool alternates modes");
    metrics.extend(pipeline_metrics(&runs));
    let (out, record_s, bytes) =
        record(cpa_spec, &ctx.work_dir.join("record")).map_err(|e| e.to_string())?;
    tally.record(validate::check_clean(&out.body));
    metrics.extend(codec_metrics(record_s, bytes));
    let cpa_ref = Reference { body: out.body, analysis: out.analysis };
    metrics.extend(fixed_cost_metrics(cpa_spec, &cpa_ref, &runs)?);
    metrics.extend(serve_layer_metrics(pool, samples));
    Ok(metrics)
}
