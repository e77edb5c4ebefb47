//! End-to-end service tests: streamed reports must be byte-identical
//! to inline runs of the same spec (with jobs genuinely concurrent),
//! admission must shed with a typed rejection, waiters must get their
//! report when the job settles rather than on a progress tick, settled
//! jobs must age out of the table, and drain must settle cleanly.

use psc_core::report;
use psc_core::spec::{AnalysisMode, CampaignSpec};
use psc_core::{Device, TuneConfig};
use psc_serve::proto::{CancelResult, JobState, RejectReason, Response};
use psc_serve::server::{names, FINISHED_KEPT};
use psc_serve::{submit_and_wait, AdmissionConfig, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

fn spec(mode: AnalysisMode, traces: usize, shards: usize) -> CampaignSpec {
    CampaignSpec {
        mode,
        device: Device::MacMiniM1,
        kernel: false,
        fleet: false,
        traces,
        shards,
        seed: 0x00D5_C0DE,
        key: *b"serve-integratio",
        every: 8,
        tune: TuneConfig::default(),
        mitigation: None,
        record: None,
        monitor: None,
    }
}

fn start_server(workers: usize, admission: AdmissionConfig) -> Server {
    start_server_with_interval(workers, admission, Duration::from_millis(10))
}

fn start_server_with_interval(
    workers: usize,
    admission: AdmissionConfig,
    progress_interval: Duration,
) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        admission,
        spool: None,
        progress_interval,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
}

fn expect_report(response: Response) -> (String, Vec<u8>) {
    match response {
        Response::Report { text, analysis, .. } => (text, analysis),
        other => panic!("expected a report, got {other:?}"),
    }
}

/// The inline `psc campaign` output of `spec`: report text and encoded
/// analysis state.
fn inline_report(spec: &CampaignSpec) -> (String, Vec<u8>) {
    let inline = report::run_spec(spec);
    (report::campaign_banner(spec) + &inline.body, inline.analysis)
}

/// Finish a waited-on exchange after `Accepted`: the final frame and
/// how many `Progress` frames came before it.
fn wait_counting_progress(client: &mut Client) -> (Response, usize) {
    let mut progress = 0;
    let last = client.wait_for_report(|_| progress += 1).expect("wait for the final frame");
    (last, progress)
}

fn drain(addr: std::net::SocketAddr) {
    let mut drainer = Client::connect(addr).expect("connect");
    assert!(matches!(drainer.drain().expect("drain"), Response::Drained { .. }));
}

#[test]
fn streamed_reports_are_bit_identical_to_inline_runs() {
    let server = start_server(2, AdmissionConfig::default());
    let addr = server.addr();
    // The adaptive budget stays under the 24-traces-per-side detection
    // minimum so the run exhausts its budget: a detected crossing stops
    // the producers at a scheduling-dependent round, and this test pins
    // byte-identity, not early-stop behaviour (covered in psc-core).
    let specs = [
        spec(AnalysisMode::Tvla, 250, 2),
        spec(AnalysisMode::Cpa, 400, 2),
        spec(AnalysisMode::Adaptive, 40, 2),
    ];

    // Submit all three concurrently over a 2-worker pool, so at least
    // two campaigns must be in flight at once.
    let streamed: Vec<(String, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let text = spec.render();
                scope.spawn(move || {
                    expect_report(submit_and_wait(addr, "itest", &text).expect("submit and wait"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });

    for (spec, (text, analysis)) in specs.iter().zip(&streamed) {
        let inline = report::run_spec(spec);
        let expected = report::campaign_banner(spec) + &inline.body;
        assert_eq!(text, &expected, "served {:?} report text drifted from inline", spec.mode);
        assert_eq!(
            analysis, &inline.analysis,
            "served {:?} analysis state drifted from inline",
            spec.mode
        );
    }

    // The pool really ran campaigns concurrently.
    let metrics = server.metrics();
    assert!(
        metrics.gauge(names::PEAK_RUNNING) >= 2,
        "expected >=2 concurrent jobs, peak was {}",
        metrics.gauge(names::PEAK_RUNNING)
    );
    assert_eq!(metrics.counter(names::COMPLETED), 3);
    assert_eq!(metrics.counter(names::ACCEPTED), 3);

    let mut client = Client::connect(addr).expect("connect");
    match client.drain().expect("drain") {
        Response::Drained { completed, rejected } => {
            assert_eq!(completed, 3);
            assert_eq!(rejected, 0);
        }
        other => panic!("expected Drained, got {other:?}"),
    }
    server.join();
}

#[test]
fn saturated_server_sheds_with_a_typed_rejection() {
    let server = start_server(
        1,
        AdmissionConfig { max_queue: 0, tenant_cap: 8, ..AdmissionConfig::default() },
    );
    let addr = server.addr();

    // Occupy the only worker (no wait — the connection closes, the job runs).
    let big = spec(AnalysisMode::Tvla, 4000, 1).render();
    let mut client = Client::connect(addr).expect("connect");
    let first = client.submit("hog", &big, false).expect("submit");
    assert!(matches!(first, Response::Accepted { job: 0 }), "got {first:?}");

    // Wait until it is actually running, then hit the zero-length queue.
    loop {
        let mut status = Client::connect(addr).expect("connect");
        let Response::JobList { jobs, .. } = status.status().expect("status") else {
            panic!("expected JobList")
        };
        if jobs.iter().any(|j| j.id == 0 && j.state == JobState::Running) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let small = spec(AnalysisMode::Tvla, 10, 1).render();
    let mut second = Client::connect(addr).expect("connect");
    match second.submit("hog", &small, false).expect("submit") {
        Response::Rejected { reason: RejectReason::Saturated { detail } } => {
            assert!(detail.contains("queue full"), "unexpected detail: {detail}");
        }
        other => panic!("expected Rejected(Saturated), got {other:?}"),
    }

    // The refusal is observable in the server's own metrics.
    let metrics = server.metrics();
    assert_eq!(metrics.counter(names::REJECTED), 1);
    assert_eq!(metrics.counter(names::SUBMITTED), 2);

    // Drain stops the running job at its next block boundary.
    let mut drainer = Client::connect(addr).expect("connect");
    match drainer.drain().expect("drain") {
        Response::Drained { completed, rejected } => {
            assert_eq!(completed, 1);
            assert_eq!(rejected, 0);
        }
        other => panic!("expected Drained, got {other:?}"),
    }
    server.join();
}

#[test]
fn cancel_covers_queued_running_and_finished_jobs() {
    let server = start_server(
        1,
        AdmissionConfig { max_queue: 8, tenant_cap: 8, ..AdmissionConfig::default() },
    );
    let addr = server.addr();

    let long = spec(AnalysisMode::Tvla, 4000, 1).render();
    let queued = spec(AnalysisMode::Tvla, 10, 1).render();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.submit("t", &long, false).expect("submit"),
        Response::Accepted { job: 0 }
    ));
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.submit("t", &queued, false).expect("submit"),
        Response::Accepted { job: 1 }
    ));

    let mut canceller = Client::connect(addr).expect("connect");
    // Job 1 sits behind the long job on the single worker: cancelled outright.
    let outcome = canceller.cancel(1).expect("cancel");
    assert!(
        matches!(outcome, Response::CancelOutcome { job: 1, outcome: CancelResult::Cancelled }),
        "got {outcome:?}"
    );
    // Job 0 is running (or about to be): stopping or cancelled, never NotFound.
    let mut canceller = Client::connect(addr).expect("connect");
    match canceller.cancel(0).expect("cancel") {
        Response::CancelOutcome {
            job: 0,
            outcome: CancelResult::Stopping | CancelResult::Cancelled,
        } => {}
        other => panic!("expected a cancel on job 0, got {other:?}"),
    }
    // Unknown job id.
    let mut canceller = Client::connect(addr).expect("connect");
    assert!(matches!(
        canceller.cancel(99).expect("cancel"),
        Response::CancelOutcome { job: 99, outcome: CancelResult::NotFound }
    ));

    // A malformed spec is a typed refusal, not a dropped connection.
    let mut bad = Client::connect(addr).expect("connect");
    match bad.submit("t", "mode=nonsense\n", false).expect("submit") {
        Response::Rejected { reason: RejectReason::BadSpec { .. } } => {}
        other => panic!("expected BadSpec, got {other:?}"),
    }

    let mut drainer = Client::connect(addr).expect("connect");
    assert!(matches!(drainer.drain().expect("drain"), Response::Drained { .. }));
    server.join();
}

#[test]
fn a_settled_job_reports_at_once_and_watch_reattaches_to_it() {
    // A 30 s progress cadence: under polling the report could not
    // arrive before the first tick.
    let interval = Duration::from_secs(30);
    let server = start_server_with_interval(1, AdmissionConfig::default(), interval);
    let addr = server.addr();
    let small = spec(AnalysisMode::Tvla, 40, 1);
    let inline = inline_report(&small);

    let started = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    let Response::Accepted { job } = client.submit("t", &small.render(), true).expect("submit")
    else {
        panic!("expected Accepted")
    };
    let (last, progress) = wait_counting_progress(&mut client);
    let waited = started.elapsed();
    assert_eq!(expect_report(last), inline, "served report drifted from inline");
    assert_eq!(progress, 0, "a job that settled inside one interval got progress frames");
    assert!(waited < interval / 3, "report took {waited:?} on a {interval:?} cadence");

    // Re-attaching to the finished job replays the same report at once.
    let mut watcher = Client::connect(addr).expect("connect");
    assert!(matches!(watcher.watch(job).expect("watch"), Response::Accepted { .. }));
    let (last, progress) = wait_counting_progress(&mut watcher);
    assert_eq!(expect_report(last), inline, "watched report drifted from inline");
    assert_eq!(progress, 0);

    drain(addr);
    server.join();
}

#[test]
fn an_in_flight_job_still_streams_progress_before_its_report() {
    let server = start_server(1, AdmissionConfig::default());
    let addr = server.addr();
    let long = spec(AnalysisMode::Tvla, 4000, 1);
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.submit("t", &long.render(), true).expect("submit"),
        Response::Accepted { job: 0 }
    ));
    let (last, progress) = wait_counting_progress(&mut client);
    assert!(matches!(last, Response::Report { .. }), "got {last:?}");
    assert!(progress >= 1, "no progress frame before the report of a long job");
    drain(addr);
    server.join();
}

#[test]
fn settled_jobs_beyond_the_retention_cap_are_evicted() {
    let server = start_server(2, AdmissionConfig::default());
    let addr = server.addr();
    let small = spec(AnalysisMode::Tvla, 10, 1).render();
    for _ in 0..=FINISHED_KEPT + 1 {
        let last = submit_and_wait(addr, "t", &small).expect("submit and wait");
        assert!(matches!(last, Response::Report { .. }), "got {last:?}");
    }

    // Job 0 settled first and FINISHED_KEPT + 1 jobs settled after it.
    let mut watcher = Client::connect(addr).expect("connect");
    match watcher.watch(0).expect("watch") {
        Response::Rejected { reason: RejectReason::Failed { error } } => {
            assert_eq!(error, "no such job: 0");
        }
        other => panic!("expected the no-such-job refusal, got {other:?}"),
    }
    let mut canceller = Client::connect(addr).expect("connect");
    assert!(matches!(
        canceller.cancel(0).expect("cancel"),
        Response::CancelOutcome { job: 0, outcome: CancelResult::NotFound }
    ));
    let mut status = Client::connect(addr).expect("connect");
    let Response::JobList { jobs, .. } = status.status().expect("status") else {
        panic!("expected JobList")
    };
    let finished = jobs.iter().filter(|j| j.state == JobState::Completed).count();
    assert!(finished <= FINISHED_KEPT, "{finished} finished jobs listed");
    assert!(jobs.iter().all(|j| j.id != 0));

    drain(addr);
    server.join();
}
