//! Kernel benches: the analysis toolkit (Welch-t accumulation, CPA
//! streaming, correlation evaluation, TVLA matrix computation).

use psc_bench::measure::measure_ns;
use psc_sca::cpa::Cpa;
use psc_sca::model::Rd0Hw;
use psc_sca::stats::{welch_t, RunningMoments};
use psc_sca::trace::{Trace, TraceSet};
use psc_sca::tvla::TvlaMatrix;
use std::hint::black_box;

const BENCH: &str = "sca";

fn synthetic_traces(n: usize) -> TraceSet {
    let mut set = TraceSet::with_capacity("bench", n);
    let mut state = 0x1357_9BDFu64;
    for i in 0..n {
        let mut pt = [0u8; 16];
        for b in pt.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        set.push(Trace { value: (i % 251) as f64, plaintext: pt, ciphertext: pt });
    }
    set
}

fn main() {
    let traces = synthetic_traces(10_000);
    let values: Vec<f64> = traces.values();

    measure_ns(BENCH, "welford_push_10k", || {
        let mut m = RunningMoments::new();
        for &v in &values {
            m.push(v);
        }
        m.variance()
    });

    let mut a = RunningMoments::new();
    let mut b = RunningMoments::new();
    a.extend(values.iter().copied());
    b.extend(values.iter().map(|v| v + 0.1));
    measure_ns(BENCH, "welch_t", || welch_t(black_box(&a), black_box(&b)));

    measure_ns(BENCH, "cpa_add_trace_x1000", || {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        for t in traces.traces().iter().take(1000) {
            cpa.add_trace(t);
        }
        cpa.trace_count()
    });

    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(&traces);
    measure_ns(BENCH, "cpa_correlations_one_byte", || cpa.correlations(black_box(7)));
    let key = [0x42u8; 16];
    measure_ns(BENCH, "cpa_full_rank_evaluation", || cpa.ranks(black_box(&key)));

    let ds: [Vec<f64>; 3] =
        [values[..3000].to_vec(), values[3000..6000].to_vec(), values[6000..9000].to_vec()];
    measure_ns(BENCH, "tvla_matrix_3x3", || TvlaMatrix::compute("bench", &ds, &ds));

    measure_ns(BENCH, "detrend_10k", || psc_sca::filter::detrend_trace_set(&traces, 31));

    let [fa, fb, fc] = ["A", "B", "C"].map(|label| {
        let mut set = traces.clone();
        set.label = label.to_owned();
        set
    });
    measure_ns(BENCH, "fuse_z_3x10k", || {
        psc_sca::fusion::fuse_z(&[&fa, &fb, &fc]).expect("aligned")
    });

    measure_ns(BENCH, "codec_roundtrip_10k", || {
        let mut bytes = Vec::with_capacity(traces.len() * 40 + 64);
        psc_sca::codec::write_trace_set(&traces, &mut bytes).expect("write");
        psc_sca::codec::read_trace_set(&bytes[..]).expect("read")
    });

    let enumerator = psc_sca::enumerate::KeyEnumerator::from_cpa(&cpa);
    measure_ns(BENCH, "enumeration_1k_candidates", || enumerator.search(1_000, |_| false));
}
