//! Property-based tests for SMC codecs and the firmware pipeline.

use proptest::prelude::*;
use psc_smc::firmware::Smc;
use psc_smc::iokit::{share, SmcUserClient};
use psc_smc::key::SmcKey;
use psc_smc::sensors::SensorSet;
use psc_smc::types::SmcDataType;
use psc_soc::{PowerRails, WindowReport};

fn printable_key() -> impl Strategy<Value = SmcKey> {
    proptest::collection::vec(0x20u8..=0x7E, 4)
        .prop_map(|v| SmcKey::new([v[0], v[1], v[2], v[3]]).expect("printable"))
}

fn report(p: f64, est: f64, temp: f64) -> WindowReport {
    WindowReport {
        duration_s: 1.0,
        rails: PowerRails::assemble(p, 0.3, 0.4, 0.5, 0.88, 1.5),
        estimated_cpu_power_w: est,
        estimated_p_cluster_w: est * 0.8,
        estimated_e_cluster_w: est * 0.2,
        p_freq_ghz: 3.5,
        e_freq_ghz: 2.4,
        temperature_c: temp,
        p_core_reps: 1.0e7,
        ..WindowReport::default()
    }
}

proptest! {
    #[test]
    fn key_text_roundtrip(k in printable_key()) {
        let text = k.to_string();
        prop_assert_eq!(text.parse::<SmcKey>().unwrap(), k);
        prop_assert_eq!(SmcKey::from_u32(k.to_u32()).unwrap(), k);
    }

    #[test]
    fn flt_codec_roundtrip_exact_for_f32(v in any::<f32>().prop_filter("finite", |x| x.is_finite())) {
        let encoded = SmcDataType::Flt.encode(f64::from(v));
        let decoded = SmcDataType::Flt.decode(&encoded).unwrap();
        prop_assert_eq!(decoded as f32, v);
    }

    #[test]
    // sp78 is a signed 7.8 fixed point: representable span is ±128.
    fn sp78_codec_quantizes_to_1_over_256(v in -127.9f64..127.9) {
        let decoded = SmcDataType::Sp78.decode(&SmcDataType::Sp78.encode(v)).unwrap();
        prop_assert!((decoded - v).abs() <= 1.0 / 256.0 + 1e-12);
    }

    #[test]
    fn ui_types_roundtrip_integers(v in 0u32..=65_535) {
        let d16 = SmcDataType::Ui16.decode(&SmcDataType::Ui16.encode(f64::from(v))).unwrap();
        prop_assert_eq!(d16 as u32, v);
        let d32 = SmcDataType::Ui32.decode(&SmcDataType::Ui32.encode(f64::from(v))).unwrap();
        prop_assert_eq!(d32 as u32, v);
    }

    #[test]
    fn encoded_size_matches_declared(v in -1000.0f64..1000.0) {
        for t in [
            SmcDataType::Flt,
            SmcDataType::Ui8,
            SmcDataType::Ui16,
            SmcDataType::Ui32,
            SmcDataType::Sp78,
            SmcDataType::Fpe2,
            SmcDataType::Flag,
        ] {
            prop_assert_eq!(t.encode(v).len(), t.size());
        }
    }

    #[test]
    fn firmware_reads_are_finite_under_any_load(
        p in 0.0f64..30.0,
        est in 0.0f64..30.0,
        temp in 20.0f64..110.0,
        seed in any::<u64>(),
    ) {
        let mut smc = Smc::new(SensorSet::macbook_air_m2(), seed);
        smc.observe_window(&report(p, est, temp));
        let client = SmcUserClient::new(share(smc));
        for key in client.all_keys().unwrap() {
            let v = client.read_key(key).unwrap();
            prop_assert!(v.value.is_finite(), "{key} -> {:?}", v);
        }
    }

    #[test]
    fn phpc_mean_tracks_rail_with_small_error(p in 0.5f64..10.0, seed in any::<u64>()) {
        let mut smc = Smc::new(SensorSet::macbook_air_m2(), seed);
        let n = 200;
        let mut sum = 0.0;
        for _ in 0..n {
            smc.observe_window(&report(p, 2.0, 40.0));
            sum += smc.read(psc_smc::key::key("PHPC")).unwrap().value;
        }
        let mean = sum / f64::from(n);
        // Noise σ = 4 mW → standard error ≈ 0.3 mW; allow generous 3 mW.
        prop_assert!((mean - p).abs() < 3.0e-3, "mean {mean} vs rail {p}");
    }
}

mod iokit_protocol_fuzz {
    use super::*;

    use psc_smc::iokit::{share, IoKitError, SmcUserClient, SELECTOR_READ_KEY};
    use psc_smc::types::SmcValue;
    use psc_smc::MitigationConfig;
    use std::sync::Arc;

    fn any_client() -> SmcUserClient {
        let mut smc = Smc::new(SensorSet::macbook_air_m2(), 123);
        smc.observe_window(&report(2.0, 2.2, 40.0));
        SmcUserClient::new(share(smc))
    }

    proptest! {
        /// The struct-method interface must never panic on arbitrary
        /// selector/input combinations — it returns protocol errors.
        #[test]
        fn call_struct_method_total(
            selector in 0u32..8,
            input in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let client = any_client();
            let _ = client.call_struct_method(selector, &input);
        }

        /// Reading any enumerated key succeeds, round-trips through the
        /// declared wire type, and decodes to exactly what the raw
        /// `SELECTOR_READ_KEY` bytes decode to, on both sensor sets. Under
        /// the access restriction both paths deny the unprivileged client
        /// the same way and give the privileged client the same value.
        #[test]
        fn read_all_keys_roundtrip(index_seed in any::<u64>()) {
            for sensors in [SensorSet::mac_mini_m1(), SensorSet::macbook_air_m2()] {
                let mut smc = Smc::new(sensors, 123);
                smc.observe_window(&report(2.0, 2.2, 40.0));
                let shared = share(smc);
                let client = SmcUserClient::new(Arc::clone(&shared));
                let keys = client.all_keys().unwrap();
                let key = keys[(index_seed % keys.len() as u64) as usize];
                let (dtype, size) = client.key_info(key).unwrap();
                let value = client.read_key(key).unwrap();
                prop_assert_eq!(value.data_type, dtype);
                prop_assert_eq!(value.to_bytes().len(), size);
                let wire = |c: &SmcUserClient| {
                    c.call_struct_method(SELECTOR_READ_KEY, key.as_bytes())
                        .map(|raw| SmcValue::from_bytes(dtype, &raw).unwrap())
                };
                let bits = |v: Result<SmcValue, IoKitError>| v.map(|v| (v.data_type, v.value.to_bits()));
                prop_assert_eq!(bits(client.read_key(key)), bits(wire(&client)));

                shared.write().set_mitigation(MitigationConfig::restrict_access());
                let root = SmcUserClient::privileged(Arc::clone(&shared));
                prop_assert_eq!(bits(client.read_key(key)), bits(wire(&client)));
                prop_assert_eq!(bits(root.read_key(key)), bits(wire(&root)));
                prop_assert_eq!(bits(root.read_key(key)), bits(Ok(value)));
                if shared.read().is_restricted(key) {
                    prop_assert_eq!(client.read_key(key), Err(IoKitError::AccessDenied(key)));
                }
            }
        }

        /// Writes of arbitrary values either succeed (writable keys) or
        /// fail with NotWritable/KeyNotFound — never corrupt reads.
        #[test]
        fn writes_are_safe(index_seed in any::<u64>(), value in -1.0e4f64..1.0e4) {
            let client = any_client();
            let keys = client.all_keys().unwrap();
            let key = keys[(index_seed % keys.len() as u64) as usize];
            let _ = client.write_key(key, value);
            // Reads still function for every key afterwards.
            for k in keys {
                prop_assert!(client.read_key(k).is_ok());
            }
        }
    }
}

mod firmware_batch_props {
    use super::report;
    use proptest::prelude::*;
    use psc_smc::firmware::Smc;
    use psc_smc::sensors::SensorSet;
    use psc_soc::{WindowBatch, WindowReport};

    proptest! {
        /// The columnar SIMD sweep behind [`Smc::observe_windows`] must
        /// publish values bit-identical to one-at-a-time
        /// [`Smc::observe_window`] calls (the scalar per-row path) for
        /// arbitrary report batches, and fire the same update ticks.
        #[test]
        fn batched_windows_match_sequential_bitwise(
            rows in proptest::collection::vec(
                (0.1f64..8.0, 0.1f64..5.0, 15.0f64..95.0, 0.5f64..4.0),
                1..20,
            ),
            dt in 0.05f64..1.2,
            seed in any::<u64>(),
        ) {
            let reports: Vec<WindowReport> = rows
                .iter()
                .map(|&(p, est, temp, freq)| {
                    let mut r = report(p, est, temp);
                    r.duration_s = dt;
                    r.p_freq_ghz = freq;
                    r.e_freq_ghz = freq * 0.6;
                    r
                })
                .collect();
            let batch = WindowBatch::from_reports(&reports);

            let mut seq = Smc::new(SensorSet::macbook_air_m2(), seed);
            let mut seq_published = Vec::new();
            for (i, r) in reports.iter().enumerate() {
                if seq.observe_window(r) {
                    seq_published.push(i);
                }
            }

            let mut batched = Smc::new(SensorSet::macbook_air_m2(), seed);
            let published = batched.observe_windows(&batch);

            prop_assert_eq!(published, seq_published);
            prop_assert_eq!(batched.update_count(), seq.update_count());
            for &k in seq.keys() {
                let a = seq.read(k).unwrap().value;
                let b = batched.read(k).unwrap().value;
                prop_assert_eq!(a.to_bits(), b.to_bits(), "key {}: {} vs {}", k, a, b);
            }
        }
    }
}
