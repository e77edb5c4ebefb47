//! Kernel benches: the AES substrate (block throughput, tracing overhead,
//! ARMv8 instruction path, leakage evaluation, key expansion).

use psc_aes::armv8::Armv8Aes;
use psc_aes::leakage::LeakageModel;
use psc_aes::{Aes, KeySchedule};
use psc_bench::measure::measure_ns;
use std::hint::black_box;

const BENCH: &str = "aes";

fn main() {
    let key = [0x2Bu8; 16];
    let aes = Aes::new(&key).expect("valid key");
    let hw = Armv8Aes::new(&key).expect("valid key");
    let model = LeakageModel::new(&key).expect("valid key");
    let pt = [0xA5u8; 16];
    let ct = aes.encrypt_block(&pt);
    let key256 = [7u8; 32];

    measure_ns(BENCH, "encrypt_block", || aes.encrypt_block(black_box(&pt)));
    measure_ns(BENCH, "decrypt_block", || aes.decrypt_block(black_box(&ct)));
    measure_ns(BENCH, "encrypt_traced", || aes.encrypt_traced(black_box(&pt)));
    measure_ns(BENCH, "armv8_encrypt_block", || hw.encrypt_block(black_box(&pt)));
    measure_ns(BENCH, "leakage_activity", || model.activity(black_box(&pt)));
    measure_ns(BENCH, "key_schedule_128", || KeySchedule::new(black_box(&key)).expect("valid"));
    measure_ns(BENCH, "key_schedule_256", || KeySchedule::new(black_box(&key256)).expect("valid"));
}
