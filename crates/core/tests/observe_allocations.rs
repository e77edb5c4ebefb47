//! Pins the attacker's steady-state observation loop.
//!
//! `Rig::observe_windows_with` is the per-trace hot path of every live
//! campaign: encrypt, run the SoC windows until the SMC publishes,
//! integrate IOReport, read the power keys through the unprivileged IOKit
//! client. Two properties are pinned here:
//!
//! - **Zero heap allocations per observation** once the rig is warm. A
//!   counting global allocator (thread-local, so parallel test threads
//!   cannot perturb it) allows only the one `Observation` staging buffer
//!   each call allocates.
//! - **Cross-commit bit-identity.** A golden FNV-1a digest over 512
//!   observations per device × victim kind. The other bit-identity suites
//!   compare two paths of one commit; these constants catch a change in
//!   the numbers from one commit to the next. They were computed at commit
//!   `e4fe7c4`, the last before the observation loop went slot-indexed and
//!   allocation-free (the `String`-keyed IOReport sync and the two-call,
//!   `Bytes`-returning SMC key read), and that change left them unchanged.
//!   A change that moves them on purpose must say so and recompute them.

use psc_core::rig::{Device, Observation, Rig};
use psc_core::victim::VictimKind;
use psc_smc::SmcKey;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    // `const` initialization keeps the TLS access itself allocation-free,
    // so touching it from inside `alloc` cannot recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation unchanged to the system allocator; the
// counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by *this thread* while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const SECRET: [u8; 16] = [
    0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C,
];
const SEED: u64 = 7;

fn plaintexts(rig: &mut Rig, n: usize) -> Vec<[u8; 16]> {
    (0..n).map(|_| rig.random_plaintext()).collect()
}

/// Heap allocations per observation over 256 plaintexts on a warm rig,
/// less the one staging buffer each `observe_windows_with` call builds.
fn allocations_per_observation(device: Device, kind: VictimKind, keys: &[SmcKey]) -> f64 {
    const MEASURED: usize = 256;
    let mut rig = Rig::new(device, kind, SECRET, SEED);
    let warm = plaintexts(&mut rig, 32);
    rig.observe_windows_with(&warm, keys, |obs| {
        black_box(obs);
    });
    let pts = plaintexts(&mut rig, MEASURED);
    let mut seen = 0usize;
    let count = allocations_during(|| {
        rig.observe_windows_with(&pts, keys, |obs| {
            black_box(obs);
            seen += 1;
        });
    });
    assert_eq!(seen, MEASURED);
    let staging = u64::from(!keys.is_empty());
    count.saturating_sub(staging) as f64 / MEASURED as f64
}

#[test]
fn m2_kernel_victim_cpa_loop_is_allocation_free() {
    let keys = Device::MacbookAirM2.cpa_keys();
    let per_obs =
        allocations_per_observation(Device::MacbookAirM2, VictimKind::KernelModule, &keys);
    assert_eq!(per_obs, 0.0, "{per_obs} heap allocations per observation");
}

#[test]
fn m1_user_victim_table2_loop_is_allocation_free() {
    let keys = Device::MacMiniM1.table2_keys();
    let per_obs = allocations_per_observation(Device::MacMiniM1, VictimKind::UserSpace, &keys);
    assert_eq!(per_obs, 0.0, "{per_obs} heap allocations per observation");
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn observation(&mut self, obs: &Observation) {
        self.write(&obs.plaintext);
        self.write(&obs.ciphertext);
        self.write(&obs.windows.to_le_bytes());
        self.write(&obs.time_s.to_bits().to_le_bytes());
        self.write(&obs.pcpu_delta_mj.to_bits().to_le_bytes());
        for (k, v) in &obs.smc {
            self.write(k.as_bytes());
            match v {
                Some(v) => {
                    self.write(&[1]);
                    self.write(&v.to_bits().to_le_bytes());
                }
                None => self.write(&[0]),
            }
        }
    }
}

/// FNV-1a over 512 observations of the device's Table 2 keys, seed
/// [`SEED`], in 16-plaintext calls.
fn digest(device: Device, kind: VictimKind) -> u64 {
    let keys = device.table2_keys();
    let mut rig = Rig::new(device, kind, SECRET, SEED);
    let mut hash = Fnv1a::new();
    let mut seen = 0usize;
    for _ in 0..32 {
        let pts = plaintexts(&mut rig, 16);
        rig.observe_windows_with(&pts, &keys, |obs| {
            hash.observation(obs);
            seen += 1;
        });
    }
    assert_eq!(seen, 512);
    hash.0
}

#[test]
fn golden_digest_m1_user() {
    assert_eq!(digest(Device::MacMiniM1, VictimKind::UserSpace), 0x3F0E_0BBB_E4C3_C6AC);
}

#[test]
fn golden_digest_m1_kernel() {
    assert_eq!(digest(Device::MacMiniM1, VictimKind::KernelModule), 0x178A_99F7_ABA2_5787);
}

#[test]
fn golden_digest_m2_user() {
    assert_eq!(digest(Device::MacbookAirM2, VictimKind::UserSpace), 0x4AA8_5220_9CB2_45A1);
}

#[test]
fn golden_digest_m2_kernel() {
    assert_eq!(digest(Device::MacbookAirM2, VictimKind::KernelModule), 0x4406_C495_AAE6_B83E);
}
