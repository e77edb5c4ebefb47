//! The IOKit-style user client.
//!
//! On macOS, user space reads SMC keys by opening the `AppleSMC` service
//! and invoking `IOConnectCallStructMethod` with a selector and an
//! input/output struct. We reproduce that interface shape byte-for-byte at
//! the protocol level so attack code programs against a realistic API:
//! selectors, big-endian key codes, type-code strings, and raw value bytes.
//!
//! Privilege: clients are unprivileged by default (as the paper's attacker
//! is). The access-restriction countermeasure (§5) only bites through this
//! layer — the firmware itself always knows every value.

use crate::firmware::Smc;
use crate::key::SmcKey;
use crate::types::{SmcDataType, SmcValue, MAX_VALUE_BYTES};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::RwLock;
use std::sync::Arc;

/// Selector: number of keys → `u32`.
pub const SELECTOR_KEY_COUNT: u32 = 0;
/// Selector: key by index (`u32` in) → 4 key bytes.
pub const SELECTOR_KEY_BY_INDEX: u32 = 1;
/// Selector: key info (4 key bytes in) → `u32` size + 4 type-code bytes.
pub const SELECTOR_KEY_INFO: u32 = 2;
/// Selector: read key (4 key bytes in) → raw value bytes.
pub const SELECTOR_READ_KEY: u32 = 3;
/// Selector: write key (4 key bytes + typed value bytes in) → empty.
pub const SELECTOR_WRITE_KEY: u32 = 4;
/// Selector: key attribute flags (4 key bytes in) → 1 byte of
/// [`KEY_ATTR_READABLE`]-style flags.
pub const SELECTOR_KEY_ATTRIBUTES: u32 = 5;

/// Attribute flag: key is readable.
pub const KEY_ATTR_READABLE: u8 = 0x80;
/// Attribute flag: key accepts writes.
pub const KEY_ATTR_WRITABLE: u8 = 0x40;
/// Attribute flag: reads are gated behind privilege under the active
/// mitigation (the access-restriction countermeasure's visible surface).
pub const KEY_ATTR_PRIVILEGED: u8 = 0x01;

/// A shareable SMC handle (firmware written by the simulator, read by any
/// number of user clients).
pub type SharedSmc = Arc<RwLock<Smc>>;

/// Wrap firmware for sharing.
#[must_use]
pub fn share(smc: Smc) -> SharedSmc {
    Arc::new(RwLock::new(smc))
}

/// Errors surfaced to user space (mirroring `kern_return_t` failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKitError {
    /// Unknown selector.
    BadSelector(u32),
    /// Malformed input struct.
    BadInput,
    /// Index past the end of the key list.
    IndexOutOfRange(u32),
    /// The key does not exist.
    KeyNotFound(SmcKey),
    /// The key exists but reads are denied to this client.
    AccessDenied(SmcKey),
    /// The key exists but is read-only.
    NotWritable(SmcKey),
}

impl core::fmt::Display for IoKitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoKitError::BadSelector(s) => write!(f, "unknown selector {s}"),
            IoKitError::BadInput => write!(f, "malformed input struct"),
            IoKitError::IndexOutOfRange(i) => write!(f, "key index {i} out of range"),
            IoKitError::KeyNotFound(k) => write!(f, "SMC key {k} not found"),
            IoKitError::AccessDenied(k) => write!(f, "access to SMC key {k} denied"),
            IoKitError::NotWritable(k) => write!(f, "SMC key {k} is read-only"),
        }
    }
}

impl std::error::Error for IoKitError {}

/// A user-space connection to the SMC service.
#[derive(Debug, Clone)]
pub struct SmcUserClient {
    smc: SharedSmc,
    privileged: bool,
}

impl SmcUserClient {
    /// Open an unprivileged connection (the paper's attacker).
    #[must_use]
    pub fn new(smc: SharedSmc) -> Self {
        Self { smc, privileged: false }
    }

    /// Open a privileged (root/entitled) connection.
    #[must_use]
    pub fn privileged(smc: SharedSmc) -> Self {
        Self { smc, privileged: true }
    }

    /// Whether this client is privileged.
    #[must_use]
    pub fn is_privileged(&self) -> bool {
        self.privileged
    }

    /// The raw struct-method interface (the shape of
    /// `IOConnectCallStructMethod`).
    ///
    /// # Errors
    ///
    /// See [`IoKitError`] for the failure modes of each selector.
    pub fn call_struct_method(&self, selector: u32, input: &[u8]) -> Result<Bytes, IoKitError> {
        match selector {
            SELECTOR_KEY_COUNT => {
                if !input.is_empty() {
                    return Err(IoKitError::BadInput);
                }
                let count = self.smc.read().keys().len() as u32;
                let mut out = BytesMut::with_capacity(4);
                out.put_u32(count);
                Ok(out.freeze())
            }
            SELECTOR_KEY_BY_INDEX => {
                if input.len() != 4 {
                    return Err(IoKitError::BadInput);
                }
                let mut buf = input;
                let index = buf.get_u32();
                let smc = self.smc.read();
                let k = smc
                    .keys()
                    .get(index as usize)
                    .copied()
                    .ok_or(IoKitError::IndexOutOfRange(index))?;
                Ok(Bytes::copy_from_slice(k.as_bytes()))
            }
            SELECTOR_KEY_INFO => {
                let k = parse_key(input)?;
                let smc = self.smc.read();
                let (dtype, size) = smc.key_info(k).ok_or(IoKitError::KeyNotFound(k))?;
                let mut out = BytesMut::with_capacity(8);
                out.put_u32(size as u32);
                out.put_slice(dtype.code().as_bytes());
                Ok(out.freeze())
            }
            SELECTOR_READ_KEY => {
                let (_, buf, len) = self.read_wire(parse_key(input)?)?;
                Ok(Bytes::copy_from_slice(&buf[..len]))
            }
            SELECTOR_WRITE_KEY => {
                if input.len() < 5 {
                    return Err(IoKitError::BadInput);
                }
                let k = parse_key(&input[..4])?;
                let mut smc = self.smc.write();
                let (dtype, _) = smc.key_info(k).ok_or(IoKitError::KeyNotFound(k))?;
                let value = dtype.decode(&input[4..]).map_err(|_| IoKitError::BadInput)?;
                smc.write_key(k, value).map_err(|e| match e {
                    crate::firmware::WriteKeyError::KeyNotFound(k) => IoKitError::KeyNotFound(k),
                    crate::firmware::WriteKeyError::NotWritable(k) => IoKitError::NotWritable(k),
                })?;
                Ok(Bytes::new())
            }
            SELECTOR_KEY_ATTRIBUTES => {
                let k = parse_key(input)?;
                let smc = self.smc.read();
                if smc.key_info(k).is_none() {
                    return Err(IoKitError::KeyNotFound(k));
                }
                let mut attrs = KEY_ATTR_READABLE;
                if smc.is_writable(k) {
                    attrs |= KEY_ATTR_WRITABLE;
                }
                if smc.is_restricted(k) {
                    attrs |= KEY_ATTR_PRIVILEGED;
                }
                Ok(Bytes::copy_from_slice(&[attrs]))
            }
            other => Err(IoKitError::BadSelector(other)),
        }
    }

    /// A key's attribute flags (`KEY_ATTR_*`).
    ///
    /// # Errors
    ///
    /// [`IoKitError::KeyNotFound`] for unknown keys.
    pub fn key_attributes(&self, k: SmcKey) -> Result<u8, IoKitError> {
        let out = self.call_struct_method(SELECTOR_KEY_ATTRIBUTES, k.as_bytes())?;
        out.first().copied().ok_or(IoKitError::BadInput)
    }

    /// Write a key's value (the `smc-fuzzer` write probe path).
    ///
    /// # Errors
    ///
    /// [`IoKitError::NotWritable`] for read-only keys,
    /// [`IoKitError::KeyNotFound`] for unknown keys.
    pub fn write_key(&self, k: SmcKey, value: f64) -> Result<(), IoKitError> {
        let (dtype, _) = self.key_info(k)?;
        let mut input = BytesMut::with_capacity(4 + dtype.size());
        input.put_slice(k.as_bytes());
        input.put_slice(&dtype.encode(value));
        self.call_struct_method(SELECTOR_WRITE_KEY, &input).map(|_| ())
    }

    /// Number of keys the SMC exposes.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (none in practice for this selector).
    pub fn key_count(&self) -> Result<u32, IoKitError> {
        let out = self.call_struct_method(SELECTOR_KEY_COUNT, &[])?;
        let mut buf = &out[..];
        Ok(buf.get_u32())
    }

    /// The `index`-th key.
    ///
    /// # Errors
    ///
    /// [`IoKitError::IndexOutOfRange`] past the end of the list.
    pub fn key_by_index(&self, index: u32) -> Result<SmcKey, IoKitError> {
        let mut input = BytesMut::with_capacity(4);
        input.put_u32(index);
        let out = self.call_struct_method(SELECTOR_KEY_BY_INDEX, &input)?;
        let bytes: [u8; 4] = out[..].try_into().map_err(|_| IoKitError::BadInput)?;
        SmcKey::new(bytes).map_err(|_| IoKitError::BadInput)
    }

    /// Type and size information for a key.
    ///
    /// # Errors
    ///
    /// [`IoKitError::KeyNotFound`] for unknown keys.
    pub fn key_info(&self, k: SmcKey) -> Result<(SmcDataType, usize), IoKitError> {
        let out = self.call_struct_method(SELECTOR_KEY_INFO, k.as_bytes())?;
        if out.len() != 8 {
            return Err(IoKitError::BadInput);
        }
        let mut buf = &out[..];
        let size = buf.get_u32() as usize;
        let code = core::str::from_utf8(&out[4..8]).map_err(|_| IoKitError::BadInput)?;
        let dtype = SmcDataType::from_code(code).map_err(|_| IoKitError::BadInput)?;
        Ok((dtype, size))
    }

    /// Read and decode a key's current value.
    ///
    /// One lock, one lookup: the read takes a single firmware read guard,
    /// resolves the key once, and decodes the value from the same wire
    /// bytes [`SELECTOR_READ_KEY`] returns, encoded into a stack buffer, so
    /// the per-key read neither allocates nor sees two firmware states.
    ///
    /// # Errors
    ///
    /// [`IoKitError::KeyNotFound`] for unknown keys (checked first),
    /// [`IoKitError::AccessDenied`] when the access-restriction mitigation
    /// is active and this client is unprivileged.
    pub fn read_key(&self, k: SmcKey) -> Result<SmcValue, IoKitError> {
        let (dtype, buf, len) = self.read_wire(k)?;
        SmcValue::from_bytes(dtype, &buf[..len]).map_err(|_| IoKitError::BadInput)
    }

    /// The shared body of [`SmcUserClient::read_key`] and
    /// [`SELECTOR_READ_KEY`]: the key's type and wire bytes under one read
    /// guard and one lookup.
    fn read_wire(
        &self,
        k: SmcKey,
    ) -> Result<(SmcDataType, [u8; MAX_VALUE_BYTES], usize), IoKitError> {
        let smc = self.smc.read();
        let (value, restricted) = smc.read_gated(k).ok_or(IoKitError::KeyNotFound(k))?;
        if restricted && !self.privileged {
            return Err(IoKitError::AccessDenied(k));
        }
        let mut buf = [0u8; MAX_VALUE_BYTES];
        let len = value.data_type.encode_into(value.value, &mut buf);
        Ok((value.data_type, buf, len))
    }

    /// Convenience: read a power key in watts.
    ///
    /// # Errors
    ///
    /// As [`Self::read_key`].
    pub fn read_power_w(&self, k: SmcKey) -> Result<f64, IoKitError> {
        Ok(self.read_key(k)?.value)
    }

    /// Enumerate all keys.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn all_keys(&self) -> Result<Vec<SmcKey>, IoKitError> {
        let n = self.key_count()?;
        (0..n).map(|i| self.key_by_index(i)).collect()
    }
}

fn parse_key(input: &[u8]) -> Result<SmcKey, IoKitError> {
    let bytes: [u8; 4] = input.try_into().map_err(|_| IoKitError::BadInput)?;
    SmcKey::new(bytes).map_err(|_| IoKitError::BadInput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::key;
    use crate::mitigation::MitigationConfig;
    use crate::sensors::SensorSet;
    use psc_soc::{PowerRails, WindowReport};

    fn shared_smc() -> SharedSmc {
        let mut smc = Smc::new(SensorSet::macbook_air_m2(), 5);
        smc.observe_window(&WindowReport {
            duration_s: 1.0,
            rails: PowerRails::assemble(2.5, 0.3, 0.4, 0.5, 0.88, 1.5),
            estimated_cpu_power_w: 2.8,
            estimated_p_cluster_w: 2.4,
            estimated_e_cluster_w: 0.4,
            p_freq_ghz: 3.5,
            e_freq_ghz: 2.4,
            temperature_c: 40.0,
            p_core_reps: 1.0e7,
            ..WindowReport::default()
        });
        share(smc)
    }

    #[test]
    fn key_count_and_enumeration() {
        let client = SmcUserClient::new(shared_smc());
        let n = client.key_count().unwrap();
        assert!(n > 10);
        let keys = client.all_keys().unwrap();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.contains(&key("PHPC")));
    }

    #[test]
    fn key_info_reports_type() {
        let client = SmcUserClient::new(shared_smc());
        let (dtype, size) = client.key_info(key("PHPC")).unwrap();
        assert_eq!(dtype, SmcDataType::Flt);
        assert_eq!(size, 4);
        let (dtype, size) = client.key_info(key("TC0P")).unwrap();
        assert_eq!(dtype, SmcDataType::Sp78);
        assert_eq!(size, 2);
    }

    #[test]
    fn read_key_returns_plausible_power() {
        let client = SmcUserClient::new(shared_smc());
        let v = client.read_power_w(key("PHPC")).unwrap();
        assert!((v - 2.5).abs() < 0.2, "PHPC ≈ 2.5 W, got {v}");
    }

    #[test]
    fn unknown_key_not_found() {
        let client = SmcUserClient::new(shared_smc());
        assert_eq!(client.read_key(key("ZZZZ")), Err(IoKitError::KeyNotFound(key("ZZZZ"))));
    }

    #[test]
    fn bad_selector_rejected() {
        let client = SmcUserClient::new(shared_smc());
        assert_eq!(client.call_struct_method(42, &[]), Err(IoKitError::BadSelector(42)));
    }

    #[test]
    fn bad_input_rejected() {
        let client = SmcUserClient::new(shared_smc());
        assert_eq!(
            client.call_struct_method(SELECTOR_READ_KEY, &[1, 2]),
            Err(IoKitError::BadInput)
        );
        assert_eq!(client.call_struct_method(SELECTOR_KEY_COUNT, &[9]), Err(IoKitError::BadInput));
    }

    #[test]
    fn index_out_of_range() {
        let client = SmcUserClient::new(shared_smc());
        let n = client.key_count().unwrap();
        assert_eq!(client.key_by_index(n), Err(IoKitError::IndexOutOfRange(n)));
    }

    #[test]
    fn restriction_denies_unprivileged_power_reads_only() {
        let shared = shared_smc();
        shared.write().set_mitigation(MitigationConfig::restrict_access());
        let user = SmcUserClient::new(Arc::clone(&shared));
        let root = SmcUserClient::privileged(Arc::clone(&shared));

        assert_eq!(user.read_key(key("PHPC")), Err(IoKitError::AccessDenied(key("PHPC"))));
        assert!(user.read_key(key("TC0P")).is_ok(), "non-power keys stay readable");
        assert!(root.read_key(key("PHPC")).is_ok(), "privileged reads pass");
        // Enumeration remains possible (keys are not hidden, just guarded).
        assert!(user.all_keys().unwrap().contains(&key("PHPC")));
    }

    #[test]
    fn key_attributes_reflect_capabilities() {
        let shared = shared_smc();
        let client = SmcUserClient::new(Arc::clone(&shared));
        let phpc = client.key_attributes(key("PHPC")).unwrap();
        assert_eq!(phpc, KEY_ATTR_READABLE, "readable, not writable, not restricted");
        let fan = client.key_attributes(key("F0Tg")).unwrap();
        assert_eq!(fan, KEY_ATTR_READABLE | KEY_ATTR_WRITABLE);
        assert_eq!(client.key_attributes(key("ZZZZ")), Err(IoKitError::KeyNotFound(key("ZZZZ"))));
        // Under the restriction mitigation, power keys gain the privileged
        // flag — visible to the attacker before they even try to read.
        shared.write().set_mitigation(MitigationConfig::restrict_access());
        let phpc = client.key_attributes(key("PHPC")).unwrap();
        assert_eq!(phpc, KEY_ATTR_READABLE | KEY_ATTR_PRIVILEGED);
    }

    #[test]
    fn wire_format_key_by_index_is_four_raw_bytes() {
        let client = SmcUserClient::new(shared_smc());
        let mut input = BytesMut::new();
        input.put_u32(0);
        let out = client.call_struct_method(SELECTOR_KEY_BY_INDEX, &input).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn error_display_strings() {
        assert!(IoKitError::AccessDenied(key("PHPC")).to_string().contains("PHPC"));
        assert!(IoKitError::BadSelector(9).to_string().contains('9'));
    }
}
