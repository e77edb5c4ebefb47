//! SMC value types and their wire encodings.
//!
//! The real SMC stores each key's value with a declared type code
//! (`flt `, `ui8 `, `sp78`, …). We implement the subset our sensor
//! population uses, with byte-exact encode/decode so the IOKit-style
//! client can ship raw bytes like `IOConnectCallStructMethod` does.

use bytes::{Buf, Bytes};
use serde::{Deserialize, Serialize};

/// The largest encoded size of any [`SmcDataType`] (`flt `, `ui32`).
pub(crate) const MAX_VALUE_BYTES: usize = 4;

/// SMC data type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmcDataType {
    /// `flt `: IEEE-754 single-precision, little-endian.
    Flt,
    /// `ui8 `: unsigned 8-bit.
    Ui8,
    /// `ui16`: unsigned 16-bit big-endian.
    Ui16,
    /// `ui32`: unsigned 32-bit big-endian.
    Ui32,
    /// `sp78`: signed fixed-point 7.8 (big-endian, 2 bytes) — temperatures.
    Sp78,
    /// `fpe2`: unsigned fixed-point 14.2 (big-endian, 2 bytes) — fan RPM.
    Fpe2,
    /// `flag`: boolean byte.
    Flag,
}

impl SmcDataType {
    /// The 4-character type code string the SMC reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SmcDataType::Flt => "flt ",
            SmcDataType::Ui8 => "ui8 ",
            SmcDataType::Ui16 => "ui16",
            SmcDataType::Ui32 => "ui32",
            SmcDataType::Sp78 => "sp78",
            SmcDataType::Fpe2 => "fpe2",
            SmcDataType::Flag => "flag",
        }
    }

    /// Parse a type code string.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnknownType`] for unrecognized codes.
    pub fn from_code(code: &str) -> Result<Self, CodecError> {
        match code {
            "flt " => Ok(SmcDataType::Flt),
            "ui8 " => Ok(SmcDataType::Ui8),
            "ui16" => Ok(SmcDataType::Ui16),
            "ui32" => Ok(SmcDataType::Ui32),
            "sp78" => Ok(SmcDataType::Sp78),
            "fpe2" => Ok(SmcDataType::Fpe2),
            "flag" => Ok(SmcDataType::Flag),
            _ => Err(CodecError::UnknownType),
        }
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn size(self) -> usize {
        match self {
            SmcDataType::Flt | SmcDataType::Ui32 => 4,
            SmcDataType::Ui16 | SmcDataType::Sp78 | SmcDataType::Fpe2 => 2,
            SmcDataType::Ui8 | SmcDataType::Flag => 1,
        }
    }

    /// Encode a numeric value into this type's wire format.
    ///
    /// Values are clamped/quantized into the representable range (the SMC
    /// saturates rather than erroring).
    #[must_use]
    pub fn encode(self, value: f64) -> Bytes {
        let mut buf = [0u8; MAX_VALUE_BYTES];
        let n = self.encode_into(value, &mut buf);
        Bytes::copy_from_slice(&buf[..n])
    }

    /// Encode into a stack buffer and return the encoded length
    /// ([`SmcDataType::size`]): the one encoder behind
    /// [`SmcDataType::encode`] and the IOKit read path, which ships values
    /// without allocating.
    pub(crate) fn encode_into(self, value: f64, out: &mut [u8; MAX_VALUE_BYTES]) -> usize {
        match self {
            SmcDataType::Flt => out.copy_from_slice(&(value as f32).to_le_bytes()),
            SmcDataType::Ui8 => out[0] = value.clamp(0.0, 255.0).round() as u8,
            SmcDataType::Ui16 => {
                let v = value.clamp(0.0, 65_535.0).round() as u16;
                out[..2].copy_from_slice(&v.to_be_bytes());
            }
            SmcDataType::Ui32 => {
                let v = value.clamp(0.0, u32::MAX as f64).round() as u32;
                out.copy_from_slice(&v.to_be_bytes());
            }
            SmcDataType::Sp78 => {
                let fixed = (value * 256.0).clamp(i16::MIN as f64, i16::MAX as f64).round() as i16;
                out[..2].copy_from_slice(&fixed.to_be_bytes());
            }
            SmcDataType::Fpe2 => {
                let fixed = (value * 4.0).clamp(0.0, 65_535.0).round() as u16;
                out[..2].copy_from_slice(&fixed.to_be_bytes());
            }
            SmcDataType::Flag => out[0] = u8::from(value != 0.0),
        }
        self.size()
    }

    /// Decode wire bytes into a numeric value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::WrongSize`] if `bytes` has the wrong length.
    pub fn decode(self, bytes: &[u8]) -> Result<f64, CodecError> {
        if bytes.len() != self.size() {
            return Err(CodecError::WrongSize { expected: self.size(), got: bytes.len() });
        }
        let mut buf = bytes;
        Ok(match self {
            SmcDataType::Flt => f64::from(buf.get_f32_le()),
            SmcDataType::Ui8 => f64::from(buf.get_u8()),
            SmcDataType::Ui16 => f64::from(buf.get_u16()),
            SmcDataType::Ui32 => f64::from(buf.get_u32()),
            SmcDataType::Sp78 => f64::from(buf.get_i16()) / 256.0,
            SmcDataType::Fpe2 => f64::from(buf.get_u16()) / 4.0,
            SmcDataType::Flag => f64::from(buf.get_u8() != 0),
        })
    }
}

/// A typed SMC value (numeric interpretation plus wire type).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmcValue {
    /// Declared wire type.
    pub data_type: SmcDataType,
    /// Numeric interpretation.
    pub value: f64,
}

impl SmcValue {
    /// Construct a typed value.
    #[must_use]
    pub fn new(data_type: SmcDataType, value: f64) -> Self {
        Self { data_type, value }
    }

    /// Wire-encode.
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        self.data_type.encode(self.value)
    }

    /// Decode from wire bytes with a known type.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::WrongSize`].
    pub fn from_bytes(data_type: SmcDataType, bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(Self { data_type, value: data_type.decode(bytes)? })
    }
}

/// Wire codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Byte length did not match the type's encoded size.
    WrongSize {
        /// Expected number of bytes.
        expected: usize,
        /// Received number of bytes.
        got: usize,
    },
    /// Unrecognized type code string.
    UnknownType,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::WrongSize { expected, got } => {
                write!(f, "wrong SMC value size: expected {expected} bytes, got {got}")
            }
            CodecError::UnknownType => write!(f, "unknown SMC type code"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flt_roundtrip() {
        for v in [0.0, 1.5, -2.25, 4.125, 1234.5] {
            let bytes = SmcDataType::Flt.encode(v);
            assert_eq!(bytes.len(), 4);
            assert_eq!(SmcDataType::Flt.decode(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn sp78_temperature_roundtrip() {
        for v in [0.0, 24.5, 99.0, -10.25] {
            let bytes = SmcDataType::Sp78.encode(v);
            assert_eq!(bytes.len(), 2);
            let decoded = SmcDataType::Sp78.decode(&bytes).unwrap();
            assert!((decoded - v).abs() < 1.0 / 256.0, "{v} -> {decoded}");
        }
    }

    #[test]
    fn fpe2_fan_rpm_roundtrip() {
        let bytes = SmcDataType::Fpe2.encode(1850.25);
        assert_eq!(SmcDataType::Fpe2.decode(&bytes).unwrap(), 1850.25);
    }

    #[test]
    fn integer_types_clamp() {
        assert_eq!(SmcDataType::Ui8.decode(&SmcDataType::Ui8.encode(300.0)).unwrap(), 255.0);
        assert_eq!(SmcDataType::Ui8.decode(&SmcDataType::Ui8.encode(-5.0)).unwrap(), 0.0);
        assert_eq!(
            SmcDataType::Ui16.decode(&SmcDataType::Ui16.encode(70_000.0)).unwrap(),
            65_535.0
        );
    }

    #[test]
    fn flag_roundtrip() {
        assert_eq!(SmcDataType::Flag.decode(&SmcDataType::Flag.encode(1.0)).unwrap(), 1.0);
        assert_eq!(SmcDataType::Flag.decode(&SmcDataType::Flag.encode(0.0)).unwrap(), 0.0);
    }

    #[test]
    fn wrong_size_rejected() {
        let err = SmcDataType::Flt.decode(&[0u8; 2]).unwrap_err();
        assert_eq!(err, CodecError::WrongSize { expected: 4, got: 2 });
        assert!(err.to_string().contains("expected 4"));
    }

    #[test]
    fn type_code_roundtrip() {
        for t in [
            SmcDataType::Flt,
            SmcDataType::Ui8,
            SmcDataType::Ui16,
            SmcDataType::Ui32,
            SmcDataType::Sp78,
            SmcDataType::Fpe2,
            SmcDataType::Flag,
        ] {
            assert_eq!(SmcDataType::from_code(t.code()).unwrap(), t);
            assert_eq!(t.code().len(), 4, "type codes are 4 chars");
        }
        assert_eq!(SmcDataType::from_code("zzzz"), Err(CodecError::UnknownType));
    }

    #[test]
    fn value_wrapper_roundtrip() {
        let v = SmcValue::new(SmcDataType::Flt, 3.375);
        let bytes = v.to_bytes();
        assert_eq!(SmcValue::from_bytes(SmcDataType::Flt, &bytes).unwrap(), v);
    }
}
