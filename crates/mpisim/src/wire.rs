//! Payload encoding helpers (little-endian `f64` slices).
//!
//! The distributed BPMF driver ships factor rows and sufficient statistics
//! as flat `f64` buffers; these helpers are the only (de)serialization it
//! needs, with explicit little-endian framing so payloads are
//! platform-independent. Encoding is one pass into one allocation that
//! the returned [`Bytes`] takes over as is; decoding writes straight into
//! the caller's rows.

use bytes::Bytes;

/// Append `values` to `out` as little-endian `f64`s.
pub fn put_f64s(out: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) {
    let values = values.into_iter();
    out.reserve(values.size_hint().0 * 8);
    out.extend(values.flat_map(f64::to_le_bytes));
}

/// Encode an `f64` slice.
pub fn f64s_to_bytes(data: &[f64]) -> Bytes {
    let mut out = Vec::with_capacity(data.len() * 8);
    put_f64s(&mut out, data.iter().copied());
    Bytes::from(out)
}

/// Decode an `f64` payload into `out`, which must hold exactly
/// `bytes.len() / 8` values.
pub fn read_f64s(bytes: &[u8], out: &mut [f64]) {
    assert_eq!(bytes.len() % 8, 0, "payload is not a whole number of f64s");
    assert_eq!(bytes.len(), out.len() * 8, "payload length mismatch");
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = read_f64(c);
    }
}

/// Decode one `f64` from the first 8 bytes of `bytes`.
#[inline]
pub fn read_f64(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn decode(bytes: &[u8]) -> Vec<f64> {
        let mut out = vec![0.0; bytes.len() / 8];
        read_f64s(bytes, &mut out);
        out
    }

    #[test]
    fn f64_roundtrip() {
        let data = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 42.42];
        let bytes = f64s_to_bytes(&data);
        assert_eq!(bytes.len(), data.len() * 8);
        assert_eq!(decode(&bytes), data);
    }

    #[test]
    fn f64_roundtrip_into_buffer() {
        let data = vec![1.0, 2.0, 3.0];
        let mut out = vec![9.9; 3];
        read_f64s(&f64s_to_bytes(&data), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_is_bit_exact_on_special_values() {
        let data = vec![
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7FF8_0000_0000_0001), // quiet NaN with payload
            f64::from_bits(0xFFF0_0000_DEAD_BEEF), // negative signaling NaN
            f64::from_bits(1),                     // smallest subnormal
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest negative subnormal
        ];
        let bytes = f64s_to_bytes(&data);
        assert_eq!(bits(&decode(&bytes)), bits(&data));
        let mut out = vec![1.0; data.len()];
        read_f64s(&bytes, &mut out);
        assert_eq!(bits(&out), bits(&data));
    }

    #[test]
    fn encoding_is_little_endian() {
        let bytes = f64s_to_bytes(&[1.0]);
        assert_eq!(&bytes[..], &1.0f64.to_bits().to_le_bytes());
        assert_eq!(read_f64(&bytes), 1.0);
    }

    #[test]
    fn put_appends_to_an_existing_buffer() {
        let mut out = f64s_to_bytes(&[2.0]).to_vec();
        put_f64s(&mut out, [3.0, -0.0]);
        assert_eq!(bits(&decode(&out)), bits(&[2.0, 3.0, -0.0]));
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_payload_panics() {
        read_f64s(&[1, 2, 3], &mut []);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn read_into_wrong_length_panics() {
        read_f64s(&f64s_to_bytes(&[1.0, 2.0]), &mut [0.0; 3]);
    }
}
