use serde::{Deserialize, Serialize};

/// A host-side buffer participating in a transfer.
///
/// Footprints in this workspace are *declared* at paper scale while real
/// bytes (the payload) may be a scaled-down shadow. `declared_len` drives
/// all capacity accounting and transfer timing; `payload` carries the real
/// bytes used for functional verification. For small buffers the two
/// coincide (`payload.len() == declared_len`).
///
/// A buffer may additionally be *sealed*: `content_hash` carries an FNV-1a
/// digest of the payload, and the server's Guardian-style validation layer
/// refuses sealed buffers whose bytes no longer match the digest (see
/// [`crate::guard`]). Unsealed buffers (`content_hash == None`) skip the
/// check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HostBuf {
    /// Bytes this buffer *represents* (accounting/timing).
    pub declared_len: u64,
    /// Real bytes carried (≤ `declared_len`).
    pub payload: Vec<u8>,
    /// Optional FNV-1a digest of `payload` (Guardian payload-hash check).
    /// `None` means the buffer is unsealed.
    pub content_hash: Option<u64>,
}

/// 64-bit FNV-1a over a byte slice: the workspace's descriptor/payload
/// digest. Not cryptographic — it detects corruption and forged length
/// games, matching Guardian's integrity-check role at simulation scale.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl HostBuf {
    /// A buffer whose payload is exactly its declared content.
    pub fn from_slice(data: &[u8]) -> Self {
        HostBuf { declared_len: data.len() as u64, payload: data.to_vec(), content_hash: None }
    }

    /// A payload-free buffer of `declared_len` bytes (pure accounting, used
    /// for paper-scale footprints whose content does not matter).
    pub fn declared(declared_len: u64) -> Self {
        HostBuf { declared_len, payload: Vec::new(), content_hash: None }
    }

    /// A buffer declaring `declared_len` bytes but carrying `payload` as its
    /// materialized prefix.
    ///
    /// # Panics
    /// Panics if the payload is longer than the declared length.
    pub fn with_shadow(declared_len: u64, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() as u64 <= declared_len,
            "payload ({}) exceeds declared length ({declared_len})",
            payload.len()
        );
        HostBuf { declared_len, payload, content_hash: None }
    }

    /// A buffer carrying `f32` values as its exact content.
    pub fn from_f32s(values: &[f32]) -> Self {
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        HostBuf { declared_len: payload.len() as u64, payload, content_hash: None }
    }

    /// Seals the buffer: stamps `content_hash` with the payload's FNV-1a
    /// digest so the server verifies the bytes arrived intact.
    pub fn sealed(mut self) -> Self {
        self.content_hash = Some(fnv1a(&self.payload));
        self
    }

    /// Whether the payload matches the seal. Unsealed buffers pass.
    pub fn hash_matches(&self) -> bool {
        self.content_hash.is_none_or(|h| h == fnv1a(&self.payload))
    }

    /// Interprets the payload as little-endian `f32`s; 1–3 trailing bytes
    /// are ignored.
    pub fn as_f32s(&self) -> Vec<f32> {
        self.payload.as_chunks::<4>().0.iter().map(|w| f32::from_le_bytes(*w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_is_exact() {
        let b = HostBuf::from_slice(&[1, 2, 3]);
        assert_eq!(b.declared_len, 3);
        assert_eq!(b.payload, [1, 2, 3]);
    }

    #[test]
    fn declared_carries_no_payload() {
        let b = HostBuf::declared(1 << 30);
        assert_eq!(b.declared_len, 1 << 30);
        assert!(b.payload.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds declared length")]
    fn oversized_shadow_rejected() {
        let _ = HostBuf::with_shadow(2, vec![0; 3]);
    }

    /// The per-element encoder `from_f32s` had before it became one pass:
    /// the bytes it must keep producing.
    fn from_f32s_reference(values: &[f32]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(values.len() * 4);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload
    }

    /// The per-element decoder `as_f32s` had, as bits (a NaN is not equal
    /// to itself, its bits are).
    fn as_f32s_reference(payload: &[u8]) -> Vec<u32> {
        payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]).to_bits())
            .collect()
    }

    /// Both conversions of `values` against the references, byte for byte
    /// and bit for bit.
    fn assert_matches_reference(values: &[f32]) {
        let b = HostBuf::from_f32s(values);
        assert_eq!(b.payload, from_f32s_reference(values));
        assert_eq!(b.declared_len, b.payload.len() as u64);
        let bits: Vec<u32> = b.as_f32s().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, as_f32s_reference(&b.payload));
        assert_eq!(bits, values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn f32_conversions_match_the_per_element_reference_on_special_values() {
        let bits = [
            0x7fc0_0000, // quiet NaN
            0x7fc0_0001,
            0xffc1_2345, // negative quiet NaN with a payload
            0x7f80_0001, // signalling NaNs
            0x7fa0_0000,
            0x7fbf_ffff,
            0xff80_0001,
            0x0000_0000, // ±0
            0x8000_0000,
            0x7f80_0000, // ±inf
            0xff80_0000,
            0x0000_0001, // subnormals
            0x007f_ffff,
            0x8000_0001,
            0x807f_ffff,
        ];
        let mut values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        values.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, f32::MAX, f32::MIN]);
        assert_matches_reference(&values);
        // Each value alone, and every suffix, so each value lands at every
        // position of a vectorised chunk and in the scalar tail.
        for i in 0..values.len() {
            assert_matches_reference(&values[i..i + 1]);
            assert_matches_reference(&values[i..]);
        }
    }

    #[test]
    fn f32_conversions_match_the_per_element_reference_over_a_strided_sweep() {
        let values: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        assert_eq!(values.len(), 65_536);
        assert_matches_reference(&values);
    }

    #[test]
    fn f32_conversions_ignore_trailing_bytes_and_declare_the_payload() {
        let bytes: Vec<u8> = (1..=7).collect();
        for len in 0..=7 {
            let b = HostBuf::from_slice(&bytes[..len]);
            let bits: Vec<u32> = b.as_f32s().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits.len(), len / 4);
            assert_eq!(bits, as_f32s_reference(&bytes[..len]));
            let values: Vec<f32> = (0..len).map(|i| i as f32 - 3.5).collect();
            let b = HostBuf::from_f32s(&values);
            assert_eq!(b.payload.len(), 4 * len);
            assert_eq!(b.declared_len, b.payload.len() as u64);
            assert_matches_reference(&values);
        }
    }

    #[test]
    fn f32_roundtrip() {
        let vals = [1.5f32, -2.25, 0.0, 1e9];
        let b = HostBuf::from_f32s(&vals);
        assert_eq!(b.as_f32s(), vals);
        assert_eq!(b.declared_len, 16);
    }

    #[test]
    fn sealed_hash_verifies_and_detects_tamper() {
        let b = HostBuf::from_slice(&[9, 8, 7]).sealed();
        assert!(b.hash_matches());
        let mut forged = b.clone();
        forged.payload[0] ^= 0xff;
        assert!(!forged.hash_matches());
        // Unsealed buffers always pass.
        assert!(HostBuf::from_slice(&[1]).hash_matches());
    }

    #[test]
    fn seal_survives_the_wire() {
        use crate::wire::{decode_exact, Wire};
        let b = HostBuf::from_slice(&[1, 2]).sealed();
        let mut bytes = Vec::new();
        b.encode(&mut bytes);
        let back: HostBuf = decode_exact(&bytes).unwrap();
        assert_eq!(back, b);
        assert!(back.hash_matches());
    }
}
