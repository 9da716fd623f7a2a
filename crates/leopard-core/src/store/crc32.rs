//! CRC-32 (IEEE 802.3 polynomial, the `crc32` everybody means), shared by
//! the spill record log ([`super::segment`]) and the checkpoint image
//! seal ([`crate::checkpoint`]).
//!
//! Hand-rolled because `leopard-core` carries no compression/hashing
//! dependency and must not grow one for this. Slicing-by-8: eight
//! 256-entry tables let the loop consume eight input bytes per step
//! instead of one; whole checkpoint images are checksummed with it.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Streaming CRC-32 update (state starts at `0xffff_ffff`, finish by
/// xoring with `0xffff_ffff`).
#[must_use]
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ u32::from(b)) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn any_split_of_the_input_gives_the_same_crc() {
        // The sliced loop and the bytewise tail must agree wherever a
        // streaming caller cuts the input.
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let state = crc32_update(0xffff_ffff, &data[..cut]);
            assert_eq!(crc32_update(state, &data[cut..]) ^ 0xffff_ffff, whole);
        }
    }
}
