//! MD5 (RFC 1321), used only to fingerprint outputs for the correctness
//! checks — digests match `md5sum` over the same bytes.

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

fn k(i: usize) -> u32 {
    // floor(|sin(i + 1)| * 2^32), exact in f64 for these inputs.
    ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32
}

/// Incremental MD5 state.
pub struct Md5 {
    state: [u32; 4],
    buf: Vec<u8>,
    len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buf: Vec::with_capacity(64),
            len: 0,
        }
    }
}

impl Md5 {
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        self.buf.extend_from_slice(data);
        let whole = self.buf.len() / 64 * 64;
        for block in self.buf[..whole].chunks_exact(64) {
            compress(&mut self.state, block);
        }
        self.buf.drain(..whole);
    }

    pub fn hex(mut self) -> String {
        let bits = self.len.wrapping_mul(8);
        let mut tail = std::mem::take(&mut self.buf);
        tail.push(0x80);
        while tail.len() % 64 != 56 {
            tail.push(0);
        }
        tail.extend_from_slice(&bits.to_le_bytes());
        for block in tail.chunks_exact(64) {
            compress(&mut self.state, block);
        }
        self.state
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

fn compress(state: &mut [u32; 4], block: &[u8]) {
    let m: Vec<u32> = block
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let [mut a, mut b, mut c, mut d] = *state;
    for (i, &shift) in S.iter().enumerate() {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let rotated = a
            .wrapping_add(f)
            .wrapping_add(k(i))
            .wrapping_add(m[g])
            .rotate_left(shift);
        a = d;
        d = c;
        c = b;
        b = b.wrapping_add(rotated);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// The hex MD5 of `data`.
pub fn hex(data: &[u8]) -> String {
    let mut h = Md5::default();
    h.update(data);
    h.hex()
}

#[cfg(test)]
mod tests {
    #[test]
    fn matches_rfc_1321_vectors() {
        assert_eq!(super::hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(super::hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            super::hex(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn incremental_updates_agree_with_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut h = super::Md5::default();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.hex(), super::hex(&data));
    }
}
