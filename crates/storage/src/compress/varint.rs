//! LEB128 variable-length integers and zigzag signed mapping. The read
//! side is [`crate::codec::Reader::varint_u64`] /
//! [`crate::codec::Reader::varint_i64`].

/// Append a u64 as LEB128.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// ZigZag map: small-magnitude signed integers to small unsigned ones.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append an i64 as zigzag LEB128.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, zigzag(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_take_one_byte() {
        let mut out = Vec::new();
        put_u64(&mut out, 100);
        assert_eq!(out.len(), 1);
        out.clear();
        put_u64(&mut out, 128);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn zigzag_mapping() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
