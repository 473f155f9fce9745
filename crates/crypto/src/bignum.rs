//! Fixed-width 256/512-bit unsigned integer arithmetic.
//!
//! Just enough multi-precision arithmetic to implement the Schnorr
//! signature over secp256k1 in [`crate::ec`] and [`crate::schnorr`]:
//! addition/subtraction with carry, full 256×256→512 multiplication,
//! generic modular reduction (binary long division), and modular
//! exponentiation. Limbs are little-endian `u64`s.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer (four little-endian `u64` limbs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// A 512-bit unsigned integer, produced by full multiplication.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512(pub [u64; 8]);

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(")?;
        for limb in self.0.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0; 4]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[32 - 8 * (i + 1)..32 - 8 * i]);
            limbs[i] = u64::from_be_bytes(w);
        }
        U256(limbs)
    }

    /// Serializes to a big-endian 32-byte array.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a (possibly shorter than 64 nibbles) hex string.
    ///
    /// # Panics
    ///
    /// Panics on invalid hex or overly long input; this is only used for
    /// compile-time-known constants and tests.
    pub fn from_hex(s: &str) -> Self {
        let s = s.trim_start_matches("0x");
        assert!(s.len() <= 64, "hex literal too long for U256");
        let mut bytes = [0u8; 32];
        let padded = format!("{s:0>64}");
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).expect("invalid hex");
        }
        Self::from_be_bytes(&bytes)
    }

    /// Lowercase hex rendering (64 nibbles).
    pub fn to_hex(self) -> String {
        self.to_be_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Addition with carry-out.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// Subtraction with borrow-out.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *o = d2;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping (mod 2^256) subtraction.
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 256×256 → 512-bit product.
    pub fn full_mul(self, rhs: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = out[i + j] as u128 + self.0[i] as u128 * rhs.0[j] as u128 + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512(out)
    }

    /// `(self + rhs) mod m`, assuming `self, rhs < m`.
    pub fn add_mod(self, rhs: U256, m: &U256) -> U256 {
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || sum >= *m {
            sum.wrapping_sub(*m)
        } else {
            sum
        }
    }

    /// `(self - rhs) mod m`, assuming `self, rhs < m`.
    pub fn sub_mod(self, rhs: U256, m: &U256) -> U256 {
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.overflowing_add(*m).0
        } else {
            diff
        }
    }

    /// `(self * rhs) mod m` using generic binary reduction.
    pub fn mul_mod(self, rhs: U256, m: &U256) -> U256 {
        self.full_mul(rhs).reduce(m)
    }

    /// `self^exp mod m` by square-and-multiply.
    pub fn pow_mod(self, exp: &U256, m: &U256) -> U256 {
        let mut result = U256::ONE.reduce_small(m);
        let mut base = self;
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mul_mod(base, m);
            }
            base = base.mul_mod(base, m);
        }
        result
    }

    /// Reduces `self` (which may be ≥ m) modulo `m` by repeated subtraction
    /// of shifted `m`; cheap because `self < 2^256`.
    fn reduce_small(self, m: &U256) -> U256 {
        let mut r = self;
        while r >= *m {
            r = r.wrapping_sub(*m);
        }
        r
    }

    /// Modular inverse via Fermat's little theorem; `m` must be prime and
    /// `self` nonzero mod `m`.
    pub fn inv_mod_prime(self, m: &U256) -> U256 {
        let exp = m.wrapping_sub(U256::from(2));
        self.pow_mod(&exp, m)
    }
}

impl U512 {
    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        for i in (0..8).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Generic `self mod m` via binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn reduce(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "reduction modulo zero");
        // Remainder accumulator; never exceeds 2*m < 2^257, held in 5 limbs.
        let mut r = [0u64; 5];
        for i in (0..self.bits()).rev() {
            // r = (r << 1) | bit(i)
            let mut carry = if self.bit(i) { 1u64 } else { 0u64 };
            for limb in r.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            // if r >= m { r -= m }
            if ge5(&r, m) {
                sub5(&mut r, m);
            }
        }
        U256([r[0], r[1], r[2], r[3]])
    }
}

fn ge5(r: &[u64; 5], m: &U256) -> bool {
    if r[4] != 0 {
        return true;
    }
    for i in (0..4).rev() {
        match r[i].cmp(&m.0[i]) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => continue,
        }
    }
    true
}

fn sub5(r: &mut [u64; 5], m: &U256) {
    let mut borrow = false;
    for (ri, &mi) in r.iter_mut().zip(&m.0) {
        let (d1, b1) = ri.overflowing_sub(mi);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *ri = d2;
        borrow = b1 || b2;
    }
    r[4] = r[4].wrapping_sub(borrow as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let x = U256::from_hex("deadbeef00000000000000000000000000000000000000000000000012345678");
        assert_eq!(
            x.to_hex(),
            "deadbeef00000000000000000000000000000000000000000000000012345678"
        );
        assert_eq!(U256::from_hex("0"), U256::ZERO);
        assert_eq!(U256::from_hex("1"), U256::ONE);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let x = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
        assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), x);
    }

    #[test]
    fn add_sub_carries() {
        let max = U256([u64::MAX; 4]);
        let (s, c) = max.overflowing_add(U256::ONE);
        assert!(c);
        assert_eq!(s, U256::ZERO);
        let (d, b) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(b);
        assert_eq!(d, max);
    }

    #[test]
    fn mul_small() {
        let a = U256::from(0xffff_ffff_ffff_ffffu64);
        let prod = a.full_mul(a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod.0[0], 1);
        assert_eq!(prod.0[1], 0xffff_ffff_ffff_fffe);
        assert_eq!(prod.0[2], 0);
    }

    #[test]
    fn mul_shift_structure() {
        // (2^128) * (2^128) = 2^256
        let a = U256([0, 0, 1, 0]);
        let p = a.full_mul(a);
        assert_eq!(p.0, [0, 0, 0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn reduce_matches_u128_arithmetic() {
        // Cross-check against native 128-bit arithmetic on small values.
        let m = U256::from(0xfffffffbu64); // a prime
        for a in [3u64, 1 << 40, u64::MAX, 0x123456789abcdef] {
            for b in [7u64, 1 << 33, u64::MAX - 1] {
                let prod = U256::from(a).full_mul(U256::from(b));
                let got = prod.reduce(&m);
                let want = ((a as u128 * b as u128) % 0xfffffffbu128) as u64;
                assert_eq!(got, U256::from(want), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn pow_mod_fermat() {
        // a^(p-1) = 1 mod p for prime p not dividing a.
        let p = U256::from(1_000_000_007u64);
        let a = U256::from(123_456_789u64);
        let exp = p.wrapping_sub(U256::ONE);
        assert_eq!(a.pow_mod(&exp, &p), U256::ONE);
    }

    #[test]
    fn inv_mod_prime_works() {
        let p = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let a = U256::from_hex("deadbeefcafebabe123456789abcdef0fedcba987654321011223344556677aa");
        let inv = a.inv_mod_prime(&p);
        assert_eq!(a.mul_mod(inv, &p), U256::ONE);
    }

    #[test]
    fn add_mod_sub_mod_roundtrip() {
        let m = U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
        let a = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001");
        let b = U256::from_hex("7fffffffffffffffffffffffffffffff00000000000000000000000000000000");
        let s = a.add_mod(b, &m);
        assert!(s < m);
        assert_eq!(s.sub_mod(b, &m), a);
        assert_eq!(s.sub_mod(a, &m), b);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        let x = U256([0, 0, 0, 1]);
        assert_eq!(x.bits(), 193);
        assert!(x.bit(192));
        assert!(!x.bit(191));
    }
}
