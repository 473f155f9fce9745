//! Schnorr signatures over secp256k1.
//!
//! The base station signs the root of the Merkle hash tree once per code
//! image (paper §IV-C-3); every sensor node verifies that single
//! signature with the preloaded public key. We use a Schnorr signature
//! (key-prefixed, deterministic nonce) instead of ECDSA: the protocol
//! role and the cost profile (one expensive group operation per
//! verification) are identical, and Schnorr is simpler to implement
//! correctly from scratch.
//!
//! A signature is `(R, s)` with `R = rG`, `e = H(R || P || m) mod n`,
//! `s = r + e·x mod n`; verification checks `sG − eP = R` with one
//! two-scalar ladder ([`double_mul`]) and no field inversion.

use crate::bignum::U256;
use crate::ec::{double_mul, group_order, mul_generator, Affine};
use crate::hash::Digest;
use crate::sha256::sha256_concat;
use std::fmt;

/// Serialized signature length in bytes: 64 (point `R`) + 32 (scalar `s`).
pub const SIGNATURE_LEN: usize = 96;

/// A Schnorr signature `(R, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    r_point: Affine,
    s: U256,
}

impl Signature {
    /// Serializes to [`SIGNATURE_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..64].copy_from_slice(&self.r_point.to_bytes());
        out[64..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a signature; returns `None` if `R` is not a curve point.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Option<Self> {
        let mut rb = [0u8; 64];
        rb.copy_from_slice(&bytes[..64]);
        let r_point = Affine::from_bytes(&rb)?;
        let mut sb = [0u8; 32];
        sb.copy_from_slice(&bytes[64..]);
        Some(Signature {
            r_point,
            s: U256::from_be_bytes(&sb),
        })
    }
}

/// A verification (public) key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    point: Affine,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:02x?}…)", &self.point.to_bytes()[..4])
    }
}

impl PublicKey {
    /// Serializes to 64 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.point.to_bytes()
    }

    /// Parses a public key, checking the curve equation.
    ///
    /// The point at infinity is not a key: under it `sG − eP = R` no
    /// longer involves the challenge, so `(R = rG, s = r)` would verify
    /// for every message.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        match Affine::from_bytes(bytes)? {
            Affine::Infinity => None,
            point => Some(PublicKey { point }),
        }
    }

    /// Verifies `sig` over `message`.
    ///
    /// This is the expensive operation that the message-specific puzzle
    /// (weak authenticator) guards in the dissemination protocol.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let n = group_order();
        if sig.s.is_zero() || sig.s >= n {
            return false;
        }
        if self.point == Affine::Infinity || sig.r_point == Affine::Infinity {
            return false;
        }
        let e = challenge(&sig.r_point, &self.point, message);
        // sG + (n − e)P == R
        let minus_e = U256::ZERO.sub_mod(e, &n);
        double_mul(&sig.s, &minus_e, self.point).eq_affine(&sig.r_point)
    }
}

/// A signing keypair held by the base station.
#[derive(Clone)]
pub struct Keypair {
    secret: U256,
    public: PublicKey,
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Keypair({:?})", self.public)
    }
}

impl Keypair {
    /// Derives a keypair deterministically from a seed.
    ///
    /// The seed is hashed to a scalar; a counter is appended and rehashed
    /// in the (negligible-probability) event the scalar is zero mod `n`.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut counter = 0u32;
        let secret = loop {
            let d = sha256_concat(&[b"lrs-keygen", seed, &counter.to_be_bytes()]);
            let x = scalar_from_digest(&d);
            if !x.is_zero() {
                break x;
            }
            counter += 1;
        };
        let public = PublicKey {
            point: mul_generator(&secret),
        };
        Keypair { secret, public }
    }

    /// The verification key to preload on sensor nodes.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with a deterministic (derived) nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let n = group_order();
        let mut counter = 0u32;
        loop {
            let nd = sha256_concat(&[
                b"lrs-nonce",
                &self.secret.to_be_bytes(),
                message,
                &counter.to_be_bytes(),
            ]);
            let r = scalar_from_digest(&nd);
            if r.is_zero() {
                counter += 1;
                continue;
            }
            let r_point = mul_generator(&r);
            let e = challenge(&r_point, &self.public.point, message);
            // s = r + e*x mod n
            let ex = e.mul_mod(self.secret, &n);
            let s = r.add_mod(ex, &n);
            if s.is_zero() {
                counter += 1;
                continue;
            }
            return Signature { r_point, s };
        }
    }
}

/// Fiat-Shamir challenge `e = H(R || P || m) mod n`.
fn challenge(r_point: &Affine, pubkey: &Affine, message: &[u8]) -> U256 {
    scalar_from_digest(&sha256_concat(&[
        b"lrs-schnorr",
        &r_point.to_bytes(),
        &pubkey.to_bytes(),
        message,
    ]))
}

/// A 256-bit digest as a scalar mod `n`. `n > 2²⁵⁵`, so the digest is
/// below `2n` and one conditional subtraction reduces it.
fn scalar_from_digest(d: &Digest) -> U256 {
    let x = U256::from_be_bytes(&d.0);
    let n = group_order();
    if x >= n {
        x.wrapping_sub(n)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed(b"base station");
        let msg = b"merkle root of image v2";
        let sig = kp.sign(msg);
        assert!(kp.public().verify(msg, &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = Keypair::from_seed(b"bs");
        let sig = kp.sign(b"image v2");
        assert!(!kp.public().verify(b"image v3", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(b"bs1");
        let kp2 = Keypair::from_seed(b"bs2");
        let sig = kp1.sign(b"m");
        assert!(!kp2.public().verify(b"m", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed(b"bs");
        let sig = kp.sign(b"m");
        let mut bytes = sig.to_bytes();
        bytes[80] ^= 0x40; // flip a bit in s
        let forged = Signature::from_bytes(&bytes).expect("s is unconstrained at parse");
        assert!(!kp.public().verify(b"m", &forged));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let kp = Keypair::from_seed(b"bs");
        let sig = kp.sign(b"m");
        let bytes = sig.to_bytes();
        assert_eq!(Signature::from_bytes(&bytes), Some(sig));
    }

    #[test]
    fn corrupted_r_point_rejected_at_parse() {
        let kp = Keypair::from_seed(b"bs");
        let sig = kp.sign(b"m");
        let mut bytes = sig.to_bytes();
        bytes[3] ^= 0xff; // corrupt R.x -> off curve
        assert_eq!(Signature::from_bytes(&bytes), None);
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_seed(b"bs");
        assert_eq!(kp.sign(b"m").to_bytes(), kp.sign(b"m").to_bytes());
    }

    #[test]
    fn identity_is_not_a_public_key() {
        assert_eq!(PublicKey::from_bytes(&[0u8; 64]), None);
        // Under P = ∞ the equation is sG = R, which (R = rG, s = r)
        // satisfies for every message: verify must refuse such a key
        // even if one is ever constructed.
        let r = U256::from(0x5eed);
        let forged = Signature {
            r_point: mul_generator(&r),
            s: r,
        };
        let identity = PublicKey {
            point: Affine::Infinity,
        };
        assert!(!identity.verify(b"any message", &forged));
        assert!(!identity.verify(b"", &forged));
    }

    #[test]
    fn scalar_from_digest_is_reduction_mod_n() {
        let n = group_order();
        let reference = |x: U256| x.full_mul(U256::ONE).reduce(&n);
        let mut cases = vec![
            U256::ZERO,
            n.wrapping_sub(U256::ONE),
            n,
            n.overflowing_add(U256::ONE).0,
            U256([u64::MAX; 4]),
        ];
        // Digests of a counter: random 256-bit values, none of which will
        // be ≥ n (n is within 2^129 of 2^256), hence the edges above.
        cases.extend(
            (0u32..512)
                .map(|i| U256::from_be_bytes(&sha256_concat(&[b"digest", &i.to_be_bytes()]).0)),
        );
        for x in cases {
            let got = scalar_from_digest(&Digest(x.to_be_bytes()));
            assert_eq!(got, reference(x), "x={x}");
            assert!(got < n);
        }
    }

    #[test]
    fn public_key_roundtrip() {
        let kp = Keypair::from_seed(b"bs");
        let pk = kp.public();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
    }
}
