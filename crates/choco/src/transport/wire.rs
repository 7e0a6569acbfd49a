//! The one bounds-checked cursor every [`TransportError`] wire format reads
//! through, the length-prefixed blob writer they share, and the one
//! encoding of a parameter set ([`params_to_wire`]).
//!
//! The remote-evaluation messages and the TCP hello report a short input
//! as [`TransportError::Truncated`]; the sealed formats (`CKP1` session
//! checkpoints, workload progress blobs) report it as
//! [`TransportError::BadCheckpoint`]. The constructor picks which; every
//! read after that is the same code.

use super::TransportError;
use choco_he::params::{HeParams, SchemeType};

/// Appends `bytes` behind a little-endian `u32` length prefix.
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// A truncation-checked reader over a byte slice. Never panics: reading
/// past the end is a typed error.
#[derive(Debug, Clone)]
pub struct WireCursor<'a> {
    rest: &'a [u8],
    /// `Some(what)`: short reads are `BadCheckpoint("{what}: truncated")`.
    sealed: Option<&'static str>,
}

impl<'a> WireCursor<'a> {
    /// A cursor whose short reads are [`TransportError::Truncated`].
    pub fn new(bytes: &'a [u8]) -> Self {
        WireCursor {
            rest: bytes,
            sealed: None,
        }
    }

    /// A cursor over a sealed format named `what`, whose short reads are
    /// [`TransportError::BadCheckpoint`].
    pub fn sealed(bytes: &'a [u8], what: &'static str) -> Self {
        WireCursor {
            rest: bytes,
            sealed: Some(what),
        }
    }

    /// The unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// The constructor's truncation error when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        if self.rest.len() < n {
            return Err(match self.sealed {
                Some(what) => TransportError::BadCheckpoint(format!("{what}: truncated")),
                None => TransportError::Truncated {
                    need: n,
                    have: self.rest.len(),
                },
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], TransportError> {
        let mut buf = [0u8; N];
        buf.copy_from_slice(self.take(N)?);
        Ok(buf)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u8(&mut self) -> Result<u8, TransportError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// A little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u16(&mut self) -> Result<u16, TransportError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u32(&mut self) -> Result<u32, TransportError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u64(&mut self) -> Result<u64, TransportError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// A field written by [`put_blob`]. The length is checked against the
    /// remaining input before anything is sliced or allocated, so a hostile
    /// prefix cannot over-allocate.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_blob(&mut self) -> Result<&'a [u8], TransportError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }
}

/// Serializes a parameter set as a deterministic rebuild recipe: scheme,
/// security mode, degree, plain modulus, scale bits, and the prime-bit list.
/// The remote protocol's session setup and cache key and the session
/// checkpoint all carry a parameter set this way.
pub fn params_to_wire(params: &HeParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 4 * params.prime_bits().len());
    out.push(match params.scheme() {
        SchemeType::Bfv => 1u8,
        SchemeType::Ckks => 2u8,
    });
    out.push(params.is_security_checked() as u8);
    out.extend_from_slice(&(params.degree() as u32).to_le_bytes());
    out.extend_from_slice(&params.plain_modulus().to_le_bytes());
    out.extend_from_slice(&params.scale_bits().to_le_bytes());
    out.extend_from_slice(&(params.prime_bits().len() as u16).to_le_bytes());
    for bits in params.prime_bits() {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    out
}

/// Reads a [`params_to_wire`] recipe, rebuilds the parameter set and
/// cross-checks the derived values against the recorded ones.
///
/// # Errors
///
/// The cursor's truncation error on short input;
/// [`TransportError::Malformed`] on an unknown scheme or flag byte, an
/// implausible prime count, or a recipe the rebuild rejects.
pub(crate) fn read_params(rest: &mut WireCursor) -> Result<HeParams, TransportError> {
    let bad = |msg: String| TransportError::Malformed(msg);
    let scheme = match rest.take_u8()? {
        1 => SchemeType::Bfv,
        2 => SchemeType::Ckks,
        other => return Err(bad(format!("unknown scheme byte {other}"))),
    };
    let checked = match rest.take_u8()? {
        0 => false,
        1 => true,
        other => return Err(bad(format!("bad security flag {other}"))),
    };
    let n = rest.take_u32()? as usize;
    let plain_modulus = rest.take_u64()?;
    let scale_bits = rest.take_u32()?;
    let prime_count = rest.take_u16()? as usize;
    if prime_count > 64 {
        return Err(bad(format!("implausible prime count {prime_count}")));
    }
    let mut prime_bits = Vec::with_capacity(prime_count);
    for _ in 0..prime_count {
        prime_bits.push(rest.take_u32()?);
    }
    HeParams::from_recipe(scheme, checked, n, &prime_bits, plain_modulus, scale_bits)
        .map_err(|e| bad(format!("parameter recipe rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_was_written_and_types_short_input() {
        let mut wire = vec![7u8];
        wire.extend_from_slice(&0x0102u16.to_le_bytes());
        wire.extend_from_slice(&0x0304_0506u32.to_le_bytes());
        wire.extend_from_slice(&u64::MAX.to_le_bytes());
        put_blob(&mut wire, b"blob");

        let mut c = WireCursor::new(&wire);
        assert_eq!(c.take_u8().unwrap(), 7);
        assert_eq!(c.take_u16().unwrap(), 0x0102);
        assert_eq!(c.take_u32().unwrap(), 0x0304_0506);
        assert_eq!(c.take_u64().unwrap(), u64::MAX);
        assert_eq!(c.take_blob().unwrap(), b"blob");
        assert!(c.is_empty());
        assert_eq!(
            c.take_u32(),
            Err(TransportError::Truncated { need: 4, have: 0 })
        );

        // A blob prefix longer than the input is a typed error under either
        // flavour.
        let hostile = u32::MAX.to_le_bytes();
        assert_eq!(
            WireCursor::new(&hostile).take_blob(),
            Err(TransportError::Truncated {
                need: u32::MAX as usize,
                have: 0
            })
        );
        assert_eq!(
            WireCursor::sealed(&hostile, "record").take_blob(),
            Err(TransportError::BadCheckpoint("record: truncated".into()))
        );
    }
}
