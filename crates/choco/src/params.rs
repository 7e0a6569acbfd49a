//! Client-driven HE parameter minimization (§3.2).
//!
//! Parameter selection determines ciphertext size, and ciphertext size *is*
//! the client's communication and enc/decryption cost. CHOCO therefore
//! selects the smallest `(N, k, t)` that (a) meets 128-bit security and
//! (b) leaves enough noise budget for one client-aided round of the
//! workload. Rotational redundancy enters here: eliminating masking
//! multiplies shrinks the noise demand by `≈ #masks · (t_bits + log2 √2N)`
//! bits, which is what lets set A (2 data residues) replace SEAL's default
//! 4-residue chain — a 50% ciphertext reduction (§3.3).

use choco_he::params::{max_coeff_bits_128, HeParams};
use choco_he::HeError;
use choco_verify::NoiseModel;

/// Per-round operation profile of a client-aided workload (what the server
/// executes between two client noise refreshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Bits of the quantized plaintext values (CHOCO uses 4-bit DNN inputs).
    pub quant_bits: u32,
    /// Sequential plaintext multiplications (weights, masks).
    pub plain_mults: u32,
    /// Sequential ciphertext rotations.
    pub rotations: u32,
    /// Fan-in of homomorphic accumulation (values summed into one slot).
    pub accumulations: u32,
    /// Whether the packing requires masked arbitrary permutations
    /// (the non-CHOCO baseline); each costs an extra plaintext multiply.
    pub masked_permutes: u32,
}

impl WorkloadProfile {
    /// A convolution-layer profile under rotational redundancy: one weight
    /// multiply, a handful of rotations, `fan_in` accumulations, no masks.
    pub fn choco_conv(fan_in: u32) -> Self {
        WorkloadProfile {
            quant_bits: 4,
            plain_mults: 1,
            rotations: 8,
            accumulations: fan_in,
            masked_permutes: 0,
        }
    }

    /// The same layer with Gazelle-style masked permutations.
    pub fn masked_conv(fan_in: u32) -> Self {
        WorkloadProfile {
            masked_permutes: 2,
            ..Self::choco_conv(fan_in)
        }
    }
}

/// Minimum plaintext-modulus bits needed so accumulated quantized products
/// do not overflow `t`: `2·quant_bits + log2(accumulations)` plus a sign bit.
pub fn required_plain_bits(profile: &WorkloadProfile) -> u32 {
    let acc_bits = 32 - (profile.accumulations.max(1) - 1).leading_zeros();
    (2 * profile.quant_bits + acc_bits + 1).max(13)
}

/// Estimates the noise-budget bits one round of the profile consumes under
/// the verifier's BFV cost model: a fresh ciphertext's noise, one
/// plaintext multiply per weight and per mask, [`NoiseModel::ROTATE_BITS`]
/// per rotation and [`NoiseModel::ADD_BITS`] per doubling of fan-in.
pub fn round_noise_bits(profile: &WorkloadProfile, model: &NoiseModel) -> f64 {
    let mults = (profile.plain_mults + profile.masked_permutes) as f64;
    let rot = NoiseModel::ROTATE_BITS * profile.rotations as f64;
    let acc = NoiseModel::ADD_BITS * (profile.accumulations.max(1) as f64).log2();
    model.fresh_bits() + mults * model.plain_mult_bits() + rot + acc
}

/// Candidate coefficient-modulus chains per degree, smallest ciphertext
/// first. These mirror the menu SEAL ships (`BFVDefault`) plus the paper's
/// minimized chains of Table 3.
fn candidate_chains(n: usize) -> Vec<Vec<u32>> {
    match n {
        2048 => vec![vec![54]],
        4096 => vec![vec![36, 36, 37], vec![54, 55]],
        8192 => vec![
            vec![58, 58, 59],
            vec![43, 43, 44, 44, 44],
            vec![55, 55, 54, 54],
        ],
        16384 => vec![vec![58, 58, 59], vec![48, 48, 48, 48, 48, 48, 48, 48, 48]],
        _ => vec![],
    }
}

/// Selects the smallest secure BFV parameter set whose data modulus leaves a
/// positive noise budget for `rounds_between_refresh` rounds of `profile`.
///
/// # Errors
///
/// Returns [`HeError::InvalidParameters`] when no standardized set fits.
pub fn select_bfv_params(
    profile: &WorkloadProfile,
    rounds_between_refresh: u32,
) -> Result<HeParams, HeError> {
    let required_t = required_plain_bits(profile);
    let mut best: Option<HeParams> = None;
    for n in [2048usize, 4096, 8192, 16384] {
        let max_bits = match max_coeff_bits_128(n) {
            Some(b) => b,
            None => continue,
        };
        // Batching needs a prime t ≡ 1 (mod 2N): take the smallest bit size
        // at or above the workload requirement for which one exists.
        let floor = required_t.max((2 * n).ilog2() + 1);
        let t_bits = match (floor..floor + 6)
            .find(|&b| choco_math::prime::try_generate_plain_modulus(b, n).is_some())
        {
            Some(b) => b,
            None => continue,
        };
        for chain in candidate_chains(n) {
            let total: u32 = chain.iter().sum();
            if total > max_bits {
                continue;
            }
            let params = HeParams::bfv(n, &chain, t_bits)?;
            let model = NoiseModel::from_params(&params);
            let demand = rounds_between_refresh as f64 * round_noise_bits(profile, &model);
            if model.budget_bits() <= demand {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => params.ciphertext_bytes() < b.ciphertext_bytes(),
            };
            if better {
                best = Some(params);
            }
        }
    }
    best.ok_or_else(|| {
        HeError::InvalidParameters(
            "no standardized parameter set satisfies the noise demand".into(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_bits_cover_accumulated_products() {
        let p = WorkloadProfile::choco_conv(256);
        // 2·4 + log2(256) + 1 = 17
        assert_eq!(required_plain_bits(&p), 17);
        let tiny = WorkloadProfile {
            quant_bits: 2,
            plain_mults: 1,
            rotations: 0,
            accumulations: 1,
            masked_permutes: 0,
        };
        assert_eq!(required_plain_bits(&tiny), 13); // floor
    }

    #[test]
    fn masked_permutes_increase_noise_demand() {
        let choco = WorkloadProfile::choco_conv(64);
        let masked = WorkloadProfile::masked_conv(64);
        let t = required_plain_bits(&choco);
        let model = NoiseModel {
            n: 8192,
            t_bits: t,
            data_bits: 0,
        };
        let a = round_noise_bits(&choco, &model);
        let b = round_noise_bits(&masked, &model);
        // Two extra plaintext multiplies ≈ 2·(t_bits + 7) more bits.
        assert!(b - a > 2.0 * t as f64, "masked {b} vs choco {a}");
    }

    #[test]
    fn choco_profile_selects_paper_sized_ciphertexts() {
        // With rotational redundancy a conv layer fits the small sets.
        let params = select_bfv_params(&WorkloadProfile::choco_conv(64), 1).unwrap();
        assert!(
            params.ciphertext_bytes() <= 262_144,
            "CHOCO profile should use ≤256 KiB ciphertexts, got {}",
            params.ciphertext_bytes()
        );
    }

    #[test]
    fn masked_profile_needs_larger_ciphertexts() {
        let choco = select_bfv_params(&WorkloadProfile::choco_conv(64), 1).unwrap();
        let masked = select_bfv_params(&WorkloadProfile::masked_conv(64), 1).unwrap();
        assert!(
            masked.ciphertext_bytes() > choco.ciphertext_bytes(),
            "masked {} vs choco {}",
            masked.ciphertext_bytes(),
            choco.ciphertext_bytes()
        );
    }

    #[test]
    fn deeper_rounds_demand_more_modulus() {
        let p = WorkloadProfile::choco_conv(16);
        let one = select_bfv_params(&p, 1).unwrap();
        let many = select_bfv_params(&p, 3).unwrap();
        assert!(many.ciphertext_bytes() >= one.ciphertext_bytes());
    }

    #[test]
    fn impossible_demand_errors() {
        let p = WorkloadProfile {
            quant_bits: 16,
            plain_mults: 10,
            rotations: 100,
            accumulations: 1 << 20,
            masked_permutes: 10,
        };
        assert!(select_bfv_params(&p, 8).is_err());
    }
}
