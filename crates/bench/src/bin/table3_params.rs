//! Regenerates **Table 3**: HE parameter selections and ciphertext sizes,
//! with the bytes a fresh ciphertext's frame carries on this runtime's wire
//! beside the paper's 8-bytes-per-residue size.

#![forbid(unsafe_code)]
use choco_bench::header;
use choco_he::params::HeParams;
use choco_he::serialize::payload_bytes;

fn main() {
    header("Table 3: HE parameter selections (all >= 128-bit security)");
    println!(
        "{:<6} {:<7} {:>7} {:>9} {:<15} {:>8} {:>12} {:>12}",
        "Label", "Scheme", "N", "log2 q", "{k}", "log2 t", "Size (Bytes)", "Wire (Bytes)"
    );
    for (label, p, paper_size) in [
        ("A", HeParams::set_a(), 262_144usize),
        ("B", HeParams::set_b(), 131_072),
        ("C", HeParams::set_c(), 262_144),
    ] {
        let t_bits = if p.plain_modulus() > 0 {
            format!("{}", 64 - p.plain_modulus().leading_zeros())
        } else {
            "N/A".to_string()
        };
        let data_primes = &p.primes()[..p.data_prime_count()];
        println!(
            "{:<6} {:<7} {:>7} {:>9} {:<15} {:>8} {:>12} {:>12}",
            label,
            format!("{}", p.scheme()),
            p.degree(),
            p.total_coeff_bits(),
            format!("{:?}", p.prime_bits()),
            t_bits,
            p.ciphertext_bytes(),
            payload_bytes(p.degree(), data_primes, 2, false),
        );
        assert_eq!(p.ciphertext_bytes(), paper_size, "size must match Table 3");
    }
    println!("\nAll sizes match the paper exactly (2 polys x N coeffs x (k-1) residues x 8 B).");
    println!(
        "Wire: a fresh 2-part frame's payload here, each residue at its prime's bit width \
         plus one 8 B word per modulus."
    );
}
