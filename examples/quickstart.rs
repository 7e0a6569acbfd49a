//! Quickstart: the CHOCO client-aided loop in ~50 lines.
//!
//! A client encrypts a vector, the untrusted server computes an encrypted
//! affine transform (multiply + rotate + add) using rotational-redundancy
//! packing, and the client decrypts — with every byte accounted.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use choco::protocol::{download, upload, Client, CommLedger};
use choco::rotation::{windowed_rotate_redundant, RedundantLayout};
use choco_he::params::HeParams;
use choco_he::Bfv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Paper parameter set B: N = 4096, {36,36,37}, 18-bit t — 128 KiB
    // ciphertexts at 128-bit security.
    let params = HeParams::set_b();
    println!(
        "parameters: set B — N={}, ciphertext {} bytes",
        params.degree(),
        params.ciphertext_bytes()
    );

    // The trusted client owns the keys; the server gets public material.
    let mut client = Client::<Bfv>::new(&params, b"quickstart seed")?;
    let server = client.provision_server(&[1, 2, -1, -2])?;
    let mut ledger = CommLedger::new();

    // Sensor data, packed with redundancy so the server can rotate the
    // window without masking multiplies.
    let readings: Vec<u64> = (0..16).map(|i| 10 + i).collect();
    let layout = RedundantLayout::new(16, 2);
    let ct = client.encrypt_slots(&layout.pack(&readings))?;
    println!("fresh noise budget: {:.0} bits", client.health(&ct));

    // Offload: the server shifts the window by +2 and doubles it.
    let at_server = upload::<Bfv>(&mut ledger, &ct);
    let ctx = server.context();
    let rotated = windowed_rotate_redundant(ctx, &at_server, &layout, 2, server.galois_keys())?;
    let two = ctx.batch_encoder()?.encode(&vec![2u64; ctx.degree() / 2])?;
    let doubled = ctx.evaluator().multiply_plain(&rotated, &two);
    let reply = download::<Bfv>(&mut ledger, &doubled);
    ledger.end_round();

    // Client decrypts and unpacks the window of interest.
    let slots = client.decrypt_slots(&reply)?;
    let result = layout.extract(&slots);
    println!("result: {result:?}");
    assert_eq!(result[0], 2 * readings[2]);
    assert_eq!(result[15], 2 * readings[1]); // wrapped around

    println!(
        "communication: {} up + {} down = {:.2} MB in {} round(s)",
        ledger.uploads,
        ledger.downloads,
        ledger.total_mib(),
        ledger.rounds
    );
    println!(
        "client crypto ops: {} encryptions, {} decryptions",
        client.encryption_count(),
        client.decryption_count()
    );
    Ok(())
}
