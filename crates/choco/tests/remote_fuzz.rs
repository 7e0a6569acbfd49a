//! Mutation fuzzing of the remote-evaluation wire formats (deterministic
//! quickprop harness).
//!
//! The remote protocol is the first place hostile bytes can reach real key
//! material and compiled-program caches, so its decoders carry the same
//! contract as the frame layer below them: **typed errors, never panics**,
//! for truncation at every offset, arbitrary bit flips, hostile length
//! fields, and semantically wrong-but-well-formed inputs (cross-scheme key
//! uploads, reference/body hash mismatches).

use choco::compiler::{CompilerOptions, Program};
use choco::remote::{
    params_from_wire, params_hash, params_to_wire, program_from_wire, program_ref_of,
    program_to_wire, Absorbed, BatchCollector, EvalRequest, EvalResponse, PreparedProgram,
    SessionSetup, RESPONSE_MAGIC,
};
use choco::transport::TransportError;
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_prng::Blake3Rng;
use choco_quickprop::{run_cases, Gen};

fn sample_program(g: &mut Gen) -> Program {
    let mut p = Program::new();
    let x = p.input("x");
    let r = p.rotate(x, 1 + g.u64_below(4) as i64);
    let s = p.add(x, r);
    let w = p.constant(&[0.25, 0.5, 0.75]);
    let m = p.mul_plain(s, w);
    let y = p.add_plain(m, w);
    p.output(y);
    p
}

fn options() -> CompilerOptions {
    CompilerOptions {
        scale_bits: 30,
        prime_bits: 45,
        max_levels: 3,
    }
}

/// A structurally valid setup message with real (tiny, insecure-parameter)
/// BFV evaluation keys — generated once, reused across fuzz cases.
fn bfv_setup() -> SessionSetup {
    let params = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    let ctx = Bfv::context(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"remote fuzz bfv");
    let keys = Bfv::keygen(&ctx, &mut rng);
    let relin = Bfv::relin_key(&ctx, &keys, &mut rng).unwrap();
    let galois = Bfv::galois_keys(&ctx, &keys, &[1], &mut rng).unwrap();
    SessionSetup {
        params,
        relin_wire: Bfv::relin_to_wire(&relin),
        galois_wire: Bfv::galois_to_wire(&galois),
    }
}

fn ckks_setup() -> SessionSetup {
    let params = HeParams::ckks_insecure(256, &[40, 40, 41], 30).unwrap();
    let ctx = Ckks::context(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"remote fuzz ckks");
    let keys = Ckks::keygen(&ctx, &mut rng);
    let relin = Ckks::relin_key(&ctx, &keys, &mut rng).unwrap();
    let galois = Ckks::galois_keys(&ctx, &keys, &[1], &mut rng).unwrap();
    SessionSetup {
        params,
        relin_wire: Ckks::relin_to_wire(&relin),
        galois_wire: Ckks::galois_to_wire(&galois),
    }
}

#[test]
fn setup_roundtrips_and_every_truncation_is_typed() {
    for setup in [bfv_setup(), ckks_setup()] {
        let wire = setup.to_wire();
        let back = SessionSetup::from_wire(&wire).unwrap();
        assert_eq!(params_hash(&back.params), params_hash(&setup.params));
        assert_eq!(back.relin_wire, setup.relin_wire);
        assert_eq!(back.galois_wire, setup.galois_wire);
        // Every strict prefix fails with a typed error, never a panic.
        for cut in 0..wire.len() {
            match SessionSetup::from_wire(&wire[..cut]) {
                Err(TransportError::Truncated { .. } | TransportError::Malformed(_)) => {}
                Err(e) => panic!("truncation at {cut} produced unexpected error {e}"),
                Ok(_) => panic!("truncation at {cut} decoded successfully"),
            }
        }
    }
}

#[test]
fn cross_scheme_key_upload_is_a_typed_error() {
    let bfv = bfv_setup();
    let ckks = ckks_setup();

    // BFV parameter recipe + CKKS key blobs (and vice versa): the magic
    // check must refuse before any key deserialization happens.
    let franken_a = SessionSetup {
        params: bfv.params.clone(),
        relin_wire: ckks.relin_wire.clone(),
        galois_wire: ckks.galois_wire.clone(),
    };
    let franken_b = SessionSetup {
        params: ckks.params.clone(),
        relin_wire: bfv.relin_wire.clone(),
        galois_wire: bfv.galois_wire.clone(),
    };
    for franken in [franken_a, franken_b] {
        match SessionSetup::from_wire(&franken.to_wire()) {
            Err(TransportError::Malformed(msg)) => {
                assert!(
                    msg.contains("scheme"),
                    "error should name the scheme mismatch, got: {msg}"
                );
            }
            Err(e) => panic!("cross-scheme upload produced {e} instead of Malformed"),
            Ok(_) => panic!("cross-scheme key upload decoded successfully"),
        }
    }

    // Mixed blobs within one setup (relin from the right scheme, galois
    // from the wrong one) are refused too.
    let mixed = SessionSetup {
        params: bfv.params.clone(),
        relin_wire: bfv.relin_wire.clone(),
        galois_wire: ckks.galois_wire.clone(),
    };
    assert!(matches!(
        SessionSetup::from_wire(&mixed.to_wire()),
        Err(TransportError::Malformed(_))
    ));
}

#[test]
fn setup_bit_flips_never_panic() {
    let pristine = bfv_setup().to_wire();
    run_cases("remote setup bit flip", 96, |g| {
        let mut mangled = pristine.clone();
        let i = g.usize_in(0, mangled.len());
        mangled[i] ^= 1u8 << g.u64_below(8);
        // A flip may land in the opaque key-blob bytes (which this layer
        // does not interpret beyond the magic) — decoding may succeed.
        // What it must never do is panic or misattribute lengths.
        let _ = SessionSetup::from_wire(&mangled);
    });
}

#[test]
fn program_wire_truncations_bitflips_and_noise_never_panic() {
    run_cases("remote program mutation", 128, |g| {
        let wire = program_to_wire(&sample_program(g)).unwrap();
        match g.u64_below(3) {
            0 => {
                let cut = g.usize_in(0, wire.len());
                if cut < wire.len() {
                    assert!(program_from_wire(&wire[..cut]).is_err());
                }
            }
            1 => {
                let mut mangled = wire.clone();
                let i = g.usize_in(0, mangled.len());
                mangled[i] ^= 1u8 << g.u64_below(8);
                // Flips inside constant f64 payloads still parse (the
                // values are opaque); structural flips must error, and
                // nothing may panic.
                let _ = program_from_wire(&mangled);
            }
            _ => {
                let noise = g.bytes(128);
                let _ = program_from_wire(&noise);
            }
        }
    });
}

#[test]
fn hostile_length_fields_do_not_overallocate() {
    // A program claiming 2^32-1 nodes, a constant claiming u32::MAX
    // values, oversized input counts: all refused before allocation.
    let mut giant_nodes = Vec::new();
    giant_nodes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        program_from_wire(&giant_nodes),
        Err(TransportError::Malformed(_))
    ));

    let mut giant_constant = Vec::new();
    giant_constant.extend_from_slice(&1u32.to_le_bytes());
    giant_constant.push(1); // Constant tag
    giant_constant.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(program_from_wire(&giant_constant).is_err());

    // An EvalRequest whose input blob length overruns the buffer.
    let prep = PreparedProgram::new(
        &{
            let mut p = Program::new();
            let x = p.input("x");
            p.output(x);
            p
        },
        &options(),
    )
    .unwrap();
    let req = EvalRequest {
        request_id: 1,
        program_ref: prep.program_ref,
        program: None,
        deadline_ms: None,
        inputs: vec![("x".into(), vec![0u8; 64])],
    };
    let mut wire = req.to_wire();
    // The input ciphertext length prefix sits 4+2+"x" from the end of the
    // fixed head; easier: find the last u32 length (64) and inflate it.
    let pos = wire.len() - 64 - 4;
    wire[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        EvalRequest::from_wire(&wire),
        Err(TransportError::Truncated { .. })
    ));
}

#[test]
fn request_and_response_mutations_never_panic() {
    run_cases("remote request/response mutation", 128, |g| {
        let prog = sample_program(g);
        let prep = PreparedProgram::new(&prog, &options()).unwrap();
        let req = EvalRequest {
            request_id: g.u64(),
            program_ref: prep.program_ref,
            program: Some((prep.wire.clone(), prep.options)),
            deadline_ms: (g.u64() % 2 == 0).then(|| g.u64() % 10_000),
            inputs: vec![("x".into(), g.bytes(48))],
        };
        let req_wire = req.to_wire();
        let resp = EvalResponse::Outputs {
            request_id: g.u64(),
            outputs: vec![g.bytes(32), g.bytes(17)],
        };
        let resp_wire = resp.to_wire();

        for wire in [&req_wire, &resp_wire] {
            let mut mangled = wire.clone();
            match g.u64_below(3) {
                0 => {
                    let cut = g.usize_in(0, mangled.len());
                    mangled.truncate(cut);
                }
                1 => {
                    let i = g.usize_in(0, mangled.len());
                    mangled[i] ^= 1u8 << g.u64_below(8);
                }
                _ => mangled = g.bytes(96),
            }
            // Typed error or (for benign flips in opaque payload bytes) a
            // clean decode; never a panic.
            let _ = EvalRequest::from_wire(&mangled);
            let _ = EvalResponse::from_wire(&mangled);
        }
    });
}

#[test]
fn program_body_must_hash_to_its_reference() {
    run_cases("remote program ref binding", 32, |g| {
        let prog = sample_program(g);
        let prep = PreparedProgram::new(&prog, &options()).unwrap();

        // Same program, different compiler options → different reference;
        // a request pairing the body with the stale reference is refused.
        let other_options = CompilerOptions {
            scale_bits: 31,
            ..options()
        };
        assert_ne!(
            program_ref_of(&prep.wire, &options()),
            program_ref_of(&prep.wire, &other_options)
        );
        let req = EvalRequest {
            request_id: 9,
            program_ref: program_ref_of(&prep.wire, &other_options),
            program: Some((prep.wire.clone(), prep.options)),
            deadline_ms: None,
            inputs: vec![],
        };
        assert!(matches!(
            EvalRequest::from_wire(&req.to_wire()),
            Err(TransportError::Malformed(_))
        ));
    });
}

#[test]
fn batch_collector_accepts_out_of_order_and_types_id_games() {
    // Pipelined responses may land in any order; what the collector must
    // refuse — with typed errors, never a panic or silent acceptance — is
    // every id game a hostile or confused server can play.
    let mut coll = BatchCollector::new(vec![10, 11, 12]);
    let out = |id: u64| EvalResponse::Outputs {
        request_id: id,
        outputs: vec![vec![id as u8]],
    };
    assert_eq!(
        coll.absorb(out(12)).unwrap(),
        Absorbed::Done {
            slot: 2,
            outputs: vec![vec![12]]
        }
    );
    // Duplicate id for an answered slot: typed error.
    assert!(matches!(
        coll.absorb(out(12)),
        Err(TransportError::Malformed(msg)) if msg.contains("duplicate")
    ));
    // Unknown id: typed error.
    assert!(matches!(
        coll.absorb(out(99)),
        Err(TransportError::Malformed(msg)) if msg.contains("unexpected")
    ));
    // A mid-batch setup ack is a protocol violation.
    assert!(matches!(
        coll.absorb(EvalResponse::SetupOk),
        Err(TransportError::Malformed(_))
    ));
    // Retryable refusals surface as typed outcomes bound to their slot.
    assert_eq!(
        coll.absorb(EvalResponse::DeadlineExceeded { request_id: 10 })
            .unwrap(),
        Absorbed::Shed { slot: 0 }
    );
    assert_eq!(
        coll.absorb(EvalResponse::Unavailable {
            request_id: 11,
            retry_after_ms: 40
        })
        .unwrap(),
        Absorbed::RetryAfter {
            slot: 1,
            retry_after_ms: 40
        }
    );
    // Terminal refusals are typed errors, and a rebound slot answers under
    // its fresh id only.
    assert!(matches!(
        coll.absorb(EvalResponse::Quarantined {
            request_id: 10,
            reason: "poison".into()
        }),
        Err(TransportError::Quarantined(_))
    ));
    coll.rebind(0, 20);
    assert!(coll.absorb(out(10)).is_err(), "stale id after rebind");
    assert!(coll.absorb(out(20)).is_ok());
    assert_eq!(
        coll.absorb(out(11)).unwrap(),
        Absorbed::Done {
            slot: 1,
            outputs: vec![vec![11]]
        }
    );
    assert_eq!(coll.pending(), 0);
}

#[test]
fn mutated_pipelined_response_streams_never_panic_the_collector() {
    run_cases("remote batch response mutation", 96, |g| {
        let ids: Vec<u64> = (0..3).map(|i| 100 + i).collect();
        let mut coll = BatchCollector::new(ids.clone());
        for _ in 0..6 {
            let id = ids[g.usize_in(0, ids.len())];
            let resp = match g.u64_below(5) {
                0 => EvalResponse::Outputs {
                    request_id: id,
                    outputs: vec![g.bytes(24)],
                },
                1 => EvalResponse::NeedProgram { request_id: id },
                2 => EvalResponse::DeadlineExceeded { request_id: id },
                3 => EvalResponse::Unavailable {
                    request_id: id,
                    retry_after_ms: g.u64() % 5_000,
                },
                _ => EvalResponse::Quarantined {
                    request_id: id,
                    reason: "fuzzed".into(),
                },
            };
            let mut wire = resp.to_wire();
            match g.u64_below(3) {
                0 => {
                    let cut = g.usize_in(0, wire.len());
                    wire.truncate(cut);
                }
                1 => {
                    let i = g.usize_in(0, wire.len());
                    wire[i] ^= 1u8 << g.u64_below(8);
                }
                _ => {} // deliver intact
            }
            // Decode then absorb: each step either succeeds or fails with
            // a typed error; the collector state stays coherent throughout.
            if let Ok(decoded) = EvalResponse::from_wire(&wire) {
                let _ = coll.absorb(decoded);
            }
        }
        assert!(coll.pending() <= 3);
    });
}

#[test]
fn fault_response_codes_roundtrip_and_truncations_are_typed() {
    // The robustness-era response codes (4..=6): exact roundtrip, id
    // peeking, typed errors at every truncation offset, and no panic
    // under bit flips.
    let responses = [
        EvalResponse::DeadlineExceeded { request_id: 7 },
        EvalResponse::Unavailable {
            request_id: 8,
            retry_after_ms: 250,
        },
        EvalResponse::Quarantined {
            request_id: 9,
            reason: "rotation key missing".into(),
        },
    ];
    for resp in &responses {
        let wire = resp.to_wire();
        assert_eq!(&EvalResponse::from_wire(&wire).unwrap(), resp);
        let peeked = EvalResponse::peek_request_id(&wire);
        match resp {
            EvalResponse::DeadlineExceeded { request_id }
            | EvalResponse::Unavailable { request_id, .. }
            | EvalResponse::Quarantined { request_id, .. } => {
                assert_eq!(peeked, Some(*request_id));
            }
            other => panic!("{other:?} is not a fault response"),
        }
        for cut in 0..wire.len() {
            match EvalResponse::from_wire(&wire[..cut]) {
                Err(TransportError::Truncated { .. } | TransportError::Malformed(_)) => {}
                Err(e) => panic!("truncation at {cut} produced unexpected error {e}"),
                Ok(got) => panic!("truncation at {cut} decoded as {got:?}"),
            }
        }
    }
    run_cases("remote fault response bit flip", 64, |g| {
        let resp = &responses[g.usize_in(0, responses.len())];
        let mut wire = resp.to_wire();
        let i = g.usize_in(0, wire.len());
        wire[i] ^= 1u8 << g.u64_below(8);
        let _ = EvalResponse::from_wire(&wire);
    });
}

#[test]
fn retired_response_code_7_is_a_typed_error_at_every_length() {
    // Code 7 once answered a query the protocol no longer has: the
    // response magic, the code, an echoed id and a list of request ids.
    // Whole or cut at any offset, it decodes to a typed error and carries
    // no request id.
    let mut wire = RESPONSE_MAGIC.to_vec();
    wire.push(7);
    wire.extend_from_slice(&0u64.to_le_bytes());
    wire.extend_from_slice(&3u32.to_le_bytes());
    for id in [3u64, 5, 8] {
        wire.extend_from_slice(&id.to_le_bytes());
    }
    for cut in 0..=wire.len() {
        match EvalResponse::from_wire(&wire[..cut]) {
            Err(TransportError::Truncated { .. } | TransportError::Malformed(_)) => {}
            Err(e) => panic!("code 7 cut at {cut} produced unexpected error {e}"),
            Ok(got) => panic!("code 7 cut at {cut} decoded as {got:?}"),
        }
        assert_eq!(EvalResponse::peek_request_id(&wire[..cut]), None);
    }
}

#[test]
fn params_recipe_rejects_mutations_that_change_the_recipe() {
    let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 17).unwrap();
    let wire = params_to_wire(&params);
    // Scheme byte 0 or 3+ is refused.
    for bad in [0u8, 3, 200] {
        let mut mangled = wire.clone();
        mangled[0] = bad;
        let mut rest = mangled.as_slice();
        assert!(params_from_wire(&mut rest).is_err());
    }
    // Hostile prime count.
    let mut mangled = wire.clone();
    let count_off = 1 + 1 + 4 + 8 + 4;
    mangled[count_off..count_off + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    let mut rest = mangled.as_slice();
    assert!(params_from_wire(&mut rest).is_err());
}

/// A request carrying real compact uploads (both schemes), as a client
/// sends it: each input blob is `c0`, its moduli and the 32-byte seed of
/// `c1`, which the server expands on decode.
fn compact_upload_request() -> EvalRequest {
    let mut identity = Program::new();
    let x = identity.input("x");
    identity.output(x);
    let prep = PreparedProgram::new(&identity, &options()).unwrap();
    let bfv = HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap();
    let ckks = HeParams::ckks_insecure(256, &[40, 40, 41], 30).unwrap();
    let mut rng = Blake3Rng::from_seed(b"remote fuzz compact");
    let ctx = Bfv::context(&bfv).unwrap();
    let keys = Bfv::keygen(&ctx, &mut rng);
    let x = Bfv::encrypt(&ctx, &keys, &[1, 2, 3], &mut rng).unwrap();
    let cctx = Ckks::context(&ckks).unwrap();
    let ckeys = Ckks::keygen(&cctx, &mut rng);
    let y = Ckks::encrypt(&cctx, &ckeys, &[0.5, -0.25], &mut rng).unwrap();
    EvalRequest {
        request_id: 9,
        program_ref: prep.program_ref,
        program: None,
        deadline_ms: None,
        inputs: vec![
            ("x".into(), Bfv::ct_to_wire(&x)),
            ("y".into(), Ckks::ct_to_wire(&y)),
        ],
    }
}

/// What the server does with a request's inputs: decode each under both
/// schemes. An input either fails typed or re-encodes to its own bytes.
fn decode_inputs(req: &EvalRequest) {
    for (_, blob) in &req.inputs {
        if let Ok(ct) = Bfv::ct_from_wire(blob) {
            assert_eq!(&Bfv::ct_to_wire(&ct), blob);
        }
        if let Ok(ct) = Ckks::ct_from_wire(blob) {
            assert_eq!(&Ckks::ct_to_wire(&ct), blob);
        }
    }
}

#[test]
fn compact_uploads_survive_truncations_and_bit_flips_typed() {
    let req = compact_upload_request();
    let wire = req.to_wire();
    let back = EvalRequest::from_wire(&wire).unwrap();
    assert!(Bfv::ct_from_wire(&back.inputs[0].1).is_ok());
    assert!(Ckks::ct_from_wire(&back.inputs[1].1).is_ok());
    // Every truncation of the request is typed; every truncation of an
    // input blob, carried whole by a well-formed request, is refused.
    for cut in (0..wire.len()).step_by(61) {
        assert!(EvalRequest::from_wire(&wire[..cut]).is_err(), "cut {cut}");
    }
    for (_, blob) in &req.inputs {
        for cut in (0..blob.len()).step_by(37) {
            let cut_blob = &blob[..cut];
            assert!(Bfv::ct_from_wire(cut_blob).is_err() && Ckks::ct_from_wire(cut_blob).is_err());
        }
    }
    run_cases("compact upload bit flips", 128, |g| {
        let mut mangled = wire.clone();
        for _ in 0..g.usize_in(1, 4) {
            let i = g.usize_in(0, mangled.len());
            mangled[i] ^= 1u8 << g.u64_below(8);
        }
        if let Ok(req) = EvalRequest::from_wire(&mangled) {
            decode_inputs(&req);
        }
    });
}

#[test]
fn a_64_byte_input_claiming_a_huge_ring_is_refused() {
    // A compact header claiming one residue at N = 2^30, over a real NTT
    // prime for that degree: expanding it would take 8 GiB. The request
    // layer carries it as opaque bytes; the ciphertext decoder refuses it
    // on its shape and length.
    for (magic, tail) in [(*b"CPS1", 0usize), (*b"CPS2", 8)] {
        let mut blob = magic.to_vec();
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&(1u32 << 30).to_le_bytes());
        blob.extend_from_slice(&[0x40; 8][..tail]);
        blob.extend_from_slice(&0x0004_000e_0000_0001u64.to_le_bytes());
        blob.resize(64, 0xa5);
        let mut req = compact_upload_request();
        req.inputs[0].1 = blob;
        let back = EvalRequest::from_wire(&req.to_wire()).unwrap();
        for decoded in [
            Bfv::ct_from_wire(&back.inputs[0].1).map(drop),
            Ckks::ct_from_wire(&back.inputs[0].1).map(drop),
        ] {
            assert!(matches!(
                decoded,
                Err(choco_he::HeError::InvalidCiphertext(_))
            ));
        }
    }
}
