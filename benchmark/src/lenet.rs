//! `lenet_direct`: client-aided DNN rounds over one provisioned direct-link
//! `Session`, through the public stage calls `pipeline::run_encrypted`
//! makes. No server process, socket, compiler or scheduler is involved.

use crate::driver::{GenEnd, Generator, Round, Workload, POOL};
use crate::layers::probe;
use crate::metrics::Values;
use crate::trace::{OpTimer, Tracer};
use choco::linalg::{matvec_diagonals, replicate_for_matvec};
use choco::protocol::CommLedger;
use choco::transport::{LinkConfig, Session, TransportError};
use choco_apps::dnn::run_encrypted_conv_layer;
use choco_apps::pipeline::{
    all_rotation_steps, max_pool2x2, requantize, run_plain, seeded_weights, LenetLikeSpec,
    LenetLikeWeights,
};
use choco_he::{Bfv, HeParams};
use choco_prng::Blake3Rng;
use choco_serve::ServeStats;
use std::time::{Duration, Instant};

/// LeNet-5-Small reduced (16×16 image, 4→8 channels) so that a repetition
/// holds enough ops; the paper's 28×28 geometry takes 1.3–1.8 s per op on
/// the 2-core reference host.
const SPEC: LenetLikeSpec = LenetLikeSpec {
    img: 16,
    conv1_ch: 4,
    conv2_ch: 8,
    filter: 5,
    classes: 10,
};

pub struct Lenet {
    seed: u64,
    params: HeParams,
    weights: LenetLikeWeights,
    steps: Vec<i64>,
    images: Vec<Vec<u64>>,
    /// `run_plain` logits per image.
    expected: Vec<Vec<u64>>,
}

impl Lenet {
    pub fn new(seed: u64) -> Self {
        // This workload is the single-threaded client-aided path. With the
        // `par` default of one worker per core, its spawn-per-call workers
        // make every op slower (0.6-0.9 s against 0.36-0.43 s on the 2-core
        // reference host) and the run-to-run spread wider than any usable
        // bound; the served workloads keep the default and carry that cost.
        choco_math::par::set_num_threads(1);
        let params = HeParams::set_b();
        let weights = seeded_weights(&SPEC, &seed.to_le_bytes());
        let mut rng = Blake3Rng::from_seed_labeled(&seed.to_le_bytes(), "benchmark images");
        let images: Vec<Vec<u64>> = (0..POOL)
            .map(|_| {
                (0..SPEC.img * SPEC.img)
                    .map(|_| rng.next_below(16))
                    .collect()
            })
            .collect();
        let expected = images
            .iter()
            .map(|image| run_plain(&SPEC, &weights, image, params.plain_modulus()).0)
            .collect();
        Lenet {
            seed,
            steps: all_rotation_steps(&SPEC, params.degree() / 2),
            params,
            weights,
            images,
            expected,
        }
    }
}

pub struct LenetGen<'w> {
    w: &'w Lenet,
    session: Session<Bfv>,
    rounds: u64,
    error: Option<String>,
}

impl LenetGen<'_> {
    fn infer(&mut self, op: &mut OpTimer) -> Result<bool, TransportError> {
        let w = self.w;
        let session = &mut self.session;
        let idx = (self.rounds % w.images.len() as u64) as usize;
        self.rounds += 1;
        let (enc0, dec0) = {
            let client = session.client_mut();
            (client.encryption_count(), client.decryption_count())
        };
        let (img, half, f) = (SPEC.img, SPEC.img / 2, SPEC.filter);
        let pool = |maps: &[Vec<u64>], side: usize| -> Vec<Vec<u64>> {
            maps.iter()
                .map(|m| max_pool2x2(&requantize(m), side, side))
                .collect()
        };

        let image = [w.images[idx].clone()];
        let maps1 = op.phase("apps.conv1", || {
            run_encrypted_conv_layer(session, &image, &w.weights.conv1, img, img, f)
        })?;
        let pooled1 = op.phase("client.pool", || pool(&maps1, img));
        let maps2 = op.phase("apps.conv2", || {
            run_encrypted_conv_layer(session, &pooled1, &w.weights.conv2, half, half, f)
        })?;
        let pooled2 = op.phase("client.pool", || pool(&maps2, half));

        let row = w.params.degree() / 2;
        let packed = op.phase("client.encode", || {
            replicate_for_matvec(&pooled2.concat(), row)
        });
        let (ct, encrypt_ns) = op.phase_timed("client.encrypt", || {
            session.client_mut().encrypt_slots(&packed)
        });
        let at_server = op.phase("choco.session", || {
            let uploaded = session.upload(&ct?)?;
            session.guard(&uploaded)
        })?;
        let logits_ct = op.phase("apps.fc", || {
            matvec_diagonals(session.server(), &at_server, &w.weights.fc)
        })?;
        let reply = op.phase("choco.session", || session.download(&logits_ct))?;
        session.ledger_mut().end_round();
        let (slots, decrypt_ns) = op.phase_timed("client.decrypt", || {
            session.client_mut().decrypt_slots(&reply)
        });
        let slots = slots?;

        // The conv drivers encrypt and decrypt inside one opaque call. The
        // client's counters say how often; the two calls timed above say
        // what one costs at these parameters.
        let client = session.client_mut();
        let hidden_enc = client.encryption_count() - enc0 - 1;
        let hidden_dec = client.decryption_count() - dec0 - 1;
        op.add_client_ns(hidden_enc * encrypt_ns + hidden_dec * decrypt_ns);

        Ok(op.phase("bench.check", || {
            slots.get(..SPEC.classes) == Some(w.expected[idx].as_slice())
        }))
    }
}

impl Generator for LenetGen<'_> {
    fn round(&mut self, op: &mut OpTimer) -> Round {
        let ok = self.infer(op).unwrap_or_else(|e| {
            self.error.get_or_insert(e.to_string());
            false
        });
        Round {
            ops: 1,
            failed: u64::from(!ok),
        }
    }

    fn comm_bytes(&self) -> u64 {
        let ledger = self.session.ledger();
        ledger.upload_bytes + ledger.download_bytes
    }

    fn end(mut self) -> GenEnd {
        let mut values = Values::default();
        let client = self.session.client_mut();
        let per_op = |count: u64| count as f64 / self.rounds.max(1) as f64;
        values.set("apps.encrypts_per_op", per_op(client.encryption_count()));
        values.set("apps.decrypts_per_op", per_op(client.decryption_count()));
        GenEnd {
            values,
            error: self.error,
            ..GenEnd::default()
        }
    }
}

impl Workload for Lenet {
    type Shared = ();
    type Gen<'w> = LenetGen<'w>;

    fn generators(&self) -> usize {
        1
    }

    fn start(&self, _rep: u32) -> Result<(), String> {
        Ok(())
    }

    fn connect(&self, _shared: &(), rep: u32, _g: usize) -> Result<LenetGen<'_>, String> {
        let seed = format!("benchmark lenet seed {} rep {rep}", self.seed);
        let session = Session::<Bfv>::with_link(
            &self.params,
            seed.as_bytes(),
            &self.steps,
            LinkConfig::direct(),
        )
        .map_err(|e| e.to_string())?;
        let mut gen = LenetGen {
            w: self,
            session,
            rounds: 0,
            error: None,
        };
        let mut tracer = Tracer::new(Instant::now());
        let mut op = OpTimer::start(&mut tracer, 0, false);
        match gen.infer(&mut op) {
            Ok(true) => Ok(gen),
            Ok(false) => Err("first inference: logits differ from run_plain".into()),
            Err(e) => Err(format!("first inference: {e}")),
        }
    }

    fn server_stats(&self, _shared: &()) -> Option<ServeStats> {
        None
    }

    fn finish(&self, _shared: (), _ledgers: &[(u64, CommLedger)]) -> (u64, u64, Values) {
        (0, 0, Values::default())
    }

    fn probe(&self, budget: Duration, _evaluate_rtt_ms: f64) -> Result<Values, String> {
        probe::<Bfv>(
            &self.params,
            &self.steps,
            &format!("benchmark probe {}", self.seed),
            None,
            budget,
        )
    }
}
