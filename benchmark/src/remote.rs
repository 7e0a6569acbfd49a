//! The three workloads that go through `choco-serve`: a compiler-IR
//! program evaluated by an in-process `OffloadServer` over loopback TCP,
//! driven by `RemoteEvaluator` clients with a fresh encryption per op.

use crate::driver::{GenEnd, Generator, Round, Workload, POOL};
use crate::layers::{probe, ProgramUnderTest};
use crate::metrics::Values;
use crate::oracle::{eval_program, slots_match, Checked};
use crate::trace::{OpTimer, Tracer};
use choco::compiler::{compile, CompiledProgram, CompilerOptions, Op, Program};
use choco::protocol::CommLedger;
use choco::remote::{PreparedProgram, RemoteEvaluator};
use choco::transport::tcp::TcpOptions;
use choco_he::HeParams;
use choco_prng::Blake3Rng;
use choco_serve::{OffloadServer, ServeConfig, ServeStats, TenantRegistry};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How long a client waits for a response. The library default of 2 s is
/// a deployment setting tuned for an idle host: on the shared reference
/// host a stall during the two-tenant set-up pushed one first evaluate in
/// forty runs past it, and a spurious timeout is a failed op.
const RECV_DEADLINE_MS: u64 = 30_000;

pub struct RemoteSpec {
    pub program: Program,
    /// The Galois steps a client provisions for this program.
    pub steps: Vec<i64>,
    pub params: HeParams,
    pub options: CompilerOptions,
    /// Tenants, one connection and one generator thread each.
    pub tenants: usize,
    /// Ops pipelined per round (`evaluate_batch`); 1 = plain `evaluate`.
    pub batch: usize,
}

struct PoolEntry<S: Checked> {
    /// `(input name, reals)` in declaration order.
    inputs: Vec<(String, Vec<f64>)>,
    expected: Vec<S::Value>,
}

pub struct Remote<S: Checked> {
    spec: RemoteSpec,
    seed: u64,
    prepared: PreparedProgram,
    /// The local twin for the bit-identity check.
    compiled: CompiledProgram,
    pool: Vec<PoolEntry<S>>,
}

fn tenant_seed(tenant: u64) -> Vec<u8> {
    format!("benchmark-tenant-{tenant}").into_bytes()
}

impl<S: Checked> Remote<S> {
    /// Builds the input pool and the benchmark's own answers from `seed`.
    ///
    /// # Errors
    ///
    /// Compile, wire or context errors, rendered.
    pub fn new(spec: RemoteSpec, seed: u64) -> Result<Self, String> {
        let prepared =
            PreparedProgram::new(&spec.program, &spec.options).map_err(|e| e.to_string())?;
        let compiled = compile(&spec.program, &spec.options).map_err(|e| e.to_string())?;
        let ctx = S::context(&spec.params).map_err(|e| e.to_string())?;
        let width = S::slot_width(&ctx);
        let ring = S::ring(&ctx);
        let mut rng = Blake3Rng::from_seed_labeled(&seed.to_le_bytes(), "benchmark inputs");
        let names: Vec<&String> = spec
            .program
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Input(name) => Some(name),
                _ => None,
            })
            .collect();
        let mut pool = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let inputs: Vec<(String, Vec<f64>)> = names
                .iter()
                .map(|name| {
                    let reals = (0..width)
                        .map(|_| (rng.next_below(13) as f64 - 6.0) / 8.0)
                        .collect();
                    ((*name).clone(), reals)
                })
                .collect();
            let quantized: HashMap<String, Vec<S::Value>> = inputs
                .iter()
                .map(|(name, reals)| {
                    let q = S::quantize_const(&ctx, reals, spec.options.scale_bits);
                    (name.clone(), q)
                })
                .collect();
            let expected = eval_program(&ring, &spec.program, width, &quantized, |c| {
                S::quantize_const(&ctx, c, spec.options.scale_bits)
            })?;
            pool.push(PoolEntry { inputs, expected });
        }
        Ok(Remote {
            spec,
            seed,
            prepared,
            compiled,
            pool,
        })
    }
}

pub struct RemoteGen<'w, S: Checked> {
    w: &'w Remote<S>,
    tenant: u64,
    ctx: S::Context,
    keys: S::KeyBundle,
    relin: S::RelinKey,
    galois: S::GaloisKeys,
    rng: Blake3Rng,
    client: RemoteEvaluator<S>,
    cursor: usize,
    values: Values,
    error: Option<String>,
}

impl<S: Checked> RemoteGen<'_, S> {
    fn encrypt_entry(
        &mut self,
        entry: &PoolEntry<S>,
        op: &mut OpTimer,
    ) -> Result<Vec<S::Ciphertext>, String> {
        let scale_bits = self.w.spec.options.scale_bits;
        entry
            .inputs
            .iter()
            .map(|(_, reals)| {
                let values = op.phase("client.encode", || {
                    S::quantize_const(&self.ctx, reals, scale_bits)
                });
                op.phase("client.encrypt", || {
                    S::encrypt(&self.ctx, &self.keys, &values, &mut self.rng)
                })
                .map_err(|e| e.to_string())
            })
            .collect()
    }

    fn try_round(&mut self, op: &mut OpTimer) -> Result<u64, String> {
        let w = self.w;
        let entries: Vec<&PoolEntry<S>> = (0..w.spec.batch)
            .map(|i| &w.pool[(self.cursor + i) % w.pool.len()])
            .collect();
        self.cursor += w.spec.batch;
        let mut encrypted = Vec::with_capacity(entries.len());
        for entry in &entries {
            encrypted.push(self.encrypt_entry(entry, op)?);
        }
        let named: Vec<Vec<(&str, &S::Ciphertext)>> = entries
            .iter()
            .zip(&encrypted)
            .map(|(entry, cts)| {
                let names = entry.inputs.iter().map(|(name, _)| name.as_str());
                names.zip(cts).collect()
            })
            .collect();
        let batch: Vec<&[(&str, &S::Ciphertext)]> = named.iter().map(Vec::as_slice).collect();
        let results = op
            .phase("serve.evaluate", || {
                self.client.evaluate_batch(&w.prepared, &batch)
            })
            .map_err(|e| e.to_string())?;
        let mut wrong = 0;
        for (entry, outputs) in entries.iter().zip(&results) {
            let slots = outputs.first().and_then(|ct| {
                op.phase("client.decrypt", || S::decrypt(&self.ctx, &self.keys, ct))
                    .ok()
            });
            let ok = op.phase("bench.check", || {
                slots.is_some_and(|s| slots_match::<S>(&s, &entry.expected))
            });
            wrong += u64::from(!ok);
        }
        Ok(wrong)
    }

    /// Remote ≡ local: the wire bytes the server returns for one request
    /// equal `execute_encrypted` on the same ciphertexts.
    fn bit_identical(&mut self) -> Result<bool, String> {
        let w = self.w;
        let mut tracer = Tracer::new(Instant::now());
        let mut op = OpTimer::start(&mut tracer, 0, false);
        let cts = self.encrypt_entry(&w.pool[0], &mut op)?;
        let names = w.pool[0].inputs.iter().map(|(name, _)| name.as_str());
        let named: Vec<(&str, &S::Ciphertext)> = names.zip(&cts).collect();
        let remote = self
            .client
            .evaluate(&w.prepared, &named)
            .map_err(|e| e.to_string())?;
        let owned: HashMap<String, S::Ciphertext> = named
            .iter()
            .map(|(name, ct)| (name.to_string(), (*ct).clone()))
            .collect();
        let local = w
            .compiled
            .execute_encrypted::<S>(&self.ctx, &owned, &self.relin, &self.galois)
            .map_err(|e| e.to_string())?;
        let wires = |cts: &[S::Ciphertext]| cts.iter().map(S::ct_to_wire).collect::<Vec<_>>();
        Ok(wires(&remote) == wires(&local))
    }
}

impl<S: Checked> Generator for RemoteGen<'_, S> {
    fn round(&mut self, op: &mut OpTimer) -> Round {
        let ops = self.w.spec.batch as u64;
        let failed = self.try_round(op).unwrap_or_else(|e| {
            self.error.get_or_insert(e);
            ops
        });
        Round { ops, failed }
    }

    fn comm_bytes(&self) -> u64 {
        let ledger = self.client.ledger();
        ledger.upload_bytes + ledger.download_bytes
    }

    fn end(mut self) -> GenEnd {
        let identical = self.bit_identical().unwrap_or_else(|e| {
            self.error.get_or_insert(e);
            false
        });
        GenEnd {
            checks: 1,
            checks_failed: u64::from(!identical),
            ledger: Some((self.tenant, *self.client.ledger())),
            values: self.values,
            error: self.error,
        }
    }
}

impl<S: Checked> Workload for Remote<S> {
    type Shared = OffloadServer;
    type Gen<'w> = RemoteGen<'w, S>;

    fn generators(&self) -> usize {
        self.spec.tenants
    }

    fn start(&self, _rep: u32) -> Result<OffloadServer, String> {
        let mut registry = TenantRegistry::new();
        for tenant in 1..=self.spec.tenants as u64 {
            registry.register(tenant, &tenant_seed(tenant));
        }
        OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry)
            .map_err(|e| format!("bind in-process server: {e}"))
    }

    fn connect(
        &self,
        server: &OffloadServer,
        rep: u32,
        g: usize,
    ) -> Result<RemoteGen<'_, S>, String> {
        let spec = &self.spec;
        let tenant = g as u64 + 1;
        let ctx = S::context(&spec.params).map_err(|e| e.to_string())?;
        let key_seed = format!(
            "benchmark keys seed {} rep {rep} tenant {tenant}",
            self.seed
        );
        let mut rng = Blake3Rng::from_seed(key_seed.as_bytes());
        let keys = S::keygen(&ctx, &mut rng);
        let relin = S::relin_key(&ctx, &keys, &mut rng).map_err(|e| e.to_string())?;
        let galois =
            S::galois_keys(&ctx, &keys, &spec.steps, &mut rng).map_err(|e| e.to_string())?;

        let t0 = Instant::now();
        let client = RemoteEvaluator::<S>::connect(
            &server.addr().to_string(),
            &tenant_seed(tenant),
            tenant,
            u64::from(rep),
            &spec.params,
            &relin,
            &galois,
            &TcpOptions {
                recv_deadline_ms: RECV_DEADLINE_MS,
                ..TcpOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let connected = t0.elapsed();
        let mut gen = RemoteGen {
            w: self,
            tenant,
            ctx,
            keys,
            relin,
            galois,
            rng,
            client,
            cursor: 0,
            values: Values::default(),
            error: None,
        };
        // The first evaluate attaches the program; the server compiles it
        // and encodes its operands.
        let mut tracer = Tracer::new(t0);
        let mut op = OpTimer::start(&mut tracer, 0, false);
        let wrong = gen.try_round(&mut op)?;
        let (first_ns, _) = op.finish();
        if wrong > 0 {
            return Err(format!("first evaluate: {wrong} wrong answers"));
        }
        gen.values
            .set("serve.connect_setup_ms", connected.as_secs_f64() * 1e3);
        gen.values
            .set("serve.first_evaluate_ms", first_ns as f64 / 1e6);
        Ok(gen)
    }

    fn server_stats(&self, server: &OffloadServer) -> Option<ServeStats> {
        Some(server.stats())
    }

    fn finish(&self, server: OffloadServer, ledgers: &[(u64, CommLedger)]) -> (u64, u64, Values) {
        let stats = server.shutdown();
        let mismatch: u64 = ledgers
            .iter()
            .map(|(tenant, ledger)| {
                let book = stats.book.get(*tenant).copied().unwrap_or_default();
                book.upload_bytes.abs_diff(ledger.upload_bytes)
                    + book.download_bytes.abs_diff(ledger.download_bytes)
            })
            .sum();
        let eval = &stats.eval;
        let mut v = Values::default();
        v.set("serve.bill_mismatch_bytes", mismatch as f64);
        v.set("serve.compiles", eval.cache.compiles as f64);
        v.set("serve.max_batch", eval.sched.max_batch as f64);
        v.set("serve.need_program", eval.counters.need_program as f64);
        v.set("serve.eval_errors", eval.counters.errors as f64);
        v.set("serve.shed_deadline", eval.isolation.shed_deadline as f64);
        v.set("serve.bisections", eval.isolation.bisections as f64);
        v.set(
            "serve.breaker_refusals",
            eval.isolation.breaker_refusals as f64,
        );
        // Two checks: exact billing, and one compile for the one program
        // however many tenants and requests referenced it.
        let failed = u64::from(mismatch != 0) + u64::from(eval.cache.compiles != 1);
        (2, failed, v)
    }

    fn probe(&self, budget: Duration, evaluate_rtt_ms: f64) -> Result<Values, String> {
        probe::<S>(
            &self.spec.params,
            &self.spec.steps,
            &format!("benchmark probe {}", self.seed),
            Some(&ProgramUnderTest {
                program: &self.spec.program,
                options: self.spec.options,
                inputs: &self.pool[0].inputs,
                evaluate_rtt_ms: (self.spec.batch == 1).then_some(evaluate_rtt_ms),
            }),
            budget,
        )
    }
}

/// Scheduler and cache behaviour over the measured window alone. A ratio
/// with nothing under it (a program without plaintext operands looks none
/// up) stays unset.
pub fn serve_window_values(before: &ServeStats, after: &ServeStats) -> Values {
    let mut v = Values::default();
    let mut ratio = |name: &'static str, num: u64, den: u64| {
        if den > 0 {
            v.set(name, num as f64 / den as f64);
        }
    };
    let (b, a) = (&before.eval, &after.eval);
    let jobs = a.sched.jobs - b.sched.jobs;
    ratio("serve.mean_batch", jobs, a.sched.batches - b.sched.batches);
    ratio(
        "serve.coalesced_share",
        a.sched.coalesced - b.sched.coalesced,
        jobs,
    );
    let caches = [
        (
            "serve.program_hit_ratio",
            &a.cache.programs,
            &b.cache.programs,
        ),
        (
            "serve.operand_hit_ratio",
            &a.cache.operands,
            &b.cache.operands,
        ),
    ];
    for (name, a, b) in caches {
        let hits = a.hits - b.hits;
        ratio(name, hits, hits + (a.misses - b.misses));
    }
    v
}
