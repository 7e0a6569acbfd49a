//! Server-side compiled-program and operand caches.
//!
//! Steady-state offload traffic evaluates the same circuits against the
//! same server-known models over and over, across requests and across
//! tenants that share a parameter set. The expensive per-program work —
//! compiling the source program, encoding each plaintext constant into
//! the scheme's evaluation domain at its exact use site — is fully
//! determined by `(params recipe, program bytes, compiler options)`, so it
//! is cached globally under the BLAKE3 pair `(params_hash, program_ref)`:
//!
//! * [`ServeCache`] holds one LRU [`OperandCache`] of compiled programs
//!   per scheme. A hit hands out an `Arc` of the cached entry; a miss with
//!   the program body attached compiles (counted); a miss without the body
//!   is reported as [`ProgramLookup::NeedProgram`] so the client resends
//!   with the body.
//! * Each cached entry is a [`CachedProgram`]: the verified
//!   [`CompiledProgram`] plus its [`ExecCache`](choco::compiler::ExecCache) of encoded plaintext
//!   operands, shared by every request (any tenant) that evaluates it.
//!
//! Sharing across tenants is safe by construction: cached artifacts are
//! deterministic functions of *public* inputs (the program and the
//! parameter recipe) — no key material and no ciphertext data is ever
//! cached. Counters on both layers let tests and live stats prove that
//! warm traffic does zero recompilation and zero re-encoding.

use choco::compiler::{compile, CompilerOptions};
use choco::remote::program_from_wire;
use choco_he::cache::{CacheCounters, OperandCache};
use choco_he::{Bfv, Ckks};
use std::sync::{Arc, Mutex, MutexGuard};

pub use choco::compiler::{CachedProgram, CompiledProgram, CompilerScheme};

/// The global cache key: `(params_hash, program_ref)`.
pub type ProgramKey = ([u8; 32], [u8; 32]);

/// The extra thread-safety a scheme needs to be evaluated server-side:
/// its artifacts cross from connection workers to the batch scheduler's
/// execution threads. Both schemes' concrete types are plain owned data,
/// so the bounds hold automatically; the trait also routes each scheme to
/// its slot in the [`ServeCache`].
pub trait EvalScheme:
    CompilerScheme
    + choco_he::HeScheme<
        Context: Send + Sync,
        Ciphertext: Send + Sync,
        RelinKey: Send + Sync,
        GaloisKeys: Send + Sync,
    >
{
    /// This scheme's program-cache slot.
    fn cache_slot(cache: &ServeCache) -> &Mutex<OperandCache<ProgramKey, Arc<CachedProgram<Self>>>>
    where
        Self: Sized;
}

impl EvalScheme for Bfv {
    fn cache_slot(cache: &ServeCache) -> &Mutex<OperandCache<ProgramKey, Arc<CachedProgram<Bfv>>>> {
        &cache.bfv
    }
}

impl EvalScheme for Ckks {
    fn cache_slot(
        cache: &ServeCache,
    ) -> &Mutex<OperandCache<ProgramKey, Arc<CachedProgram<Ckks>>>> {
        &cache.ckks
    }
}

/// Result of a program lookup.
pub enum ProgramLookup<S: CompilerScheme> {
    /// Cached (or just compiled) and ready to execute.
    Ready(Arc<CachedProgram<S>>),
    /// Not cached and the request carried no body: the client must resend
    /// with the program attached.
    NeedProgram,
}

/// Point-in-time cache accounting, aggregated across both schemes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Program-cache lookups (hits/misses/insertions/evictions). `misses`
    /// includes `NeedProgram` round trips; `insertions` counts successful
    /// compiles.
    pub programs: CacheCounters,
    /// Real `compile()` invocations (the steady-state zero-recompile
    /// proof asserts this stays flat under warm traffic).
    pub compiles: u64,
    /// Operand-encode counters aggregated over *resident* programs
    /// (`misses` = real encodes; evicted programs take their counters
    /// with them).
    pub operands: CacheCounters,
    /// Fused dot groups in the execution schedules of the resident
    /// programs ([`CompiledProgram::fused_groups`]): zero means every
    /// rotation of every resident program key-switches on its own.
    pub fused_groups: u64,
}

/// The server's global artifact cache (see module docs).
#[derive(Debug)]
pub struct ServeCache {
    bfv: Mutex<OperandCache<ProgramKey, Arc<CachedProgram<Bfv>>>>,
    ckks: Mutex<OperandCache<ProgramKey, Arc<CachedProgram<Ckks>>>>,
    compiles: Mutex<u64>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sentinel "builder failure" used to record a typed miss when the body is
/// absent (the failed build is counted but nothing is cached).
enum LookupMiss {
    NeedProgram,
    Failed(String),
}

impl ServeCache {
    /// A cache holding at most `capacity` compiled programs per scheme
    /// (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        ServeCache {
            bfv: Mutex::new(OperandCache::new(capacity)),
            ckks: Mutex::new(OperandCache::new(capacity)),
            compiles: Mutex::new(0),
        }
    }

    /// Looks `(params_hash, program_ref)` up; on a miss, compiles the
    /// attached body (if any) and caches the result, evicting the
    /// least-recently-used program at capacity.
    ///
    /// # Errors
    ///
    /// A malformed or uncompilable body is returned as the rendered error
    /// message (it becomes the typed `Error` response on the wire).
    pub fn lookup_or_compile<S: EvalScheme>(
        &self,
        params_hash: [u8; 32],
        program_ref: [u8; 32],
        body: Option<&(Vec<u8>, CompilerOptions)>,
    ) -> Result<ProgramLookup<S>, String> {
        let key = (params_hash, program_ref);
        let mut slot = lock(S::cache_slot(self));
        let result = slot.get_or_insert_with(&key, || {
            let Some((wire, options)) = body else {
                return Err(LookupMiss::NeedProgram);
            };
            let program = program_from_wire(wire).map_err(|e| LookupMiss::Failed(e.to_string()))?;
            let compiled =
                compile(&program, options).map_err(|e| LookupMiss::Failed(format!("{e:?}")))?;
            *lock(&self.compiles) += 1;
            Ok(Arc::new(CachedProgram::new(compiled)))
        });
        match result {
            Ok(prog) => Ok(ProgramLookup::Ready(prog)),
            Err(LookupMiss::NeedProgram) => Ok(ProgramLookup::NeedProgram),
            Err(LookupMiss::Failed(msg)) => Err(msg),
        }
    }

    /// Resident program count across both schemes.
    pub fn len(&self) -> usize {
        lock(&self.bfv).len() + lock(&self.ckks).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters (see [`EvalCacheStats`]).
    pub fn stats(&self) -> EvalCacheStats {
        let mut stats = EvalCacheStats {
            compiles: *lock(&self.compiles),
            ..EvalCacheStats::default()
        };
        fn absorb<S: CompilerScheme>(
            stats: &mut EvalCacheStats,
            slot: &OperandCache<ProgramKey, Arc<CachedProgram<S>>>,
        ) {
            stats.programs.absorb(&slot.counters());
            for prog in slot.values() {
                stats.operands.absorb(&prog.operands.counters());
                stats.fused_groups += prog.compiled.fused_groups() as u64;
            }
        }
        absorb(&mut stats, &lock(&self.bfv));
        absorb(&mut stats, &lock(&self.ckks));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco::compiler::Program;
    use choco::remote::{program_ref_of, program_to_wire};

    fn sample(scale: f64) -> (Vec<u8>, CompilerOptions) {
        let mut p = Program::new();
        let x = p.input("x");
        let w = p.constant(&[scale, 2.0 * scale]);
        let y = p.mul_plain(x, w);
        p.output(y);
        let options = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 3,
        };
        (program_to_wire(&p).unwrap(), options)
    }

    #[test]
    fn miss_without_body_is_need_program_then_compile_once() {
        let cache = ServeCache::new(4);
        let (wire, options) = sample(1.0);
        let refid = program_ref_of(&wire, &options);
        let ph = [7u8; 32];

        match cache.lookup_or_compile::<Ckks>(ph, refid, None).unwrap() {
            ProgramLookup::NeedProgram => {}
            ProgramLookup::Ready(_) => panic!("cold lookup without body returned Ready"),
        }
        let body = (wire, options);
        assert!(matches!(
            cache
                .lookup_or_compile::<Ckks>(ph, refid, Some(&body))
                .unwrap(),
            ProgramLookup::Ready(_)
        ));
        // Warm: no body needed, no compile.
        assert!(matches!(
            cache.lookup_or_compile::<Ckks>(ph, refid, None).unwrap(),
            ProgramLookup::Ready(_)
        ));
        let stats = cache.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.programs.hits, 1);
        assert_eq!(stats.programs.misses, 2); // NeedProgram + compile
        assert_eq!(stats.programs.insertions, 1);
    }

    #[test]
    fn capacity_evicts_lru_and_refetch_recompiles() {
        let cache = ServeCache::new(2);
        let ph = [1u8; 32];
        let bodies: Vec<_> = (0..3).map(|i| sample(1.0 + i as f64)).collect();
        let refs: Vec<_> = bodies.iter().map(|(w, o)| program_ref_of(w, o)).collect();
        for (body, refid) in bodies.iter().zip(&refs) {
            assert!(matches!(
                cache
                    .lookup_or_compile::<Ckks>(ph, *refid, Some(body))
                    .unwrap(),
                ProgramLookup::Ready(_)
            ));
        }
        // 3 programs through a 2-slot cache: the first was evicted.
        let stats = cache.stats();
        assert_eq!(stats.compiles, 3);
        assert_eq!(stats.programs.evictions, 1);
        match cache.lookup_or_compile::<Ckks>(ph, refs[0], None).unwrap() {
            ProgramLookup::NeedProgram => {}
            ProgramLookup::Ready(_) => panic!("evicted program still resident"),
        }
        // The still-resident ones are hits.
        assert!(matches!(
            cache.lookup_or_compile::<Ckks>(ph, refs[2], None).unwrap(),
            ProgramLookup::Ready(_)
        ));
    }

    #[test]
    fn schemes_and_params_do_not_collide() {
        let cache = ServeCache::new(4);
        let (wire, options) = sample(1.0);
        let refid = program_ref_of(&wire, &options);
        let body = (wire, options);
        assert!(matches!(
            cache
                .lookup_or_compile::<Ckks>([1; 32], refid, Some(&body))
                .unwrap(),
            ProgramLookup::Ready(_)
        ));
        // Same program hash, other scheme slot: separate entry.
        match cache
            .lookup_or_compile::<Bfv>([1; 32], refid, None)
            .unwrap()
        {
            ProgramLookup::NeedProgram => {}
            ProgramLookup::Ready(_) => panic!("BFV slot shared a CKKS entry"),
        }
        // Same scheme, different params hash: separate entry too.
        match cache
            .lookup_or_compile::<Ckks>([2; 32], refid, None)
            .unwrap()
        {
            ProgramLookup::NeedProgram => {}
            ProgramLookup::Ready(_) => panic!("different params shared an entry"),
        }
    }

    #[test]
    fn uncompilable_body_is_a_typed_error_and_not_cached() {
        let cache = ServeCache::new(4);
        // A program needing more depth than max_levels allows.
        let mut p = Program::new();
        let x = p.input("x");
        let mut acc = x;
        for _ in 0..6 {
            acc = p.mul(acc, acc);
        }
        p.output(acc);
        let options = CompilerOptions {
            scale_bits: 30,
            prime_bits: 45,
            max_levels: 2,
        };
        let wire = program_to_wire(&p).unwrap();
        let refid = program_ref_of(&wire, &options);
        let body = (wire, options);
        assert!(cache
            .lookup_or_compile::<Ckks>([3; 32], refid, Some(&body))
            .is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().compiles, 0);
    }
}
