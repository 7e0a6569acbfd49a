//! The metric names this benchmark owns. `BENCHMARK.json` lists the same
//! names, units and bounds (a unit test holds the two together); README.md
//! defines each one.

pub const WORKLOADS: [&str; 4] = [
    "lenet_direct",
    "pagerank_remote",
    "distance_remote",
    "conv_batched",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may get worse
    /// before `--check` calls it a regression. The timing bounds are the
    /// reference host's noise floor: with the default two `par` workers on
    /// its two shared cores, ten identical runs of `conv_batched` spread
    /// (first to third quartile) over 14 % of their median.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "offload_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "client_ms_per_op",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "comm_kib_per_op",
        unit: "KiB",
        higher_is_better: false,
        bound: 0.01,
    },
];

/// `(name, unit, higher_is_better)`. A workload that bypasses a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str, bool); 68] = [
    ("math.ntt_forward_us", "us", false),
    ("math.ntt_inverse_us", "us", false),
    ("math.dyadic_mul_us", "us", false),
    ("math.pool_fresh_per_op", "count", false),
    ("math.par_threads", "count", true),
    ("math.simd_backend", "lanes", true),
    ("prng.xof_mib_s", "MiB/s", true),
    ("prng.bytes_per_encrypt", "bytes", false),
    ("he.encode_us", "us", false),
    ("he.encrypt_ms", "ms", false),
    ("he.decrypt_ms", "ms", false),
    ("he.rotate_ms", "ms", false),
    ("he.mul_plain_ms", "ms", false),
    ("he.add_us", "us", false),
    ("he.mul_ct_ms", "ms", false),
    ("he.rescale_ms", "ms", false),
    ("he.dot_diagonals_ms", "ms", false),
    ("he.ct_to_wire_us", "us", false),
    ("he.ct_from_wire_us", "us", false),
    ("he.ct_bytes", "bytes", false),
    ("he.keygen_ms", "ms", false),
    ("he.galois_keygen_ms", "ms", false),
    ("he.galois_key_mib", "MiB", false),
    ("choco.compile_ms", "ms", false),
    ("choco.program_wire_bytes", "bytes", false),
    ("choco.ops.rotations", "count", false),
    ("choco.ops.pt_mults", "count", false),
    ("choco.ops.ct_mults", "count", false),
    ("choco.ops.adds", "count", false),
    ("choco.ops.rescales", "count", false),
    ("choco.exec_warm_ms", "ms", false),
    ("choco.exec_cold_ms", "ms", false),
    ("choco.exec_model_ratio", "ratio", true),
    ("choco.request_wire_us", "us", false),
    ("choco.response_wire_us", "us", false),
    ("choco.frame_encode_us", "us", false),
    ("choco.frame_decode_us", "us", false),
    ("choco.session_transfer_ms", "ms", false),
    ("verify.verify_ms", "ms", false),
    ("apps.conv1_ms", "ms", false),
    ("apps.conv2_ms", "ms", false),
    ("apps.fc_ms", "ms", false),
    ("apps.client_pool_ms", "ms", false),
    ("apps.encrypts_per_op", "count", false),
    ("apps.decrypts_per_op", "count", false),
    ("serve.evaluate_rtt_ms", "ms", false),
    ("serve.overhead_ms", "ms", false),
    ("serve.mean_batch", "count", true),
    ("serve.max_batch", "count", true),
    ("serve.coalesced_share", "ratio", true),
    ("serve.program_hit_ratio", "ratio", true),
    ("serve.operand_hit_ratio", "ratio", true),
    ("serve.compiles", "count", false),
    ("serve.connect_setup_ms", "ms", false),
    ("serve.first_evaluate_ms", "ms", false),
    ("serve.need_program", "count", false),
    ("serve.eval_errors", "count", false),
    ("serve.shed_deadline", "count", false),
    ("serve.bisections", "count", false),
    ("serve.breaker_refusals", "count", false),
    ("serve.bill_mismatch_bytes", "bytes", false),
    ("bench.offload_p90_ms", "ms", false),
    ("bench.offload_max_ms", "ms", false),
    ("bench.samples", "count", true),
    ("bench.span_coverage", "ratio", true),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.generator_threads", "count", true),
    ("bench.peak_rss_mib", "MiB", false),
];

/// Named values collected during a run; names come from the tables above.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// The driver reads `BENCHMARK.json`, `--check` reads the tables here:
    /// they must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(doc.get("workloads").unwrap()), WORKLOADS);

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(ours.name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(ours.unit));
            let better = if ours.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(listed.get("better").unwrap().as_str(), Some(better));
            assert_eq!(listed.get("bound").unwrap().as_f64(), Some(ours.bound));
        }

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, (name, unit, higher)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(*name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(*unit));
            let better = if *higher { "higher" } else { "lower" };
            assert_eq!(listed.get("better").unwrap().as_str(), Some(better));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        all.extend(WORKLOADS);
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
