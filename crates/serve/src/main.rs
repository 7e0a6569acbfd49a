//! `choco-serve` — run the offload server on a real socket: the batching,
//! caching remote HE evaluator.
//!
//! ```text
//! choco-serve --addr 127.0.0.1:7470 --tenant 1=my-session-seed
//! ```
//!
//! The process serves until it reads `drain` (or EOF — the
//! SIGTERM-equivalent in this libc-free build) on stdin, then drains
//! gracefully: admission stops, scheduled batches are flushed and their
//! results delivered, and the final stats are printed as one JSON line.
//! The process keeps nothing on disk: a client that loses its connection
//! redials and resends whatever it has no answer for.

#![forbid(unsafe_code)]

use choco_serve::{OffloadServer, ServeConfig, TenantRegistry};
use std::io::BufRead;

const USAGE: &str = "\
choco-serve: offload server (batching, caching remote HE evaluator)

USAGE:
  choco-serve [--addr HOST:PORT] [--max-sessions N] [--io-timeout-ms MS]
              [--tenant ID=SEED]...

OPTIONS:
  --addr HOST:PORT      listen address (default 127.0.0.1:7470; port 0 picks
                        an ephemeral port)
  --max-sessions N      admission limit; further hellos get a typed
                        Overloaded ack (default 64)
  --io-timeout-ms MS    handshake/write timeout, at least 1 (default 5000)
  --tenant ID=SEED      register a tenant (repeatable); the seed must equal
                        the client's session seed

Runtime commands on stdin: `stats` prints a one-line JSON snapshot (serve,
eval, cache, scheduler, and isolation counters), `drain` (or EOF)
drains gracefully, prints the same line for the final state, and exits.";

fn fail(msg: &str) -> ! {
    eprintln!("choco-serve: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn parse_u64(value: &str, flag: &str) -> u64 {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: {value:?} is not a number")))
}

fn main() {
    let mut addr = "127.0.0.1:7470".to_string();
    let mut config = ServeConfig::default();
    let mut registry = TenantRegistry::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = need(&mut args, "--addr"),
            "--max-sessions" => {
                config.max_sessions = u32::try_from(parse_u64(
                    &need(&mut args, "--max-sessions"),
                    "--max-sessions",
                ))
                .unwrap_or_else(|_| fail("--max-sessions out of range"));
            }
            "--io-timeout-ms" => {
                config.io_timeout_ms =
                    parse_u64(&need(&mut args, "--io-timeout-ms"), "--io-timeout-ms");
                // A zero deadline leaves a client no time to send its
                // hello.
                if config.io_timeout_ms == 0 {
                    fail("--io-timeout-ms must be at least 1");
                }
            }
            "--tenant" => {
                let spec = need(&mut args, "--tenant");
                let Some((id, seed)) = spec.split_once('=') else {
                    fail(&format!("--tenant {spec:?}: expected ID=SEED"));
                };
                registry.register(parse_u64(id, "--tenant"), seed.as_bytes());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if registry.is_empty() {
        fail("no tenants registered; pass at least one --tenant ID=SEED");
    }

    let tenants = registry.len();
    let server = OffloadServer::bind(&addr, config.clone(), registry)
        .unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    println!(
        "choco-serve listening on {} ({tenants} tenants, max {} sessions)",
        server.addr(),
        config.max_sessions
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "" => {}
            "stats" => println!("{}", server.stats().to_json_line()),
            "drain" | "quit" | "exit" => break,
            other => println!("unknown command {other:?} (try: stats, drain)"),
        }
    }

    println!("choco-serve: draining...");
    println!("{}", server.shutdown().to_json_line());
    println!("choco-serve: drained");
}
