//! The `choco-serve` binary as a real process.
//!
//! The in-process suites drive an `OffloadServer` object; these tests
//! spawn the binary itself and speak to it the way an operator and a
//! client do — flags on the command line, the listen address on stdout,
//! `stats` and `drain` on stdin, evaluation over TCP:
//!
//! * **one life** — a client's sequential and pipelined evaluations come
//!   back byte-identical to the local twin, `stats` and the drain summary
//!   print one JSON line each, and the summary bills exactly the client's
//!   own ledger, none of it as retransmit;
//! * **restart** — a second process serving the same `(tenant, session)`
//!   ids bills the same run identically;
//! * **stdin** — EOF drains like `drain`, and an unknown command is
//!   answered with a hint while the server serves on;
//! * **flags** — `--io-timeout-ms 0` is refused with the usage error.
//!
//! Nothing here sleeps or polls: every wait is a blocking read of the
//! child's stdout, and a drop guard kills a child a failed test leaves
//! behind.

use choco::remote::RemoteEvaluator;
use choco::transport::tcp::TcpOptions;
use choco::CommLedger;
use choco_apps::circuits::all_workloads;
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, HeScheme};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};

const TENANT_SEEDS: [&str; 2] = ["serve-process tenant 1", "serve-process tenant 2"];

/// A running `choco-serve` child; killed on drop unless it exited.
struct ServeProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServeProcess {
    /// Spawns the binary on an ephemeral port with both tenants and reads
    /// stdout up to the line that names the bound address.
    fn spawn() -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_choco-serve"));
        cmd.args(["--addr", "127.0.0.1:0"]);
        for (tenant, seed) in (1..).zip(TENANT_SEEDS) {
            cmd.arg("--tenant").arg(format!("{tenant}={seed}"));
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn choco-serve");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServeProcess {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let line = server.read_line();
        server.addr = line
            .strip_prefix("choco-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        server
    }

    /// The next stdout line, without its newline.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read stdout");
        assert!(n > 0, "choco-serve closed stdout");
        line.trim_end().to_string()
    }

    fn send(&mut self, command: &str) {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        writeln!(stdin, "{command}").expect("write stdin");
    }

    /// Closes stdin, reads stdout to its end and waits for the exit.
    fn finish(mut self) -> (Vec<String>, ExitStatus) {
        drop(self.stdin.take());
        let lines = (&mut self.stdout)
            .lines()
            .collect::<Result<_, _>>()
            .expect("read stdout");
        (lines, self.child.wait().expect("wait"))
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The unsigned integer a stats line carries under `"field":`.
fn field(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {line}"))
        + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{name} in {line}"))
}

/// Asserts a finished process drained cleanly: exit 0, the drain marker
/// last, and `stats_expected` stats lines of which the summary is the
/// last. Returns the summary.
fn assert_drained(lines: &[String], status: ExitStatus, stats_expected: usize) -> String {
    assert!(status.success(), "exit {status}: {lines:?}");
    assert_eq!(
        lines.last().map(String::as_str),
        Some("choco-serve: drained"),
        "{lines:?}"
    );
    let stats: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"accepted\":"))
        .collect();
    assert_eq!(stats.len(), stats_expected, "{lines:?}");
    stats.last().map(|l| l.to_string()).unwrap_or_default()
}

/// Tenant 1's PageRank session under BFV: two sequential evaluations and
/// one pipelined batch of three, each output byte-identical to the local
/// twin. Returns the client's ledger once the connection is closed.
fn drive_pagerank(addr: &str) -> CommLedger {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"serve-process pagerank").unwrap();
    let local = w.local_output_wires().unwrap();
    let wires = |outs: &[<Bfv as HeScheme>::Ciphertext]| -> Vec<Vec<u8>> {
        outs.iter().map(Bfv::ct_to_wire).collect()
    };

    let mut client = RemoteEvaluator::<Bfv>::connect(
        addr,
        TENANT_SEEDS[0].as_bytes(),
        1,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .unwrap_or_else(|e| panic!("connect failed: {e}"));
    let inputs = w.input_refs();
    for _ in 0..2 {
        let outs = client.evaluate(&w.prepared, &inputs).unwrap();
        assert_eq!(wires(&outs), local, "sequential remote != local");
    }
    let batch = [inputs.as_slice(); 3];
    let results = client.evaluate_batch(&w.prepared, &batch).unwrap();
    assert_eq!(results.len(), 3);
    for outs in &results {
        assert_eq!(wires(outs), local, "pipelined remote != local");
    }
    *client.ledger()
}

/// One process life: boot, drive, `stats`, `drain`. Returns the drain
/// summary's billed (upload, download) bytes after checking them against
/// the client's ledger.
fn one_life() -> (u64, u64) {
    let mut server = ServeProcess::spawn();
    let ledger = drive_pagerank(&server.addr);
    server.send("stats");
    server.send("drain");
    let (lines, status) = server.finish();
    let summary = assert_drained(&lines, status, 2);
    let billed = (
        field(&summary, "upload_bytes"),
        field(&summary, "download_bytes"),
    );
    assert_eq!(billed, (ledger.upload_bytes, ledger.download_bytes));
    assert_eq!(field(&summary, "retransmit_bytes"), 0, "{summary}");
    assert_eq!(field(&summary, "errors"), 0, "{summary}");
    billed
}

#[test]
fn served_pagerank_is_bit_identical_billed_exactly_and_a_restart_bills_the_same() {
    let first = one_life();
    let second = one_life();
    assert_eq!(
        first, second,
        "a restarted server billed the same ids differently"
    );
}

#[test]
fn eof_on_stdin_drains_like_the_drain_command() {
    let server = ServeProcess::spawn();
    let (lines, status) = server.finish();
    assert!(
        lines.iter().any(|l| l == "choco-serve: draining..."),
        "{lines:?}"
    );
    let summary = assert_drained(&lines, status, 1);
    assert_eq!(field(&summary, "accepted"), 0, "{summary}");
}

#[test]
fn unknown_command_gets_a_hint_and_the_server_serves_on() {
    let mut server = ServeProcess::spawn();
    server.send("frobnicate");
    let hint = server.read_line();
    assert!(
        hint.starts_with("unknown command \"frobnicate\""),
        "{hint:?}"
    );
    server.send("stats");
    let stats = server.read_line();
    assert!(stats.starts_with("{\"accepted\":"), "{stats:?}");
    server.send("drain");
    let (lines, status) = server.finish();
    assert_drained(&lines, status, 1);
}

#[test]
fn zero_io_timeout_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_choco-serve"))
        .args(["--addr", "127.0.0.1:0", "--tenant", "1=seed"])
        .args(["--io-timeout-ms", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run choco-serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains("--io-timeout-ms"), "{stderr}");
    assert!(out.stdout.is_empty(), "it must not have bound a socket");
}
