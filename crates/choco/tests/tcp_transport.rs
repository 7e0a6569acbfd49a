//! `TcpChannel` over real loopback sockets: framing, partial reads, typed
//! failures, duplicate dedup, and checkpoint/resume across a connection
//! loss — everything the in-memory channels guarantee, now with a kernel
//! in the loop.

use choco::transport::tcp::{BlobIo, TcpChannel, TcpOptions};
use choco::transport::{frame, Channel, FrameKind, Session, TagKey, TransportError};
use choco_he::params::HeParams;
use choco_he::Bfv;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn params() -> HeParams {
    HeParams::bfv_insecure(256, &[40, 40, 41], 14).unwrap()
}

/// Spawns a verified-relay peer: accepts connections forever, echoes every
/// frame that verifies under `key` back `echoes` times, drops the rest.
/// `frames_per_conn` caps how many frames a connection relays before the
/// peer hangs up (`usize::MAX` = never).
fn echo_peer(key: TagKey, echoes: usize, frames_per_conn: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let key = key.clone();
            std::thread::spawn(move || {
                let mut io = BlobIo::new(stream, 1 << 26);
                let mut served = 0usize;
                while served < frames_per_conn {
                    match io.read_blob(100) {
                        Ok(Some(blob)) => {
                            if frame::decode_frame(&blob, &key).is_ok() {
                                for _ in 0..echoes {
                                    if io.write_all(&blob).is_err() {
                                        return;
                                    }
                                }
                            }
                            served += 1;
                        }
                        Ok(None) => continue,
                        Err(_) => return,
                    }
                }
            });
        }
    });
    addr
}

fn channel_pair(addr: SocketAddr, opts: &TcpOptions) -> (TcpChannel, TcpChannel) {
    let stream = TcpStream::connect(addr).unwrap();
    TcpChannel::pair(stream, opts)
}

#[test]
fn frames_roundtrip_over_loopback() {
    let key = TagKey::from_session_seed(b"tcp roundtrip");
    let addr = echo_peer(key.clone(), 1, usize::MAX);
    let (mut up, _down) = channel_pair(addr, &TcpOptions::default());
    for seq in 0..5u64 {
        let wire = frame::encode_frame(FrameKind::Plaintext, seq, &vec![seq as u8; 2048], &key);
        up.send(wire.clone());
        let d = up.recv().expect("echo never arrived");
        assert_eq!(d.wire, wire, "frame {seq} corrupted over loopback");
    }
    assert!(up.is_connected());
}

#[test]
fn partial_writes_are_reassembled() {
    // The peer dribbles the echo a few bytes at a time; the channel's read
    // buffer must reassemble the frame across many short reads.
    let key = TagKey::from_session_seed(b"tcp dribble");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_key = key.clone();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut io = BlobIo::new(stream.try_clone().unwrap(), 1 << 26);
        let blob = loop {
            if let Ok(Some(b)) = io.read_blob(100) {
                break b;
            }
        };
        assert!(frame::decode_frame(&blob, &server_key).is_ok());
        use std::io::Write;
        let mut out = stream;
        for piece in blob.chunks(7) {
            out.write_all(piece).unwrap();
            out.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let (mut up, _down) = channel_pair(addr, &TcpOptions::default());
    let wire = frame::encode_frame(FrameKind::Control, 3, &[9; 200], &key);
    up.send(wire.clone());
    let d = up.recv().expect("dribbled echo never reassembled");
    assert_eq!(d.wire, wire);
}

/// A connected loopback pair: the raw writing end and a `BlobIo` reader.
fn blob_io_pair() -> (TcpStream, BlobIo) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (reader, _) = listener.accept().unwrap();
    (writer, BlobIo::new(reader, 1 << 26))
}

#[test]
fn a_blob_cut_by_deadlines_resumes_where_it_stopped() {
    use std::io::Write;
    let (mut writer, mut io) = blob_io_pair();
    let mut blob = 300_000u32.to_le_bytes().to_vec();
    blob.extend((0..300_000u32).map(|i| (i % 251) as u8));
    // Cut inside the prefix, then inside the body: every call that runs
    // dry keeps what it read, and the one that completes returns it all.
    for (cut, rest) in [(0, 3), (3, 100_000), (100_000, blob.len())] {
        assert!(matches!(io.read_blob(20), Ok(None)), "complete at {cut}?");
        writer.write_all(&blob[cut..rest]).unwrap();
    }
    assert_eq!(io.read_blob(2_000).unwrap().as_deref(), Some(&blob[..]));
    // A zero deadline never touches the socket.
    writer.write_all(&[1, 0, 0, 0, 7]).unwrap();
    assert!(matches!(io.read_blob(0), Ok(None)));
    assert_eq!(io.read_blob(2_000).unwrap(), Some(vec![1, 0, 0, 0, 7]));
}

#[test]
fn reads_never_run_ahead_so_the_next_request_shows_as_pending() {
    use std::io::Write;
    let (mut writer, mut io) = blob_io_pair();
    assert!(!io.bytes_pending(), "nothing sent yet");
    // Two blobs in one write: reading the first leaves the second on the
    // socket, where the probe finds it without consuming it.
    writer
        .write_all(&[2, 0, 0, 0, 10, 11, 1, 0, 0, 0, 12])
        .unwrap();
    assert_eq!(io.read_blob(2_000).unwrap(), Some(vec![2, 0, 0, 0, 10, 11]));
    assert!(io.bytes_pending());
    assert!(io.bytes_pending(), "the probe consumed the byte it saw");
    assert_eq!(io.read_blob(2_000).unwrap(), Some(vec![1, 0, 0, 0, 12]));
    assert!(!io.bytes_pending(), "nothing behind the last blob");
    // The probe leaves the socket blocking: with nothing to read, the next
    // call waits out its deadline instead of failing at once.
    let start = Instant::now();
    assert!(matches!(io.read_blob(50), Ok(None)));
    assert!(start.elapsed() >= Duration::from_millis(50));
    // Half a blob is pending bytes too.
    writer.write_all(&[9, 0]).unwrap();
    assert!(matches!(io.read_blob(20), Ok(None)));
    assert!(io.bytes_pending());
}

#[test]
fn writes_through_a_clone_survive_the_probes_nonblocking_moment() {
    use choco::transport::tcp::write_all_beside_probe;
    use std::io::Read;
    // The probe's non-blocking moment, stretched to 30 ms: a write bigger
    // than the socket buffers meets `WouldBlock` as soon as they are full
    // and must keep trying until the socket blocks again and the peer
    // reads.
    let (mut peer, io) = blob_io_pair();
    let out = io.stream().try_clone().unwrap();
    let payload: Vec<u8> = (0..8u32 << 20).map(|i| (i % 253) as u8).collect();
    let expected = payload.clone();
    io.stream().set_nonblocking(true).unwrap();
    let writer =
        std::thread::spawn(move || write_all_beside_probe(&out, &payload, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(30));
    io.stream().set_nonblocking(false).unwrap();
    let mut got = vec![0u8; expected.len()];
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    peer.read_exact(&mut got).expect("the writer gave up");
    writer.join().unwrap().expect("the probe failed the write");
    assert!(got == expected, "bytes lost or reordered");

    // A peer that never reads is still given up on: once the socket
    // buffers are full, no byte accepted for the whole timeout ends the
    // write, blocking socket or not.
    let out = io.stream().try_clone().unwrap();
    io.stream().set_nonblocking(true).unwrap();
    let start = Instant::now();
    let patience = Duration::from_millis(60);
    let stuck = (0..64).find_map(|_| write_all_beside_probe(&out, &expected, patience).err());
    let stuck = stuck.expect("socket buffers took 512 MiB");
    assert_eq!(stuck.kind(), std::io::ErrorKind::WouldBlock);
    assert!(start.elapsed() >= patience);
}

#[test]
fn oversized_prefix_is_rejected_before_allocating() {
    // A rogue peer answers with an absurd length prefix; the channel must
    // refuse it with a typed error instead of reserving 4 GiB.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        use std::io::Write;
        let mut s = stream;
        s.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        s.write_all(&[0u8; 64]).unwrap();
        std::thread::sleep(Duration::from_millis(500));
    });
    let opts = TcpOptions {
        recv_deadline_ms: 500,
        ..TcpOptions::default()
    };
    let (mut up, _down) = channel_pair(addr, &opts);
    up.send(vec![1, 0, 0, 0, 7]); // anything; triggers the awaited read
    assert!(up.recv().is_none());
    match up.last_error() {
        Some(TransportError::Oversized { declared, max }) => {
            assert_eq!(declared, 0xFFFF_FFFF);
            assert_eq!(max, 1 << 26);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert!(!up.is_connected());
}

#[test]
fn peer_disconnect_is_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream); // immediate hangup
    });
    let (mut up, _down) = channel_pair(addr, &TcpOptions::default());
    up.send(vec![5, 0, 0, 0, 1, 2, 3, 4, 5]);
    // Depending on timing the write may succeed (buffered) — the read side
    // must then surface the hangup.
    let _ = up.recv();
    match up.last_error() {
        Some(TransportError::Disconnected(_)) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
    assert!(!up.is_connected());
}

#[test]
fn recv_deadline_reports_dry_not_dead() {
    // A silent peer: recv must give up after the deadline and report the
    // pipe dry, leaving the connection alive for a retry.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(5));
        drop(stream);
    });
    let opts = TcpOptions {
        recv_deadline_ms: 150,
        ..TcpOptions::default()
    };
    let (mut up, _down) = channel_pair(addr, &opts);
    up.send(vec![1, 0, 0, 0, 9]);
    let start = Instant::now();
    assert!(up.recv().is_none());
    let waited = start.elapsed();
    assert!(waited >= Duration::from_millis(140), "gave up too early");
    assert!(waited < Duration::from_secs(3), "deadline not enforced");
    assert!(up.is_connected(), "a dry pipe is not a dead pipe");
    // Without a pending echo the next recv is a fast poll, not a full wait.
    let start = Instant::now();
    assert!(up.recv().is_none());
    assert!(start.elapsed() < Duration::from_millis(100));
}

#[test]
fn kill_makes_both_handles_report_disconnected() {
    let key = TagKey::from_session_seed(b"tcp kill");
    let addr = echo_peer(key, 1, usize::MAX);
    let (mut up, mut down) = channel_pair(addr, &TcpOptions::default());
    up.kill();
    up.send(vec![1, 0, 0, 0, 1]);
    assert!(up.recv().is_none());
    assert!(down.recv().is_none());
    assert!(matches!(
        up.last_error(),
        Some(TransportError::Disconnected(_))
    ));
    assert!(!down.is_connected());
}

#[test]
fn channel_state_exports_and_imports() {
    let key = TagKey::from_session_seed(b"tcp state");
    let addr = echo_peer(key.clone(), 1, usize::MAX);
    let (mut up, _down) = channel_pair(addr, &TcpOptions::default());
    // Build a non-empty local queue state and roundtrip it through a fresh
    // channel, as Session::resume does.
    let frame_a = frame::encode_frame(FrameKind::Control, 10, b"a", &key);
    let frame_b = frame::encode_frame(FrameKind::Control, 11, b"bb", &key);
    let mut state = Vec::new();
    state.extend_from_slice(&2u32.to_le_bytes());
    for (lat, w) in [(4u64, &frame_a), (7u64, &frame_b)] {
        state.extend_from_slice(&lat.to_le_bytes());
        state.extend_from_slice(&(w.len() as u32).to_le_bytes());
        state.extend_from_slice(w);
    }
    up.import_state(&state).unwrap();
    assert_eq!(up.pending(), 2);
    assert_eq!(up.export_state(), state);
    let d = up.recv().unwrap();
    assert_eq!(d.wire, frame_a);
    assert_eq!(d.latency_ms, 4);
    assert_eq!(up.recv().unwrap().wire, frame_b);
    // Empty and garbage states behave like the other channels'.
    up.import_state(&[]).unwrap();
    assert_eq!(up.pending(), 0);
    assert!(matches!(
        up.import_state(&[1, 2, 3]),
        Err(TransportError::BadCheckpoint(_))
    ));
}

#[test]
fn session_over_tcp_matches_direct_billing_and_wire() {
    let seed = b"tcp session parity";
    let key = TagKey::from_session_seed(seed);
    let addr = echo_peer(key, 1, usize::MAX);
    let (up, down) = channel_pair(addr, &TcpOptions::default());
    let mut tcp =
        Session::<Bfv, TcpChannel>::over(&params(), seed, &[], up, down, Default::default())
            .unwrap();
    let mut direct = Session::<Bfv>::direct(&params(), seed, &[]).unwrap();

    let values: Vec<u64> = (0..256).map(|i| i * 5 % 89).collect();
    let ct_t = tcp.client_mut().encrypt_slots(&values).unwrap();
    let ct_d = direct.client_mut().encrypt_slots(&values).unwrap();
    let at_server_t = tcp.upload(&ct_t).unwrap();
    let at_server_d = direct.upload(&ct_d).unwrap();
    let back_t = tcp.download(&at_server_t).unwrap();
    let back_d = direct.download(&at_server_d).unwrap();
    assert_eq!(tcp.client_mut().decrypt_slots(&back_t).unwrap(), values);
    // Bit-identical ciphertext wire: the channel type must not perturb the
    // client's deterministic encryption stream.
    assert_eq!(
        choco_he::serialize::ciphertext_to_bytes(&back_t),
        choco_he::serialize::ciphertext_to_bytes(&back_d)
    );
    // Identical primary billing.
    assert_eq!(tcp.ledger().upload_bytes, direct.ledger().upload_bytes);
    assert_eq!(tcp.ledger().download_bytes, direct.ledger().download_bytes);
    assert_eq!(tcp.ledger().uploads, direct.ledger().uploads);
    assert_eq!(tcp.ledger().downloads, direct.ledger().downloads);
    assert_eq!(tcp.ledger().retransmit_bytes, 0);
}

#[test]
fn duplicate_echoes_are_deduped_and_bill_once() {
    // The peer echoes everything twice: the extra copy must be discarded as
    // a stale duplicate by seq, never delivered twice, never re-billed.
    let seed = b"tcp duplicate echo";
    let key = TagKey::from_session_seed(seed);
    let addr = echo_peer(key, 2, usize::MAX);
    let (up, down) = channel_pair(addr, &TcpOptions::default());
    let mut s =
        Session::<Bfv, TcpChannel>::over(&params(), seed, &[], up, down, Default::default())
            .unwrap();
    let values: Vec<u64> = (0..256).map(|i| i % 23).collect();
    for _ in 0..3 {
        let ct = s.client_mut().encrypt_slots(&values).unwrap();
        let at_server = s.upload(&ct).unwrap();
        let back = s.download(&at_server).unwrap();
        assert_eq!(s.client_mut().decrypt_slots(&back).unwrap(), values);
    }
    assert_eq!(s.ledger().uploads, 3);
    assert_eq!(s.ledger().downloads, 3);
    assert_eq!(s.ledger().retransmit_bytes, 0);
}

#[test]
fn checkpoint_resume_survives_connection_loss() {
    // The peer hangs up after 3 frames; the client checkpoints beforehand,
    // hits the disconnect, redials, resumes — and its RNG stream continues
    // bit-identically.
    let seed = b"tcp resume";
    let key = TagKey::from_session_seed(seed);
    let addr = echo_peer(key, 1, 3);
    let opts = TcpOptions {
        recv_deadline_ms: 200,
        ..TcpOptions::default()
    };
    let (up, down) = channel_pair(addr, &opts);
    let mut s =
        Session::<Bfv, TcpChannel>::over(&params(), seed, &[], up, down, Default::default())
            .unwrap();
    let values: Vec<u64> = (0..256).map(|i| i % 31).collect();
    let ct = s.client_mut().encrypt_slots(&values).unwrap();
    let at_server = s.upload(&ct).unwrap(); // frame 1
    let _back = s.download(&at_server).unwrap(); // frame 2
    let blob = s.checkpoint(b"before the cliff");
    let mut twin = Session::<Bfv>::direct(&params(), seed, &[]).unwrap();
    let ct_twin = twin.client_mut().encrypt_slots(&values).unwrap();
    let _ = twin.upload(&ct_twin).unwrap();
    let _ = twin.download(&ct_twin).unwrap();

    // Frame 3 is relayed, then the peer hangs up: some exchange soon fails.
    let mut died = false;
    for _ in 0..4 {
        if s.upload(&at_server).is_err() {
            died = true;
            break;
        }
    }
    assert!(died, "peer hangup never surfaced");

    let (up2, down2) = channel_pair(addr, &opts);
    let (mut r, progress) = Session::<Bfv, TcpChannel>::resume(&blob, up2, down2).unwrap();
    assert_eq!(progress, b"before the cliff");
    assert!(r.ledger().recovery_bytes > 0, "handshake not billed");
    // The resumed RNG continues the uninterrupted stream.
    let next_resumed = r.client_mut().encrypt_slots(&values).unwrap();
    let next_twin = twin.client_mut().encrypt_slots(&values).unwrap();
    assert_eq!(
        choco_he::serialize::ciphertext_to_bytes(&next_resumed),
        choco_he::serialize::ciphertext_to_bytes(&next_twin)
    );
    // And the link still works end to end.
    let at_server2 = r.upload(&next_resumed).unwrap();
    let back = r.download(&at_server2).unwrap();
    let out = r.client_mut().decrypt_slots(&back).unwrap();
    assert_eq!(out.len(), 256);
}
