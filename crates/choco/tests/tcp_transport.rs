//! `BlobIo` over real loopback sockets: framing, partial reads, pipelined
//! reads that never run ahead, probe-tolerant writes, and typed failures —
//! what the in-memory channels guarantee about bytes, now with a kernel in
//! the loop.

use choco::transport::tcp::BlobIo;
use choco::transport::{frame, FrameKind, TagKey, TransportError};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A connected loopback pair: the raw writing end and a `BlobIo` reader.
fn blob_io_pair() -> (TcpStream, BlobIo) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (reader, _) = listener.accept().unwrap();
    (writer, BlobIo::new(reader, 1 << 26))
}

#[test]
fn frames_roundtrip_over_loopback() {
    // A frame's own length field is the socket-level length prefix: what
    // `read_blob` returns is the encoded frame, verbatim.
    let key = TagKey::from_session_seed(b"tcp roundtrip");
    let (mut writer, mut io) = blob_io_pair();
    for seq in 0..5u64 {
        let wire = frame::encode_frame(FrameKind::Plaintext, seq, &vec![seq as u8; 2048], &key);
        writer.write_all(&wire).unwrap();
        let got = io.read_blob(2_000).unwrap().expect("frame never arrived");
        assert_eq!(got, wire, "frame {seq} corrupted over loopback");
        assert_eq!(frame::decode_frame(&got, &key).unwrap().seq, seq);
    }
}

#[test]
fn partial_writes_are_reassembled() {
    // The peer dribbles a frame a few bytes at a time; the read buffer
    // must reassemble it across many short reads.
    let key = TagKey::from_session_seed(b"tcp dribble");
    let (mut writer, mut io) = blob_io_pair();
    let wire = frame::encode_frame(FrameKind::Control, 3, &[9; 200], &key);
    let dribbled = wire.clone();
    let peer = std::thread::spawn(move || {
        for piece in dribbled.chunks(7) {
            writer.write_all(piece).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        writer
    });
    let got = io.read_blob(5_000).unwrap();
    assert_eq!(got, Some(wire), "dribbled frame never reassembled");
    peer.join().unwrap();
}

#[test]
fn a_blob_cut_by_deadlines_resumes_where_it_stopped() {
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
    // A rogue peer sends an absurd length prefix; the reader must refuse it
    // with a typed error instead of reserving 4 GiB.
    let (mut writer, mut io) = blob_io_pair();
    writer.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    writer.write_all(&[0u8; 64]).unwrap();
    match io.read_blob(500) {
        Err(TransportError::Oversized { declared, max }) => {
            assert_eq!(declared, 0xFFFF_FFFF);
            assert_eq!(max, 1 << 26);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn peer_disconnect_is_typed() {
    let (writer, mut io) = blob_io_pair();
    drop(writer); // immediate hangup
    match io.read_blob(500) {
        Err(TransportError::Disconnected(_)) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
    // So is a hangup in the middle of a blob.
    let (mut writer, mut io) = blob_io_pair();
    writer.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
    drop(writer);
    match io.read_blob(500) {
        Err(TransportError::Disconnected(_)) => {}
        other => panic!("expected Disconnected mid-blob, got {other:?}"),
    }
}

#[test]
fn read_deadline_reports_dry_not_dead() {
    // A silent peer: the read gives up after the deadline and reports the
    // pipe dry, leaving the connection alive for whatever arrives later.
    let (mut writer, mut io) = blob_io_pair();
    let start = Instant::now();
    assert!(matches!(io.read_blob(150), Ok(None)));
    let waited = start.elapsed();
    assert!(waited >= Duration::from_millis(140), "gave up too early");
    assert!(waited < Duration::from_secs(3), "deadline not enforced");
    writer.write_all(&[1, 0, 0, 0, 9]).unwrap();
    assert_eq!(io.read_blob(2_000).unwrap(), Some(vec![1, 0, 0, 0, 9]));
}
