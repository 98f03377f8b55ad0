//! Property tests for the socket wire codec: every `Message` type must
//! round-trip bit-exactly through the length-prefixed framing, under
//! arbitrarily split reads, every strict prefix of a frame must read as
//! incomplete, and every malformed frame must surface as a typed error —
//! never a panic, never a mis-decode.

use parcomm::{
    decode_payload, encode_payload, read_frame, write_frame, Comm, Frame, FrameError, FrameKind,
    Message, TransportKind, MAX_FRAME_BYTES,
};
use proptest::prelude::*;

/// Feed `data` to the frame parser `chunk` bytes at a time, the way the
/// socket transport appends whatever a read returned (the worst-case
/// stream split at `chunk` = 1): every strict prefix must parse as
/// incomplete, and the first call that holds the whole frame returns it.
fn drip(data: &[u8], chunk: usize) -> Result<Option<(Frame, usize)>, FrameError> {
    let mut buf = Vec::new();
    for piece in data.chunks(chunk) {
        buf.extend_from_slice(piece);
        if let Some(got) = read_frame(&buf)? {
            return Ok(Some(got));
        }
    }
    Ok(None)
}

fn framed(payload: Vec<u8>, type_id: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(
        &mut buf,
        &Frame { kind: FrameKind::Msg, src: 1, tag: 42, type_id, payload },
    );
    buf
}

/// Round-trip `msg` through encode → frame → split-read reassembly →
/// decode and return the decoded value.
fn wire_round_trip<T: Message>(msg: &T, chunk: usize) -> T {
    let buf = framed(encode_payload(msg), T::wire_id());
    let (frame, n) = drip(&buf, chunk).expect("frame reads").expect("whole frame");
    assert_eq!(n, buf.len());
    assert_eq!(frame.kind, FrameKind::Msg);
    assert_eq!(frame.type_id, T::wire_id());
    decode_payload(&frame.payload).expect("payload decodes")
}

/// Arbitrary `f64` bit patterns: normals, subnormals, ±0, ±inf, NaNs with
/// arbitrary payloads. The codec must preserve all of them exactly.
fn any_f64_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        5 => proptest::num::u64::ANY,
        1 => Just(f64::NAN.to_bits()),
        1 => Just((-0.0f64).to_bits()),
        1 => Just(f64::INFINITY.to_bits()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn vec_f64_round_trips_bitwise_under_split_reads(
        (bits, chunk) in (proptest::collection::vec(any_f64_bits(), 0..64), 1usize..16)
    ) {
        let v: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let back = wire_round_trip(&v, chunk);
        let back_bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }

    #[test]
    fn index_payloads_round_trip(
        (rows, cols, chunk) in (
            proptest::collection::vec(proptest::num::u64::ANY, 0..64),
            proptest::collection::vec(proptest::num::u64::ANY, 0..64),
            1usize..16,
        )
    ) {
        // The (rows, cols) shape of the assembly exchange.
        let msg = (rows, cols);
        let back = wire_round_trip(&msg, chunk);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn coo_triple_round_trips(
        (n, chunk) in (0usize..40, 1usize..16)
    ) {
        // The CooBuffers triple of `IjMatrix::try_assemble`, with synthetic
        // but bit-varied values.
        let rows: Vec<u64> = (0..n as u64).collect();
        let cols: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let vals: Vec<f64> = (0..n).map(|i| (i as f64).sqrt() / 3.0 - 1.0).collect();
        let msg = (rows, cols, vals);
        let back = wire_round_trip(&msg, chunk);
        prop_assert_eq!(back.0, msg.0);
        prop_assert_eq!(back.1, msg.1);
        let b: Vec<u64> = back.2.iter().map(|x| x.to_bits()).collect();
        let w: Vec<u64> = msg.2.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(b, w);
    }

    #[test]
    fn scalars_round_trip(
        (u, i, f_bits, b, chunk) in (
            proptest::num::u64::ANY,
            proptest::num::i64::ANY,
            any_f64_bits(),
            proptest::bool::ANY,
            1usize..8,
        )
    ) {
        prop_assert_eq!(wire_round_trip(&u, chunk), u);
        prop_assert_eq!(wire_round_trip(&(u as usize), chunk), u as usize);
        prop_assert_eq!(wire_round_trip(&i, chunk), i);
        prop_assert_eq!(wire_round_trip(&b, chunk), b);
        let f = f64::from_bits(f_bits);
        prop_assert_eq!(wire_round_trip(&f, chunk).to_bits(), f_bits);
        wire_round_trip(&(), chunk);
    }

    #[test]
    fn truncated_frames_read_as_incomplete_not_as_errors_or_panics(
        (bits, cut_frac) in (proptest::collection::vec(any_f64_bits(), 1..32), 0.0f64..1.0)
    ) {
        let v: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let buf = framed(encode_payload(&v), <Vec<f64> as Message>::wire_id());
        // Cut strictly inside the frame: every prefix must read as
        // incomplete (the transport waits for more bytes, and a stream
        // that ends there is a dead peer), never a frame, never a panic.
        let cut = 1 + ((buf.len() - 2) as f64 * cut_frac) as usize;
        let res = drip(&buf[..cut], 7);
        prop_assert!(
            matches!(res, Ok(None)),
            "cut at {} of {}: {:?}", cut, buf.len(), res
        );
    }

    #[test]
    fn corrupt_payload_bytes_never_panic(
        (bits, flip, delta) in (
            proptest::collection::vec(any_f64_bits(), 1..16),
            proptest::num::u64::ANY,
            1u64..256,
        )
    ) {
        // Flip one payload byte. The frame still reads (framing is
        // intact); the *payload* decode must either succeed (values are
        // opaque bit patterns) or fail typed — with a length-prefix
        // corruption being the interesting case.
        let v: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut payload = encode_payload(&v);
        let at = (flip % payload.len() as u64) as usize;
        payload[at] ^= delta as u8;
        let buf = framed(payload, <Vec<f64> as Message>::wire_id());
        let (frame, _) = drip(&buf, 5).expect("framing intact").expect("whole frame");
        match decode_payload::<Vec<f64>>(&frame.payload) {
            Ok(decoded) => {
                // Only a value byte changed; the length prefix survived.
                prop_assert_eq!(decoded.len(), v.len());
            }
            Err(e) => prop_assert!(!e.detail.is_empty()),
        }
    }
}

// ---------------------------------------------------------------------------
// Non-property edge cases
// ---------------------------------------------------------------------------

#[test]
fn zero_length_payload_frames() {
    for msg_bytes in [encode_payload(&()), encode_payload(&Vec::<f64>::new())] {
        let buf = framed(msg_bytes.clone(), 0);
        let (frame, _) = drip(&buf, 1).unwrap().unwrap();
        assert_eq!(frame.payload, msg_bytes);
    }
    // An empty Vec<f64> still carries its 8-byte length prefix.
    let empty: Vec<f64> = decode_payload(&encode_payload(&Vec::<f64>::new())).unwrap();
    assert!(empty.is_empty());
}

#[test]
fn oversize_length_prefix_is_rejected_without_allocating() {
    // A frame length just over the bound: rejected as corrupt before any
    // payload-sized allocation happens.
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    buf.extend_from_slice(&[0u8; 32]);
    assert!(drip(&buf, 3).is_err());
    // Same discipline one layer down: a Vec length prefix far beyond the
    // remaining payload bytes fails fast.
    let mut payload = encode_payload(&vec![1.0f64, 2.0]);
    payload[..8].copy_from_slice(&(u64::MAX).to_le_bytes());
    assert!(decode_payload::<Vec<f64>>(&payload).is_err());
}

#[test]
fn largest_practical_frame_round_trips() {
    // ~8 MB of f64s — large enough to guarantee many split reads on a
    // real socket, small enough for CI.
    let v: Vec<f64> = (0..1_000_000).map(|i| (i as f64) * 0.5 - 250_000.0).collect();
    let back = wire_round_trip(&v, 1 << 16);
    assert_eq!(back.len(), v.len());
    assert!(back.iter().zip(&v).all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// The codec in situ: random NaN-laden payloads through a real socket
/// exchange arrive bit-identical.
#[test]
fn socket_rank_exchange_preserves_bits() {
    let payload: Vec<f64> = (0..257)
        .map(|i| match i % 5 {
            0 => f64::from_bits(0x7ff8_0000_dead_beef), // NaN payload
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0, // subnormal
            3 => (i as f64).exp(),
            _ => -(i as f64) / 7.0,
        })
        .collect();
    let want: Vec<u64> = payload.iter().map(|x| x.to_bits()).collect();
    let got = Comm::run_with(TransportKind::Socket, 2, move |rank| {
        if rank.rank() == 0 {
            rank.send(1, 5, payload.clone());
            Vec::new()
        } else {
            let v: Vec<f64> = rank.recv(0, 5);
            v.iter().map(|x| x.to_bits()).collect()
        }
    });
    assert_eq!(got[1], want);
}
