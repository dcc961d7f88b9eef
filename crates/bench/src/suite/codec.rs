//! Payload-codec kernel benches: the encode/decode round trips every
//! lossy artifact (smashed data, gradients, model deltas) pays per wire
//! crossing. The comparison entry pits the workspace-recycled
//! select-based top-k kernel against a naive fresh-allocating full-sort
//! baseline — the machine-portable ratio `perf_compare` gates on.

use super::Suite;
use gsfl_tensor::quant::topk_mask;
use gsfl_tensor::rng::seeded_rng;
use gsfl_tensor::wire::{self, WireBuf};
use gsfl_tensor::Workspace;
use rand::Rng;
use std::hint::black_box;

/// The smashed-data-sized buffer the codec benches transcode
/// (64k scalars ≈ a 16-sample conv activation batch).
const N: usize = 64 * 1024;
const K: usize = N / 16;

/// Fixed codec stream for the wire-container benches: both sides of a
/// comparison must draw identical stochastic-rounding sequences.
const STREAM: u64 = 42;

fn payload() -> Vec<f32> {
    (0..N)
        .map(|i| ((i * 31 % 4093) as f32 - 2046.0) * 0.01)
        .collect()
}

/// Naive IntQ wire encode for the baseline: the same container, built
/// the way a first implementation builds it — a fresh output vector
/// every call and the quantization codes packed one bit at a time —
/// before the word-level bit packer and the recycled `WireBuf` pool.
/// Byte-identical to [`wire::encode_intq`] (the unit test pins it), so
/// the comparison times pure mechanism.
fn encode_intq_naive(values: &[f32], bits: u32) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&wire::MAGIC);
    out.push(wire::VERSION);
    out.push(2); // WireDtype::IntQ
    let mut numel = values.len() as u64;
    while numel >= 0x80 {
        out.push((numel as u8 & 0x7F) | 0x80);
        numel >>= 7;
    }
    out.push(numel as u8);
    out.push(bits as u8);
    let scale = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    out.extend_from_slice(&scale.to_le_bytes());
    let levels = (1u32 << (bits - 1)) - 1;
    let inv = levels as f32 / scale;
    let lv = levels as f32;
    let mut rng = seeded_rng(STREAM);
    let mut acc = 0u8;
    let mut nbits = 0u32;
    for v in values {
        let x = *v * inv;
        let lo = x.floor();
        let frac = x - lo;
        let q = if rng.gen::<f32>() < frac {
            lo + 1.0
        } else {
            lo
        };
        let code = (q.clamp(-lv, lv) as i64 + i64::from(levels)) as u64;
        for b in 0..bits {
            acc |= (((code >> b) & 1) as u8) << nbits;
            nbits += 1;
            if nbits == 8 {
                out.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
    }
    if nbits > 0 {
        out.push(acc);
    }
    out
}

/// Naive TopK wire decode for the baseline: a fresh zeroed output
/// vector every call and the packed survivor indices read one bit at a
/// time. Produces the same tensor as [`wire::decode_topk`] (pinned by
/// the unit test).
fn decode_topk_naive(bytes: &[u8], n: usize) -> Vec<f32> {
    let mut pos = 4; // magic + version + dtype
    let mut k = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[pos];
        pos += 1;
        // First varint is numel (== n, trusted here; the real decoder
        // validates), second is k.
        k |= u64::from(b & 0x7F) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            break;
        }
    }
    assert_eq!(k as usize, n, "bench payload numel");
    let mut k = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[pos];
        pos += 1;
        k |= u64::from(b & 0x7F) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            break;
        }
    }
    let k = k as usize;
    let width = u32::from(bytes[pos]);
    pos += 1;
    let mut indices = Vec::with_capacity(k);
    let mut bit = 0usize;
    for _ in 0..k {
        let mut idx = 0u64;
        for b in 0..width {
            let byte = bytes[pos + bit / 8];
            idx |= u64::from((byte >> (bit % 8)) & 1) << b;
            bit += 1;
        }
        indices.push(idx as usize);
    }
    pos += bit.div_ceil(8);
    let mut out = vec![0.0f32; n];
    for &i in &indices {
        out[i] = f32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        pos += 4;
    }
    out
}

/// Naive top-k for the baseline: allocate an index vector, fully sort it
/// by magnitude, zero the losers — what a first implementation does
/// before select_nth + a recycled scratch pool.
fn topk_sort_fresh(values: &mut [f32], k: usize) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[b]
            .abs()
            .partial_cmp(&values[a].abs())
            .expect("finite")
            .then(a.cmp(&b))
    });
    for &i in &order[k..] {
        values[i] = 0.0;
    }
}

/// Registers the codec benches on `suite`.
pub fn register(suite: &mut Suite) {
    let src = payload();

    let mut base_buf = src.clone();
    let mut fast_buf = src.clone();
    let mut ws = Workspace::new();
    suite.compare(
        "codec_topk_64k",
        60,
        || {
            base_buf.copy_from_slice(&src);
            topk_sort_fresh(black_box(&mut base_buf), K);
        },
        || {
            fast_buf.copy_from_slice(&src);
            topk_mask(black_box(&mut fast_buf), K, &mut ws);
        },
    );

    // The wire-container hot paths the latency model now charges from:
    // encode (4-bit quantized uplink artifact) and decode (sparse model
    // delta). Baselines are the naive bit-at-a-time, fresh-allocation
    // first implementations; the fast sides are the shipped word-level
    // packers over recycled buffers.
    let mut wire_buf = WireBuf::new();
    suite.compare(
        "encode_intq4_64k",
        60,
        || {
            black_box(encode_intq_naive(black_box(&src), 4));
        },
        || {
            wire::encode_intq(black_box(&src), 4, STREAM, &mut wire_buf);
            black_box(wire_buf.len());
        },
    );

    let mut topk_wire = WireBuf::new();
    wire::encode_topk(&src, K, &mut ws, &mut topk_wire);
    let mut out = vec![0.0f32; N];
    suite.compare(
        "decode_topk_64k",
        60,
        || {
            black_box(decode_topk_naive(black_box(topk_wire.as_bytes()), N));
        },
        || {
            wire::decode_topk(black_box(&topk_wire), &mut out).expect("well-formed container");
            black_box(out.len());
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_kernel_keep_the_same_survivor_set() {
        let mut ws = Workspace::new();
        let src = payload();
        let mut naive = src.clone();
        topk_sort_fresh(&mut naive, K);
        let mut fast = src.clone();
        topk_mask(&mut fast, K, &mut ws);
        assert_eq!(naive, fast, "the bench compares equivalent work");
    }

    #[test]
    fn naive_intq_encode_is_byte_identical_to_the_wire_kernel() {
        let src = payload();
        let naive = encode_intq_naive(&src, 4);
        let mut buf = WireBuf::new();
        wire::encode_intq(&src, 4, STREAM, &mut buf);
        assert_eq!(naive, buf.as_bytes(), "the bench compares equivalent work");
    }

    #[test]
    fn naive_topk_decode_matches_the_wire_kernel() {
        let mut ws = Workspace::new();
        let src = payload();
        let mut buf = WireBuf::new();
        wire::encode_topk(&src, K, &mut ws, &mut buf);
        let naive = decode_topk_naive(buf.as_bytes(), N);
        let mut fast = vec![0.0f32; N];
        wire::decode_topk(&buf, &mut fast).unwrap();
        assert_eq!(naive, fast, "the bench compares equivalent work");
    }
}
