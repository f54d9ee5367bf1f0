//! Print FNV-1a digests of the bytes-on-wire for a deterministic extract
//! across every transfer-option combination: the `DeltaBlocks` reply the
//! server sends to a cold `ExtractDelta` request (every block shipped,
//! plus the full digest table).
//!
//! CI runs this twice — `DEVUDF_POOL_THREADS=1` and the default pool —
//! and diffs the output: the reply must be byte-identical regardless of
//! how many workers digested and coded its blocks (DESIGN.md §11).

use pylite::value::Dict;
use pylite::{Array, Value};
use wireproto::message::Message;
use wireproto::transfer::{block_digests_pooled, encode_delta_blocks, pickle_inputs};
use wireproto::TransferOptions;

/// Deterministic inputs large enough to span many 64 KiB blocks.
fn inputs() -> Value {
    let mut rng = devharness::Rng::new(0xD16E57);
    let column: Vec<i64> = (0..200_000)
        .map(|i| ((i / 64) % 500) as i64 + rng.u64_below(4) as i64)
        .collect();
    let mut d = Dict::new();
    d.insert(Value::str("column"), Value::array(Array::Int(column)))
        .unwrap();
    Value::dict(d)
}

fn main() {
    let raw = pickle_inputs(&inputs()).expect("deterministic inputs must pickle");
    let pool = devharness::pool::global();
    for (label, compress, encrypt) in [
        ("plain", false, false),
        ("compressed", true, false),
        ("encrypted", false, true),
        ("compressed+encrypted", true, true),
    ] {
        for block_size in [64 * 1024usize, wireproto::DEFAULT_BLOCK_SIZE] {
            let options = TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            }
            .with_block_size(block_size);
            let transfer_id = 7;
            let digests = block_digests_pooled(pool, &raw, block_size);
            let ship = vec![true; digests.len()];
            let blocks = encode_delta_blocks(pool, &raw, &options, "monetdb", transfer_id, &ship);
            let reply = Message::DeltaBlocks {
                options,
                transfer_id,
                raw_len: raw.len() as u64,
                epochs: Vec::new(),
                digests,
                blocks,
            }
            .encode();
            println!(
                "{label}/{}k raw={} wire={} fnv1a={:08x}",
                block_size / 1024,
                raw.len(),
                reply.len(),
                codecs::fnv1a_32(&reply)
            );
        }
    }
}
