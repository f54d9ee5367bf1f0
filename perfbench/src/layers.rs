//! Calls into the layers' public functions that the traced rounds make:
//! the fetch split into its public steps, and the probes that attribute
//! a local run and an extract to pylite, wireproto, codecs and the
//! engine.

use devharness::pool;
use devudf::{DevUdf, DevUdfError, TransferSettings};
use pylite::ast::StmtKind;
use pylite::{pickle, Value};
use wireproto::delta::CacheEntry;
use wireproto::transfer::{self, TransferOptions};
use wireproto::TransferStats;

use crate::common::{DEBUG_QUERY, PASSWORD, UDF};
use crate::trace::Tracer;

const TRANSFER_ID: u64 = 0x5eed;

/// What the traced rounds of a TCP workload need beyond the session: an
/// in-memory replica of the server's data, for the engine floors, and a
/// second connection that only pings.
pub struct Probes {
    pub replica: monetlite::Engine,
    pub pinger: wireproto::Client,
}

/// `DevUdf::fetch_inputs`. Traced rounds make the same three public
/// calls it makes — the extract, the pickle of the result, the write of
/// `input.bin` — each in its own span, and also return the extracted
/// value for the probes.
pub fn fetch(dev: &mut DevUdf, tr: &Tracer) -> Result<(TransferStats, Option<Value>), DevUdfError> {
    if !tr.on() {
        return dev.fetch_inputs(UDF).map(|s| (s, None));
    }
    tr.span("core.fetch", || {
        let options = dev.settings.transfer_options();
        let client = dev.client();
        let (inputs, stats) = tr.span("wire.extract", || {
            client
                .borrow_mut()
                .extract_inputs(DEBUG_QUERY, UDF, options)
        })?;
        let blob = tr.span("pylite.pickle", || pickle::dumps(&inputs))?;
        dev.project.write_input_bin(&blob)?;
        Ok((stats, Some(inputs)))
    })
}

/// Attribute the local run `run` (a `core.run` span) to pylite: parse and
/// compile the script, unpickle `input.bin`; execution is the rest.
pub fn probe_run(tr: &Tracer, run: Option<usize>, script: &str, input_bin: &[u8]) {
    let Some(run) = run.filter(|_| tr.on()) else {
        return;
    };
    let mut claimed = std::time::Duration::ZERO;
    if let Some((id, Ok(module))) =
        tr.probe(Some(run), "pylite.parse", || pylite::parse_module(script))
    {
        claimed += tr.dur(id);
        if let Some((id, _)) = tr.probe(Some(run), "pylite.compile", || {
            let module_code = pylite::compile_module(&module);
            // Function bodies compile on first call.
            let defs: Vec<_> = module
                .body
                .iter()
                .filter_map(|s| match &s.kind {
                    StmtKind::FunctionDef(def) => Some(pylite::compile::compile_function(def)),
                    _ => None,
                })
                .collect();
            std::hint::black_box((module_code, defs))
        }) {
            claimed += tr.dur(id);
        }
    }
    if let Some((id, _)) = tr.probe(Some(run), "pylite.unpickle", || {
        std::hint::black_box(pickle::loads(input_bin))
    }) {
        claimed += tr.dur(id);
    }
    tr.derived(
        Some(run),
        "pylite.exec",
        tr.dur(run).saturating_sub(claimed),
    );
}

/// What the codec probes of one extract measured.
#[derive(Default, Clone, Copy)]
pub struct CodecFigures {
    /// Raw bytes of the blocks that crossed the wire.
    pub shipped_raw: usize,
    /// Their LZ-compressed size (0 when the transfer is not compressed).
    pub shipped_lz: usize,
}

/// Attribute the extract `extract` (a `wire.extract` span) that returned
/// `inputs` to its layers, redoing each step with the layer's public
/// function: the engine's extract on `replica`, the server's pickle, the
/// delta protocol (block digests, block coding for the blocks that
/// differ from `previous` — the raw payload the client had cached — and
/// the client's reassembly), and the client's unpickle. The codec
/// probes (single-threaded, over the shipped blocks) hang under
/// `wire.delta`. The classic whole-payload codec, which the delta
/// protocol does not use, is timed on the same inputs as two root spans
/// outside the reconciliation.
pub fn probe_extract(
    tr: &Tracer,
    extract: Option<usize>,
    replica: &monetlite::Engine,
    inputs: &Value,
    previous: Option<&[u8]>,
    settings: &TransferSettings,
) -> Result<CodecFigures, String> {
    let Some(extract) = extract.filter(|_| tr.on()) else {
        return Ok(CodecFigures::default());
    };
    let options: TransferOptions = (*settings).into();
    let pool = pool::global();
    let block_size = options.effective_block_size();

    tr.probe(Some(extract), "engine.extract", || {
        replica
            .extract_inputs(DEBUG_QUERY, UDF)
            .map(std::hint::black_box)
    })
    .expect("traced")
    .1
    .map_err(|e| format!("replica extract: {e}"))?;
    let raw = tr
        .probe(Some(extract), "pylite.pickle", || {
            transfer::pickle_inputs(inputs)
        })
        .expect("traced")
        .1
        .map_err(|e| e.to_string())?;

    let cached = previous.map(|p| CacheEntry::from_raw(p, block_size, Vec::new()));
    let (delta, (ship, rebuilt)) = tr
        .probe(Some(extract), "wire.delta", || {
            let digests = transfer::block_digests_pooled(pool, &raw, block_size);
            let ship: Vec<bool> = digests
                .iter()
                .enumerate()
                .map(|(i, d)| cached.as_ref().and_then(|c| c.digests.get(i)) != Some(d))
                .collect();
            let blocks =
                transfer::encode_delta_blocks(pool, &raw, &options, PASSWORD, TRANSFER_ID, &ship);
            let map = cached
                .as_ref()
                .map(CacheEntry::digest_map)
                .unwrap_or_default();
            let rebuilt = transfer::reconstruct_delta(
                pool,
                raw.len(),
                &options,
                PASSWORD,
                TRANSFER_ID,
                &digests,
                &blocks,
                &map,
            );
            (ship, rebuilt)
        })
        .expect("traced");
    let rebuilt = rebuilt.map_err(|e| format!("delta reassembly: {e}"))?;
    if rebuilt != raw {
        return Err("delta reassembly differs from the pickled inputs".to_string());
    }
    tr.probe(Some(extract), "pylite.unpickle", || {
        transfer::unpickle_inputs(&rebuilt).map(std::hint::black_box)
    })
    .expect("traced")
    .1
    .map_err(|e| e.to_string())?;

    let shipped: Vec<&[u8]> = raw
        .chunks(block_size)
        .zip(&ship)
        .filter(|(_, s)| **s)
        .map(|(b, _)| b)
        .collect();
    let mut figures = CodecFigures {
        shipped_raw: shipped.iter().map(|b| b.len()).sum(),
        shipped_lz: 0,
    };
    if settings.cache.enabled {
        tr.probe(Some(delta), "codecs.sha256", || {
            codecs::sha256::block_digests(&raw, block_size)
        });
    }
    if options.compress {
        figures.shipped_lz = tr
            .probe(Some(delta), "codecs.lz", || {
                shipped.iter().map(|b| codecs::lz::compress(b).len()).sum()
            })
            .expect("traced")
            .1;
    }
    if options.encrypt {
        let key = codecs::derive_key(PASSWORD, b"perfbench");
        tr.probe(Some(delta), "codecs.chacha", || {
            shipped
                .iter()
                .map(|b| codecs::chacha20::xor_stream(&key, &[0; 12], 1, b).len())
                .sum::<usize>()
        });
    }

    let encoded = tr
        .probe(None, "wire.encode", || {
            transfer::encode_payload_with(pool, inputs, &options, PASSWORD, TRANSFER_ID, 0)
        })
        .expect("traced")
        .1
        .map_err(|e| e.to_string())?;
    tr.probe(None, "wire.decode", || {
        transfer::decode_payload_with(pool, &encoded.0, &options, PASSWORD, TRANSFER_ID)
            .map(std::hint::black_box)
    })
    .expect("traced")
    .1
    .map_err(|e| e.to_string())?;
    Ok(figures)
}

/// `Engine::snapshot` followed by `EngineSnapshot::hydrate`: what a
/// reader pays to see a write.
pub fn probe_snapshot(tr: &Tracer, parent: Option<usize>, replica: &monetlite::Engine) {
    tr.probe(parent, "engine.snapshot", || {
        std::hint::black_box(replica.snapshot().hydrate());
    });
}

/// Execute `sql` on the replica under probe span `name`, with its parse
/// timed as a child `engine.parse`.
pub fn probe_execute(
    tr: &Tracer,
    parent: Option<usize>,
    name: &'static str,
    replica: &monetlite::Engine,
    sql: &str,
) -> Result<Option<monetlite::QueryResult>, String> {
    let Some((id, result)) = tr.probe(parent, name, || replica.execute(sql)) else {
        return Ok(None);
    };
    tr.probe(Some(id), "engine.parse", || {
        monetlite::sql::parser::parse_statement(sql).map(std::hint::black_box)
    });
    result.map(Some).map_err(|e| format!("replica: {e}"))
}
