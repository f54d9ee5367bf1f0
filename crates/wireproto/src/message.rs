//! Wire messages and their binary codec.
//!
//! Hand-rolled tagged binary encoding (varint-framed), so the protocol has
//! zero reflection overhead and the transfer benchmarks measure real bytes.

use codecs::varint::{read_u64, write_u64};
use monetlite::{DbError, QueryResult, Table};

use crate::transfer;
use crate::transfer::{DeltaBlock, TransferOptions};

/// Protocol-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Transport failure (connection closed, IO error).
    Io(String),
    /// Malformed frame or unknown message tag.
    Protocol(String),
    /// Authentication rejected.
    Auth(String),
    /// The server's bounded command queue refused the request before any
    /// execution happened (`ServerBusy` backpressure). Always safe to
    /// retry after backoff — even for non-idempotent commands, because the
    /// server never started the work.
    Busy(String),
    /// The server reported a database error.
    Server {
        code: String,
        message: String,
        traceback: Option<String>,
    },
    /// The retry layer gave up: an idempotent operation failed on every
    /// configured attempt, or a non-idempotent one hit a transient
    /// transport error it must not replay (`attempts` is 1 in that case).
    /// `last` is the error of the final attempt and `elapsed` the total
    /// wall-clock time spent across all attempts (including backoff).
    RetriesExhausted {
        attempts: u32,
        last: Box<WireError>,
        elapsed: std::time::Duration,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "io error: {m}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
            WireError::Auth(m) => write!(f, "authentication failed: {m}"),
            WireError::Busy(m) => write!(f, "server busy: {m}"),
            WireError::Server { code, message, .. } => write!(f, "{code}: {message}"),
            WireError::RetriesExhausted {
                attempts,
                last,
                elapsed,
            } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempt(s) in {elapsed:?}: {last}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Whether a retry (after reconnecting) could plausibly succeed:
    /// transport IO failures and frame-level checksum mismatches, i.e.
    /// errors where the stream state is suspect but the request itself is
    /// fine. Auth, server-side and codec errors are deterministic and
    /// retrying them would only repeat the failure.
    pub fn is_transient(&self) -> bool {
        match self {
            WireError::Io(_) => true,
            WireError::Protocol(m) => m.contains("checksum mismatch"),
            // Backpressure: the server refused before executing, so a
            // delayed retry is always safe and plausibly succeeds.
            WireError::Busy(_) => true,
            _ => false,
        }
    }

    pub fn from_db(e: &DbError) -> WireError {
        WireError::Server {
            code: e.code.name().to_string(),
            message: e.message.clone(),
            traceback: e.traceback.clone(),
        }
    }
}

/// A scalar value on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
    Bool(bool),
    Blob(Vec<u8>),
}

impl WireValue {
    pub fn render(&self) -> String {
        match self {
            WireValue::Null => "NULL".into(),
            WireValue::Int(i) => i.to_string(),
            WireValue::Double(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    format!("{d:.1}")
                } else {
                    format!("{d}")
                }
            }
            WireValue::Str(s) => s.clone(),
            WireValue::Bool(b) => if *b { "true" } else { "false" }.into(),
            WireValue::Blob(b) => format!("<blob {} bytes>", b.len()),
        }
    }
}

/// A result table on the wire (row-major).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireTable {
    pub name: String,
    /// (column name, type name) pairs.
    pub columns: Vec<(String, String)>,
    pub rows: Vec<Vec<WireValue>>,
}

impl WireTable {
    /// Convert from an engine table.
    pub fn from_table(t: &Table) -> WireTable {
        let columns = t
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.sql_type().name().to_string()))
            .collect();
        let mut rows = Vec::with_capacity(t.row_count());
        for i in 0..t.row_count() {
            rows.push(
                t.row(i)
                    .into_iter()
                    .map(|v| match v {
                        monetlite::SqlValue::Null => WireValue::Null,
                        monetlite::SqlValue::Int(x) => WireValue::Int(x),
                        monetlite::SqlValue::Double(x) => WireValue::Double(x),
                        monetlite::SqlValue::Str(x) => WireValue::Str(x),
                        monetlite::SqlValue::Bool(x) => WireValue::Bool(x),
                        monetlite::SqlValue::Blob(x) => WireValue::Blob(x),
                    })
                    .collect(),
            );
        }
        WireTable {
            name: t.name.clone(),
            columns,
            rows,
        }
    }

    /// Column index by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// All values of one column.
    pub fn column_values(&self, name: &str) -> Option<Vec<WireValue>> {
        let idx = self.column_index(name)?;
        Some(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Render as an ASCII grid (client-side pretty printer).
    pub fn render_ascii(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|(n, _)| n.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(c, v)| {
                        let s = v.render();
                        widths[c] = widths[c].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let mut out = sep.clone();
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:w$} |", w = w));
        }
        out.push('\n');
        out.push_str(&sep.replace('-', "="));
        for row in &rendered {
            out.push('|');
            for (v, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {v:w$} |", w = w));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        format!("{out}{} row(s)\n", self.rows.len())
    }
}

/// Result of a query as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    Table(WireTable),
    Affected { rows: u64, message: String },
}

impl WireResult {
    pub fn from_query_result(r: &QueryResult) -> WireResult {
        match r {
            QueryResult::Table(t) => WireResult::Table(WireTable::from_table(t)),
            QueryResult::Affected { rows, message } => WireResult::Affected {
                rows: *rows as u64,
                message: message.clone(),
            },
        }
    }

    pub fn into_table(self) -> Result<WireTable, WireError> {
        match self {
            WireResult::Table(t) => Ok(t),
            WireResult::Affected { message, .. } => Err(WireError::Protocol(format!(
                "statement produced no result set ({message})"
            ))),
        }
    }
}

/// A closed span as carried in a [`Message::TracedReply`] (DESIGN §15):
/// the server's half of a stitched trace. Ids are only unique per side;
/// the client remaps them before merging into its own tree.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpan {
    /// Span id, unique on the side that minted it.
    pub id: u64,
    /// Parent span id (0 = root of its side).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Key/value fields attached while the span was open.
    pub fields: Vec<(String, String)>,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // Client → server.
    Login {
        user: String,
        password: String,
        database: String,
    },
    Query {
        sql: String,
    },
    ListFunctions,
    GetFunction {
        name: String,
    },
    Ping,
    /// The paper's extract function (DESIGN §12): capture `udf`'s inputs
    /// from `query` and ship them with the requested transfer options.
    /// The client also declares what it already holds — the dependency
    /// epochs its cache entry was built against and the SHA-256 digests
    /// of its cached plaintext blocks — so the server can answer
    /// [`Message::DeltaNotModified`] or ship only changed blocks. A
    /// request that claims nothing is a cold extract: a cold cache, a
    /// cache-off client and every sampled extract send both lists empty.
    ExtractDelta {
        query: String,
        udf: String,
        options: TransferOptions,
        transfer_id: u64,
        /// `(table name, epoch)` pairs the cached payload was built from.
        epochs: Vec<(String, u64)>,
        /// Content addresses of the client's cached raw blocks.
        digests: Vec<[u8; 32]>,
    },
    /// Trace envelope (DESIGN §15): `inner` is a fully encoded client
    /// message, `trace` the client-minted trace id. The server answers
    /// with [`Message::TracedReply`]. Untraced clients never send this,
    /// so their wire bytes are untouched by the feature.
    Traced {
        /// Client-minted trace id (never 0 on the wire).
        trace: u64,
        /// The encoded inner request frame body.
        inner: Vec<u8>,
    },

    // Server → client.
    LoginOk {
        session: u64,
    },
    ResultSet {
        result: WireResult,
        /// `print` output emitted by UDFs during the statement.
        udf_stdout: String,
    },
    FunctionList {
        names: Vec<String>,
    },
    FunctionInfo {
        name: String,
        params: Vec<(String, String)>,
        return_type: String,
        language: String,
        body: String,
    },
    Error {
        code: String,
        message: String,
        traceback: Option<String>,
    },
    Pong,
    /// Every dependency epoch in the [`Message::ExtractDelta`] request
    /// still matches: the client's cached payload is provably current and
    /// no payload bytes follow.
    DeltaNotModified {
        transfer_id: u64,
    },
    /// Delta reply: the fresh payload's full digest table plus only the
    /// blocks whose digest the client did not declare.
    DeltaBlocks {
        options: TransferOptions,
        transfer_id: u64,
        /// Total plaintext length of the fresh payload.
        raw_len: u64,
        /// Dependency epochs the fresh payload was built from (empty when
        /// a dependency is volatile and can never be provably unchanged).
        epochs: Vec<(String, u64)>,
        /// SHA-256 digest of every block of the fresh payload, in order.
        digests: Vec<[u8; 32]>,
        /// The shipped (changed) blocks, strictly increasing by index.
        blocks: Vec<DeltaBlock>,
    },
    /// Reply to a [`Message::Traced`] envelope: the encoded inner reply
    /// plus every span the server recorded while handling it (empty when
    /// the server was built without telemetry).
    TracedReply {
        /// Server-side spans, in close order.
        spans: Vec<WireSpan>,
        /// The encoded inner reply frame body.
        inner: Vec<u8>,
    },
}

// ----------------------------------------------------------------------
// Codec helpers
// ----------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn err(msg: &str) -> WireError {
        WireError::Protocol(msg.to_string())
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let (v, used) = read_u64(&self.data[self.pos.min(self.data.len())..])
            .map_err(|e| WireError::Protocol(format!("bad varint: {e}")))?;
        self.pos += used;
        Ok(v)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.data.len() {
            return Err(Self::err("truncated frame"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.varint()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| Self::err("invalid UTF-8"))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(Self::err("trailing bytes in frame"))
        }
    }

    /// Bytes left in the frame — the plausibility bound for declared
    /// counts, so a hostile count can never size an allocation the frame
    /// could not physically hold.
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_value(out: &mut Vec<u8>, v: &WireValue) {
    match v {
        WireValue::Null => out.push(0),
        WireValue::Int(i) => {
            out.push(1);
            put_i64(out, *i);
        }
        WireValue::Double(d) => {
            out.push(2);
            out.extend_from_slice(&d.to_le_bytes());
        }
        WireValue::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        WireValue::Bool(b) => out.push(if *b { 5 } else { 4 }),
        WireValue::Blob(b) => {
            out.push(6);
            put_bytes(out, b);
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<WireValue, WireError> {
    Ok(match r.byte()? {
        0 => WireValue::Null,
        1 => WireValue::Int(r.i64()?),
        2 => WireValue::Double(r.f64()?),
        3 => WireValue::Str(r.string()?),
        4 => WireValue::Bool(false),
        5 => WireValue::Bool(true),
        6 => WireValue::Blob(r.bytes()?),
        t => return Err(Reader::err(&format!("unknown value tag {t}"))),
    })
}

fn put_table(out: &mut Vec<u8>, t: &WireTable) {
    put_str(out, &t.name);
    write_u64(out, t.columns.len() as u64);
    for (n, ty) in &t.columns {
        put_str(out, n);
        put_str(out, ty);
    }
    write_u64(out, t.rows.len() as u64);
    for row in &t.rows {
        for v in row {
            put_value(out, v);
        }
    }
}

fn read_table(r: &mut Reader<'_>) -> Result<WireTable, WireError> {
    let name = r.string()?;
    let ncols = r.varint()? as usize;
    if ncols > 10_000 {
        return Err(Reader::err("implausible column count"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push((r.string()?, r.string()?));
    }
    let nrows = r.varint()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(read_value(r)?);
        }
        rows.push(row);
    }
    Ok(WireTable {
        name,
        columns,
        rows,
    })
}

fn put_options(out: &mut Vec<u8>, o: &TransferOptions) {
    let mut flags = 0u8;
    if o.compress {
        flags |= 1;
    }
    if o.encrypt {
        flags |= 2;
    }
    if o.sample.is_some() {
        flags |= 4;
    }
    // Bit 8 marks a non-default container block size; the default is
    // elided, so the common case costs no extra bytes.
    let block_size = o.effective_block_size();
    if block_size != transfer::DEFAULT_BLOCK_SIZE {
        flags |= 8;
    }
    out.push(flags);
    if let Some(k) = o.sample {
        write_u64(out, k as u64);
    }
    if block_size != transfer::DEFAULT_BLOCK_SIZE {
        write_u64(out, block_size as u64);
    }
}

/// Every transfer-option flag bit this version understands: compress,
/// encrypt, sample (implies a trailing varint) and block size (implies a
/// trailing varint).
const KNOWN_OPTION_FLAGS: u8 = 1 | 2 | 4 | 8;

fn read_options(r: &mut Reader<'_>) -> Result<TransferOptions, WireError> {
    let flags = r.byte()?;
    // Reject unknown bits loudly. Flag bits here imply trailing fields
    // (bit 2 a sample count, bit 3 a block size), so skipping an unknown
    // bit would leave its field unconsumed and silently desync every
    // later read in the frame — a clean error beats misparsed garbage
    // when a newer peer sends an extension we don't know.
    if flags & !KNOWN_OPTION_FLAGS != 0 {
        return Err(Reader::err(&format!(
            "unknown transfer option flag bits {:#04x}",
            flags & !KNOWN_OPTION_FLAGS
        )));
    }
    let sample = if flags & 4 != 0 {
        Some(r.varint()? as usize)
    } else {
        None
    };
    let block_size = if flags & 8 != 0 {
        let bs = r.varint()? as usize;
        if bs == 0 {
            return Err(Reader::err("zero transfer block size"));
        }
        bs
    } else {
        transfer::DEFAULT_BLOCK_SIZE
    };
    Ok(TransferOptions {
        compress: flags & 1 != 0,
        encrypt: flags & 2 != 0,
        sample,
        block_size,
    })
}

fn put_epochs(out: &mut Vec<u8>, epochs: &[(String, u64)]) {
    write_u64(out, epochs.len() as u64);
    for (name, epoch) in epochs {
        put_str(out, name);
        write_u64(out, *epoch);
    }
}

fn read_epochs(r: &mut Reader<'_>) -> Result<Vec<(String, u64)>, WireError> {
    let n = r.varint()? as usize;
    // Each entry occupies at least two bytes (length-prefixed name plus
    // an epoch varint), so a count the frame cannot hold is rejected
    // before the vector is reserved.
    if n > r.remaining() / 2 {
        return Err(Reader::err("implausible epoch count"));
    }
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        epochs.push((r.string()?, r.varint()?));
    }
    Ok(epochs)
}

fn put_digests(out: &mut Vec<u8>, digests: &[[u8; 32]]) {
    write_u64(out, digests.len() as u64);
    for d in digests {
        out.extend_from_slice(d);
    }
}

fn read_digests(r: &mut Reader<'_>) -> Result<Vec<[u8; 32]>, WireError> {
    let n = r.varint()? as usize;
    // 32 bytes per digest must physically fit in the remaining frame.
    if n > r.remaining() / 32 {
        return Err(Reader::err("implausible digest count"));
    }
    let mut digests = Vec::with_capacity(n);
    for _ in 0..n {
        digests.push(r.take(32)?.try_into().expect("32 bytes"));
    }
    Ok(digests)
}

fn put_spans(out: &mut Vec<u8>, spans: &[WireSpan]) {
    write_u64(out, spans.len() as u64);
    for s in spans {
        write_u64(out, s.id);
        write_u64(out, s.parent);
        put_str(out, &s.name);
        write_u64(out, s.duration_ns);
        write_u64(out, s.fields.len() as u64);
        for (k, v) in &s.fields {
            put_str(out, k);
            put_str(out, v);
        }
    }
}

fn read_spans(r: &mut Reader<'_>) -> Result<Vec<WireSpan>, WireError> {
    let n = r.varint()? as usize;
    // A span occupies at least five bytes (id, parent, name length,
    // duration, field count varints), so a count the frame cannot hold is
    // rejected before the vector is reserved.
    if n > r.remaining() / 5 {
        return Err(Reader::err("implausible span count"));
    }
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.varint()?;
        let parent = r.varint()?;
        let name = r.string()?;
        let duration_ns = r.varint()?;
        let nfields = r.varint()? as usize;
        // Two length-prefixed strings per field: at least two bytes each.
        if nfields > r.remaining() / 2 {
            return Err(Reader::err("implausible span field count"));
        }
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            fields.push((r.string()?, r.string()?));
        }
        spans.push(WireSpan {
            id,
            parent,
            name,
            duration_ns,
            fields,
        });
    }
    Ok(spans)
}

impl Message {
    /// Encode into a frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Message::Login {
                user,
                password,
                database,
            } => {
                out.push(1);
                put_str(&mut out, user);
                put_str(&mut out, password);
                put_str(&mut out, database);
            }
            Message::Query { sql } => {
                out.push(2);
                put_str(&mut out, sql);
            }
            Message::ListFunctions => out.push(4),
            Message::GetFunction { name } => {
                out.push(5);
                put_str(&mut out, name);
            }
            Message::Ping => out.push(6),
            Message::ExtractDelta {
                query,
                udf,
                options,
                transfer_id,
                epochs,
                digests,
            } => {
                out.push(7);
                put_str(&mut out, query);
                put_str(&mut out, udf);
                put_options(&mut out, options);
                write_u64(&mut out, *transfer_id);
                put_epochs(&mut out, epochs);
                put_digests(&mut out, digests);
            }
            Message::Traced { trace, inner } => {
                out.push(8);
                write_u64(&mut out, *trace);
                put_bytes(&mut out, inner);
            }
            Message::LoginOk { session } => {
                out.push(64);
                write_u64(&mut out, *session);
            }
            Message::ResultSet { result, udf_stdout } => {
                out.push(65);
                match result {
                    WireResult::Table(t) => {
                        out.push(0);
                        put_table(&mut out, t);
                    }
                    WireResult::Affected { rows, message } => {
                        out.push(1);
                        write_u64(&mut out, *rows);
                        put_str(&mut out, message);
                    }
                }
                put_str(&mut out, udf_stdout);
            }
            Message::FunctionList { names } => {
                out.push(67);
                write_u64(&mut out, names.len() as u64);
                for n in names {
                    put_str(&mut out, n);
                }
            }
            Message::FunctionInfo {
                name,
                params,
                return_type,
                language,
                body,
            } => {
                out.push(68);
                put_str(&mut out, name);
                write_u64(&mut out, params.len() as u64);
                for (n, t) in params {
                    put_str(&mut out, n);
                    put_str(&mut out, t);
                }
                put_str(&mut out, return_type);
                put_str(&mut out, language);
                put_str(&mut out, body);
            }
            Message::Error {
                code,
                message,
                traceback,
            } => {
                out.push(69);
                put_str(&mut out, code);
                put_str(&mut out, message);
                match traceback {
                    None => out.push(0),
                    Some(t) => {
                        out.push(1);
                        put_str(&mut out, t);
                    }
                }
            }
            Message::Pong => out.push(70),
            Message::DeltaNotModified { transfer_id } => {
                out.push(71);
                write_u64(&mut out, *transfer_id);
            }
            Message::DeltaBlocks {
                options,
                transfer_id,
                raw_len,
                epochs,
                digests,
                blocks,
            } => {
                out.push(72);
                put_options(&mut out, options);
                write_u64(&mut out, *transfer_id);
                write_u64(&mut out, *raw_len);
                put_epochs(&mut out, epochs);
                put_digests(&mut out, digests);
                write_u64(&mut out, blocks.len() as u64);
                for b in blocks {
                    write_u64(&mut out, b.index);
                    out.push(b.enc);
                    put_bytes(&mut out, &b.body);
                }
            }
            Message::TracedReply { spans, inner } => {
                out.push(73);
                put_spans(&mut out, spans);
                put_bytes(&mut out, inner);
            }
        }
        out
    }

    /// Decode a frame body.
    pub fn decode(data: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(data);
        let tag = r.byte()?;
        let msg = match tag {
            1 => Message::Login {
                user: r.string()?,
                password: r.string()?,
                database: r.string()?,
            },
            2 => Message::Query { sql: r.string()? },
            4 => Message::ListFunctions,
            5 => Message::GetFunction { name: r.string()? },
            6 => Message::Ping,
            7 => Message::ExtractDelta {
                query: r.string()?,
                udf: r.string()?,
                options: read_options(&mut r)?,
                transfer_id: r.varint()?,
                epochs: read_epochs(&mut r)?,
                digests: read_digests(&mut r)?,
            },
            8 => {
                let trace = r.varint()?;
                if trace == 0 {
                    return Err(Reader::err("traced envelope without a trace id"));
                }
                Message::Traced {
                    trace,
                    inner: r.bytes()?,
                }
            }
            64 => Message::LoginOk {
                session: r.varint()?,
            },
            65 => {
                let kind = r.byte()?;
                let result = match kind {
                    0 => WireResult::Table(read_table(&mut r)?),
                    1 => WireResult::Affected {
                        rows: r.varint()?,
                        message: r.string()?,
                    },
                    k => return Err(Reader::err(&format!("unknown result kind {k}"))),
                };
                Message::ResultSet {
                    result,
                    udf_stdout: r.string()?,
                }
            }
            67 => {
                let n = r.varint()? as usize;
                let mut names = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    names.push(r.string()?);
                }
                Message::FunctionList { names }
            }
            68 => {
                let name = r.string()?;
                let nparams = r.varint()? as usize;
                let mut params = Vec::with_capacity(nparams.min(256));
                for _ in 0..nparams {
                    params.push((r.string()?, r.string()?));
                }
                Message::FunctionInfo {
                    name,
                    params,
                    return_type: r.string()?,
                    language: r.string()?,
                    body: r.string()?,
                }
            }
            69 => {
                let code = r.string()?;
                let message = r.string()?;
                let traceback = match r.byte()? {
                    0 => None,
                    _ => Some(r.string()?),
                };
                Message::Error {
                    code,
                    message,
                    traceback,
                }
            }
            70 => Message::Pong,
            71 => Message::DeltaNotModified {
                transfer_id: r.varint()?,
            },
            72 => {
                let options = read_options(&mut r)?;
                let transfer_id = r.varint()?;
                let raw_len = r.varint()?;
                let epochs = read_epochs(&mut r)?;
                let digests = read_digests(&mut r)?;
                let nblocks = r.varint()? as usize;
                // A delta never ships more blocks than the digest table
                // describes; the bound also caps the allocation.
                if nblocks > digests.len() {
                    return Err(Reader::err("more shipped blocks than digest entries"));
                }
                let mut blocks = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    blocks.push(DeltaBlock {
                        index: r.varint()?,
                        enc: r.byte()?,
                        body: r.bytes()?,
                    });
                }
                Message::DeltaBlocks {
                    options,
                    transfer_id,
                    raw_len,
                    epochs,
                    digests,
                    blocks,
                }
            }
            73 => Message::TracedReply {
                spans: read_spans(&mut r)?,
                inner: r.bytes()?,
            },
            t => return Err(Reader::err(&format!("unknown message tag {t}"))),
        };
        r.done()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let encoded = m.encode();
        let decoded = Message::decode(&encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Login {
            user: "monetdb".into(),
            password: "secret".into(),
            database: "demo".into(),
        });
        round_trip(Message::Query {
            sql: "SELECT * FROM t".into(),
        });
        round_trip(Message::ListFunctions);
        round_trip(Message::GetFunction { name: "f".into() });
        round_trip(Message::Ping);
        round_trip(Message::LoginOk { session: 7 });
        round_trip(Message::ResultSet {
            result: WireResult::Affected {
                rows: 3,
                message: "3 row(s) inserted".into(),
            },
            udf_stdout: String::new(),
        });
        round_trip(Message::FunctionList {
            names: vec!["a".into(), "b".into()],
        });
        round_trip(Message::FunctionInfo {
            name: "f".into(),
            params: vec![("i".into(), "INTEGER".into())],
            return_type: "DOUBLE".into(),
            language: "PYTHON".into(),
            body: "return i\n".into(),
        });
        round_trip(Message::Error {
            code: "UdfError".into(),
            message: "boom".into(),
            traceback: Some("Traceback...".into()),
        });
        round_trip(Message::Pong);
    }

    #[test]
    fn delta_messages_round_trip() {
        round_trip(Message::ExtractDelta {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions {
                compress: true,
                encrypt: true,
                ..Default::default()
            }
            .with_block_size(64 * 1024),
            transfer_id: 9,
            epochs: vec![("t".into(), 3), ("sys.functions".into(), 1)],
            digests: vec![[7u8; 32], [9u8; 32]],
        });
        // Cold request: nothing cached yet.
        round_trip(Message::ExtractDelta {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions::plain(),
            transfer_id: 10,
            epochs: vec![],
            digests: vec![],
        });
        // Sampled requests travel in the same family, sample count and
        // block size riding the options byte.
        round_trip(Message::ExtractDelta {
            query: "SELECT f(i) FROM t".into(),
            udf: "f".into(),
            options: TransferOptions {
                compress: true,
                encrypt: true,
                sample: Some(100),
                ..Default::default()
            }
            .with_block_size(64 * 1024),
            transfer_id: 42,
            epochs: vec![],
            digests: vec![],
        });
        round_trip(Message::DeltaNotModified { transfer_id: 9 });
        round_trip(Message::DeltaBlocks {
            options: TransferOptions::compressed(),
            transfer_id: 11,
            raw_len: 300_000,
            epochs: vec![("numbers".into(), 12)],
            digests: vec![[1u8; 32], [2u8; 32]],
            blocks: vec![DeltaBlock {
                index: 1,
                enc: 0,
                body: vec![1, 2, 3, 4, 5],
            }],
        });
    }

    #[test]
    fn retired_extract_tags_are_unknown() {
        // Tags 3 and 66 once carried a second extract family. Frames that
        // were well-formed under it now fail like any unknown tag.
        let mut request = vec![3u8];
        put_str(&mut request, "SELECT f(i) FROM t");
        put_str(&mut request, "f");
        put_options(&mut request, &TransferOptions::plain());
        write_u64(&mut request, 1); // transfer_id
        let mut reply = vec![66u8];
        put_bytes(&mut reply, &[1, 2, 3]);
        write_u64(&mut reply, 3); // raw_len
        put_options(&mut reply, &TransferOptions::plain());
        write_u64(&mut reply, 1); // transfer_id
        for (tag, frame) in [(3, request), (66, reply)] {
            match Message::decode(&frame) {
                Err(WireError::Protocol(m)) => {
                    assert_eq!(m, format!("unknown message tag {tag}"))
                }
                other => panic!("tag {tag}: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_delta_counts_are_rejected_before_allocation() {
        // A tiny frame declaring 2^40 digests (or epochs, or more shipped
        // blocks than digests) must fail on the count, not allocate.
        let mut base = Vec::new();
        base.push(7u8);
        put_str(&mut base, "q");
        put_str(&mut base, "f");
        put_options(&mut base, &TransferOptions::plain());
        write_u64(&mut base, 1); // transfer_id

        let mut huge_epochs = base.clone();
        write_u64(&mut huge_epochs, 1 << 40);
        let err = Message::decode(&huge_epochs).unwrap_err();
        assert!(err.to_string().contains("implausible epoch count"), "{err}");

        let mut huge_digests = base.clone();
        write_u64(&mut huge_digests, 0); // no epochs
        write_u64(&mut huge_digests, 1 << 40);
        let err = Message::decode(&huge_digests).unwrap_err();
        assert!(
            err.to_string().contains("implausible digest count"),
            "{err}"
        );

        let mut overfull = Vec::new();
        overfull.push(72u8);
        put_options(&mut overfull, &TransferOptions::plain());
        write_u64(&mut overfull, 1); // transfer_id
        write_u64(&mut overfull, 100); // raw_len
        write_u64(&mut overfull, 0); // no epochs
        put_digests(&mut overfull, &[[0u8; 32]]);
        write_u64(&mut overfull, 2); // 2 shipped blocks > 1 digest
        let err = Message::decode(&overfull).unwrap_err();
        assert!(err.to_string().contains("more shipped blocks"), "{err}");
    }

    #[test]
    fn traced_envelopes_round_trip() {
        let inner = Message::Query {
            sql: "SELECT f(i) FROM numbers".into(),
        }
        .encode();
        round_trip(Message::Traced {
            trace: 42,
            inner: inner.clone(),
        });
        round_trip(Message::TracedReply {
            spans: vec![
                WireSpan {
                    id: 2,
                    parent: 1,
                    name: "engine.op.scan".into(),
                    duration_ns: 1_500,
                    fields: vec![("rows".into(), "6".into())],
                },
                WireSpan {
                    id: 1,
                    parent: 0,
                    name: "server.command".into(),
                    duration_ns: 9_000,
                    fields: vec![],
                },
            ],
            inner,
        });
        round_trip(Message::TracedReply {
            spans: vec![],
            inner: Message::Pong.encode(),
        });
    }

    #[test]
    fn traced_envelope_rejects_zero_trace_and_hostile_span_counts() {
        // Trace id 0 means "untraced" client-side and must never appear
        // on the wire.
        let mut zero = Vec::new();
        zero.push(8u8);
        write_u64(&mut zero, 0);
        put_bytes(&mut zero, &Message::Ping.encode());
        let err = Message::decode(&zero).unwrap_err();
        assert!(err.to_string().contains("without a trace id"), "{err}");

        // A tiny reply declaring 2^40 spans must fail on the count.
        let mut huge = Vec::new();
        huge.push(73u8);
        write_u64(&mut huge, 1 << 40);
        let err = Message::decode(&huge).unwrap_err();
        assert!(err.to_string().contains("implausible span count"), "{err}");

        // Same for a span declaring an implausible field count.
        let mut fields = Vec::new();
        fields.push(73u8);
        write_u64(&mut fields, 1);
        write_u64(&mut fields, 1); // id
        write_u64(&mut fields, 0); // parent
        put_str(&mut fields, "s");
        write_u64(&mut fields, 5); // duration
        write_u64(&mut fields, 1 << 40); // field count
        let err = Message::decode(&fields).unwrap_err();
        assert!(
            err.to_string().contains("implausible span field count"),
            "{err}"
        );
    }

    #[test]
    fn unknown_option_flag_bits_are_rejected() {
        // A future flag bit may imply a trailing field (as bits 2 and 3
        // already do); ignoring it would desync the rest of the frame,
        // so this version must fail loudly instead.
        let mut out = Vec::new();
        put_options(&mut out, &TransferOptions::compressed());
        out[0] |= 16;
        let err = read_options(&mut Reader::new(&out)).unwrap_err();
        assert!(
            err.to_string().contains("unknown transfer option flag"),
            "{err}"
        );
    }

    #[test]
    fn table_round_trip_with_all_types() {
        let t = WireTable {
            name: "r".into(),
            columns: vec![
                ("i".into(), "INTEGER".into()),
                ("d".into(), "DOUBLE".into()),
                ("s".into(), "STRING".into()),
                ("b".into(), "BOOLEAN".into()),
                ("x".into(), "BLOB".into()),
            ],
            rows: vec![
                vec![
                    WireValue::Int(-5),
                    WireValue::Double(2.5),
                    WireValue::Str("héllo".into()),
                    WireValue::Bool(true),
                    WireValue::Blob(vec![0, 255]),
                ],
                vec![
                    WireValue::Null,
                    WireValue::Null,
                    WireValue::Null,
                    WireValue::Null,
                    WireValue::Null,
                ],
            ],
        };
        round_trip(Message::ResultSet {
            result: WireResult::Table(t),
            udf_stdout: "printed\n".into(),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[200]).is_err());
        let mut good = Message::Ping.encode();
        good.push(0); // trailing byte
        assert!(Message::decode(&good).is_err());
        let mut truncated = Message::Query {
            sql: "SELECT 1".into(),
        }
        .encode();
        truncated.truncate(truncated.len() - 2);
        assert!(Message::decode(&truncated).is_err());
    }

    #[test]
    fn wire_table_from_engine_table() {
        let db = monetlite::Engine::new();
        db.execute("CREATE TABLE t (i INTEGER, s STRING)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        let table = db.execute("SELECT * FROM t").unwrap().into_table().unwrap();
        let wt = WireTable::from_table(&table);
        assert_eq!(wt.columns.len(), 2);
        assert_eq!(wt.rows.len(), 2);
        assert_eq!(wt.rows[1][1], WireValue::Str("b".into()));
        assert_eq!(
            wt.column_values("i").unwrap(),
            vec![WireValue::Int(1), WireValue::Int(2)]
        );
    }

    #[test]
    fn ascii_render() {
        let t = WireTable {
            name: "r".into(),
            columns: vec![("name".into(), "STRING".into())],
            rows: vec![vec![WireValue::Str("train_rnforest".into())]],
        };
        let s = t.render_ascii();
        assert!(s.contains("| train_rnforest |"));
        assert!(s.contains("1 row(s)"));
    }
}
