//! Client API: connect, query, manage UDFs, extract input data.
//!
//! # Robustness
//!
//! A [`Client`] carries a [`RetryPolicy`]. With retries enabled,
//! **idempotent** operations — [`Client::ping`], read-only
//! [`Client::query`] (`SELECT …`), [`Client::list_functions`],
//! [`Client::get_function`], [`Client::extract_inputs`] — transparently
//! reconnect, re-authenticate and retry on transient errors (IO failures,
//! frame-checksum mismatches). Non-idempotent statements are never
//! replayed: a transient failure surfaces immediately as
//! [`WireError::RetriesExhausted`] with `attempts == 1`, telling the
//! caller the statement may or may not have executed server-side.

use std::time::{Duration, Instant};

use devharness::Rng;
use pylite::Value;

use crate::delta::{self, BlockCache, CacheEntry};
use crate::fault::{FaultInjectingTransport, FaultPolicy, FaultStats, FaultStatsHandle};
use crate::message::{Message, WireError, WireResult};
use crate::retry::RetryPolicy;
use crate::server::Server;
use crate::transfer::{self, TransferOptions, TransferStats};
use crate::transport::{ClientTransport, InProcTransport, TcpTransport};

/// Default per-syscall read/write deadline on TCP connections: generous
/// enough for any legitimate reply, finite so a dead peer cannot hang the
/// client forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Connection-time knobs: retry policy, socket deadlines and (for tests
/// and benchmarks) deterministic fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientOptions {
    /// Retry policy for idempotent operations (default: disabled).
    pub retry: RetryPolicy,
    /// Seed of the backoff-jitter stream (retries are deterministic given
    /// the seed).
    pub retry_seed: u64,
    /// Per-read socket deadline (TCP only; `None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline (TCP only; `None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Wrap the transport in a [`FaultInjectingTransport`] with this
    /// policy (tests/benchmarks).
    pub fault: Option<FaultPolicy>,
    /// Worker threads for decoding chunked transfer payloads: `None`
    /// shares the process-global pool (sized by `DEVUDF_POOL_THREADS`),
    /// `Some(n)` gives this client its own `n`-thread pool. Local knob
    /// only — never crosses the wire, never changes the bytes on it.
    pub parallelism: Option<usize>,
    /// Content-addressed delta cache for repeated extracts: `Some(n)`
    /// keeps up to `n` extract payloads ([`crate::delta::BlockCache`]),
    /// which [`Client::extract_inputs`] claims so the server can answer
    /// `NotModified` or ship only changed blocks; `None` keeps nothing,
    /// so every extract is a cold one.
    pub cache: Option<usize>,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            retry: RetryPolicy::none(),
            retry_seed: 0,
            read_timeout: Some(DEFAULT_IO_TIMEOUT),
            write_timeout: Some(DEFAULT_IO_TIMEOUT),
            fault: None,
            parallelism: None,
            cache: None,
        }
    }
}

impl ClientOptions {
    /// Default options with the given retry policy.
    pub fn with_retry(retry: RetryPolicy) -> ClientOptions {
        ClientOptions {
            retry,
            ..ClientOptions::default()
        }
    }
}

/// Metadata of a stored function, as returned by [`Client::get_function`].
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    pub name: String,
    /// (param name, SQL type name).
    pub params: Vec<(String, String)>,
    pub return_type: String,
    pub language: String,
    /// Function body as stored in the server's meta tables.
    pub body: String,
}

/// A connected, authenticated client.
pub struct Client {
    // Fields below; Debug is implemented manually (the transport is opaque
    // and the password must not leak into logs).
    transport: Box<dyn ClientTransport>,
    user: String,
    password: String,
    database: String,
    retry: RetryPolicy,
    rng: Rng,
    next_transfer_id: u64,
    last_udf_stdout: String,
    fault_stats: Option<FaultStatsHandle>,
    /// Private decode pool when `ClientOptions::parallelism` was set;
    /// `None` falls back to the process-global pool.
    pool: Option<devharness::Pool>,
    /// Delta block cache when `ClientOptions::cache` was set.
    cache: Option<BlockCache>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_transfer_id", &self.next_transfer_id)
            .finish_non_exhaustive()
    }
}

/// Per-operation latency histogram, resolved to a cached handle (the
/// names are a closed set, so each arm is one `static OnceLock`).
fn op_latency(op: &'static str) -> &'static obs::metrics::Histogram {
    match op {
        "ping" => obs::histogram!("wire.client.latency.ping"),
        "query" => obs::histogram!("wire.client.latency.query"),
        "list_functions" => obs::histogram!("wire.client.latency.list_functions"),
        "get_function" => obs::histogram!("wire.client.latency.get_function"),
        "extract_delta" => obs::histogram!("wire.client.latency.extract_delta"),
        _ => obs::histogram!("wire.client.latency.other"),
    }
}

/// A read-only statement is safe to replay after a transient failure; a
/// write may have executed server-side before the reply was lost.
fn sql_is_idempotent(sql: &str) -> bool {
    let t = sql.trim_start();
    ["select", "values", "explain"]
        .iter()
        .any(|kw| t.len() >= kw.len() && t[..kw.len()].eq_ignore_ascii_case(kw))
}

/// The cache entry an extract may claim: none for a cache-off client or
/// a sampled extract.
fn claimable<'a>(
    cache: &'a mut Option<BlockCache>,
    fp: u64,
    options: &TransferOptions,
) -> Option<&'a CacheEntry> {
    if options.sample.is_some() {
        return None;
    }
    cache.as_mut()?.get(fp)
}

impl Client {
    /// Connect over the in-process transport (tests / benchmarks / embedded).
    pub fn connect_in_proc(
        server: &Server,
        user: &str,
        password: &str,
        database: &str,
    ) -> Result<Client, WireError> {
        Self::connect_in_proc_with(server, user, password, database, ClientOptions::default())
    }

    /// Connect in-process with explicit retry/fault options.
    pub fn connect_in_proc_with(
        server: &Server,
        user: &str,
        password: &str,
        database: &str,
        options: ClientOptions,
    ) -> Result<Client, WireError> {
        let (core, session) = server.in_proc_connection();
        let transport = InProcTransport { core, session };
        Self::login(Box::new(transport), user, password, database, options)
    }

    /// Connect over TCP with the default [`ClientOptions`] (30 s socket
    /// deadlines, retries disabled).
    pub fn connect_tcp(
        addr: std::net::SocketAddr,
        user: &str,
        password: &str,
        database: &str,
    ) -> Result<Client, WireError> {
        Self::connect_tcp_with(addr, user, password, database, ClientOptions::default())
    }

    /// Connect over TCP with explicit retry/deadline/fault options.
    pub fn connect_tcp_with(
        addr: std::net::SocketAddr,
        user: &str,
        password: &str,
        database: &str,
        options: ClientOptions,
    ) -> Result<Client, WireError> {
        let transport = TcpTransport::connect(addr, options.read_timeout, options.write_timeout)?;
        Self::login(Box::new(transport), user, password, database, options)
    }

    fn login(
        transport: Box<dyn ClientTransport>,
        user: &str,
        password: &str,
        database: &str,
        options: ClientOptions,
    ) -> Result<Client, WireError> {
        let mut fault_stats = None;
        let transport: Box<dyn ClientTransport> = match options.fault {
            Some(policy) => {
                let injector = FaultInjectingTransport::wrap(transport, policy);
                fault_stats = Some(injector.stats_handle());
                Box::new(injector)
            }
            None => transport,
        };
        let mut client = Client {
            transport,
            user: user.to_string(),
            password: password.to_string(),
            database: database.to_string(),
            retry: options.retry,
            rng: Rng::new(options.retry_seed),
            next_transfer_id: 1,
            last_udf_stdout: String::new(),
            fault_stats,
            pool: options.parallelism.map(devharness::Pool::new),
            cache: options.cache.map(BlockCache::new),
        };
        // Login is idempotent: under fault injection / flaky networks the
        // initial handshake retries like any read.
        let started = Instant::now();
        let result = client.with_retry(true, false, |c| c.authenticate());
        obs::histogram!("wire.client.latency.login").record_duration(started.elapsed());
        result?;
        Ok(client)
    }

    /// One login round trip over the current transport (no retry).
    fn authenticate(&mut self) -> Result<(), WireError> {
        let login = Message::Login {
            user: self.user.clone(),
            password: self.password.clone(),
            database: self.database.clone(),
        };
        let frame = login.encode();
        obs::counter!("wire.client.bytes_out").add(frame.len() as u64);
        let reply = self.transport.round_trip(&frame)?;
        obs::counter!("wire.client.bytes_in").add(reply.len() as u64);
        match Message::decode(&reply)? {
            Message::LoginOk { .. } => Ok(()),
            Message::Error { code, message, .. } if code == "AuthError" => {
                Err(WireError::Auth(message))
            }
            other => Err(WireError::Protocol(format!(
                "unexpected login reply: {other:?}"
            ))),
        }
    }

    /// Exact counts of what the fault injector did to this connection, if
    /// one was configured ([`ClientOptions::fault`]).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault_stats.as_ref().map(FaultStatsHandle::get)
    }

    /// One request/reply round trip over the current transport (no retry).
    fn round_trip(&mut self, msg: &Message) -> Result<Message, WireError> {
        let frame = msg.encode();
        obs::counter!("wire.client.bytes_out").add(frame.len() as u64);
        let reply = self.transport.round_trip(&frame)?;
        obs::counter!("wire.client.bytes_in").add(reply.len() as u64);
        let decoded = Message::decode(&reply)?;
        if let Message::Error {
            code,
            message,
            traceback,
        } = decoded
        {
            // Backpressure gets its own typed error: it is retryable even
            // for writes (the server refused before executing anything).
            if code == "ServerBusy" {
                return Err(WireError::Busy(message));
            }
            return Err(WireError::Server {
                code,
                message,
                traceback,
            });
        }
        Ok(decoded)
    }

    /// Run `op` under the client's [`RetryPolicy`].
    ///
    /// Transient errors on an idempotent `op` trigger reconnect (+ reauth
    /// unless `op` *is* the login) and a backoff-then-retry, until the
    /// policy's attempt budget or overall deadline is spent — then the
    /// last error surfaces wrapped in [`WireError::RetriesExhausted`].
    /// Non-idempotent ops are never replayed. With retries disabled the
    /// first error surfaces raw, preserving fail-fast semantics.
    fn with_retry<T>(
        &mut self,
        idempotent: bool,
        reauth: bool,
        op: impl Fn(&mut Client) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let started = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !self.retry.enabled() || !err.is_transient() {
                return Err(err);
            }
            // `Busy` means the server's bounded queue refused the command
            // before execution started, so replaying can never double-run
            // it — the no-replay rule for non-idempotent ops exempts it.
            if !idempotent && !matches!(err, WireError::Busy(_)) {
                return Err(WireError::RetriesExhausted {
                    attempts: 1,
                    last: Box::new(err),
                    elapsed: started.elapsed(),
                });
            }
            let deadline_spent = self.retry.deadline.is_some_and(|d| started.elapsed() >= d);
            if attempts >= self.retry.max_attempts || deadline_spent {
                return Err(WireError::RetriesExhausted {
                    attempts,
                    last: Box::new(err),
                    elapsed: started.elapsed(),
                });
            }
            obs::counter!("wire.client.retries").inc();
            let mut backoff = self.retry.backoff(attempts, &mut self.rng);
            if let Some(d) = self.retry.deadline {
                // Never sleep past the overall deadline.
                backoff = backoff.min(d.saturating_sub(started.elapsed()));
            }
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            // A busy server refused a well-formed request on a healthy
            // connection: back off and resend, no reconnect ceremony.
            if matches!(err, WireError::Busy(_)) {
                continue;
            }
            // Reconnect + reauth; failures here surface on the next
            // attempt (the op fails again and consumes the budget).
            obs::counter!("wire.client.reconnects").inc();
            if self.transport.reconnect().is_ok() && reauth {
                match self.authenticate() {
                    Ok(()) | Err(WireError::Io(_)) | Err(WireError::Protocol(_)) => {}
                    // Deterministic auth/server failures will not improve
                    // with more attempts — surface them now.
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// One retried request/reply exchange (helper for the public calls),
    /// recording a `wire.client.latency.<op>` observation covering all
    /// attempts.
    fn call(
        &mut self,
        op: &'static str,
        msg: &Message,
        idempotent: bool,
    ) -> Result<Message, WireError> {
        if !obs::enabled() {
            return self.with_retry(idempotent, true, |c| c.round_trip(msg));
        }
        let started = Instant::now();
        let result = self.with_retry(idempotent, true, |c| c.round_trip(msg));
        op_latency(op).record_duration(started.elapsed());
        result
    }

    /// Execute one SQL statement. `SELECT`s retry under the client's
    /// [`RetryPolicy`]; writes are never replayed.
    pub fn query(&mut self, sql: &str) -> Result<WireResult, WireError> {
        let msg = Message::Query {
            sql: sql.to_string(),
        };
        match self.call("query", &msg, sql_is_idempotent(sql))? {
            Message::ResultSet { result, udf_stdout } => {
                self.last_udf_stdout = udf_stdout;
                Ok(result)
            }
            other => Err(WireError::Protocol(format!(
                "unexpected query reply: {other:?}"
            ))),
        }
    }

    /// Execute one SQL statement inside a client-minted trace (DESIGN
    /// §15). The query travels wrapped in a [`Message::Traced`] envelope;
    /// the server captures every span it closes while executing and ships
    /// them back, and the client returns the full set — its own
    /// `client.query` / `client.wire` spans plus the server's, remapped
    /// into one id space and stitched under the wire span — ready for
    /// [`obs::trace::assemble`] / [`obs::trace::render_tree`].
    ///
    /// With telemetry disabled (or compiled out) the frame sent is
    /// byte-identical to [`Client::query`] and the span list is empty.
    pub fn query_traced(
        &mut self,
        sql: &str,
    ) -> Result<(WireResult, Vec<obs::trace::SpanRecord>), WireError> {
        let trace = obs::trace::new_trace_id();
        if trace == 0 {
            return Ok((self.query(sql)?, Vec::new()));
        }
        obs::trace::start_capture(trace);
        let ctx = obs::trace::enter_context(obs::trace::SpanContext { trace, parent: 0 });
        let wire_span_id;
        let exchange = {
            let mut qspan = obs::trace::span_active("client.query");
            qspan.field("sql", sql);
            let envelope = Message::Traced {
                trace,
                inner: Message::Query {
                    sql: sql.to_string(),
                }
                .encode(),
            };
            let bytes_out = envelope.encode().len();
            let mut wspan = obs::trace::span_active("client.wire");
            wire_span_id = wspan.id();
            wspan.field("bytes_out", bytes_out);
            match self.call("query", &envelope, sql_is_idempotent(sql)) {
                Ok(Message::TracedReply { spans, inner }) => {
                    wspan.field("bytes_in", inner.len());
                    Ok((spans, inner))
                }
                Ok(other) => Err(WireError::Protocol(format!(
                    "unexpected traced reply: {other:?}"
                ))),
                Err(e) => Err(e),
            }
        };
        drop(ctx);
        let mut records = obs::trace::take_capture(trace);
        let (server_spans, inner) = exchange?;
        // Stitch: server span ids live in their own namespace — shift
        // them into the top half of the id space (client ids are minted
        // from 1 and can never reach it) and hang the server's roots off
        // the wire span that carried them.
        const SERVER_BIT: u64 = 1 << 63;
        records.extend(server_spans.into_iter().map(|s| obs::trace::SpanRecord {
            id: s.id | SERVER_BIT,
            parent: if s.parent == 0 {
                wire_span_id
            } else {
                s.parent | SERVER_BIT
            },
            name: s.name,
            duration_ns: s.duration_ns,
            fields: s.fields,
        }));
        match Message::decode(&inner)? {
            Message::ResultSet { result, udf_stdout } => {
                self.last_udf_stdout = udf_stdout;
                Ok((result, records))
            }
            Message::Error {
                code,
                message,
                traceback,
            } => Err(WireError::Server {
                code,
                message,
                traceback,
            }),
            other => Err(WireError::Protocol(format!(
                "unexpected query reply: {other:?}"
            ))),
        }
    }

    /// `print` output emitted by server-side UDFs during the last query —
    /// the "print debugging" channel the paper's demo contrasts against.
    pub fn last_udf_stdout(&self) -> &str {
        &self.last_udf_stdout
    }

    /// Names of every stored function.
    pub fn list_functions(&mut self) -> Result<Vec<String>, WireError> {
        match self.call("list_functions", &Message::ListFunctions, true)? {
            Message::FunctionList { names } => Ok(names),
            other => Err(WireError::Protocol(format!(
                "unexpected list reply: {other:?}"
            ))),
        }
    }

    /// Full metadata + stored body of one function.
    pub fn get_function(&mut self, name: &str) -> Result<FunctionInfo, WireError> {
        let msg = Message::GetFunction {
            name: name.to_string(),
        };
        match self.call("get_function", &msg, true)? {
            Message::FunctionInfo {
                name,
                params,
                return_type,
                language,
                body,
            } => Ok(FunctionInfo {
                name,
                params,
                return_type,
                language,
                body,
            }),
            other => Err(WireError::Protocol(format!(
                "unexpected function reply: {other:?}"
            ))),
        }
    }

    /// Run the paper's extract function: evaluate `query` server-side with
    /// the call to `udf` intercepted, and transfer its input data using
    /// `options`. Returns the inputs dict and the transfer statistics.
    ///
    /// Every extract is one `ExtractDelta` round trip (DESIGN §12). With a
    /// delta cache configured ([`ClientOptions::cache`]) the request
    /// claims the cached entry's epochs and block digests: unchanged
    /// payloads cost zero payload bytes, partially changed ones ship only
    /// the changed blocks. A cache-off client and a sampled extract claim
    /// nothing and keep nothing — a sample is drawn fresh per transfer,
    /// so two sampled payloads are never comparable.
    pub fn extract_inputs(
        &mut self,
        query: &str,
        udf: &str,
        options: TransferOptions,
    ) -> Result<(Value, TransferStats), WireError> {
        let transfer_id = self.next_transfer_id;
        self.next_transfer_id += 1;
        let fp = delta::fingerprint(query, udf, &options);
        let (epochs, digests) = match claimable(&mut self.cache, fp, &options) {
            Some(entry) => (entry.epochs.clone(), entry.digests.clone()),
            None => (Vec::new(), Vec::new()),
        };
        let msg = Message::ExtractDelta {
            query: query.to_string(),
            udf: udf.to_string(),
            options,
            transfer_id,
            epochs,
            digests,
        };
        match self.call("extract_delta", &msg, true)? {
            Message::DeltaNotModified { .. } => {
                let entry = claimable(&mut self.cache, fp, &options).ok_or_else(|| {
                    WireError::Protocol(
                        "server answered NotModified for an extract not in the cache".into(),
                    )
                })?;
                obs::counter!("transfer.delta.not_modified").inc();
                obs::counter!("transfer.delta.bytes_saved").add(entry.raw_len as u64);
                let raw = entry.reassemble();
                let stats = TransferStats {
                    raw_len: entry.raw_len,
                    wire_len: 0,
                };
                let value = transfer::unpickle_inputs(&raw)
                    .map_err(|e| WireError::Protocol(e.to_string()))?;
                Ok((value, stats))
            }
            Message::DeltaBlocks {
                options: reply_options,
                transfer_id: reply_id,
                raw_len,
                epochs,
                digests,
                blocks,
            } => {
                // The block grid is client-chosen: a reply under different
                // options (or the wrong transfer id) is not ours.
                if reply_options != options || reply_id != transfer_id {
                    return Err(WireError::Protocol(
                        "delta reply does not match the request".into(),
                    ));
                }
                let raw_len = usize::try_from(raw_len)
                    .map_err(|_| WireError::Protocol("delta raw length out of range".into()))?;
                let block_size = options.effective_block_size();
                let nblocks = digests.len();
                let wire_len =
                    blocks.iter().map(|b| b.body.len()).sum::<usize>() + 32 * digests.len();
                let raw = {
                    let cached_map = match claimable(&mut self.cache, fp, &options) {
                        Some(entry) => entry.digest_map(),
                        None => std::collections::HashMap::new(),
                    };
                    let pool = self
                        .pool
                        .as_ref()
                        .unwrap_or_else(|| devharness::pool::global());
                    transfer::reconstruct_delta(
                        pool,
                        raw_len,
                        &options,
                        &self.password,
                        transfer_id,
                        &digests,
                        &blocks,
                        &cached_map,
                    )
                    .map_err(|e| WireError::Protocol(e.to_string()))?
                };
                // Raw bytes that did NOT cross the wire thanks to block
                // reuse (grid arithmetic is safe: reconstruct validated
                // the digest table against raw_len and every index).
                let shipped_raw: usize = blocks
                    .iter()
                    .map(|b| {
                        if b.index as usize + 1 == nblocks {
                            raw_len - (nblocks - 1) * block_size
                        } else {
                            block_size
                        }
                    })
                    .sum();
                if blocks.len() < nblocks {
                    obs::counter!("transfer.delta.hits").inc();
                } else {
                    obs::counter!("transfer.delta.misses").inc();
                }
                obs::counter!("transfer.delta.bytes_saved")
                    .add(raw_len.saturating_sub(shipped_raw) as u64);
                if let Some(cache) = self.cache.as_mut().filter(|_| options.sample.is_none()) {
                    // reconstruct_delta matched every block of `raw`
                    // against this digest table, so it is reused, not
                    // recomputed.
                    cache.insert(
                        fp,
                        CacheEntry::from_digests(&raw, block_size, digests, epochs),
                    );
                }
                let stats = TransferStats { raw_len, wire_len };
                let value = transfer::unpickle_inputs(&raw)
                    .map_err(|e| WireError::Protocol(e.to_string()))?;
                Ok((value, stats))
            }
            other => Err(WireError::Protocol(format!(
                "unexpected extract reply: {other:?}"
            ))),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call("ping", &Message::Ping, true)? {
            Message::Pong => Ok(()),
            other => Err(WireError::Protocol(format!(
                "unexpected ping reply: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireValue;
    use crate::server::ServerConfig;

    fn demo_server() -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE numbers (i INTEGER)").unwrap();
            db.execute("INSERT INTO numbers VALUES (1), (2), (3), (4), (5), (6)")
                .unwrap();
            db.execute(
                "CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\nmean = 0\nfor i in range(0, len(column)):\n    mean += column[i]\nmean = mean / len(column)\ndistance = 0\nfor i in range(0, len(column)):\n    distance += abs(column[i] - mean)\nreturn distance / len(column)\n}",
            )
            .unwrap();
        })
    }

    fn connect(server: &Server) -> Client {
        Client::connect_in_proc(server, "monetdb", "monetdb", "demo").unwrap()
    }

    #[test]
    fn login_and_query() {
        let server = demo_server();
        let mut client = connect(&server);
        let t = client
            .query("SELECT sum(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Int(21));
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn bad_credentials_rejected() {
        let server = demo_server();
        let err = Client::connect_in_proc(&server, "monetdb", "wrongpw", "demo").unwrap_err();
        assert!(matches!(err, WireError::Auth(_)));
        let err = Client::connect_in_proc(&server, "monetdb", "monetdb", "nodb").unwrap_err();
        assert!(matches!(err, WireError::Auth(_)));
        server.shutdown();
    }

    #[test]
    fn unauthenticated_session_rejected() {
        let server = demo_server();
        let (core, session) = server.in_proc_connection();
        let mut transport = InProcTransport { core, session };
        let reply = transport
            .round_trip(
                &Message::Query {
                    sql: "SELECT 1".into(),
                }
                .encode(),
            )
            .unwrap();
        match Message::decode(&reply).unwrap() {
            Message::Error { code, .. } => assert_eq!(code, "AuthError"),
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn udf_execution_over_the_wire() {
        let server = demo_server();
        let mut client = connect(&server);
        let t = client
            .query("SELECT mean_deviation(i) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Double(1.5));
        server.shutdown();
    }

    #[test]
    fn server_side_error_propagates_with_traceback() {
        let server = demo_server();
        let mut client = connect(&server);
        client
            .query("CREATE FUNCTION boom(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nreturn i / 0\n}")
            .unwrap();
        let err = client.query("SELECT boom(i) FROM numbers").unwrap_err();
        match err {
            WireError::Server {
                code, traceback, ..
            } => {
                assert_eq!(code, "UdfError");
                assert!(traceback.unwrap().contains("line 1"));
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn list_and_get_functions() {
        let server = demo_server();
        let mut client = connect(&server);
        let names = client.list_functions().unwrap();
        assert_eq!(names, vec!["mean_deviation"]);
        let info = client.get_function("mean_deviation").unwrap();
        assert_eq!(
            info.params,
            vec![("column".to_string(), "INTEGER".to_string())]
        );
        assert_eq!(info.return_type, "DOUBLE");
        assert!(info.body.contains("distance"));
        assert!(client.get_function("ghost").is_err());
        server.shutdown();
    }

    #[test]
    fn extract_inputs_round_trip_all_option_combinations() {
        let server = demo_server();
        let mut client = connect(&server);
        for (compress, encrypt) in [(false, false), (true, false), (false, true), (true, true)] {
            let options = TransferOptions {
                compress,
                encrypt,
                ..Default::default()
            };
            let (value, stats) = client
                .extract_inputs(
                    "SELECT mean_deviation(i) FROM numbers",
                    "mean_deviation",
                    options,
                )
                .unwrap();
            let Value::Dict(d) = &value else { panic!() };
            let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
            match col {
                Value::Array(a) => assert_eq!(a.len(), 6),
                other => panic!("{other:?}"),
            }
            assert!(stats.raw_len > 0);
        }
        server.shutdown();
    }

    #[test]
    fn extract_with_private_decode_pool_matches_global() {
        let server = demo_server();
        let pooled_opts = ClientOptions {
            parallelism: Some(2),
            ..ClientOptions::default()
        };
        let mut pooled =
            Client::connect_in_proc_with(&server, "monetdb", "monetdb", "demo", pooled_opts)
                .unwrap();
        let mut shared = connect(&server);
        let transfer = TransferOptions {
            compress: true,
            encrypt: true,
            ..Default::default()
        };
        let (a, _) = pooled
            .extract_inputs(
                "SELECT mean_deviation(i) FROM numbers",
                "mean_deviation",
                transfer,
            )
            .unwrap();
        let (b, _) = shared
            .extract_inputs(
                "SELECT mean_deviation(i) FROM numbers",
                "mean_deviation",
                transfer,
            )
            .unwrap();
        assert!(a.py_eq(&b));
        server.shutdown();
    }

    /// 2 000 distinct rows behind a trivial UDF `f`: large enough that
    /// two samples of 50 rows never coincide.
    fn big_server() -> Server {
        Server::start(ServerConfig::new("demo", "monetdb", "monetdb"), |db| {
            db.execute("CREATE TABLE big (i INTEGER)").unwrap();
            let values: Vec<String> = (0..2000).map(|i| format!("({i})")).collect();
            db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
            db.execute(
                "CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }",
            )
            .unwrap();
        })
    }

    fn column_of(v: &Value) -> Vec<i64> {
        let Value::Dict(d) = v else { panic!() };
        let col = d.borrow().get(&Value::str("column")).unwrap().unwrap();
        let Value::Array(a) = col else { panic!() };
        (0..a.len())
            .map(|i| match a.get(i) {
                Value::Int(x) => x,
                other => panic!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn extract_with_sampling_reduces_rows_and_bytes() {
        let server = big_server();
        let mut client = connect(&server);
        let (full, full_stats) = client
            .extract_inputs("SELECT f(i) FROM big", "f", TransferOptions::plain())
            .unwrap();
        let (sampled, sampled_stats) = client
            .extract_inputs("SELECT f(i) FROM big", "f", TransferOptions::sampled(50))
            .unwrap();
        assert_eq!(column_of(&full).len(), 2000);
        assert_eq!(column_of(&sampled).len(), 50);
        assert!(sampled_stats.wire_len < full_stats.wire_len / 10);
        server.shutdown();
    }

    #[test]
    fn sampled_extracts_on_a_cached_client_are_cold_delta_requests() {
        let server = big_server();
        let (core, session) = server.in_proc_connection();
        let frames = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let transport = RecordingTransport {
            inner: InProcTransport { core, session },
            frames: frames.clone(),
        };
        let options = ClientOptions {
            cache: Some(4),
            ..ClientOptions::default()
        };
        let mut client =
            Client::login(Box::new(transport), "monetdb", "monetdb", "demo", options).unwrap();
        let sampled = TransferOptions::sampled(50);
        let mut draws = Vec::new();
        for _ in 0..2 {
            let (value, stats) = client
                .extract_inputs("SELECT f(i) FROM big", "f", sampled)
                .unwrap();
            // A NotModified answer would carry no payload bytes.
            assert!(stats.wire_len > 0);
            draws.push(column_of(&value));
        }
        assert_eq!(draws[0].len(), 50);
        assert_ne!(draws[0], draws[1], "each transfer draws a fresh sample");
        assert!(
            client.cache.as_ref().unwrap().is_empty(),
            "samples are never cached"
        );
        // Login, then two tag-7 requests that claim nothing.
        let frames = frames.lock().unwrap().clone();
        assert_eq!(frames.len(), 3);
        for frame in &frames[1..] {
            match Message::decode(frame).unwrap() {
                Message::ExtractDelta {
                    options,
                    epochs,
                    digests,
                    ..
                } => {
                    assert_eq!(options, sampled);
                    assert!(epochs.is_empty() && digests.is_empty());
                }
                other => panic!("{other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn sampled_requests_claiming_cached_state_are_rejected() {
        let server = big_server();
        let (core, session) = server.in_proc_connection();
        let mut transport = InProcTransport { core, session };
        let login = Message::Login {
            user: "monetdb".into(),
            password: "monetdb".into(),
            database: "demo".into(),
        };
        transport.round_trip(&login.encode()).unwrap();
        let claims = [
            (vec![("big".to_string(), 1)], vec![]),
            (vec![], vec![[0u8; 32]]),
        ];
        for (transfer_id, (epochs, digests)) in (1..).zip(claims) {
            let request = Message::ExtractDelta {
                query: "SELECT f(i) FROM big".into(),
                udf: "f".into(),
                options: TransferOptions::sampled(50),
                transfer_id,
                epochs,
                digests,
            };
            let reply = transport.round_trip(&request.encode()).unwrap();
            match Message::decode(&reply).unwrap() {
                Message::Error { code, .. } => assert_eq!(code, "TransferError"),
                other => panic!("{other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn tcp_transport_end_to_end() {
        let server = demo_server();
        let addr = server.listen_tcp().unwrap();
        let mut client = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap();
        let t = client
            .query("SELECT count(*) FROM numbers")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows[0][0], WireValue::Int(6));
        // Second client concurrently.
        let mut client2 = Client::connect_tcp(addr, "monetdb", "monetdb", "demo").unwrap();
        client2.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn retries_exhausted_preserves_cause_and_elapsed() {
        let server = demo_server();
        let options = ClientOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                deadline: None,
            },
            // Every frame is dropped, so login itself exhausts the budget.
            fault: Some(crate::fault::FaultPolicy::black_hole(11)),
            ..ClientOptions::default()
        };
        let err = Client::connect_in_proc_with(&server, "monetdb", "monetdb", "demo", options)
            .unwrap_err();
        match err {
            WireError::RetriesExhausted {
                attempts,
                last,
                elapsed,
            } => {
                assert_eq!(attempts, 3);
                // The underlying cause survives the wrapping…
                match *last {
                    WireError::Io(ref m) => assert!(m.contains("frame dropped"), "{m}"),
                    other => panic!("expected the injected Io cause, got {other:?}"),
                }
                // …and the total wall-clock time (two 1–2 ms backoffs).
                assert!(elapsed >= Duration::from_millis(2), "{elapsed:?}");
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn fault_stats_reachable_through_the_client() {
        let server = demo_server();
        let options = ClientOptions {
            fault: Some(crate::fault::FaultPolicy::none(3)),
            ..ClientOptions::default()
        };
        let mut client =
            Client::connect_in_proc_with(&server, "monetdb", "monetdb", "demo", options).unwrap();
        client.ping().unwrap();
        let stats = client.fault_stats().expect("injector configured");
        assert_eq!(stats.clean, 2, "login + ping, nothing injected: {stats:?}");
        assert_eq!(stats.injected(), 0);
        // Without a fault policy there is nothing to report.
        let bare = connect(&server);
        assert!(bare.fault_stats().is_none());
        server.shutdown();
    }

    /// Refuses frames with `ServerBusy` while the shared counter is
    /// positive, then passes everything through to the real server —
    /// deterministic backpressure without racing real queues.
    struct BusyServerTransport {
        inner: InProcTransport,
        refusals: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }

    impl crate::transport::ClientTransport for BusyServerTransport {
        fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
            use std::sync::atomic::Ordering;
            if self.refusals.load(Ordering::Relaxed) > 0 {
                self.refusals.fetch_sub(1, Ordering::Relaxed);
                return Ok(Message::Error {
                    code: "ServerBusy".into(),
                    message: "write queue is full; retry after backoff".into(),
                    traceback: None,
                }
                .encode());
            }
            self.inner.round_trip(frame)
        }
    }

    #[test]
    fn busy_replies_retry_even_non_idempotent_commands() {
        let server = demo_server();
        let refusals = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let (core, session) = server.in_proc_connection();
        let transport = BusyServerTransport {
            inner: InProcTransport { core, session },
            refusals: refusals.clone(),
        };
        let options = ClientOptions::with_retry(RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            deadline: Some(Duration::from_secs(5)),
        });
        let mut client =
            Client::login(Box::new(transport), "monetdb", "monetdb", "demo", options).unwrap();
        // An INSERT is not idempotent, but `ServerBusy` means the server
        // refused the command before executing anything — the retry layer
        // replays it instead of giving up after one attempt.
        refusals.store(2, std::sync::atomic::Ordering::Relaxed);
        client.query("INSERT INTO numbers VALUES (99)").unwrap();
        assert_eq!(refusals.load(std::sync::atomic::Ordering::Relaxed), 0);
        let t = client
            .query("SELECT i FROM numbers WHERE i = 99")
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.rows.len(), 1, "the write executed exactly once");
        server.shutdown();
    }

    #[test]
    fn busy_surfaces_raw_when_retries_are_disabled() {
        let server = demo_server();
        let refusals = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let (core, session) = server.in_proc_connection();
        let transport = BusyServerTransport {
            inner: InProcTransport { core, session },
            refusals: refusals.clone(),
        };
        let mut client = Client::login(
            Box::new(transport),
            "monetdb",
            "monetdb",
            "demo",
            ClientOptions::default(),
        )
        .unwrap();
        refusals.store(1, std::sync::atomic::Ordering::Relaxed);
        let err = client.query("INSERT INTO numbers VALUES (99)").unwrap_err();
        assert!(matches!(err, WireError::Busy(_)), "{err:?}");
        assert!(err.is_transient());
        server.shutdown();
    }

    #[test]
    fn traced_query_returns_a_stitched_span_tree() {
        // Captures and the enable flag are process-global: serialize with
        // every other telemetry-recording test.
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::trace::clear_subscribers();
        let server = demo_server();
        let mut client = connect(&server);
        let (result, spans) = client
            .query_traced("SELECT mean_deviation(i) FROM numbers")
            .unwrap();
        let t = result.into_table().unwrap();
        assert_eq!(t.rows[0][0], WireValue::Double(1.5));
        let query = spans.iter().find(|r| r.name == "client.query").unwrap();
        assert_eq!(query.parent, 0);
        let wire = spans.iter().find(|r| r.name == "client.wire").unwrap();
        assert_eq!(wire.parent, query.id);
        let cmd = spans.iter().find(|r| r.name == "server.command").unwrap();
        assert_eq!(cmd.parent, wire.id, "server roots hang off the wire span");
        assert_ne!(cmd.id & (1 << 63), 0, "server ids are remapped");
        assert!(
            cmd.fields
                .contains(&("command".to_string(), "query".to_string())),
            "{:?}",
            cmd.fields
        );
        assert!(spans.iter().all(|r| r.duration_ns > 0), "{spans:?}");
        // The whole exchange assembles into one tree rooted at the client.
        let roots = obs::trace::assemble(&spans);
        assert_eq!(roots.len(), 1, "{spans:?}");
        assert_eq!(roots[0].record.name, "client.query");
        assert_eq!(roots[0].len(), spans.len());
        server.shutdown();
    }

    /// Records every frame a client sends, so tests can compare wire
    /// bytes across clients.
    struct RecordingTransport {
        inner: InProcTransport,
        frames: std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
    }

    impl crate::transport::ClientTransport for RecordingTransport {
        fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
            self.frames
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(frame.to_vec());
            self.inner.round_trip(frame)
        }
    }

    #[test]
    fn untraced_query_traced_is_byte_identical_to_plain_query() {
        let _serial = obs::metrics::test_lock();
        // With telemetry off no trace id can be minted; query_traced must
        // leave no mark on the wire.
        obs::set_enabled(false);
        let server = demo_server();
        let recorded = |server: &Server| {
            let (core, session) = server.in_proc_connection();
            let frames = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let transport = RecordingTransport {
                inner: InProcTransport { core, session },
                frames: frames.clone(),
            };
            let client = Client::login(
                Box::new(transport),
                "monetdb",
                "monetdb",
                "demo",
                ClientOptions::default(),
            )
            .unwrap();
            (client, frames)
        };
        let (mut plain, plain_frames) = recorded(&server);
        let (mut traced, traced_frames) = recorded(&server);
        let sql = "SELECT mean_deviation(i) FROM numbers";
        plain.query(sql).unwrap();
        let (_, spans) = traced.query_traced(sql).unwrap();
        assert!(spans.is_empty());
        let a = plain_frames.lock().unwrap().clone();
        let b = traced_frames.lock().unwrap().clone();
        assert_eq!(a.len(), 2, "login + query");
        assert_eq!(a, b, "untraced traced-query bytes must match plain bytes");
        obs::set_enabled(true);
        server.shutdown();
    }

    #[test]
    fn udf_print_output_travels_to_client() {
        let server = demo_server();
        let mut client = connect(&server);
        client
            .query("CREATE FUNCTION noisy(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nprint('debugging', len(i))\nreturn i\n}")
            .unwrap();
        client.query("SELECT noisy(i) FROM numbers").unwrap();
        assert_eq!(client.last_udf_stdout(), "debugging 6\n");
        server.shutdown();
    }
}
