//! A blocking TCP client for rex-server.
//!
//! One [`Client`] is one connection: a synchronous request/response
//! conversation in the line protocol ([`crate::protocol`]). For
//! throughput, [`query_pipelined`](Client::query_pipelined) keeps a
//! window of requests in flight so the server's batch-flush path can
//! amortize syscalls across commands.

use crate::protocol::{self};
use rex_core::error::{Result, RexError};
use rex_core::tuple::Tuple;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// The decoded reply to one `QUERY`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Result rows, in the server's presentation order.
    pub rows: Vec<Tuple>,
    /// The snapshot version the query executed against.
    pub version: u64,
    /// Engine that executed it (`local` / `cluster`).
    pub engine: String,
}

/// The decoded reply to one write (`INSERT` / `BATCH`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Rows ingested by this operation.
    pub rows: usize,
    /// The session version after the write; a snapshot at least this new
    /// is published before the ack is sent (read-your-writes).
    pub version: u64,
}

/// A blocking rex-server connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn io_err(what: &str, e: std::io::Error) -> RexError {
    RexError::Exec(format!("client: {what}: {e}"))
}

impl Client {
    /// Connect and say `HELLO`; returns the client plus the server's
    /// greeting (name, version, engine, snapshot version).
    pub fn connect<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<(Client, String)> {
        let stream = TcpStream::connect(&addr)
            .map_err(|e| RexError::Exec(format!("client: connect {addr:?}: {e}")))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone stream", e))?);
        let mut client = Client { reader, writer: BufWriter::new(stream) };
        client.send_line("HELLO rex-client")?;
        let greeting = client.read_ok_line()?;
        Ok((client, greeting))
    }

    /// Run one read-only query against the current published snapshot.
    pub fn query(&mut self, rql: &str) -> Result<QueryReply> {
        self.send_line(&format!("QUERY {rql}"))?;
        self.read_query_reply()
    }

    /// Run `queries` with up to `window` requests in flight at once.
    /// Replies come back in request order.
    pub fn query_pipelined(
        &mut self,
        queries: &[String],
        window: usize,
    ) -> Result<Vec<QueryReply>> {
        let window = window.max(1);
        let mut replies = Vec::with_capacity(queries.len());
        let mut sent = 0usize;
        while replies.len() < queries.len() {
            // Refill in bursts (not one-at-a-time per reply, which would
            // degenerate to a flush syscall per query): top the window
            // up only once it has half-drained.
            if sent < queries.len() && sent - replies.len() <= window / 2 {
                while sent < queries.len() && sent - replies.len() < window {
                    writeln!(self.writer, "QUERY {}", queries[sent])
                        .map_err(|e| io_err("send", e))?;
                    sent += 1;
                }
                self.writer.flush().map_err(|e| io_err("flush", e))?;
            }
            replies.push(self.read_query_reply()?);
        }
        Ok(replies)
    }

    /// Run `queries` pipelined like
    /// [`query_pipelined`](Client::query_pipelined), but *skim* the
    /// replies: verify framing and headers, count rows, skip decoding
    /// row values. This is the lean path for throughput measurement and
    /// bulk cache warming — with `window = 1` it degenerates to strict
    /// request/response, which makes sequential-vs-pipelined
    /// comparisons apples-to-apples. Returns total rows seen and the
    /// last reply's snapshot version.
    pub fn query_pipelined_skim(
        &mut self,
        queries: &[String],
        window: usize,
    ) -> Result<(usize, u64)> {
        let window = window.max(1);
        let mut total_rows = 0usize;
        let mut last_version = 0u64;
        let mut sent = 0usize;
        let mut recvd = 0usize;
        let mut line = String::new();
        while recvd < queries.len() {
            // Burst refill once half the window has drained; see
            // `query_pipelined` for why.
            if sent < queries.len() && sent - recvd <= window / 2 {
                while sent < queries.len() && sent - recvd < window {
                    self.writer.write_all(b"QUERY ").map_err(|e| io_err("send", e))?;
                    self.writer
                        .write_all(queries[sent].as_bytes())
                        .map_err(|e| io_err("send", e))?;
                    self.writer.write_all(b"\n").map_err(|e| io_err("send", e))?;
                    sent += 1;
                }
                self.writer.flush().map_err(|e| io_err("flush", e))?;
            }
            let (rows, version) = self.skim_reply(&mut line)?;
            total_rows += rows;
            last_version = version;
            recvd += 1;
        }
        Ok((total_rows, last_version))
    }

    /// Read one query reply, checking framing but not decoding rows.
    fn skim_reply(&mut self, line: &mut String) -> Result<(usize, u64)> {
        line.clear();
        let n = self.reader.read_line(line).map_err(|e| io_err("read", e))?;
        if n == 0 {
            return Err(RexError::Exec("client: server closed the connection".into()));
        }
        let header = line.trim_end_matches(['\r', '\n']);
        let header = if let Some(rest) = header.strip_prefix("OK ") {
            rest
        } else if let Some(rest) = header.strip_prefix("ERR ") {
            return Err(RexError::Exec(format!("server: {rest}")));
        } else {
            return Err(bad_reply("status", header));
        };
        let rows: usize = header
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad_reply("query header", header))?;
        let version =
            field_u64(header, "version=").ok_or_else(|| bad_reply("query header", header))?;
        for _ in 0..rows + 1 {
            line.clear();
            if self.reader.read_line(line).map_err(|e| io_err("read", e))? == 0 {
                return Err(RexError::Exec("client: reply truncated".into()));
            }
        }
        if line.trim_end_matches(['\r', '\n']) != "." {
            return Err(bad_reply("terminator", line));
        }
        Ok((rows, version))
    }

    /// Insert rows with a one-line `INSERT` (fine for a handful of rows;
    /// use [`batch`](Client::batch) for bulk loads).
    pub fn insert(&mut self, table: &str, rows: &[Tuple]) -> Result<WriteAck> {
        if rows.is_empty() {
            return Err(RexError::Exec("client: INSERT needs at least one row".into()));
        }
        let mut line = format!("INSERT {table} ");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            protocol::encode_row_into(row, &mut line);
        }
        self.send_line(&line)?;
        self.read_write_ack()
    }

    /// Stream a bulk batch: `BATCH` header + one line per row.
    pub fn batch(&mut self, table: &str, rows: &[Tuple]) -> Result<WriteAck> {
        writeln!(self.writer, "BATCH {table} {}", rows.len()).map_err(|e| io_err("send", e))?;
        let mut line = String::new();
        for row in rows {
            line.clear();
            protocol::encode_row_into(row, &mut line);
            line.push('\n');
            self.writer.write_all(line.as_bytes()).map_err(|e| io_err("send", e))?;
        }
        self.writer.flush().map_err(|e| io_err("flush", e))?;
        self.read_write_ack()
    }

    /// Run statements (queries or DDL) serialized on the server's writer
    /// session. Returns per-statement results (row count or error text)
    /// plus the session version afterwards.
    pub fn script(
        &mut self,
        stmts: &[&str],
    ) -> Result<(Vec<std::result::Result<usize, String>>, u64)> {
        writeln!(self.writer, "SCRIPT {}", stmts.len()).map_err(|e| io_err("send", e))?;
        for s in stmts {
            if s.contains('\n') {
                return Err(RexError::Exec("client: script statements must be one line".into()));
            }
            writeln!(self.writer, "{s}").map_err(|e| io_err("send", e))?;
        }
        self.writer.flush().map_err(|e| io_err("flush", e))?;
        let header = self.read_ok_line()?;
        let version =
            field_u64(&header, "version=").ok_or_else(|| bad_reply("script header", &header))?;
        let count: usize = header
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad_reply("script header", &header))?;
        let mut results = Vec::with_capacity(count);
        for _ in 0..count {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("OK") {
                let rows = rest.trim().parse().map_err(|_| bad_reply("script result", &line))?;
                results.push(Ok(rows));
            } else if let Some(rest) = line.strip_prefix("ERR ") {
                results.push(Err(rest.to_string()));
            } else {
                return Err(bad_reply("script result", &line));
            }
        }
        self.expect_terminator()?;
        Ok((results, version))
    }

    /// Fetch the `STATS` report (server counters + snapshot report) as
    /// raw `key value` lines.
    pub fn stats(&mut self) -> Result<String> {
        self.send_line("STATS")?;
        self.read_ok_line()?;
        let mut body = String::new();
        loop {
            let line = self.read_line()?;
            if line == "." {
                return Ok(body);
            }
            body.push_str(&line);
            body.push('\n');
        }
    }

    /// Fetch the `METRICS` report — the server's counters in Prometheus
    /// text exposition (see docs/OBSERVABILITY.md for the metric names).
    pub fn metrics(&mut self) -> Result<String> {
        self.send_line("METRICS")?;
        self.read_ok_line()?;
        let mut body = String::new();
        loop {
            let line = self.read_line()?;
            if line == "." {
                return Ok(body);
            }
            body.push_str(&line);
            body.push('\n');
        }
    }

    /// Close the connection politely.
    pub fn quit(mut self) -> Result<()> {
        self.send_line("QUIT")?;
        self.read_ok_line()?;
        Ok(())
    }

    /// Ask the server to shut down gracefully, then close.
    pub fn shutdown_server(mut self) -> Result<()> {
        self.send_line("SHUTDOWN")?;
        self.read_ok_line()?;
        Ok(())
    }

    // ---- wire helpers ----------------------------------------------------

    fn send_line(&mut self, line: &str) -> Result<()> {
        writeln!(self.writer, "{line}").map_err(|e| io_err("send", e))?;
        self.writer.flush().map_err(|e| io_err("flush", e))
    }

    fn read_line(&mut self) -> Result<String> {
        let mut line = String::new();
        self.read_line_into(&mut line)?;
        Ok(line)
    }

    /// Read one line into `line` (cleared first), terminator stripped.
    fn read_line_into(&mut self, line: &mut String) -> Result<()> {
        line.clear();
        let n = self.reader.read_line(line).map_err(|e| io_err("read", e))?;
        if n == 0 {
            return Err(RexError::Exec("client: server closed the connection".into()));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(())
    }

    /// Read a status line; `OK …` yields the text after `OK`, `ERR …`
    /// becomes an error.
    fn read_ok_line(&mut self) -> Result<String> {
        let line = self.read_line()?;
        if let Some(rest) = line.strip_prefix("OK") {
            Ok(rest.trim_start().to_string())
        } else if let Some(rest) = line.strip_prefix("ERR ") {
            Err(RexError::Exec(format!("server: {rest}")))
        } else {
            Err(bad_reply("status", &line))
        }
    }

    fn read_query_reply(&mut self) -> Result<QueryReply> {
        let header = self.read_ok_line()?;
        let count: usize = header
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad_reply("query header", &header))?;
        let version =
            field_u64(&header, "version=").ok_or_else(|| bad_reply("query header", &header))?;
        let engine = header
            .split_whitespace()
            .find_map(|f| f.strip_prefix("engine="))
            .unwrap_or("?")
            .to_string();
        let mut rows = Vec::with_capacity(count);
        let mut line = String::new();
        let mut scratch = Vec::new();
        for _ in 0..count {
            self.read_line_into(&mut line)?;
            rows.push(protocol::decode_row_with(&line, &mut scratch)?);
        }
        self.expect_terminator()?;
        Ok(QueryReply { rows, version, engine })
    }

    fn read_write_ack(&mut self) -> Result<WriteAck> {
        let header = self.read_ok_line()?;
        let rows = header
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad_reply("write ack", &header))?;
        let version =
            field_u64(&header, "version=").ok_or_else(|| bad_reply("write ack", &header))?;
        Ok(WriteAck { rows, version })
    }

    fn expect_terminator(&mut self) -> Result<()> {
        let line = self.read_line()?;
        if line == "." {
            Ok(())
        } else {
            Err(bad_reply("terminator", &line))
        }
    }
}

fn bad_reply(what: &str, line: &str) -> RexError {
    RexError::Exec(format!("client: malformed {what} line from server: {line:?}"))
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace().find_map(|f| f.strip_prefix(key)).and_then(|v| v.parse().ok())
}
