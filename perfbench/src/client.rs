//! A client for the `congest-serve` binary over its Unix socket: start a
//! server, connect, and send batches — query lines closed by a `flush` —
//! reading back one answer line per query and the batch summary.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serve::{json, BATCH_SCHEMA, RESPONSE_SCHEMA, TELEMETRY_SCHEMA};

/// The request line that closes a batch.
pub const FLUSH: &str = r#"{"schema":"congest.serve","version":1,"op":"flush"}"#;
/// A request answered at once with one line, without touching the
/// caches or the pending batch.
pub const TELEMETRY: &str = r#"{"schema":"congest.serve","version":1,"op":"telemetry"}"#;

/// How long a starting server may take to listen.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A `congest-serve --socket` child process, killed and reaped on drop.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Starts `bin` listening on `socket`, with `lanes` pool lanes.
    pub fn spawn(bin: &Path, socket: &Path, lanes: usize) -> io::Result<Server> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .env("RAYON_NUM_THREADS", lanes.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Server {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects, retrying until the server listens.
    pub fn connect(&mut self) -> io::Result<Conn> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Conn::new(stream),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!(
                            "congest-serve exited before listening: {status}"
                        )));
                    }
                    if Instant::now() > deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Peak resident set size of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One connection to a server.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    request: Vec<u8>,
}

impl Conn {
    fn new(stream: UnixStream) -> io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
        })
    }

    /// Sends `queries` and a flush in one write and reads the answer:
    /// `queries.len() + 1` lines, without their newlines. The server
    /// answers a malformed query at once with an error line and the flush
    /// still closes the batch with a summary, so the count holds either
    /// way.
    pub fn batch(&mut self, queries: &[String]) -> io::Result<Vec<String>> {
        assert!(!queries.is_empty(), "an empty batch is answered by nothing");
        self.request.clear();
        for line in queries.iter().map(String::as_str).chain([FLUSH]) {
            self.request.extend_from_slice(line.as_bytes());
            self.request.push(b'\n');
        }
        self.writer.write_all(&self.request)?;
        (0..=queries.len()).map(|_| self.read_line()).collect()
    }

    /// Sends a [`TELEMETRY`] request and reads its one answer line: a
    /// round trip over the socket with next to no service work in it.
    /// Returns an error if the answer is not a telemetry line.
    pub fn telemetry(&mut self) -> io::Result<String> {
        self.request.clear();
        self.request.extend_from_slice(TELEMETRY.as_bytes());
        self.request.push(b'\n');
        self.writer.write_all(&self.request)?;
        let line = self.read_line()?;
        let schema = json::parse(&line).ok().and_then(|v| {
            v.get("schema")
                .and_then(json::Value::as_str)
                .map(str::to_string)
        });
        if schema.as_deref() != Some(TELEMETRY_SCHEMA) {
            return Err(io::Error::other(format!(
                "expected a telemetry line, got {}",
                clip(&line)
            )));
        }
        Ok(line)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "congest-serve closed the connection",
            ));
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }
}

/// Checks the answer to one batch: one `status:"ok"` response per query,
/// in request order, then a batch summary counting the same queries and
/// no errors. Returns the parsed summary, or what was wrong.
pub fn check_batch(ids: &[String], lines: &[String]) -> Result<json::Value, String> {
    if lines.len() != ids.len() + 1 {
        return Err(format!(
            "{} lines answered {} queries",
            lines.len(),
            ids.len()
        ));
    }
    for (id, line) in ids.iter().zip(lines) {
        let v = json::parse(line).map_err(|e| format!("an answer is not JSON ({e})"))?;
        let text = |key: &str| v.get(key).and_then(json::Value::as_str);
        if text("schema") != Some(RESPONSE_SCHEMA)
            || text("id") != Some(id.as_str())
            || text("status") != Some("ok")
        {
            return Err(format!(
                "expected an ok response to {id}, got {}",
                clip(line)
            ));
        }
    }
    let last = &lines[ids.len()];
    let summary = json::parse(last).map_err(|e| format!("the summary is not JSON ({e})"))?;
    let count = |key: &str| summary.get(key).and_then(json::Value::as_u64);
    if summary.get("schema").and_then(json::Value::as_str) != Some(BATCH_SCHEMA)
        || count("queries") != Some(ids.len() as u64)
        || count("errors") != Some(0)
    {
        return Err(format!("bad batch summary {}", clip(last)));
    }
    Ok(summary)
}

/// The start of `line`, for error messages.
fn clip(line: &str) -> &str {
    let end = line.char_indices().nth(200).map_or(line.len(), |(i, _)| i);
    &line[..end]
}
