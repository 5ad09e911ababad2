//! A `parsynt serve` child process and a loopback HTTP/1.1 client.
//! The daemon answers one request per connection, so the client opens
//! one connection per request and never has two open at once (a closed
//! loop with one client).

use parsynt_serve::{ParallelizeRequest, ParallelizeResponse, StatsResponse};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Start `parsynt serve` on an ephemeral loopback port with
    /// `workers` workers and wait until it listens.
    pub fn start(parsynt: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(parsynt)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", parsynt.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon has no stdout")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    /// One request on a fresh connection: `(status, body)`.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let io = |e: std::io::Error| format!("{method} {path}: {e}");
        let mut stream = TcpStream::connect(self.addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        )
        .map_err(io)?;
        let mut response = String::new();
        stream.read_to_string(&mut response).map_err(io)?;
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("{method} {path}: malformed response"))?;
        let body = response
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_owned());
        Ok((status, body))
    }

    /// `POST /parallelize` of `program`; a non-2xx status is an error.
    pub fn parallelize(&self, program: &str) -> Result<ParallelizeResponse, String> {
        let body = serde_json::to_string(&ParallelizeRequest {
            program: program.to_owned(),
            timeout_ms: None,
            seed: None,
            synth_threads: None,
            brackets: false,
            pair_width: None,
        })
        .map_err(|e| e.to_string())?;
        let (status, body) = self.request("POST", "/parallelize", &body)?;
        if !(200..300).contains(&status) {
            return Err(format!("POST /parallelize answered {status}: {body}"));
        }
        serde_json::from_str(&body).map_err(|e| format!("bad /parallelize body: {e}"))
    }

    pub fn healthz(&self) -> Result<(), String> {
        match self.request("GET", "/healthz", "")? {
            (200, _) => Ok(()),
            (status, body) => Err(format!("GET /healthz answered {status}: {body}")),
        }
    }

    pub fn stats(&self) -> Result<StatsResponse, String> {
        match self.request("GET", "/stats", "")? {
            (200, body) => serde_json::from_str(&body).map_err(|e| format!("bad /stats body: {e}")),
            (status, body) => Err(format!("GET /stats answered {status}: {body}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
