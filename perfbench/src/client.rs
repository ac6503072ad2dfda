//! A closed-loop client of the service's line protocol that times each
//! exchange from the client's side.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on any single read, so a wedged server fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One request/reply exchange.
pub struct Exchange {
    /// The reply's status line (`OK ...` or `ERR ...`).
    pub status: String,
    /// Payload lines, without the terminator.
    pub payload: Vec<String>,
    /// Request written → terminator read.
    pub rtt: Duration,
    /// Request written → first reply byte available.
    pub first_byte: Duration,
}

impl Exchange {
    /// First reply byte → terminator.
    pub fn stream(&self) -> Duration {
        self.rtt.saturating_sub(self.first_byte)
    }
}

/// One connection; each call waits for its reply before returning.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect and consume the greeting block.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut c = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        let mut greeting = String::new();
        c.read_block(&mut greeting)?;
        Ok(c)
    }

    /// Send one request line and read its whole reply block.
    pub fn call(&mut self, line: &str) -> io::Result<Exchange> {
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let first_byte = t0.elapsed();
        let mut status = String::new();
        let payload = self.read_block(&mut status)?;
        Ok(Exchange {
            status,
            payload,
            rtt: t0.elapsed(),
            first_byte,
        })
    }

    /// Like [`Client::call`], but an `ERR` reply is an error too.
    pub fn call_ok(&mut self, line: &str) -> Result<Exchange, String> {
        let x = self.call(line).map_err(|e| format!("{line}: {e}"))?;
        if x.status.starts_with("OK") {
            Ok(x)
        } else {
            Err(format!("{line}: {}", x.status))
        }
    }

    fn read_block(&mut self, status: &mut String) -> io::Result<Vec<String>> {
        status.clear();
        if self.reader.read_line(status)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        status.truncate(status.trim_end().len());
        let mut payload = Vec::new();
        loop {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let l = l.trim_end_matches(['\r', '\n']);
            if l == "." {
                return Ok(payload);
            }
            payload.push(l.to_string());
        }
    }
}

/// The value of `key=value` in a status line.
pub fn field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}
