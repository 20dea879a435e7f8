//! A blocking NDJSON connection that times each round trip from the
//! first request byte written to the last reply byte read.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One client connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Request bytes written, newlines included.
    pub sent_bytes: u64,
    /// Reply bytes read, newlines included.
    pub recv_bytes: u64,
}

impl Conn {
    /// Connect with Nagle off and a generous stall timeout, so a wedged
    /// server fails the run instead of hanging it.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            sent_bytes: 0,
            recv_bytes: 0,
        })
    }

    /// Write one frame; `line` must not contain a newline.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        self.sent_bytes += buf.len() as u64;
        Ok(())
    }

    /// Read one reply frame, without its newline.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 || !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            ));
        }
        self.recv_bytes += n as u64;
        line.pop();
        Ok(line)
    }

    /// One request/reply round trip, timed.
    pub fn call(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let start = Instant::now();
        self.send(line)?;
        let reply = self.recv()?;
        Ok((reply, start.elapsed()))
    }
}
