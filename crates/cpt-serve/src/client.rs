//! The one client of the wire protocol: `cptgen loadgen`, `cptgen ctl`
//! and the server's tests all speak [`protocol::wire`](crate::protocol::wire)
//! through [`Client`].
//!
//! A [`Client`] is one TCP connection. It sends the preamble once (buffered
//! with the first frame, so the two leave in one packet), reuses one
//! outbound and one inbound frame buffer, and bounds every read by
//! [`READ_TIMEOUT`]: a server that stops answering is an error after that
//! long, never a hang.

#![deny(clippy::unwrap_used)]

use crate::error::ServeError;
use crate::protocol::wire;
use crate::protocol::{Request, Response};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a read waits for the server before it fails. Three times the
/// longest wait a server holds a request for (`next` caps `wait_ms` at
/// 10 s); a `publish` runs its canary gate well inside it. `drain` may
/// wait longer, and no client here sends it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to a `cptgen serve`. Steady-state requests allocate
/// nothing but the decoded response.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

impl Client {
    /// Connects and buffers the preamble, which leaves with the first
    /// frame.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small writes; Nagle only delays them.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        wire::write_preamble(&mut writer)?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            frame: Vec::new(),
            payload: Vec::new(),
        })
    }

    /// Writes one request frame and flushes it.
    pub fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        self.frame.clear();
        wire::encode_request(req, &mut self.frame);
        wire::write_frame(&mut self.writer, &self.frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next response frame; `Ok(None)` when the server closed the
    /// connection cleanly between frames.
    pub fn recv(&mut self) -> Result<Option<Response>, ServeError> {
        let got = wire::read_frame(&mut self.reader, &mut self.payload).map_err(|e| match e {
            wire::FrameError::Io(io) => io,
            wire::FrameError::Protocol(p) => std::io::Error::other(p),
        })?;
        if !got {
            return Ok(None);
        }
        Ok(Some(
            wire::decode_response(&self.payload).map_err(std::io::Error::other)?,
        ))
    }

    /// Ends the connection: closes the sending half, then reads and drops
    /// whatever the server still sends until it closes its half too (each
    /// read bounded by [`READ_TIMEOUT`]). The server closes its half only
    /// after it has finished with the connection, so when this returns the
    /// sessions of a detach-armed connection are parked.
    pub fn close(mut self) {
        let _ = self.reader.get_ref().shutdown(std::net::Shutdown::Write);
        let _ = std::io::copy(&mut self.reader, &mut std::io::sink());
    }

    /// One round trip: [`send`](Client::send), then [`recv`](Client::recv),
    /// where a closed connection is an error.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.send(req)?;
        self.recv()?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })
    }
}
