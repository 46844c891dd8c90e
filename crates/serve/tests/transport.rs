//! Transport latency tests: every response is one write, and sequential round trips
//! on one TCP connection are not held back by Nagle's algorithm waiting on the
//! client's delayed ACK.

use fg_serve::{serve_lines_with, Json, ServeLimits, Session, TcpServer};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn session() -> Arc<Session> {
    Arc::new(Session::new(fg_core::prelude::Threads::Serial, None))
}

/// A writer that records the bytes of every `write` call separately.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_response_line_is_one_write() {
    let limits = ServeLimits {
        max_line_bytes: 64,
        ..ServeLimits::default()
    };
    // A served request, a protocol error, a transport error (invalid UTF-8), a
    // blank line (no response) and an overlong line that closes the stream.
    let mut input = b"{\"cmd\":\"ping\"}\nnot json\n\xff\xfe\n\n".to_vec();
    input.extend_from_slice(&[b'x'; 100]);
    input.push(b'\n');
    let mut writer = CountingWriter::default();
    serve_lines_with(&session(), &input[..], &mut writer, &limits).unwrap();
    assert_eq!(writer.writes.len(), 4);
    for write in &writer.writes {
        let text = std::str::from_utf8(write).unwrap();
        let line = text.strip_suffix('\n').expect("a write ends its line");
        assert!(!line.contains('\n'), "one line per write: {text:?}");
        Json::parse(line).unwrap_or_else(|e| panic!("unparsable response {line}: {e}"));
    }
    assert!(String::from_utf8_lossy(&writer.writes[3]).contains("exceeds 64 bytes"));
}

#[test]
fn sequential_round_trips_on_one_connection_are_not_delayed() {
    let addr = TcpServer::spawn(session(), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let started = Instant::now();
    for _ in 0..100 {
        writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("pong"), "{response}");
    }
    let elapsed = started.elapsed();
    // A response split over two writes waits ~40 ms per round trip for the
    // client's delayed ACK (~4 s here); single writes on a TCP_NODELAY socket take
    // well under a millisecond each.
    assert!(
        elapsed < Duration::from_secs(1),
        "100 ping round trips took {elapsed:?}"
    );
}
