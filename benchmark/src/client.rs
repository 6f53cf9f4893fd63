//! The load generator's HTTP/1.1 client: one keep-alive connection with
//! `TCP_NODELAY`, one request in flight (closed loop).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response (none in a closed loop, but a
    /// read may still deliver the next head early).
    buf: Vec<u8>,
    request: Vec<u8>,
    traffic: Traffic,
}

/// What has crossed the connection so far. Counted here and not read off
/// the server's `HttpMetrics`, which a client can sample before the server
/// has added the response it just read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
            request: Vec::with_capacity(1024),
            traffic: Traffic::default(),
        })
    }

    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Sends one `POST` and reads the whole response.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Reply> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.request)?;
        let (reply, read) = self.read_reply()?;
        self.traffic.requests += 1;
        self.traffic.bytes_sent += self.request.len() as u64;
        self.traffic.bytes_received += read as u64;
        Ok(reply)
    }

    fn read_reply(&mut self) -> std::io::Result<(Reply, usize)> {
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before a response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let (status, length) = parse_head(head)?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside a response body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((Reply { status, body }, head_end + length))
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &str) -> std::io::Result<(u16, usize)> {
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    Ok((status, length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_length() {
        let head = "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\ncontent-length: 17\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (429, 17));
        assert!(parse_head("HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_head("garbage\r\n\r\n").is_err());
    }

    #[test]
    fn reads_back_to_back_replies_off_one_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 1024];
            // Two requests of known shape arrive; answer both in one write.
            while seen.windows(2).filter(|w| w == b"{}").count() < 2 {
                let n = s.read(&mut chunk).unwrap();
                seen.extend_from_slice(&chunk[..n]);
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\nbusy").unwrap();
        });
        let mut c = HttpClient::connect(addr).unwrap();
        // Write both first so the server's single write cannot deadlock.
        c.stream.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        c.stream.write_all(b"POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        let (first, n1) = c.read_reply().unwrap();
        let (second, _) = c.read_reply().unwrap();
        server.join().unwrap();
        assert_eq!((first.status, first.body.as_slice(), n1), (200, b"ok".as_slice(), 40));
        assert_eq!((second.status, second.body.as_slice()), (503, b"busy".as_slice()));
    }
}
