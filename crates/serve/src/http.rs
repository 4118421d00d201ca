//! A deliberately small HTTP/1.1 server-side codec: request parsing with
//! hard limits, and response writing. No keep-alive (every response is
//! `Connection: close`), no chunked bodies, no TLS — the service speaks
//! plain `POST` + JSON and streams NDJSON back, and everything beyond
//! that is rejected with a typed [`ProtocolError`] that maps onto a
//! status code.

use std::io::{BufRead, Write};

/// Hard per-request ceilings.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers combined.
    pub max_head_bytes: usize,
    /// Maximum request body bytes (`Content-Length` above this is
    /// rejected before reading the body).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// Why a request was refused; each variant maps to one status code
/// ([`ProtocolError::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line is not `METHOD PATH HTTP/1.x`.
    BadRequestLine,
    /// Request line + headers exceed [`HttpLimits::max_head_bytes`].
    HeadTooLarge,
    /// A header line has no `:` separator.
    BadHeader,
    /// `Content-Length` is missing on a method that requires a body.
    MissingLength,
    /// `Content-Length` is not a non-negative integer.
    BadLength,
    /// Declared `Content-Length` exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// A read waited longer than the socket's read timeout: the client
    /// went quiet mid-request, or never sent one.
    Timeout,
    /// The connection closed before `Content-Length` bytes arrived.
    Truncated {
        /// Bytes the client declared.
        declared: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The body is not valid JSON.
    BadJson(String),
    /// The JSON body is missing or mistypes a required field.
    BadField(String),
    /// Method/path pair the server does not route.
    NotFound,
    /// Admission control refused the job (the server or the tenant is at
    /// its concurrent-job cap).
    Busy(String),
    /// The job failed while running.
    JobFailed(String),
}

impl ProtocolError {
    /// The HTTP status this error is reported as.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ProtocolError::BadRequestLine
            | ProtocolError::BadHeader
            | ProtocolError::MissingLength
            | ProtocolError::BadLength
            | ProtocolError::Truncated { .. }
            | ProtocolError::BadJson(_)
            | ProtocolError::BadField(_) => (400, "Bad Request"),
            ProtocolError::NotFound => (404, "Not Found"),
            ProtocolError::Timeout => (408, "Request Timeout"),
            ProtocolError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            ProtocolError::BodyTooLarge { .. } => (413, "Payload Too Large"),
            ProtocolError::Busy(_) => (429, "Too Many Requests"),
            ProtocolError::JobFailed(_) => (500, "Internal Server Error"),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadRequestLine => write!(f, "malformed request line"),
            ProtocolError::HeadTooLarge => write!(f, "request head too large"),
            ProtocolError::BadHeader => write!(f, "malformed header line"),
            ProtocolError::MissingLength => write!(f, "Content-Length required"),
            ProtocolError::BadLength => write!(f, "unparseable Content-Length"),
            ProtocolError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            ProtocolError::Timeout => write!(f, "timed out waiting for the request"),
            ProtocolError::Truncated { declared, got } => {
                write!(f, "body truncated: {got} of {declared} declared bytes")
            }
            ProtocolError::BadJson(m) => write!(f, "invalid JSON body: {m}"),
            ProtocolError::BadField(m) => write!(f, "bad request field: {m}"),
            ProtocolError::NotFound => write!(f, "no such route"),
            ProtocolError::Busy(m) => write!(f, "busy: {m}"),
            ProtocolError::JobFailed(m) => write!(f, "job failed: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method.
    pub method: String,
    /// Raw path (no query parsing — the API doesn't use queries).
    pub path: String,
    /// Lower-cased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header value under `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `reader` under `limits`.
///
/// `GET`/`DELETE` requests may omit `Content-Length` (empty body); any
/// other method must declare one.
///
/// # Errors
/// [`ProtocolError`] describing the first violation encountered.
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &HttpLimits,
) -> Result<Request, ProtocolError> {
    let mut head_bytes = 0usize;
    let mut line = String::new();
    let mut read_line = |line: &mut String, head_bytes: &mut usize| -> Result<(), ProtocolError> {
        line.clear();
        // Byte-capped read_line: a header stream with no newline must
        // hit HeadTooLarge, not grow without bound.
        loop {
            let buf = reader
                .fill_buf()
                .map_err(|e| read_error(&e, 0, *head_bytes))?;
            if buf.is_empty() {
                return Err(ProtocolError::BadRequestLine);
            }
            let take = buf
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| i + 1)
                .unwrap_or(buf.len());
            *head_bytes += take;
            if *head_bytes > limits.max_head_bytes {
                return Err(ProtocolError::HeadTooLarge);
            }
            line.push_str(&String::from_utf8_lossy(&buf[..take]));
            let found_newline = line.ends_with('\n');
            reader.consume(take);
            if found_newline {
                return Ok(());
            }
        }
    };

    read_line(&mut line, &mut head_bytes)?;
    let mut parts = line.trim_end().split(' ');
    let (method, path, version) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty()
        || path.is_empty()
        || !version.starts_with("HTTP/1.")
        || parts.next().is_some()
    {
        return Err(ProtocolError::BadRequestLine);
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    loop {
        read_line(&mut line, &mut head_bytes)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed.split_once(':').ok_or(ProtocolError::BadHeader)?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let length = headers.iter().find(|(k, _)| k == "content-length");
    let declared = match length {
        Some((_, v)) => v.parse::<usize>().map_err(|_| ProtocolError::BadLength)?,
        None if matches!(method.as_str(), "GET" | "DELETE" | "HEAD") => 0,
        None => return Err(ProtocolError::MissingLength),
    };
    if declared > limits.max_body_bytes {
        return Err(ProtocolError::BodyTooLarge {
            declared,
            limit: limits.max_body_bytes,
        });
    }
    let mut body = vec![0u8; declared];
    let mut got = 0usize;
    while got < declared {
        match reader.read(&mut body[got..]) {
            Ok(0) => return Err(ProtocolError::Truncated { declared, got }),
            Ok(n) => got += n,
            Err(e) => return Err(read_error(&e, declared, got)),
        }
    }
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// The error a failed read becomes: [`ProtocolError::Timeout`] when the
/// socket's read timeout expired (`WouldBlock` on Unix, `TimedOut` on
/// Windows), [`ProtocolError::Truncated`] otherwise.
fn read_error(e: &std::io::Error, declared: usize, got: usize) -> ProtocolError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
        _ => ProtocolError::Truncated { declared, got },
    }
}

/// Writes a response head: status line plus the standard service headers
/// (`Connection: close`, the given content type) and a blank line. The
/// caller streams the body afterwards; the connection close delimits it.
pub fn write_head(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
) -> std::io::Result<()> {
    write_head_with(w, status, reason, content_type, &[])
}

/// [`write_head`] plus extra response headers (e.g. `X-Request-Id`).
pub fn write_head_with(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nConnection: close\r\n"
    )?;
    for (name, value) in extra {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "\r\n")
}

/// Writes a complete JSON error response for `err`.
pub fn write_error(w: &mut impl Write, err: &ProtocolError) -> std::io::Result<()> {
    let (status, reason) = err.status();
    write_head(w, status, reason, "application/json")?;
    let body = crate::json::obj([("error", crate::json::Json::Str(err.to_string()))]);
    writeln!(w, "{body}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ProtocolError> {
        read_request(&mut BufReader::new(raw), &HttpLimits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nX-Tenant: t1\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("x-tenant"), Some("t1"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let req = parse(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    /// The protocol-robustness table: raw bytes in, typed error out.
    #[test]
    fn malformed_requests_map_to_typed_errors() {
        let limits = HttpLimits {
            max_head_bytes: 256,
            max_body_bytes: 64,
        };
        let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(512));
        let endless_line = vec![b'g'; 512];
        let cases: Vec<(&str, Vec<u8>, ProtocolError)> = vec![
            ("empty stream", Vec::new(), ProtocolError::BadRequestLine),
            (
                "garbage request line",
                b"NOT-HTTP\r\n\r\n".to_vec(),
                ProtocolError::BadRequestLine,
            ),
            (
                "wrong protocol version",
                b"GET / SMTP/1.0\r\n\r\n".to_vec(),
                ProtocolError::BadRequestLine,
            ),
            (
                "line without separator",
                b"POST /jobs HTTP/1.1\r\nNoColonHere\r\n\r\n".to_vec(),
                ProtocolError::BadHeader,
            ),
            (
                "oversized head",
                huge_head.into_bytes(),
                ProtocolError::HeadTooLarge,
            ),
            (
                "newline-free stream",
                endless_line,
                ProtocolError::HeadTooLarge,
            ),
            (
                "post without length",
                b"POST /jobs HTTP/1.1\r\n\r\n".to_vec(),
                ProtocolError::MissingLength,
            ),
            (
                "unparseable length",
                b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec(),
                ProtocolError::BadLength,
            ),
            (
                "negative length",
                b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec(),
                ProtocolError::BadLength,
            ),
            (
                "oversized payload",
                b"POST /jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n".to_vec(),
                ProtocolError::BodyTooLarge {
                    declared: 100_000,
                    limit: 64,
                },
            ),
            (
                "truncated body",
                b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
                ProtocolError::Truncated {
                    declared: 10,
                    got: 3,
                },
            ),
        ];
        for (label, raw, expect) in cases {
            let got = read_request(&mut BufReader::new(raw.as_slice()), &limits).unwrap_err();
            assert_eq!(got, expect, "case `{label}`");
        }
    }

    #[test]
    fn every_error_has_a_4xx_or_5xx_status() {
        let samples = [
            ProtocolError::BadRequestLine,
            ProtocolError::HeadTooLarge,
            ProtocolError::BadHeader,
            ProtocolError::MissingLength,
            ProtocolError::BadLength,
            ProtocolError::BodyTooLarge {
                declared: 1,
                limit: 0,
            },
            ProtocolError::Timeout,
            ProtocolError::Truncated {
                declared: 1,
                got: 0,
            },
            ProtocolError::BadJson("x".into()),
            ProtocolError::BadField("x".into()),
            ProtocolError::NotFound,
            ProtocolError::Busy("x".into()),
            ProtocolError::JobFailed("x".into()),
        ];
        for e in samples {
            let (code, reason) = e.status();
            assert!((400..=599).contains(&code), "{e}: {code}");
            assert!(!reason.is_empty());
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn response_head_is_close_delimited() {
        let mut out = Vec::new();
        write_head(&mut out, 200, "OK", "application/x-ndjson").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    /// Limits of the fuzz target, small enough that generated inputs
    /// cross both of them.
    const FUZZ_LIMITS: HttpLimits = HttpLimits {
        max_head_bytes: 256,
        max_body_bytes: 64,
    };

    /// Fragments the parser branches on, for inputs that get past the
    /// request line more often than uniform bytes do.
    const TOKENS: &[&[u8]] = &[
        b"GET",
        b"POST",
        b"HEAD",
        b" ",
        b"/jobs",
        b"HTTP/1.1",
        b"HTTP/2",
        b"\r\n",
        b"\n",
        b"\r",
        b":",
        b"Content-Length: ",
        b"content-length:",
        b"0",
        b"64",
        b"65",
        b"-1",
        b"99999999999999999999",
        b"{}",
        b"\xff\xfe",
    ];

    /// A sequence of [`TOKENS`] and raw bytes.
    fn token_soup() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0..TOKENS.len() * 2, any::<u8>()), 0..120).prop_map(|picks| {
            let mut raw = Vec::new();
            for (i, byte) in picks {
                match TOKENS.get(i) {
                    Some(token) => raw.extend_from_slice(token),
                    None => raw.push(byte),
                }
            }
            raw
        })
    }

    /// A well-formed head declaring up to 80 body bytes, then up to 80
    /// arbitrary bytes: complete, truncated and oversized bodies.
    fn post_with_body() -> impl Strategy<Value = Vec<u8>> {
        (0usize..=80, prop::collection::vec(any::<u8>(), 0..=80)).prop_map(|(declared, body)| {
            let mut raw =
                format!("POST /jobs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
            raw.extend_from_slice(&body);
            raw
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any byte stream up to twice the head limit parses or fails
        /// with a typed 4xx error; it never panics, and a parsed body
        /// never exceeds the body limit.
        #[test]
        fn arbitrary_bytes_parse_or_fail_typed(
            raw in prop_oneof![
                prop::collection::vec(any::<u8>(), 0..=2 * FUZZ_LIMITS.max_head_bytes),
                token_soup(),
                post_with_body(),
            ]
        ) {
            let raw = &raw[..raw.len().min(2 * FUZZ_LIMITS.max_head_bytes)];
            match read_request(&mut BufReader::new(raw), &FUZZ_LIMITS) {
                Ok(req) => prop_assert!(req.body.len() <= FUZZ_LIMITS.max_body_bytes),
                Err(e) => {
                    let (code, _) = e.status();
                    prop_assert!((400..500).contains(&code), "{e}: {code}");
                }
            }
        }
    }
}
