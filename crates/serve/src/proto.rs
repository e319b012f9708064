//! The line-delimited wire protocol and the socket [`RequestSource`].
//!
//! ## Grammar (one request or response per `\n`-terminated line)
//!
//! ```text
//! request   := "req" SP id SP tenant SP kind SP addr SP at-ns
//! kind      := "r" | "w"
//! id, tenant, addr, at-ns := decimal u64 / u32
//!
//! response  := "ack" SP id                 ; admitted, completion follows
//!            | "ok"  SP id SP latency-ps   ; served (latency simulated)
//!            | "shed" SP id SP depth       ; refused (429-style)
//!            | "err" SP message            ; malformed request line
//! summary   := "done" SP "served=" n SP "shed=" n SP "peakw=" n
//! ```
//!
//! `at-ns` is the request's arrival offset in **simulated** nanoseconds
//! from the start of the connection, at most [`MAX_AT_NS`] (~584 years,
//! where the picosecond clock ends); the server never consults the host
//! clock, so a replayed request file produces bit-identical responses.
//! Client-chosen `id`s are echoed back verbatim and need not be dense,
//! but must be unique per connection.

use pcm_memsim::{AccessKind, RequestSource, TraceOp};
use pcm_types::Ps;
use std::fmt;
use std::io::{self, BufRead, Write};

/// One parsed request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-chosen request id (echoed in responses).
    pub id: u64,
    /// Tenant index.
    pub tenant: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Byte address (mapped modulo capacity, line-aligned by the engine).
    pub addr: u64,
    /// Arrival offset in simulated nanoseconds.
    pub at_ns: u64,
}

/// A malformed protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request line: {}", self.msg)
    }
}

impl std::error::Error for ProtoError {}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError { msg: msg.into() }
}

/// The largest `at-ns` whose arrival time fits the simulator's
/// picosecond clock ([`Ps::from_ns`] would overflow past it).
pub const MAX_AT_NS: u64 = u64::MAX / Ps::from_ns(1).as_ps();

/// The one range check on `at-ns`, shared by both parse paths.
fn at_ns_in_range(at_ns: u64) -> bool {
    at_ns <= MAX_AT_NS
}

/// Parse one request line. Empty lines and `#` comments return `None`.
///
/// A line in the canonical shape `req <id> <tenant> r|w <addr> <at-ns>`
/// (single spaces, plain decimal digits) is parsed straight from its
/// bytes; anything else — extra whitespace, tabs, a leading `+`, a
/// malformed field — goes through the general tokenizer, so every line
/// parses (or fails, with the same message) exactly as the grammar says.
pub fn parse_request(line: &str) -> Result<Option<WireRequest>, ProtoError> {
    parse_line(line.as_bytes())
}

/// [`parse_request`] over the raw bytes of one line, as read off the
/// wire (a trailing `\n` or `\r\n` is allowed). A line that is not valid
/// UTF-8 is an error like any other malformed line.
pub(crate) fn parse_line(line: &[u8]) -> Result<Option<WireRequest>, ProtoError> {
    if let Some(r) = parse_canonical(line) {
        return Ok(Some(r));
    }
    match std::str::from_utf8(line) {
        Ok(text) => parse_general(text),
        Err(_) => Err(bad("line is not valid UTF-8")),
    }
}

/// Read one line (through its `\n`, if any) into `buf`, replacing its
/// contents; `Ok(false)` at end of input. The one reader behind
/// `serve_connection` and [`LineSource`].
pub(crate) fn read_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    Ok(input.read_until(b'\n', buf)? > 0)
}

/// The canonical request shape, or `None` for anything else (including a
/// number that overflows its field or an `at-ns` past [`MAX_AT_NS`] — the
/// general parser words the error).
fn parse_canonical(line: &[u8]) -> Option<WireRequest> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let rest = line.strip_prefix(b"req ")?;
    let (id, rest) = decimal(rest, b' ')?;
    let (tenant, rest) = decimal(rest, b' ')?;
    let (kind, rest) = match rest {
        [b'r', b' ', rest @ ..] => (AccessKind::Read, rest),
        [b'w', b' ', rest @ ..] => (AccessKind::Write, rest),
        _ => return None,
    };
    let (addr, rest) = decimal(rest, b' ')?;
    let (at_ns, rest) = decimal_end(rest)?;
    (rest.is_empty() && at_ns_in_range(at_ns)).then_some(WireRequest {
        id,
        tenant: u32::try_from(tenant).ok()?,
        kind,
        addr,
        at_ns,
    })
}

/// A run of decimal digits followed by `sep`: the value and what follows
/// the separator.
fn decimal(s: &[u8], sep: u8) -> Option<(u64, &[u8])> {
    let (v, rest) = decimal_end(s)?;
    Some((v, rest.strip_prefix(&[sep])?))
}

/// A non-empty run of decimal digits that fits a `u64`: the value and the
/// bytes after it.
fn decimal_end(s: &[u8]) -> Option<(u64, &[u8])> {
    let n = s.iter().take_while(|b| b.is_ascii_digit()).count();
    if n == 0 {
        return None;
    }
    let v = s[..n].iter().try_fold(0u64, |v, &b| {
        v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
    })?;
    Some((v, &s[n..]))
}

/// The tokenizing parser: the grammar in full, with an error message for
/// every way a line can be malformed.
fn parse_general(line: &str) -> Result<Option<WireRequest>, ProtoError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("req") => {}
        Some(other) => return Err(bad(format!("unknown verb `{other}`"))),
        None => return Ok(None),
    }
    let mut field = |name: &str| {
        parts
            .next()
            .ok_or_else(|| bad(format!("missing field `{name}`")))
    };
    let id = field("id")?
        .parse::<u64>()
        .map_err(|_| bad("id must be a decimal u64"))?;
    let tenant = field("tenant")?
        .parse::<u32>()
        .map_err(|_| bad("tenant must be a decimal u32"))?;
    let kind = match field("kind")? {
        "r" => AccessKind::Read,
        "w" => AccessKind::Write,
        other => return Err(bad(format!("kind must be r|w, got `{other}`"))),
    };
    let addr = field("addr")?
        .parse::<u64>()
        .map_err(|_| bad("addr must be a decimal u64"))?;
    let at_ns = field("at-ns")?
        .parse::<u64>()
        .map_err(|_| bad("at-ns must be a decimal u64"))?;
    if !at_ns_in_range(at_ns) {
        return Err(bad(format!("at-ns must be at most {MAX_AT_NS}")));
    }
    if parts.next().is_some() {
        return Err(bad("trailing fields after at-ns"));
    }
    Ok(Some(WireRequest {
        id,
        tenant,
        kind,
        addr,
        at_ns,
    }))
}

/// Bytes of the longest line the protocol renders: `done` with three
/// 20-digit counters (a request line is at most 79).
const LINE_CAP: usize = 96;

/// One protocol line rendered into a stack buffer — the only formatting
/// code for requests and responses. [`Line::send`] appends the newline
/// and writes the line with one `write_all`.
pub(crate) struct Line {
    buf: [u8; LINE_CAP],
    len: usize,
}

impl Line {
    fn new(verb: &str) -> Line {
        let mut line = Line {
            buf: [0; LINE_CAP],
            len: 0,
        };
        line.push(verb.as_bytes());
        line
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Append `sep` then `n` in decimal.
    fn num(mut self, sep: &str, n: u64) -> Line {
        self.push(sep.as_bytes());
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.push(&digits[at..]);
        self
    }

    /// The line's bytes, without a newline.
    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The line as text, without a newline (every rendered byte is
    /// ASCII, so the conversion is exact).
    fn into_string(self) -> String {
        String::from_utf8_lossy(self.as_bytes()).into_owned()
    }

    /// Write the line and its newline to `out`.
    pub(crate) fn send<W: Write>(mut self, out: &mut W) -> io::Result<()> {
        self.push(b"\n");
        out.write_all(self.as_bytes())
    }
}

/// The line [`format_request`] renders.
fn request_line(r: &WireRequest) -> Line {
    let kind = match r.kind {
        AccessKind::Read => " r ",
        AccessKind::Write => " w ",
    };
    Line::new("req")
        .num(" ", r.id)
        .num(" ", u64::from(r.tenant))
        .num(kind, r.addr)
        .num(" ", r.at_ns)
}

/// The line [`format_ack`] renders.
pub(crate) fn ack_line(id: u64) -> Line {
    Line::new("ack").num(" ", id)
}

/// The line [`format_ok`] renders.
pub(crate) fn ok_line(id: u64, latency_ps: u64) -> Line {
    Line::new("ok").num(" ", id).num(" ", latency_ps)
}

/// The line [`format_shed`] renders.
pub(crate) fn shed_line(id: u64, depth: usize) -> Line {
    Line::new("shed").num(" ", id).num(" ", depth as u64)
}

/// The line [`format_done`] renders.
pub(crate) fn done_line(served: u64, shed: u64, peak_write_depth: usize) -> Line {
    Line::new("done")
        .num(" served=", served)
        .num(" shed=", shed)
        .num(" peakw=", peak_write_depth as u64)
}

/// Render a request line (the inverse of [`parse_request`]).
pub fn format_request(r: &WireRequest) -> String {
    request_line(r).into_string()
}

/// `ack <id>` — admitted.
pub fn format_ack(id: u64) -> String {
    ack_line(id).into_string()
}

/// `ok <id> <latency-ps>` — served.
pub fn format_ok(id: u64, latency_ps: u64) -> String {
    ok_line(id, latency_ps).into_string()
}

/// `shed <id> <depth>` — refused by admission control.
pub fn format_shed(id: u64, depth: usize) -> String {
    shed_line(id, depth).into_string()
}

/// `done served=<n> shed=<n> peakw=<n>` — end-of-connection summary.
pub fn format_done(served: u64, shed: u64, peak_write_depth: usize) -> String {
    done_line(served, shed, peak_write_depth).into_string()
}

/// A [`RequestSource`] that pulls protocol lines off any [`BufRead`] — a
/// TCP socket, stdin, or a request file — and feeds them to the
/// *simulator* as a single-core op stream (the third source family next
/// to trace files and synthetic generators).
///
/// Arrival offsets become instruction gaps at the given core frequency,
/// so replaying the stream through [`pcm_memsim::System`] reproduces the
/// stream's pacing in simulated time. Malformed lines end the stream
/// (the error is retrievable via [`LineSource::error`]).
pub struct LineSource<R: BufRead> {
    input: R,
    line: Vec<u8>,
    freq_mhz: u64,
    last_ns: u64,
    error: Option<ProtoError>,
    finished: bool,
}

impl<R: BufRead> LineSource<R> {
    /// Wrap a line reader; gaps are cycles at `freq_mhz`.
    pub fn new(input: R, freq_mhz: u64) -> Self {
        LineSource {
            input,
            line: Vec::new(),
            freq_mhz,
            last_ns: 0,
            error: None,
            finished: false,
        }
    }

    /// The parse error that ended the stream, if any.
    pub fn error(&self) -> Option<&ProtoError> {
        self.error.as_ref()
    }
}

impl<R: BufRead + Send> RequestSource for LineSource<R> {
    fn next(&mut self, core: usize) -> Option<TraceOp> {
        if core != 0 || self.finished {
            return None;
        }
        loop {
            match read_line(&mut self.input, &mut self.line) {
                Ok(false) => {
                    self.finished = true;
                    return None;
                }
                Ok(true) => {}
                Err(e) => {
                    self.error = Some(bad(format!("read failed: {e}")));
                    self.finished = true;
                    return None;
                }
            }
            match parse_line(&self.line) {
                Ok(None) => continue,
                Ok(Some(r)) => {
                    let gap_ns = r.at_ns.saturating_sub(self.last_ns);
                    self.last_ns = self.last_ns.max(r.at_ns);
                    let gap = Ps::from_ns(gap_ns).cycles_at(self.freq_mhz);
                    return Some(TraceOp {
                        gap: gap.min(u32::MAX as u64) as u32,
                        kind: r.kind,
                        addr: r.addr,
                    });
                }
                Err(e) => {
                    self.error = Some(e);
                    self.finished = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_types::propcheck::{any_bool, any_u64, one_of, vec_of};
    use pcm_types::{prop_assert_eq, propcheck};
    use std::io::BufReader;

    #[test]
    fn request_lines_round_trip() {
        let r = WireRequest {
            id: 7,
            tenant: 2,
            kind: AccessKind::Write,
            addr: 123_456,
            at_ns: 987,
        };
        let line = format_request(&r);
        assert_eq!(line, "req 7 2 w 123456 987");
        assert_eq!(parse_request(&line).unwrap(), Some(r));
    }

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("  # warmup\n").unwrap(), None);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_request("req 1 0 x 64 0").is_err());
        assert!(parse_request("req 1 0 r 64").is_err());
        assert!(parse_request("req 1 0 r 64 0 extra").is_err());
        assert!(parse_request("get 1 0 r 64 0").is_err());
        assert!(parse_request("req -1 0 r 64 0").is_err());
    }

    #[test]
    fn responses_are_byte_stable() {
        assert_eq!(format_ack(3), "ack 3");
        assert_eq!(format_ok(3, 431_000), "ok 3 431000");
        assert_eq!(format_shed(4, 32), "shed 4 32");
        assert_eq!(format_done(10, 2, 31), "done served=10 shed=2 peakw=31");
    }

    #[test]
    fn canonical_shape_takes_the_fast_path() {
        let r = parse_canonical(b"req 18446744073709551615 4294967295 w 0 12\r\n").unwrap();
        assert_eq!(
            (r.id, r.tenant, r.kind),
            (u64::MAX, u32::MAX, AccessKind::Write)
        );
        assert_eq!((r.addr, r.at_ns), (0, 12));
        for line in [
            "req +7 0 r 64 0",
            "req 7 0 r 64 0 ",
            "req\t7 0 r 64 0",
            "req 7 4294967296 r 64 0",
            "req 18446744073709551616 0 r 64 0",
            "req 7 0 r 64",
        ] {
            assert_eq!(parse_canonical(line.as_bytes()), None, "{line:?}");
        }
        assert_eq!(parse_request("req +7 0 r 64 0").unwrap().unwrap().id, 7);
    }

    #[test]
    fn arrivals_past_the_picosecond_clock_are_rejected() {
        let last = format!("req 1 0 r 64 {MAX_AT_NS}");
        assert_eq!(parse_request(&last).unwrap().unwrap().at_ns, MAX_AT_NS);
        assert_eq!(Ps::from_ns(MAX_AT_NS).as_ps(), MAX_AT_NS * 1_000);
        for at in [MAX_AT_NS + 1, u64::MAX] {
            for line in [format!("req 1 0 r 64 {at}"), format!("req  1 0 r 64 {at}")] {
                let e = parse_request(&line).unwrap_err();
                assert_eq!(
                    e.msg,
                    format!("at-ns must be at most {MAX_AT_NS}"),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn non_utf8_line_is_an_error() {
        let e = parse_line(b"req 1 0 r \xff 0\n").unwrap_err();
        assert_eq!(e.msg, "line is not valid UTF-8");
        assert!(parse_line(b"req 1 0 r 64 0\n").unwrap().is_some());
    }

    /// The general parser over raw bytes: what `parse_line` must equal.
    fn reference(line: &[u8]) -> Result<Option<WireRequest>, ProtoError> {
        match std::str::from_utf8(line) {
            Ok(text) => parse_general(text),
            Err(_) => Err(bad("line is not valid UTF-8")),
        }
    }

    /// Field texts the fuzzed lines draw from: boundary numbers, signs,
    /// leading zeros, overflow, kinds, and junk.
    const FIELDS: &[&str] = &[
        "0",
        "7",
        "+7",
        "0007",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "000000000000000000000000042",
        "4294967295",
        "4294967296",
        "18446744073709550",
        "18446744073709551",
        "18446744073709552",
        "r",
        "w",
        "x",
        "rw",
        "req",
        "#",
        "",
        "1e3",
        "٣",
    ];
    /// Separators: the canonical space and every way whitespace can vary.
    const SEPS: &[&str] = &[" ", " ", " ", "  ", "\t", " \t ", "\u{a0}", "\u{3000}", ""];
    /// Line endings and trailers.
    const ENDS: &[&str] = &[
        "", "\n", "\r\n", "\r", " ", "\t\n", " extra", " 5\n", "\r\r\n",
    ];

    fn number_text(n: u64, style: u64) -> String {
        match style {
            0 => format!("+{n}"),
            1 => format!("00{n}"),
            _ => n.to_string(),
        }
    }

    propcheck! {
        cases = 512;
        /// Lines assembled from random verbs, fields, separators and
        /// endings parse the same through the fast path as through the
        /// general parser, accepted or rejected.
        fn fast_path_equals_general_parser(
            verb in 0usize..=3,
            fields in vec_of(
                (0usize..=2 * FIELDS.len(), any_u64(), 0u64..=4, 0usize..=SEPS.len() - 1),
                0..=7
            ),
            end in 0usize..=ENDS.len() - 1
        ) {
            let mut line = ["req", "get", "", "  req"][verb].to_string();
            for (k, (field, n, style, sep)) in fields.iter().enumerate() {
                line.push_str(if k < 2 { " " } else { SEPS[*sep] });
                match FIELDS.get(*field) {
                    Some(text) => line.push_str(text),
                    None => line.push_str(&number_text(*n, *style)),
                }
            }
            line.push_str(ENDS[end]);
            prop_assert_eq!(parse_request(&line), parse_general(&line), "{:?}", line);
            prop_assert_eq!(parse_line(line.as_bytes()), reference(line.as_bytes()), "{:?}", line);
        }

        /// Canonical lines with one byte replaced (or cut short) parse the
        /// same through both paths, invalid UTF-8 included.
        fn mutated_canonical_lines_agree(
            id in any_u64(),
            tenant in 0u64..=u32::MAX as u64 + 3,
            write in any_bool(),
            addr_at in (any_u64(), any_u64(), 0u64..=6, any_bool()),
            pos in 0usize..=80,
            byte in one_of(&[b' ', b'\t', b'+', b'-', b'0', b'9', b'x', b'\r', b'\n', 0xff, 0xc3, 0])
        ) {
            // Half the arrivals sit within 3 ns of the `at-ns` limit.
            let (addr, at, near, at_limit) = addr_at;
            let at = if at_limit { MAX_AT_NS - 3 + near } else { at };
            let kind = if write { "w" } else { "r" };
            let mut line = format!("req {id} {tenant} {kind} {addr} {at}\n").into_bytes();
            let whole = parse_line(&line);
            prop_assert_eq!(&whole, &reference(&line));
            prop_assert_eq!(whole.is_ok(), tenant <= u32::MAX as u64 && at <= MAX_AT_NS);
            if pos < line.len() {
                line[pos] = byte;
            } else {
                line.truncate(pos % line.len());
            }
            prop_assert_eq!(parse_line(&line), reference(&line), "{:?}", String::from_utf8_lossy(&line));
        }

        /// Every byte writer renders exactly what the `format!` it
        /// replaced rendered.
        fn writers_equal_format(
            id in any_u64(),
            a in any_u64(),
            b in any_u64(),
            tenant in 0u64..=u32::MAX as u64,
            write in any_bool()
        ) {
            let depth = b as usize;
            prop_assert_eq!(format_ack(id), format!("ack {id}"));
            prop_assert_eq!(format_ok(id, a), format!("ok {id} {a}"));
            prop_assert_eq!(format_shed(id, depth), format!("shed {id} {depth}"));
            prop_assert_eq!(
                format_done(id, a, depth),
                format!("done served={id} shed={a} peakw={depth}")
            );
            let r = WireRequest {
                id,
                tenant: tenant as u32,
                kind: if write { AccessKind::Write } else { AccessKind::Read },
                addr: a,
                at_ns: b,
            };
            let k = if write { "w" } else { "r" };
            prop_assert_eq!(format_request(&r), format!("req {id} {tenant} {k} {a} {b}"));
            let mut sent = Vec::new();
            ok_line(id, a).send(&mut sent).unwrap();
            prop_assert_eq!(sent, format!("ok {id} {a}\n").into_bytes());
        }
    }

    #[test]
    fn line_source_feeds_core_zero_with_gap_cycles() {
        let text = "req 0 0 r 64 0\n# comment\nreq 1 0 w 128 10\nreq 2 0 r 192 10\n";
        let mut src = LineSource::new(BufReader::new(text.as_bytes()), 2_000);
        assert!(src.next(1).is_none(), "only core 0 carries the stream");
        let a = src.next(0).unwrap();
        assert_eq!((a.gap, a.kind, a.addr), (0, AccessKind::Read, 64));
        let b = src.next(0).unwrap();
        assert_eq!(b.gap, 20, "10 ns at 2 GHz");
        assert_eq!(b.kind, AccessKind::Write);
        let c = src.next(0).unwrap();
        assert_eq!(c.gap, 0, "same timestamp, no gap");
        assert!(src.next(0).is_none());
        assert!(src.error().is_none());
    }

    #[test]
    fn line_source_stops_at_parse_error() {
        let text = "req 0 0 r 64 0\nbogus line\nreq 1 0 r 64 5\n";
        let mut src = LineSource::new(BufReader::new(text.as_bytes()), 2_000);
        assert!(src.next(0).is_some());
        assert!(src.next(0).is_none());
        assert!(src.error().is_some());
    }
}
