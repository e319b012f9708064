//! The blocking serving loop: protocol lines in, responses out.
//!
//! One connection drives one [`ServeEngine`]. Every request line gets an
//! immediate `ack` (admitted) or `shed` (refused) response; completions
//! surface as `ok` lines as the simulated clock advances past them —
//! possibly several per input line, possibly none. At end of input the
//! engine drains, the remaining `ok` lines flush, and a final `done`
//! summary closes the stream. Malformed lines — a line that is not valid
//! UTF-8 included — get an `err` response and are otherwise ignored, so
//! one bad client line cannot wedge the run.
//!
//! The protocol layer allocates nothing per request: lines are read into
//! one reused byte buffer and parsed in place, responses are rendered on
//! the stack (`proto::Line`), and engine ids map back to wire ids through
//! a ring. The engine's issue path still allocates per request.

use crate::engine::{Admission, ServeEngine};
use crate::proto;
use pcm_types::Ps;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;

/// Engine-assigned request id → client-chosen wire id, for `ok`
/// responses. Engine ids are dense and increasing and only admitted
/// requests take one, so the map is a ring indexed by `id - base` whose
/// front advances past answered ids.
#[derive(Default)]
struct WireIds {
    base: u64,
    slots: VecDeque<Option<u64>>,
}

impl WireIds {
    fn insert(&mut self, id: u64, wire: u64) {
        let Some(k) = id
            .checked_sub(self.base)
            .and_then(|k| usize::try_from(k).ok())
        else {
            return;
        };
        if k >= self.slots.len() {
            self.slots.resize(k + 1, None);
        }
        self.slots[k] = Some(wire);
    }

    fn remove(&mut self, id: u64) -> Option<u64> {
        let k = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let wire = self.slots.get_mut(k)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        wire
    }
}

/// Write an `ok` line for every completion the engine has recorded.
fn respond<W: Write>(
    engine: &mut ServeEngine,
    wire_ids: &mut WireIds,
    out: &mut W,
) -> io::Result<()> {
    for c in engine.take_completions() {
        if let Some(wire) = wire_ids.remove(c.id) {
            proto::ok_line(wire, c.latency.as_ps()).send(out)?;
        }
    }
    Ok(())
}

/// Pump one request stream through the engine, writing responses to
/// `out`. Returns the `(served, shed)` totals from the engine.
pub fn serve_connection<R: BufRead, W: Write>(
    engine: &mut ServeEngine,
    mut input: R,
    out: &mut W,
) -> io::Result<(u64, u64)> {
    let mut wire_ids = WireIds::default();
    let mut line = Vec::new();
    while proto::read_line(&mut input, &mut line)? {
        let req = match proto::parse_line(&line) {
            Ok(None) => continue,
            Ok(Some(r)) => r,
            Err(e) => {
                writeln!(out, "err {}", e.msg)?;
                continue;
            }
        };
        match engine.submit(req.tenant, req.kind, req.addr, Ps::from_ns(req.at_ns)) {
            Ok(Admission::Accepted { id }) => {
                wire_ids.insert(id, req.id);
                proto::ack_line(req.id).send(out)?;
            }
            Ok(Admission::Shed { depth }) => proto::shed_line(req.id, depth).send(out)?,
            Err(e) => writeln!(out, "err {e}")?,
        }
        respond(engine, &mut wire_ids, out)?;
    }
    engine
        .drain()
        .map_err(|e| io::Error::other(e.to_string()))?;
    respond(engine, &mut wire_ids, out)?;
    let s = engine.stats();
    proto::done_line(s.served, s.shed, s.peak_write_depth).send(out)?;
    out.flush()?;
    Ok((s.served, s.shed))
}

/// Bind `addr` (e.g. `127.0.0.1:0`), announce the bound address on
/// stdout as `listening <addr>`, serve exactly one connection, then
/// return. One-shot by design: the engine's simulated clock belongs to
/// one request stream, and CI smoke tests want a process that exits.
pub fn listen_once(addr: &str, engine: &mut ServeEngine) -> io::Result<(u64, u64)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let mut stdout = io::stdout();
    writeln!(stdout, "listening {bound}")?;
    stdout.flush()?;
    let (stream, _) = listener.accept()?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    serve_connection(engine, reader, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::load::{OpenLoop, OpenLoopConfig};
    use crate::proto::format_request;
    use pcm_memsim::SystemConfig;
    use pcm_telemetry::NullSink;

    fn engine(shed_watermark: usize) -> ServeEngine {
        let cfg = ServeConfig {
            system: SystemConfig::builder().small_caches().build().unwrap(),
            shed_watermark,
            ..ServeConfig::default()
        };
        ServeEngine::new(cfg, Box::new(NullSink)).unwrap()
    }

    #[test]
    fn connection_acks_serves_and_summarizes() {
        let mut input = String::new();
        for r in OpenLoop::new(OpenLoopConfig {
            requests: 64,
            ..OpenLoopConfig::default()
        }) {
            input.push_str(&format_request(&r));
            input.push('\n');
        }
        let mut out = Vec::new();
        let mut e = engine(usize::MAX);
        let (served, shed) = serve_connection(&mut e, input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 64);
        assert_eq!(shed, 0);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("ack ")).count(), 64);
        assert_eq!(text.lines().filter(|l| l.starts_with("ok ")).count(), 64);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("done served=64 shed=0"), "got `{last}`");
    }

    #[test]
    fn bad_lines_get_err_responses_and_are_skipped() {
        let input = "req 0 0 r 64 0\nnonsense\nreq 1 0 r 128 50\n";
        let mut out = Vec::new();
        let (served, _) =
            serve_connection(&mut engine(usize::MAX), input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("err ")).count(), 1);
    }

    #[test]
    fn non_utf8_line_gets_an_err_response_and_is_skipped() {
        let input = b"req 0 0 r 64 0\n\xff\nreq 1 0 r 128 5\n";
        let mut out = Vec::new();
        let (served, shed) =
            serve_connection(&mut engine(usize::MAX), &input[..], &mut out).unwrap();
        assert_eq!((served, shed), (2, 0));
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..2], ["ack 0", "err line is not valid UTF-8"]);
        assert!(lines.iter().any(|l| l.starts_with("ok 0 ")), "{text}");
        assert!(lines.iter().any(|l| l.starts_with("ok 1 ")), "{text}");
        assert_eq!(lines.last(), Some(&"done served=2 shed=0 peakw=0"));
    }

    #[test]
    fn out_of_range_arrival_gets_an_err_response_and_is_skipped() {
        let input = "req 0 0 r 64 0\nreq 1 0 r 128 18446744073709551615\nreq 2 0 r 192 5\n";
        let mut out = Vec::new();
        let (served, shed) =
            serve_connection(&mut engine(usize::MAX), input.as_bytes(), &mut out).unwrap();
        assert_eq!((served, shed), (2, 0));
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[..3],
            [
                "ack 0",
                "err at-ns must be at most 18446744073709551",
                "ack 2"
            ]
        );
        assert_eq!(lines.last(), Some(&"done served=2 shed=0 peakw=0"));
    }

    #[test]
    fn saturating_stream_sheds_on_the_wire() {
        // Same-instant writes to one bank with a tiny watermark.
        let mut input = String::new();
        for i in 0..128u64 {
            input.push_str(&format!("req {i} 0 w {} 0\n", i * 64));
        }
        let mut out = Vec::new();
        let (served, shed) = serve_connection(&mut engine(2), input.as_bytes(), &mut out).unwrap();
        assert!(shed > 0, "tiny watermark must shed");
        assert_eq!(served + shed, 128);
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().any(|l| l.starts_with("shed ")));
    }

    /// FNV-1a over a byte stream (the hash the CLI goldens use).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A request stream that exercises every accepted and rejected line
    /// shape, followed by enough open-loop traffic to shed at a low
    /// watermark and to cycle a 32-frame write cache.
    fn golden_input() -> String {
        let mut input = String::from(
            "\n   \n# warmup comment\n  # indented comment\n\
             req 0 1 r 64 0\r\n\
             req +7 2 w 128 3\n\
             req\t8\t3\tr\t192\t5\n\
             req  9   0  w  4096  6  \n\
             req 010 1 r 00256 7\r\n\
             get 11 0 r 64 8\n\
             req 12 0 x 64 9\n\
             req 13 0 r 64\n\
             req 14 0 r 64 10 extra\n\
             req -15 0 r 64 11\n\
             req 16 4294967296 r 64 12\n\
             req 17 0 r 99999999999999999999 13\n\
             req 18 0 w 18446744073709551615 14\n",
        );
        for mut r in OpenLoop::new(OpenLoopConfig {
            requests: 600,
            tenants: 3,
            mean_gap_ns: 45,
            write_frac: 0.5,
            ..OpenLoopConfig::default()
        }) {
            r.id += 100;
            r.at_ns += 20;
            input.push_str(&format_request(&r));
            input.push('\n');
        }
        input
    }

    #[test]
    fn serve_output_is_pinned() {
        let input = golden_input();
        let mut got = Vec::new();
        for ranks in [1u32, 4] {
            for frames in [0usize, 32] {
                for watermark in [None, Some(4)] {
                    let system = SystemConfig::builder()
                        .small_caches()
                        .ranks(ranks)
                        .write_cache(frames)
                        .build()
                        .unwrap();
                    let cfg = ServeConfig {
                        system,
                        shed_watermark: watermark.unwrap_or(system.controller.write_queue_cap),
                        ..ServeConfig::default()
                    };
                    let mut e = ServeEngine::new(cfg, Box::new(NullSink)).unwrap();
                    let mut out = Vec::new();
                    serve_connection(&mut e, input.as_bytes(), &mut out).unwrap();
                    let last = out.rsplit(|&b| b == b'\n').nth(1).unwrap_or_default();
                    got.push(format!(
                        "ranks={ranks} frames={frames} watermark={watermark:?} \
                         bytes={} fnv={:016x} {}",
                        out.len(),
                        fnv1a(&out),
                        String::from_utf8_lossy(last)
                    ));
                }
            }
        }
        let want = [
            "ranks=1 frames=0 watermark=None bytes=9140 fnv=e906bcb271b13b43 done served=145 shed=461 peakw=32",
            "ranks=1 frames=0 watermark=Some(4) bytes=10029 fnv=b9e229fd53733bcc done served=312 shed=294 peakw=4",
            "ranks=1 frames=32 watermark=None bytes=9381 fnv=9dad6fcd797a7502 done served=198 shed=408 peakw=32",
            "ranks=1 frames=32 watermark=Some(4) bytes=10011 fnv=2456c84ad6f486a6 done served=268 shed=338 peakw=32",
            "ranks=4 frames=0 watermark=None bytes=13114 fnv=57be5179a0fad17c done served=503 shed=103 peakw=32",
            "ranks=4 frames=0 watermark=Some(4) bytes=10176 fnv=a8a7c546012536fe done served=324 shed=282 peakw=4",
            "ranks=4 frames=32 watermark=None bytes=13171 fnv=0d9a163ecf9542f5 done served=605 shed=1 peakw=32",
            "ranks=4 frames=32 watermark=Some(4) bytes=13144 fnv=918c66cb52811f0c done served=602 shed=4 peakw=32",
        ];
        assert_eq!(
            got,
            want,
            "serve_connection output moved:\n{}",
            got.join("\n")
        );
    }

    /// A writer whose bytes outlive the engine that owns the sink.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serve `golden_input()` with a fine-detail JSONL sink and return
    /// the trace bytes.
    fn serve_trace(ranks: u32, frames: usize, watermark: Option<usize>) -> Vec<u8> {
        use pcm_telemetry::{JsonlSink, TraceDetail};
        let system = SystemConfig::builder()
            .small_caches()
            .ranks(ranks)
            .write_cache(frames)
            .build()
            .unwrap();
        let cfg = ServeConfig {
            system,
            shed_watermark: watermark.unwrap_or(system.controller.write_queue_cap),
            ..ServeConfig::default()
        };
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone(), TraceDetail::Fine);
        let mut e = ServeEngine::new(cfg, Box::new(sink)).unwrap();
        serve_connection(&mut e, golden_input().as_bytes(), &mut io::sink()).unwrap();
        buf.0.take()
    }

    #[test]
    fn serve_telemetry_is_pinned() {
        let mut got = Vec::new();
        for ranks in [1u32, 4] {
            for frames in [0usize, 32] {
                for watermark in [None, Some(4)] {
                    let trace = serve_trace(ranks, frames, watermark);
                    got.push(format!(
                        "ranks={ranks} frames={frames} watermark={watermark:?} \
                         bytes={} fnv={:016x}",
                        trace.len(),
                        fnv1a(&trace)
                    ));
                }
            }
        }
        let want = [
            "ranks=1 frames=0 watermark=None bytes=65226 fnv=ec98bcb34ae9dd50",
            "ranks=1 frames=0 watermark=Some(4) bytes=96672 fnv=a90c428ebf1370a0",
            "ranks=1 frames=32 watermark=None bytes=79040 fnv=3f4496425ca28d27",
            "ranks=1 frames=32 watermark=Some(4) bytes=92298 fnv=6d765471724010c8",
            "ranks=4 frames=0 watermark=None bytes=141227 fnv=df245813a3ab2ab9",
            "ranks=4 frames=0 watermark=Some(4) bytes=100120 fnv=1b6d6bdbd132e3de",
            "ranks=4 frames=32 watermark=None bytes=173120 fnv=2b966f01df6ece96",
            "ranks=4 frames=32 watermark=Some(4) bytes=172440 fnv=054db343f668a6b5",
        ];
        assert_eq!(got, want, "serve telemetry moved:\n{}", got.join("\n"));
    }

    #[test]
    fn loopback_socket_round_trip() {
        use std::io::Read;
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let bound = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut e = engine(usize::MAX);
            serve_connection(&mut e, reader, &mut writer).unwrap()
        });
        let mut client = TcpStream::connect(bound).unwrap();
        client
            .write_all(b"req 0 1 r 4096 0\nreq 1 1 w 8192 100\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        BufReader::new(client).read_to_string(&mut reply).unwrap();
        let (served, shed) = server.join().unwrap();
        assert_eq!((served, shed), (2, 0));
        assert!(reply.lines().any(|l| l == "ack 0"));
        assert!(reply.lines().last().unwrap().starts_with("done served=2"));
    }
}
