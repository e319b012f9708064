//! Asynchronous trace ingestion for sharded runs.
//!
//! A sharded simulation runs one [`crate::Telemetry`] producer per rank on
//! the experiment thread pool. Writing JSONL synchronously from each rank
//! would serialize the ranks on the output file; instead every rank gets an
//! [`AsyncRankSink`] — a cheap handle over a **bounded channel** (a full
//! channel applies backpressure rather than dropping events) — and a
//! single background thread owned by [`AsyncTraceWriter`] drains all ranks
//! into one writer, tagging each line with its rank so
//! [`read_tagged_events`] can split the stream again.

use crate::event::{TelemetryEvent, TraceDetail};
use crate::sink::Telemetry;
use pcm_types::{Json, JsonCodec};
use std::io::{self, BufRead, Write};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Default bound of the per-writer event channel (batches in flight).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 4096;

/// Events a producer accumulates locally before one channel send. Keeps
/// the hot-path cost at a clone + `Vec::push`; the mutex/condvar rendezvous
/// is paid once per batch.
const PRODUCER_BATCH: usize = 64;

/// Encode one event as a compact JSON line with a `rank` tag appended.
fn tagged_line(rank: u32, ev: &TelemetryEvent) -> String {
    let mut j = ev.to_json();
    if let Json::Obj(ref mut fields) = j {
        fields.push(("rank".to_string(), Json::UInt(rank as u64)));
    }
    j.to_string_compact()
}

/// Background JSONL writer fed by per-rank [`AsyncRankSink`] handles.
///
/// ```
/// use pcm_telemetry::{AsyncTraceWriter, Telemetry, TelemetryEvent, TraceDetail};
/// use pcm_types::Ps;
/// let mut w = AsyncTraceWriter::new(Vec::new(), TraceDetail::Coarse);
/// let mut rank0 = w.rank_sink(0);
/// rank0.record(&TelemetryEvent::DrainStart { at: Ps(1), writes: 32 });
/// drop(rank0);
/// let (bytes, written) = w.finish().unwrap();
/// assert_eq!(written, 1);
/// assert!(!bytes.is_empty());
/// ```
pub struct AsyncTraceWriter<W: Write + Send + 'static> {
    tx: Option<SyncSender<(u32, Vec<TelemetryEvent>)>>,
    handle: Option<JoinHandle<io::Result<(W, u64)>>>,
    level: TraceDetail,
}

fn writer_loop<W: Write + Send + 'static>(
    rx: Receiver<(u32, Vec<TelemetryEvent>)>,
    w: W,
) -> io::Result<(W, u64)> {
    let mut buf = io::BufWriter::new(w);
    let mut written = 0u64;
    for (rank, batch) in rx {
        for ev in &batch {
            writeln!(buf, "{}", tagged_line(rank, ev))?;
            written += 1;
        }
    }
    buf.flush()?;
    let w = buf.into_inner().map_err(|e| e.into_error())?;
    Ok((w, written))
}

impl<W: Write + Send + 'static> AsyncTraceWriter<W> {
    /// Spawn the writer thread with the default channel capacity.
    pub fn new(w: W, level: TraceDetail) -> Self {
        Self::with_capacity(w, level, DEFAULT_CHANNEL_CAPACITY)
    }

    /// Spawn the writer thread over a channel bounded at `capacity`
    /// event batches. Producers block (backpressure) when the buffer is
    /// full.
    pub fn with_capacity(w: W, level: TraceDetail, capacity: usize) -> Self {
        let (tx, rx) = sync_channel(capacity.max(1));
        let handle = std::thread::spawn(move || writer_loop(rx, w));
        AsyncTraceWriter {
            tx: Some(tx),
            handle: Some(handle),
            level,
        }
    }

    /// A [`Telemetry`] handle that tags every event with `rank`.
    /// Handles are independent; one per rank thread.
    pub fn rank_sink(&self, rank: u32) -> AsyncRankSink {
        AsyncRankSink {
            rank,
            level: self.level,
            buf: Vec::with_capacity(PRODUCER_BATCH),
            tx: self.tx.clone().expect("writer already finished"),
        }
    }

    /// Close the channel, join the writer thread, and return the inner
    /// writer plus the number of events written. All rank sinks must be
    /// dropped before this returns (the channel drains first).
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        drop(self.tx.take());
        let handle = self.handle.take().expect("writer already finished");
        handle
            .join()
            .map_err(|_| io::Error::other("telemetry writer thread panicked"))?
    }
}

impl<W: Write + Send + 'static> Drop for AsyncTraceWriter<W> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl AsyncTraceWriter<std::fs::File> {
    /// Create (truncate) a trace file at `path` and spawn the writer.
    pub fn create(path: &std::path::Path, level: TraceDetail) -> io::Result<Self> {
        Ok(AsyncTraceWriter::new(std::fs::File::create(path)?, level))
    }
}

/// One rank's producer handle into an [`AsyncTraceWriter`].
///
/// `Send`, cheap to clone, and infallible on the hot path: if the writer
/// thread has died (I/O error), events are dropped here and the error
/// surfaces from [`AsyncTraceWriter::finish`]. Events accumulate in a
/// local buffer and ship to the writer thread a batch (64 events) at a
/// time; the remainder flushes when the sink is dropped.
pub struct AsyncRankSink {
    rank: u32,
    level: TraceDetail,
    buf: Vec<TelemetryEvent>,
    tx: SyncSender<(u32, Vec<TelemetryEvent>)>,
}

impl Clone for AsyncRankSink {
    fn clone(&self) -> AsyncRankSink {
        // A clone is a fresh producer handle: same destination, own
        // (empty) buffer — buffered events belong to the original.
        AsyncRankSink {
            rank: self.rank,
            level: self.level,
            buf: Vec::with_capacity(PRODUCER_BATCH),
            tx: self.tx.clone(),
        }
    }
}

impl AsyncRankSink {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            // Blocking send = bounded-buffer backpressure; Err means the
            // writer died, surfaced later by finish().
            let _ = self.tx.send((self.rank, std::mem::take(&mut self.buf)));
        }
    }
}

impl Telemetry for AsyncRankSink {
    fn detail(&self) -> Option<TraceDetail> {
        Some(self.level)
    }

    fn record(&mut self, ev: &TelemetryEvent) {
        if self.wants(ev.detail()) {
            self.buf.push(ev.clone());
            if self.buf.len() >= PRODUCER_BATCH {
                self.flush();
            }
        }
    }
}

impl Drop for AsyncRankSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Parse a JSONL trace whose lines may carry a `rank` tag (as written by
/// [`AsyncTraceWriter`]). Untagged lines — e.g. from a plain
/// [`crate::JsonlSink`] — decode as rank 0, so single-rank traces read
/// identically through either entry point.
pub fn read_tagged_events<R: BufRead>(r: R) -> io::Result<Vec<(u32, TelemetryEvent)>> {
    let mut events = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let v = Json::parse(line).map_err(|e| bad(format!("trace line {}: {e}", i + 1)))?;
        let rank = v.get("rank").and_then(Json::as_u64).unwrap_or(0) as u32;
        let ev =
            TelemetryEvent::from_json(&v).map_err(|e| bad(format!("trace line {}: {e}", i + 1)))?;
        events.push((rank, ev));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::read_events;
    use pcm_types::Ps;

    fn ev(at: u64) -> TelemetryEvent {
        TelemetryEvent::DrainStart {
            at: Ps(at),
            writes: 32,
        }
    }

    #[test]
    fn async_writer_tags_and_roundtrips() {
        let w = AsyncTraceWriter::new(Vec::new(), TraceDetail::Fine);
        let mut r0 = w.rank_sink(0);
        let mut r3 = w.rank_sink(3);
        r0.record(&ev(10));
        r3.record(&ev(20));
        r0.record(&ev(30));
        drop((r0, r3));
        let (bytes, written) = w.finish().unwrap();
        assert_eq!(written, 3);
        let tagged = read_tagged_events(&bytes[..]).unwrap();
        let ranks: Vec<u32> = tagged.iter().map(|(r, _)| *r).collect();
        assert!(ranks.contains(&3) && ranks.contains(&0));
        // The rank tag is an envelope field: the plain reader still parses.
        let plain = read_events(&bytes[..]).unwrap();
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn async_sink_filters_by_detail() {
        let w = AsyncTraceWriter::new(Vec::new(), TraceDetail::Coarse);
        let mut s = w.rank_sink(1);
        s.record(&TelemetryEvent::QueueDepth {
            at: Ps(1),
            reads: 1,
            writes: 1,
        }); // Fine: dropped
        s.record(&ev(5)); // Coarse: kept
        drop(s);
        let (_, written) = w.finish().unwrap();
        assert_eq!(written, 1);
    }

    #[test]
    fn bounded_channel_applies_backpressure_not_loss() {
        let w = AsyncTraceWriter::with_capacity(Vec::new(), TraceDetail::Fine, 2);
        let mut s = w.rank_sink(0);
        for i in 0..100 {
            s.record(&ev(i)); // blocks when 2 in flight; never drops
        }
        drop(s);
        let (_, written) = w.finish().unwrap();
        assert_eq!(written, 100);
    }

    #[test]
    fn untagged_lines_read_as_rank_zero() {
        let mut sink = crate::JsonlSink::new(Vec::new(), TraceDetail::Fine);
        sink.record(&ev(7));
        let bytes = sink.finish().unwrap();
        let tagged = read_tagged_events(&bytes[..]).unwrap();
        assert_eq!(tagged, vec![(0, ev(7))]);
    }
}
