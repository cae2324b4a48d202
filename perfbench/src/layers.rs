//! The traced run's instruments. Everything here times calls into the
//! layers' public functions from outside; nothing inside the program
//! is instrumented.
//!
//! * [`SpanLog`] and [`TimedTransport`]: spans of a remote sync,
//!   `sync` ⊃ `net.connect`, `net.handshake`, `pipeline.client` ⊃
//!   {`net.send`, `net.recv`}.
//! * [`engine_in_memory`]: the same collection machines pumped on one
//!   thread over an in-memory channel under a frozen [`ManualClock`].
//! * `replay_*`: one layer's public entry point re-run on the
//!   workload's inputs.

use std::hint::black_box;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use msync_core::engine::{CollectionClientMachine, CollectionServeMachine, Machine, Output};
use msync_core::index::PositionIndex;
use msync_core::items::global_hash_bits;
use msync_core::pipeline::sync_collection_client_resumable;
use msync_core::{CollectionOutcome, CollectionSnapshot, ProtocolConfig};
use msync_net::handshake::client_hello_as;
use msync_net::{RemoteOptions, RemoteOutcome, TcpTransport};
use msync_protocol::channel::{decode_frame_shared, encode_frame};
use msync_protocol::{ChannelError, Endpoint, FrameBuf, Phase, TrafficStats, Transport};
use msync_trace::{Clock, ManualClock, Recorder};

use crate::workload::Inputs;

/// One timed interval. `parent` indexes the enclosing span in the log.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub sync_id: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory for the whole run, written out at the end.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; [`SpanLog::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, sync_id: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, sync_id });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Σ duration and Σ self time of the spans called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(d, o), (s, so)| (d + s.ns(), o + so))
    }

    /// Self time of the span called `name` in sync `sync_id`.
    pub fn self_of(&self, name: &str, sync_id: u32) -> u64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.sync_id == sync_id)
            .map(|(_, o)| o)
            .sum()
    }

    /// Span names in first-seen order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"sync_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.sync_id
            )?;
        }
        Ok(())
    }
}

/// A [`Transport`] that records a span around every send and receive
/// of the transport it wraps, and changes nothing else.
struct TimedTransport<'a> {
    inner: &'a mut TcpTransport,
    log: &'a mut SpanLog,
    parent: usize,
    sync_id: u32,
}

impl Transport for TimedTransport<'_> {
    fn send(&mut self, payload: &FrameBuf, phase: Phase) -> Result<(), ChannelError> {
        let span = self.log.open("net.send", Some(self.parent), self.sync_id);
        let r = self.inner.send(payload, phase);
        self.log.close(span);
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<FrameBuf, ChannelError> {
        let span = self.log.open("net.recv", Some(self.parent), self.sync_id);
        let r = self.inner.recv_timeout(timeout);
        self.log.close(span);
        r
    }

    fn attribute_inbound(&mut self, phase: Phase) {
        self.inner.attribute_inbound(phase);
    }

    fn note_retransmits(&mut self, frames: u64) {
        self.inner.note_retransmits(frames);
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }

    fn recorder(&self) -> Recorder {
        self.inner.recorder()
    }
}

/// One remote sync composed as `msync_net::sync_remote` composes it —
/// connect, `client_hello_as`, the resumable pipeline client over the
/// socket — with spans around each step.
pub fn traced_sync(
    addr: &str,
    inputs: &Inputs,
    opts: &RemoteOptions,
    log: &mut SpanLog,
    sync_id: u32,
) -> Result<RemoteOutcome, String> {
    let sync = log.open("sync", None, sync_id);
    let connect = log.open("net.connect", Some(sync), sync_id);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut t = TcpTransport::client(stream).map_err(|e| format!("socket: {e}"))?;
    t.set_recorder(opts.recorder.clone());
    log.close(connect);
    let hello = log.open("net.handshake", Some(sync), sync_id);
    let cfg =
        client_hello_as(&mut t, &opts.cfg, opts.collection.as_deref(), opts.handshake_timeout)
            .map_err(|e| format!("handshake: {e}"))?;
    log.close(hello);
    let pump = log.open("pipeline.client", Some(sync), sync_id);
    let outcome = {
        let mut timed = TimedTransport { inner: &mut t, log: &mut *log, parent: pump, sync_id };
        sync_collection_client_resumable(
            &mut timed,
            &inputs.old,
            &cfg,
            &opts.pipeline,
            opts.resume.as_ref(),
            &mut |_| Ok(()),
        )
        .map_err(|e| format!("sync: {e}"))?
    };
    log.close(pump);
    let (socket_sent, socket_received) = (t.socket_sent(), t.socket_received());
    drop(t);
    log.close(sync);
    Ok(RemoteOutcome { outcome, socket_sent, socket_received })
}

/// Busy time of one in-memory collection sync, split by who was busy.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTimes {
    /// Inside the client machine's `on_frame` / `poll_output`.
    pub client_ns: u64,
    /// Inside the serve machine's `on_frame` / `poll_output`.
    pub server_ns: u64,
    /// Inside `Endpoint` send / receive, both directions.
    pub shuttle_ns: u64,
    /// The whole run, pumping included.
    pub total_ns: u64,
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

/// Drain `m`'s effects onto `ep` until it waits (`false`) or is done
/// (`true`), charging machine and channel time separately. Every frame
/// put on the channel is also pushed to `sent` when given.
fn drain<M: Machine>(
    m: &mut M,
    ep: &mut Endpoint,
    now: u64,
    busy: &mut u64,
    shuttle: &mut u64,
    mut sent: Option<&mut Vec<FrameBuf>>,
) -> Result<bool, String> {
    loop {
        match timed(busy, || m.poll_output(now)).map_err(|e| format!("engine: {e}"))? {
            Output::Transmit { frame, phase, retransmit } => {
                if retransmit {
                    return Err("retransmit on a clean in-memory channel".to_owned());
                }
                if let Some(sent) = sent.as_deref_mut() {
                    sent.push(frame.share());
                }
                timed(shuttle, || Transport::send(ep, &frame, phase))
                    .map_err(|e| format!("channel: {e}"))?;
            }
            Output::Attribute { phase } => ep.attribute_inbound(phase),
            Output::Wait { .. } => return Ok(false),
            Output::Done => return Ok(true),
        }
    }
}

/// Pump the client and serve machines against each other on this
/// thread, with time frozen so no ARQ deadline can fire. Returns the
/// client's outcome, the split of busy time, and (when `sent` is given)
/// every frame payload that crossed the channel.
pub fn engine_in_memory(
    inputs: &Inputs,
    opts: &RemoteOptions,
    snap: &CollectionSnapshot,
    mut sent: Option<&mut Vec<FrameBuf>>,
) -> Result<(CollectionOutcome, EngineTimes), String> {
    let clock = ManualClock::fixed(1);
    let now = clock.now_micros();
    let mut times = EngineTimes::default();
    let start = Instant::now();
    let (mut client_ep, mut server_ep) = Endpoint::pair();
    let retry = opts.pipeline.retry;
    let cfg = &opts.cfg;
    let mut client = timed(&mut times.client_ns, || {
        CollectionClientMachine::new(
            &inputs.old,
            cfg,
            opts.pipeline.depth,
            retry,
            Recorder::off(),
            opts.resume.as_ref(),
            now,
        )
    })
    .map_err(|e| format!("engine: {e}"))?;
    let mut server = CollectionServeMachine::new(cfg, retry, Recorder::off(), now)
        .map_err(|e| format!("engine: {e}"))?;
    loop {
        let (c, s) = (&mut times.client_ns, &mut times.shuttle_ns);
        if drain(&mut client, &mut client_ep, now, c, s, sent.as_deref_mut())? {
            break;
        }
        let (c, s) = (&mut times.server_ns, &mut times.shuttle_ns);
        drain(&mut server, &mut server_ep, now, c, s, sent.as_deref_mut())?;
        let mut moved = false;
        while let Ok(frame) =
            timed(&mut times.shuttle_ns, || server_ep.recv_timeout(Duration::ZERO))
        {
            timed(&mut times.server_ns, || server.on_frame(snap, &frame, now))
                .map_err(|e| format!("engine: {e}"))?;
            moved = true;
        }
        while let Ok(frame) =
            timed(&mut times.shuttle_ns, || client_ep.recv_timeout(Duration::ZERO))
        {
            timed(&mut times.client_ns, || client.on_frame(&(), &frame, now))
                .map_err(|e| format!("engine: {e}"))?;
            moved = true;
        }
        if !moved {
            return Err("in-memory engine stalled with both machines waiting".to_owned());
        }
    }
    let outcome = timed(&mut times.client_ns, || client.finish(client_ep.stats()))
        .map_err(|e| format!("engine: {e}"))?;
    times.total_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok((outcome, times))
}

/// Run `f` until at least `min` has passed (and at least once); return
/// its mean milliseconds per call.
pub fn mean_ms(min: Duration, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < min {
        f()?;
        calls += 1;
    }
    Ok(start.elapsed().as_secs_f64() * 1e3 / f64::from(calls))
}

/// `PositionIndex::build` on each changed file's old bytes at every
/// global level the configuration allows, as the client does when a
/// level carries full-size global hashes. Returns bytes scanned.
pub fn replay_index(pairs: &[(&[u8], &[u8])], cfg: &ProtocolConfig) -> u64 {
    let mut scanned = 0u64;
    for (old, _) in pairs {
        let bits = global_hash_bits(old.len() as u64, cfg.global_extra_bits);
        let mut d = cfg.start_block;
        while d >= cfg.min_block_global && d > 0 {
            if old.len() >= d {
                black_box(PositionIndex::build(old, d, bits, cfg.max_positions_per_hash));
                scanned += old.len() as u64;
            }
            d /= 2;
        }
    }
    scanned
}

/// `delta::encode` of every changed pair; returns the encodings.
pub fn replay_delta_encode(pairs: &[(&[u8], &[u8])]) -> Vec<Vec<u8>> {
    pairs.iter().map(|(old, new)| msync_compress::delta_encode(old, new)).collect()
}

/// `delta::decode` of every encoding, checked against the target.
pub fn replay_delta_decode(pairs: &[(&[u8], &[u8])], deltas: &[Vec<u8>]) -> Result<(), String> {
    for ((old, new), delta) in pairs.iter().zip(deltas) {
        let got = msync_compress::delta_decode(old, delta).map_err(|e| format!("delta: {e}"))?;
        if got != *new {
            return Err("delta decode differs from the target".to_owned());
        }
    }
    Ok(())
}

/// `encode_frame` then `decode_frame_shared` of every payload, checked.
pub fn replay_frame_codec(payloads: &[FrameBuf]) -> Result<(), String> {
    for p in payloads {
        let wire = FrameBuf::from(encode_frame(p));
        let back = decode_frame_shared(&wire).map_err(|e| format!("frame codec: {e}"))?;
        if back.as_slice() != p.as_slice() {
            return Err("frame codec roundtrip differs".to_owned());
        }
    }
    Ok(())
}
