//! `perfbench`: the msync collection-sync benchmark.
//!
//! Drives one workload through the path users run — `msync sync
//! --remote` against `msync serve` — with an in-process daemon
//! (`max(1, nproc - 1)` mux workers) and this one client thread holding
//! one connection at a time, in a closed loop. Every sync is checked
//! byte-exact; every metric is printed by name with its unit; the last
//! line of stdout is one JSON object. `--trace 1` is a separate run
//! that breaks the sync down by layer from the benchmark's own code
//! (see `layers.rs`). README.md explains the workloads and metrics.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{self, Receiver};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use msync_core::{CollectionOutcome, CollectionSnapshot, ProtocolConfig};
use msync_hash::file_fingerprint;
use msync_net::{sync_remote, Daemon, DaemonOptions, RemoteOptions, RemoteOutcome, SessionReport};
use msync_protocol::{FrameBuf, LinkModel, TrafficStats};

use layers::{EngineTimes, SpanLog};
use workload::{Inputs, Kind};

const USAGE: &str = "usage: perfbench --workload release_upgrade|crawl_refresh|mirror_poll \
[--seed N] [--seconds S] [--trace 0|1] [--corpus-seed N] [--scale F] [--spans-out FILE]
       perfbench --smoke";

/// End-to-end metrics (`--trace 0`): what a mirror operator sees.
const END_TO_END: &[(&str, &str)] = &[
    ("collection_mb_per_s", "MB/s"),
    ("sync_p50_ms", "ms"),
    ("sync_p90_ms", "ms"),
    ("wire_bytes", "B"),
    ("dsl_s", "model_s"),
    ("dialup_s", "model_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`).
const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.client_self_ms", "ms"),
    ("pipeline.client_self_share", "ratio"),
    ("pipeline.remote_over_memory", "ratio"),
    ("engine.client_ms", "ms"),
    ("engine.server_ms", "ms"),
    ("engine.shuttle_ms", "ms"),
    ("engine.total_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.scanned_mb", "MB"),
    ("index.mb_per_s", "MB/s"),
    ("map.levels", "count"),
    ("map.items", "count"),
    ("map.suppressed", "count"),
    ("map.known_ratio", "ratio"),
    ("verify.candidates", "count"),
    ("verify.confirmed", "count"),
    ("verify.harvest_rate", "ratio"),
    ("compress.delta_wire_bytes", "B"),
    ("compress.delta_encode_ms", "ms"),
    ("compress.delta_decode_ms", "ms"),
    ("hashes.fingerprint_ms", "ms"),
    ("hashes.fingerprint_mb_per_s", "MB/s"),
    ("net.connect_ms", "ms"),
    ("net.handshake_ms", "ms"),
    ("net.send_ms", "ms"),
    ("net.recv_wait_ms", "ms"),
    ("net.frames", "count"),
    ("net.socket_bytes", "B"),
    ("net.daemon_cpu_ms", "ms"),
    ("protocol.roundtrips", "count"),
    ("protocol.retransmits", "count"),
    ("protocol.c2s_bytes", "B"),
    ("protocol.s2c_bytes", "B"),
    ("protocol.frame_codec_mb_per_s", "MB/s"),
    ("collection.changed", "count"),
    ("collection.unchanged", "count"),
    ("collection.created", "count"),
    ("collection.deleted", "count"),
    ("collection.resumed", "count"),
    ("collection.fell_back", "count"),
    ("trace.sync_p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.self_sum_ratio", "ratio"),
    ("host.calib_ms", "ms"),
];

/// Spans of one traced remote sync.
const SYNC_SPANS: &[&str] =
    &["sync", "net.connect", "net.handshake", "pipeline.client", "net.send", "net.recv"];

/// Daemon spawns per run, each followed by its cold first sync:
/// at least `SETUP_MIN_REPS`, and more while under `SETUP_MIN_TIME`
/// (a cheap set-up is repeated until its median is steady), at most
/// `SETUP_MAX_REPS`. `setup_s` is their median; the last daemon serves
/// the measurement.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);

/// Fewest measured syncs a run reports, however short `--seconds`.
const MIN_SAMPLES: usize = 3;

/// How long the client waits for the daemon's report of a session.
const REPORT_TIMEOUT: Duration = Duration::from_secs(10);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
    scale: f64,
    spans_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        let (mut corpus_seed, mut scale, mut spans_out) = (None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = parse_u64(&value).ok_or_else(bad)?,
                "--seconds" => {
                    seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--corpus-seed" => corpus_seed = Some(parse_u64(&value).ok_or_else(bad)?),
                "--scale" => {
                    scale = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
                }
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        Ok(Args {
            kind,
            seed,
            seconds,
            trace,
            corpus_seed: corpus_seed.unwrap_or_else(|| kind.corpus_seed()),
            scale: scale.unwrap_or_else(|| kind.scale()),
            spans_out,
        })
    }
}

/// A daemon with its session reports, plus the run's operation tally.
struct Harness<'a> {
    inputs: &'a Inputs,
    opts: RemoteOptions,
    workers: usize,
    daemon: Option<(Daemon, Receiver<SessionReport>)>,
    addr: String,
    /// The first checked sync's accounting; every later one must equal
    /// it, per direction and phase, frames and roundtrips included.
    exact: Option<TrafficStats>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    calib: host::Calib,
}

impl<'a> Harness<'a> {
    fn new(inputs: &'a Inputs, cfg: &ProtocolConfig) -> Harness<'a> {
        let opts =
            RemoteOptions { cfg: cfg.clone(), resume: inputs.resume.clone(), ..Default::default() };
        Harness {
            inputs,
            opts,
            workers: host::nproc().saturating_sub(1).max(1),
            daemon: None,
            addr: String::new(),
            exact: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            calib: host::Calib::start(),
        }
    }

    /// Start a daemon serving the workload's collection on loopback.
    fn spawn(&mut self) -> Result<(), String> {
        self.shutdown();
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let opts = DaemonOptions { workers: self.workers, ..DaemonOptions::default() };
        let daemon = Daemon::spawn("127.0.0.1:0", self.inputs.new.clone(), opts, move |r| {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send(r);
            }
        })
        .map_err(|e| format!("daemon spawn: {e}"))?;
        self.addr = daemon.local_addr().to_string();
        self.daemon = Some((daemon, rx));
        Ok(())
    }

    fn shutdown(&mut self) {
        if let Some((daemon, _)) = self.daemon.take() {
            daemon.shutdown();
        }
    }

    /// One timed sync through `run`, then its checks. Failures are
    /// counted, never fatal. Returns the wall milliseconds and outcome.
    fn sync(
        &mut self,
        run: impl FnOnce(&str, &RemoteOptions) -> Result<RemoteOutcome, String>,
    ) -> Option<(f64, RemoteOutcome)> {
        if let Some((_, rx)) = &self.daemon {
            while rx.try_recv().is_ok() {}
        }
        self.attempted += 1;
        let start = Instant::now();
        let result = run(&self.addr, &self.opts);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let checked = result.and_then(|got| self.check(got));
        self.calib.tick();
        match checked {
            Ok(got) => Some((ms, got)),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// One checked in-memory engine run against `snap`.
    fn engine(
        &mut self,
        snap: &CollectionSnapshot,
        sent: Option<&mut Vec<FrameBuf>>,
    ) -> Option<EngineTimes> {
        self.attempted += 1;
        let run = layers::engine_in_memory(self.inputs, &self.opts, snap, sent)
            .and_then(|(outcome, times)| self.inputs.check(&outcome).map(|()| times));
        self.calib.tick();
        run.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn sync_untraced(&mut self) -> Option<(f64, RemoteOutcome)> {
        let old = &self.inputs.old;
        self.sync(|addr, opts| sync_remote(addr, old, opts).map_err(|e| e.to_string()))
    }

    /// The outcome equals the served collection; the client's wire
    /// accounting equals its socket counters and the daemon's report;
    /// nothing was retransmitted; and the accounting is the same as
    /// every earlier sync of the run.
    fn check(&mut self, got: RemoteOutcome) -> Result<RemoteOutcome, String> {
        let (_, rx) = self.daemon.as_ref().ok_or("no daemon")?;
        let report = rx.recv_timeout(REPORT_TIMEOUT).map_err(|_| "no daemon session report")?;
        let served = report.result.map_err(|e| format!("daemon session: {e}"))?;
        self.inputs.check(&got.outcome)?;
        let traffic = got.outcome.traffic;
        let socket = got.socket_sent + got.socket_received;
        if traffic.total_bytes() != socket {
            return Err(format!("TrafficStats {} B != socket {socket} B", traffic.total_bytes()));
        }
        if served.traffic.total_bytes() != socket {
            let daemon = served.traffic.total_bytes();
            return Err(format!("daemon report {daemon} B != client socket {socket} B"));
        }
        if traffic.retransmits != 0 || served.traffic.retransmits != 0 {
            return Err("retransmits on clean loopback".to_owned());
        }
        match self.exact {
            None => self.exact = Some(traffic),
            Some(first) if first != traffic => {
                return Err(format!("wire accounting moved: {first:?} then {traffic:?}"));
            }
            Some(_) => {}
        }
        Ok(got)
    }

    /// Spawn a daemon and run its cold first sync; the wall time of both.
    fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        self.spawn()?;
        self.sync_untraced();
        Ok(start.elapsed().as_secs_f64())
    }
}

/// A finished run: the JSON verdict plus human-readable notes.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn render(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut json = String::new();
        let mut text = String::new();
        for n in &self.notes {
            let _ = writeln!(text, "# {n}");
        }
        for (name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number: {value}"));
            }
            let _ = writeln!(text, "{name:<32} {value:>16.6} {unit}");
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let _ = writeln!(
            text,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        Ok(text)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn host_notes(h: &Harness<'_>, args: &Args) -> Vec<String> {
    let mut notes = vec![format!(
        "workload={} corpus_seed={:#x} (held out: {:#x}) scale={} order_seed={} nproc={} \
         workers={} {}",
        args.kind.name(),
        args.corpus_seed,
        args.kind.held_out_seed(),
        args.scale,
        args.seed,
        host::nproc(),
        h.workers,
        h.calib.summary()
    )];
    notes.extend(h.errors.iter().map(|e| format!("FAILED: {e}")));
    notes
}

/// Whether a phase that began at `start` with `budget` should run
/// again, having `done` successful iterations: until the budget is
/// spent and `MIN_SAMPLES` have succeeded, unless failures drag on.
fn keep_going(start: Instant, budget: Duration, done: usize) -> bool {
    let spent = start.elapsed();
    spent < budget || (done < MIN_SAMPLES && spent < budget * 3 + REPORT_TIMEOUT)
}

/// Measured syncs until `seconds` have passed (at least `MIN_SAMPLES`).
fn run_untraced(args: &Args, inputs: &Inputs, cfg: &ProtocolConfig) -> Result<Report, String> {
    let mut h = Harness::new(inputs, cfg);
    let mut setup = Vec::new();
    let setup_start = Instant::now();
    while setup.len() < SETUP_MIN_REPS
        || (setup.len() < SETUP_MAX_REPS && setup_start.elapsed() < SETUP_MIN_TIME)
    {
        setup.push(h.setup()?);
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while keep_going(start, budget, samples.len()) {
        if let Some((ms, _)) = h.sync_untraced() {
            samples.push(ms);
        }
    }
    h.shutdown();
    h.calib.take();
    let traffic = h.exact.ok_or_else(|| format!("no sync succeeded: {:?}", h.errors))?;
    if samples.is_empty() {
        return Err(format!("no measured sync succeeded: {:?}", h.errors));
    }
    let p50 = host::quantile(&samples, 0.5);
    let mut notes = host_notes(&h, args);
    notes.push(format!(
        "samples={} (sync_p50_ms, sync_p90_ms over these syncs) setups={} wire_bytes={} c2s={} \
         s2c={} roundtrips={} frames={}",
        samples.len(),
        setup.len(),
        traffic.total_bytes(),
        traffic.total_c2s(),
        traffic.total_s2c(),
        traffic.roundtrips,
        traffic.frames
    ));
    Ok(Report {
        attempted: h.attempted,
        failed: h.failed,
        metrics: vec![
            ("collection_mb_per_s", ratio(inputs.served_bytes() as f64 / 1e6, p50 / 1e3)),
            ("sync_p50_ms", p50),
            ("sync_p90_ms", host::quantile(&samples, 0.9)),
            ("wire_bytes", traffic.total_bytes() as f64),
            ("dsl_s", LinkModel::dsl().estimate(&traffic).as_secs_f64()),
            ("dialup_s", LinkModel::dialup().estimate(&traffic).as_secs_f64()),
            ("setup_s", host::quantile(&setup, 0.5)),
            ("peak_rss_mb", host::peak_rss_mb()?),
        ],
        notes,
    })
}

/// Sums over the per-file statistics of one collection outcome.
fn map_metrics(outcome: &CollectionOutcome, inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let sizes: HashMap<&str, usize> =
        inputs.new.iter().map(|f| (f.name.as_str(), f.data.len())).collect();
    let (mut levels, mut items, mut suppressed, mut candidates, mut confirmed) = (0, 0, 0, 0, 0);
    let (mut known, mut size, mut delta) = (0u64, 0u64, 0u64);
    for (name, s) in &outcome.per_file {
        levels += s.levels.len();
        for l in &s.levels {
            items += l.items;
            suppressed += l.suppressed;
            candidates += l.candidates;
            confirmed += l.confirmed;
        }
        known += s.known_bytes;
        size += sizes.get(name.as_str()).copied().unwrap_or(0) as u64;
        delta += s.delta_bytes;
    }
    // `per_file` lists every served file; these are the ones whose
    // content moved.
    let changed = outcome
        .per_file
        .len()
        .saturating_sub(outcome.unchanged + outcome.created + outcome.resumed + outcome.renamed);
    vec![
        ("map.levels", levels as f64),
        ("map.items", items as f64),
        ("map.suppressed", suppressed as f64),
        ("map.known_ratio", ratio(known as f64, size as f64)),
        ("verify.candidates", candidates as f64),
        ("verify.confirmed", confirmed as f64),
        ("verify.harvest_rate", ratio(confirmed as f64, items as f64)),
        ("compress.delta_wire_bytes", delta as f64),
        ("collection.changed", changed as f64),
        ("collection.unchanged", outcome.unchanged as f64),
        ("collection.created", outcome.created as f64),
        ("collection.deleted", outcome.deleted as f64),
        ("collection.resumed", outcome.resumed as f64),
        ("collection.fell_back", outcome.fell_back as f64),
        ("protocol.roundtrips", f64::from(outcome.traffic.roundtrips)),
        ("protocol.retransmits", outcome.traffic.retransmits as f64),
        ("protocol.c2s_bytes", outcome.traffic.total_c2s() as f64),
        ("protocol.s2c_bytes", outcome.traffic.total_s2c() as f64),
        ("net.frames", outcome.traffic.frames as f64),
    ]
}

/// One round of the traced run: an untraced remote sync, a traced one
/// and an in-memory engine run, back to back, so each ratio between
/// them is taken under the same host conditions.
struct Cycle {
    plain_ms: f64,
    traced_ms: f64,
    /// Self time of this cycle's `pipeline.client` span.
    remote_self_ns: u64,
    engine: EngineTimes,
}

/// The traced run: cycles of (untraced sync, traced sync, in-memory
/// engine run), in rotating order, for three quarters of the budget;
/// then the layer replays. All on the same inputs.
fn run_traced(args: &Args, inputs: &Inputs, cfg: &ProtocolConfig) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut h = Harness::new(inputs, cfg);
    h.setup()?;
    // The in-memory server gets a snapshot warmed once, as the daemon's
    // is by the time measured syncs run; the warm-up run also captures
    // the frames for the codec replay.
    let snap = CollectionSnapshot::new(inputs.new.clone());
    let mut frames: Vec<FrameBuf> = Vec::new();
    h.engine(&snap, Some(&mut frames));

    let client_tid = host::my_tid()?;
    let (mut daemon_ns, mut daemon_syncs) = (0u64, 0u32);
    let mut log = SpanLog::new();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut id = 0u32;
    while keep_going(start, budget * 3 / 4, cycles.len()) {
        let (mut plain_ms, mut traced_ms, mut engine) = (None, None, None);
        for leg in 0..3 {
            match (u64::from(id) + leg + args.seed) % 3 {
                0 => {
                    let before = host::cpu_by_thread()?;
                    plain_ms = h.sync_untraced().map(|(ms, _)| ms);
                    if plain_ms.is_some() {
                        let after = host::cpu_by_thread()?;
                        daemon_ns += host::cpu_delta_excluding(&before, &after, client_tid);
                        daemon_syncs += 1;
                    }
                }
                1 => {
                    let spans = &mut log;
                    let got =
                        h.sync(|addr, opts| layers::traced_sync(addr, inputs, opts, spans, id));
                    traced_ms = got.map(|(ms, got)| {
                        last = Some(got);
                        ms
                    });
                }
                _ => engine = h.engine(&snap, None),
            }
        }
        if let (Some(plain_ms), Some(traced_ms), Some(engine)) = (plain_ms, traced_ms, engine) {
            let remote_self_ns = log.self_of("pipeline.client", id);
            cycles.push(Cycle { plain_ms, traced_ms, remote_self_ns, engine });
        }
        id += 1;
    }
    h.shutdown();
    let got = last.ok_or_else(|| format!("no traced sync succeeded: {:?}", h.errors))?;
    if cycles.is_empty() {
        return Err(format!("no complete traced cycle: {:?}", h.errors));
    }
    let n = cycles.len() as f64;
    let per_cycle = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    let sync_ns = log.totals("sync").0;
    let traced_n = log.spans.iter().filter(|s| s.name == "sync").count() as f64;
    let (_, pipeline_self) = log.totals("pipeline.client");
    let own = log.self_ns();
    let self_sum: u64 = log
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| SYNC_SPANS.contains(&s.name))
        .map(|(_, o)| *o)
        .sum();
    let engine_ms =
        |f: &dyn Fn(&EngineTimes) -> u64| per_cycle(&|c| ms(f(&c.engine))).iter().sum::<f64>() / n;
    let mut metrics = map_metrics(&got.outcome, inputs);
    metrics.extend([
        ("pipeline.client_self_ms", ms(pipeline_self) / traced_n),
        ("pipeline.client_self_share", ratio(pipeline_self as f64, sync_ns as f64)),
        (
            "pipeline.remote_over_memory",
            host::quantile(
                &per_cycle(&|c| ratio(c.remote_self_ns as f64, c.engine.client_ns as f64)),
                0.5,
            ),
        ),
        ("net.connect_ms", ms(log.totals("net.connect").0) / traced_n),
        ("net.handshake_ms", ms(log.totals("net.handshake").0) / traced_n),
        ("net.send_ms", ms(log.totals("net.send").0) / traced_n),
        ("net.recv_wait_ms", ms(log.totals("net.recv").0) / traced_n),
        ("net.socket_bytes", (got.socket_sent + got.socket_received) as f64),
        ("net.daemon_cpu_ms", ms(daemon_ns) / f64::from(daemon_syncs.max(1))),
        ("engine.client_ms", engine_ms(&|e| e.client_ns)),
        ("engine.server_ms", engine_ms(&|e| e.server_ns)),
        ("engine.shuttle_ms", engine_ms(&|e| e.shuttle_ns)),
        ("engine.total_ms", engine_ms(&|e| e.total_ns)),
        ("trace.sync_p50_ms", host::quantile(&per_cycle(&|c| c.traced_ms), 0.5)),
        ("trace.untraced_p50_ms", host::quantile(&per_cycle(&|c| c.plain_ms), 0.5)),
        (
            "trace.overhead_pct",
            (host::quantile(&per_cycle(&|c| c.traced_ms / c.plain_ms), 0.5) - 1.0) * 100.0,
        ),
        ("trace.self_sum_ratio", ratio(self_sum as f64, sync_ns as f64)),
    ]);

    // Layer replays: each layer's public entry point on this workload.
    let min = Duration::from_millis(100);
    let pairs = inputs.changed_pairs();
    let mut scanned = 0;
    let index_ms = timed_span(&mut log, "replay.index", || {
        layers::mean_ms(min, || {
            scanned = layers::replay_index(&pairs, cfg);
            Ok(())
        })
    })?;
    let deltas = layers::replay_delta_encode(&pairs);
    let encode_ms = timed_span(&mut log, "replay.delta_encode", || {
        layers::mean_ms(min, || {
            std::hint::black_box(layers::replay_delta_encode(&pairs));
            Ok(())
        })
    })?;
    let decode_ms = timed_span(&mut log, "replay.delta_decode", || {
        layers::mean_ms(min, || layers::replay_delta_decode(&pairs, &deltas))
    })?;
    let fingerprint_ms = timed_span(&mut log, "replay.fingerprint", || {
        layers::mean_ms(min, || {
            for f in &inputs.old {
                std::hint::black_box(file_fingerprint(&f.data));
            }
            Ok(())
        })
    })?;
    let codec_ms = timed_span(&mut log, "replay.frame_codec", || {
        layers::mean_ms(min, || layers::replay_frame_codec(&frames))
    })?;
    let old_mb = inputs.old.iter().map(|f| f.data.len()).sum::<usize>() as f64 / 1e6;
    let frame_mb = frames.iter().map(FrameBuf::len).sum::<usize>() as f64 / 1e6;
    metrics.extend([
        ("index.build_ms", index_ms),
        ("index.scanned_mb", scanned as f64 / 1e6),
        ("index.mb_per_s", ratio(scanned as f64 / 1e6, index_ms / 1e3)),
        ("compress.delta_encode_ms", encode_ms),
        ("compress.delta_decode_ms", decode_ms),
        ("hashes.fingerprint_ms", fingerprint_ms),
        ("hashes.fingerprint_mb_per_s", ratio(old_mb, fingerprint_ms / 1e3)),
        ("protocol.frame_codec_mb_per_s", ratio(frame_mb, codec_ms / 1e3)),
    ]);

    h.calib.take();
    metrics.push(("host.calib_ms", h.calib.median()));
    let mut notes = host_notes(&h, args);
    notes.push(format!(
        "complete cycles={} (untraced sync, traced sync, in-memory run) captured frames={}",
        cycles.len(),
        frames.len()
    ));
    notes.extend(span_table(&log));
    if let Some(path) = &args.spans_out {
        let mut out = BufWriter::new(File::create(path).map_err(|e| format!("{e}"))?);
        log.write_jsonl(&mut out).and_then(|()| out.flush()).map_err(|e| format!("{e}"))?;
    }
    Ok(Report { attempted: h.attempted, failed: h.failed, metrics, notes })
}

/// Run `f` inside a top-level span of the log.
fn timed_span<T>(log: &mut SpanLog, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = log.open(name, None, 0);
    let out = f();
    log.close(span);
    out
}

/// Count, total and self milliseconds per span name.
fn span_table(log: &SpanLog) -> Vec<String> {
    let mut lines =
        vec![format!("{:<22} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms")];
    for name in log.names() {
        let count = log.spans.iter().filter(|s| s.name == name).count();
        let (total, own) = log.totals(name);
        lines.push(format!("{name:<22} {count:>8} {:>12.3} {:>12.3}", ms(total), ms(own)));
    }
    lines
}

fn run(args: &Args) -> Result<String, String> {
    let cfg = ProtocolConfig::default();
    let inputs = Inputs::build(args.kind, args.corpus_seed, args.scale, args.seed, &cfg);
    if args.trace {
        run_traced(args, &inputs, &cfg)?.render(PER_LAYER)
    } else {
        run_untraced(args, &inputs, &cfg)?.render(END_TO_END)
    }
}

/// Every workload once at a tiny scale, untraced and traced; every
/// metric must be present with its unit and no operation may fail.
fn smoke() -> Result<(), String> {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let args = Args {
                kind,
                seed: 7,
                seconds: 0.0,
                trace,
                corpus_seed: kind.corpus_seed(),
                scale: kind.smoke_scale(),
                spans_out: None,
            };
            let out = run(&args).map_err(|e| format!("{} trace={trace}: {e}", kind.name()))?;
            let last = out.lines().last().unwrap_or_default();
            let table = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last.find(&key).ok_or(format!("{}: no {name}", kind.name()))?;
                if !last[at..].contains(&format!("\"unit\": \"{unit}\"}}")) {
                    return Err(format!("{}: {name} lacks unit {unit}", kind.name()));
                }
            }
            if !last.contains("\"failed\": 0,") || !last.starts_with("{\"correct\": true,") {
                return Err(format!("{} trace={trace} failed: {out}", kind.name()));
            }
            println!("smoke {} trace={trace}: ok", kind.name());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--smoke") {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in BENCHMARK.json name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let pos = json[at..].find(&entry).unwrap_or_else(|| panic!("{entry} not in order"));
            at += pos + entry.len();
        }
        assert_eq!(json.matches("\"unit\": ").count(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_parse() {
        let a = |v: &[&str]| Args::parse(v.iter().map(ToString::to_string));
        let args = a(&["--workload", "mirror_poll", "--seed", "0x10", "--trace", "1"]).unwrap();
        assert_eq!((args.kind, args.seed, args.trace), (Kind::MirrorPoll, 16, true));
        assert_eq!(args.corpus_seed, Kind::MirrorPoll.corpus_seed());
        assert!(a(&["--workload", "mirror_poll", "--trace", "2"]).is_err());
        assert!(a(&["--seed", "1"]).is_err());
    }
}
