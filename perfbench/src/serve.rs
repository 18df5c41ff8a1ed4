//! `serve`: an in-process `ppsimd` server with one worker on loopback, cold
//! cache at start, driven by two closed-loop client connections (each
//! client sends its next line only after the previous answer arrived).
//!
//! Each client's request stream is drawn from the seed in blocks of
//! [`BLOCK`] lines with a fixed class mix: repeats of the client's earlier
//! cacheable lines (hits), cheap misses, one long miss that holds the only
//! worker, and one `stats` line. Miss lines of the two clients never
//! coincide, so which requests hit the cache depends on the seed alone.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bench::perf::{self, Json};
use ppsimd::cache::content_hash;
use ppsimd::{exec, serve, CacheConfig, Request, ResultCache, Server, ServerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::common::{
    another_round, median, median_timed, mix, quantile, ratio, shuffle, Fingerprint, Metrics,
    Profile, RunResult,
};
use crate::trace::Tracer;

pub const CLIENTS: usize = 2;
/// Lines per block; a client stops only at a block boundary.
pub const BLOCK: usize = 100;
/// A run sends at least this many blocks per client (so ≥ 1,000 lines in
/// all, which leaves ≥ 10 samples beyond the 99th percentile).
pub const MIN_BLOCKS: usize = 5;
/// Blocks per client covered by the fingerprint (and sent by the profile).
pub const FP_BLOCKS: usize = 5;
/// Miss lines whose server answer is re-derived with `exec::execute`.
const SAMPLED_CHECKS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Class {
    Hit,
    Cheap,
    Long,
    Stats,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Cheap => "cheap",
            Class::Long => "long",
            Class::Stats => "stats",
        }
    }
}

/// What a generated line asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hit,
    Stats,
    /// `run` silent-n-state, exact engine, n = 300: holds the only worker.
    Long,
    /// `expect` optimal-silent n = 4 (mcheck timers) from a named scenario.
    Expect,
    /// `run` silent-n-state, batched engine, n = 10³, 4 trials.
    SsrRun,
    /// `run` epidemic, batch-count engine, n = 10⁶, 4 trials.
    EpidemicRun,
    /// `verify` silent-n-state at the client's next unused n ≤ 9 (an
    /// `SsrRun` once they are used up).
    Verify,
}

/// The kind mix of one block.
const MIX: [(Kind, usize); 7] = [
    (Kind::Long, 1),
    (Kind::Stats, 2),
    (Kind::Expect, 3),
    (Kind::SsrRun, 4),
    (Kind::EpidemicRun, 2),
    (Kind::Verify, 1),
    (Kind::Hit, 87),
];

const SCENARIOS: [&str; 6] =
    ["all-leader", "zero-leader", "all-unsettled", "near-silent-wrong", "mid-reset", "random"];

/// One client's seeded request generator.
pub struct Stream {
    client: usize,
    rng: ChaCha8Rng,
    block: Vec<Kind>,
    sent: Vec<String>,
    misses: u64,
    verify_ns: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Self {
        Stream {
            client,
            rng: ChaCha8Rng::seed_from_u64(mix(seed, 0x5345_5256 + client as u64)),
            block: Vec::new(),
            sent: Vec::new(),
            misses: 0,
            // The clients split the eight `verify` keys so their misses never coincide.
            verify_ns: (2..=9).filter(|n| n % CLIENTS == client).rev().collect(),
        }
    }

    fn fresh_seed(&mut self) -> u64 {
        self.misses += 1;
        // Distinct per client: the client id sits in the top bits (and JSON
        // numbers stay exact below 2^53).
        ((self.client as u64) << 40) | self.misses
    }

    fn miss_line(&mut self, kind: Kind) -> String {
        let seed = self.fresh_seed();
        let ssr_run = |seed| {
            format!(
                r#"{{"type":"run","protocol":"silent-n-state","n":1000,"engine":"batched","scenario":"random","trials":4,"seed":{seed}}}"#
            )
        };
        match kind {
            Kind::Long => format!(
                r#"{{"type":"run","protocol":"silent-n-state","n":300,"engine":"exact","scenario":"random","trials":1,"seed":{seed}}}"#
            ),
            Kind::Expect => {
                let scenario = SCENARIOS[self.rng.gen_range(0..SCENARIOS.len())];
                format!(
                    r#"{{"type":"expect","protocol":"optimal-silent","n":4,"scenario":"{scenario}","seed":{seed}}}"#
                )
            }
            Kind::EpidemicRun => format!(
                r#"{{"type":"run","protocol":"epidemic","n":1000000,"engine":"batchcount","scenario":"single-source","trials":4,"seed":{seed}}}"#
            ),
            Kind::Verify => match self.verify_ns.pop() {
                Some(n) => format!(r#"{{"type":"verify","protocol":"silent-n-state","n":{n}}}"#),
                None => ssr_run(seed),
            },
            _ => ssr_run(seed),
        }
    }

    /// The next line and its class.
    pub fn next_line(&mut self) -> (Class, String) {
        if self.block.is_empty() {
            self.block = MIX.iter().flat_map(|&(c, k)| std::iter::repeat_n(c, k)).collect();
            shuffle(&mut self.block, &mut self.rng);
        }
        let mut kind = self.block.pop().expect("block refilled");
        if kind == Kind::Hit && self.sent.is_empty() {
            kind = Kind::SsrRun;
        }
        let (class, line) = match kind {
            Kind::Hit => (Class::Hit, self.sent[self.rng.gen_range(0..self.sent.len())].clone()),
            Kind::Stats => (Class::Stats, r#"{"type":"stats"}"#.to_owned()),
            Kind::Long => (Class::Long, self.miss_line(kind)),
            _ => (Class::Cheap, self.miss_line(kind)),
        };
        if matches!(class, Class::Long | Class::Cheap) {
            self.sent.push(line.clone());
        }
        (class, line)
    }

    pub fn at_block_start(&self) -> bool {
        self.block.is_empty()
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub client: usize,
    pub index: usize,
    pub class: Class,
    pub line: String,
    pub sent: Instant,
    pub received: Instant,
    pub problem: Option<String>,
    pub response_bytes: usize,
    /// The answer bytes, kept for the first answer of each miss line.
    pub answer: Option<String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.received - self.sent).as_secs_f64() * 1e3
    }
}

/// A server plus connected clients: the workload's set-up.
pub struct Rig {
    server: Server,
    conns: Vec<TcpStream>,
    streams: Vec<Stream>,
}

pub fn rig(seed: u64) -> Rig {
    let server =
        serve(ServerConfig { workers: 1, ..ServerConfig::default() }).expect("loopback bind");
    let conns = (0..CLIENTS)
        .map(|_| {
            let conn = TcpStream::connect(server.addr()).expect("loopback connect");
            conn.set_nodelay(true).expect("nodelay");
            conn
        })
        .collect();
    let streams = (0..CLIENTS).map(|c| Stream::new(seed, c)).collect();
    Rig { server, conns, streams }
}

/// Drives one client until, at a block edge, `done(blocks_completed)` holds
/// or the other client has stopped (each client completes at least
/// `MIN_BLOCKS` blocks).
fn drive(
    client: usize,
    conn: TcpStream,
    mut stream: Stream,
    done: &(dyn Fn(usize) -> bool + Sync),
    stop: &AtomicBool,
) -> Vec<Sample> {
    let mut writer = conn.try_clone().expect("clone socket");
    let mut reader = BufReader::new(conn);
    let mut first: HashMap<String, String> = HashMap::new();
    let mut samples = Vec::new();
    let mut blocks = 0;
    let mut response = String::new();
    loop {
        let (class, line) = stream.next_line();
        let sent = Instant::now();
        writer.write_all(line.as_bytes()).and_then(|_| writer.write_all(b"\n")).expect("send");
        response.clear();
        reader.read_line(&mut response).expect("receive");
        let received = Instant::now();
        let answer = response.trim_end();
        let mut problem = None;
        let mut kept = None;
        if !answer.starts_with(r#"{"ok":true"#) {
            problem = Some(format!("error response to {line}: {answer}"));
        } else if class != Class::Stats {
            match first.get(&line) {
                Some(prev) if prev != answer => {
                    problem = Some(format!("repeat of {line} answered differently"))
                }
                Some(_) => {}
                None => {
                    first.insert(line.clone(), answer.to_owned());
                    kept = Some(answer.to_owned());
                }
            }
        }
        samples.push(Sample {
            client,
            index: samples.len(),
            class,
            line,
            sent,
            received,
            problem,
            response_bytes: answer.len(),
            answer: kept,
        });
        if stream.at_block_start() {
            blocks += 1;
            if blocks >= MIN_BLOCKS && (stop.load(Ordering::Relaxed) || done(blocks)) {
                stop.store(true, Ordering::Relaxed);
                return samples;
            }
        }
    }
}

/// Runs both clients to completion on their own threads.
fn drive_all(rig: Rig, done: &(dyn Fn(usize) -> bool + Sync)) -> (Server, Vec<Sample>, f64) {
    let Rig { server, conns, streams } = rig;
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(c, (conn, stream))| scope.spawn(move || drive(c, conn, stream, done, stop)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    (server, samples, started.elapsed().as_secs_f64())
}

/// The server's own `stats` snapshot, fetched on a fresh connection.
fn stats(addr: SocketAddr) -> Json {
    let mut conn = TcpStream::connect(addr).expect("loopback connect");
    conn.write_all(b"{\"type\":\"stats\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).expect("receive");
    perf::parse(line.trim_end())
        .ok()
        .and_then(|doc| doc.get("result").cloned())
        .unwrap_or(Json::Null)
}

fn stat(doc: &Json, path: &[&str]) -> u64 {
    path.iter().try_fold(doc, |node, key| node.get(key)).and_then(Json::as_f64).unwrap_or(-1.0)
        as u64
}

fn fingerprint(samples: &[Sample]) -> Fingerprint {
    let mut fp = Fingerprint::default();
    for s in samples.iter().filter(|s| s.index < FP_BLOCKS * BLOCK) {
        fp.add(format!("serve.c{}.{}", s.client, s.class.label()), 1);
        if s.class != Class::Stats {
            fp.add(format!("serve.c{}.response_bytes", s.client), s.response_bytes as u64);
        }
    }
    fp
}

/// Server-side consistency: every cacheable line sent was a hit or a miss.
fn check_server(server: &Server, samples: &[Sample], res: &mut RunResult) {
    let snap = stats(server.addr());
    let cacheable = samples.iter().filter(|s| s.class != Class::Stats).count() as u64;
    let (hits, misses) = (stat(&snap, &["cache", "hits"]), stat(&snap, &["cache", "misses"]));
    if hits + misses != cacheable {
        res.problems.push(format!(
            "server counted {hits} hits + {misses} misses for {cacheable} cacheable lines"
        ));
    }
}

/// Re-derives a miss's answer in-process and compares bytes.
fn exec_matches(line: &str, answer: &str) -> Result<(), String> {
    let request = Request::parse_line(line).map_err(|e| format!("{line}: {}", e.message))?;
    let direct = exec::execute(&request).0.to_line();
    if direct == answer {
        Ok(())
    } else {
        Err(format!("server answer to {line} differs from exec::execute"))
    }
}

pub fn run(seed: u64, seconds: f64, setup_reps: usize) -> RunResult {
    let (setup_s, rig) = median_timed(setup_reps, || rig(seed));
    let started = Instant::now();
    let done = move |blocks: usize| {
        blocks >= MIN_BLOCKS && !another_round(blocks, started.elapsed().as_secs_f64(), seconds)
    };
    let (server, samples, wall) = drive_all(rig, &done);
    let mut res = RunResult::default();
    for s in &samples {
        res.attempted += 1;
        if let Some(p) = &s.problem {
            res.fail(p.clone());
        }
    }
    check_server(&server, &samples, &mut res);
    server.shutdown();
    sampled_checks(seed, &samples, &mut res);
    res.fingerprint = fingerprint(&samples);

    let all: Vec<f64> = samples.iter().map(Sample::ms).collect();
    let cheap: Vec<f64> =
        samples.iter().filter(|s| s.class != Class::Long).map(Sample::ms).collect();
    let m = &mut res.metrics;
    m.put("setup_s", setup_s, "s");
    m.put_n("ops_per_s", samples.len() as f64 / wall, "1/s", samples.len());
    m.put_n("req_ms.p50", median(&all), "ms", all.len());
    m.put_n("req_ms.p99", quantile(&all, 0.99), "ms", all.len());
    m.put_n("cheap_ms.p99", quantile(&cheap, 0.99), "ms", cheap.len());
    res
}

/// Compares a seeded sample of cheap-miss answers with `exec::execute`.
fn sampled_checks(seed: u64, samples: &[Sample], res: &mut RunResult) {
    let mut misses: Vec<&Sample> =
        samples.iter().filter(|s| s.answer.is_some() && s.class == Class::Cheap).collect();
    shuffle(&mut misses, &mut ChaCha8Rng::seed_from_u64(mix(seed, 0x0043_484b)));
    for s in misses.into_iter().take(SAMPLED_CHECKS) {
        if let Err(e) = exec_matches(&s.line, s.answer.as_deref().unwrap_or_default()) {
            res.problems.push(e);
        }
    }
}

/// Queue wait of each miss, reconstructed from client timestamps: with one
/// worker and two closed-loop clients, a miss waits while the other
/// client's miss sent before it is still unanswered.
fn queue_waits(samples: &[Sample], execute_ms: &HashMap<String, f64>) -> Vec<f64> {
    let misses: Vec<&Sample> = samples.iter().filter(|s| s.answer.is_some()).collect();
    misses
        .iter()
        .map(|m| {
            let blocking = misses
                .iter()
                .filter(|o| o.client != m.client && o.sent <= m.sent && o.received > m.sent)
                .map(|o| (o.received - m.sent).as_secs_f64() * 1e3)
                .fold(0.0, f64::max);
            let ceiling = (m.ms() - execute_ms.get(&m.line).copied().unwrap_or(0.0)).max(0.0);
            blocking.min(ceiling)
        })
        .collect()
}

/// One fixed-length round (FP_BLOCKS blocks per client) on a fresh server.
fn round(seed: u64) -> (Server, Vec<Sample>, f64) {
    drive_all(rig(seed), &|blocks| blocks >= FP_BLOCKS)
}

/// The traced profile: one fixed round untraced, the same round traced
/// (request spans on the client lanes), then every layer of the request
/// path timed alone on the round's lines.
pub fn profile(seed: u64, tr: &Tracer, layers: &mut Metrics) -> Profile {
    let mut problems = Vec::new();
    let (server, untraced, untraced_s) = round(seed);
    server.shutdown();

    let t0 = Instant::now();
    let (server, samples, _) = tr.span("serve.round", 0, None, || round(seed));
    let traced_s = t0.elapsed().as_secs_f64();
    let root = tr.spans().iter().rposition(|s| s.name == "serve.round");
    let lanes: Vec<u64> = (0..CLIENTS as u64).map(|c| 1_000_000 + c).collect();
    for s in &samples {
        let name = format!("serve.request.{}", s.class.label());
        tr.record(
            &name,
            (s.client * 1_000_000 + s.index) as u64,
            Some(lanes[s.client]),
            root,
            s.sent,
            s.received,
        );
    }
    let snap = stats(server.addr());
    server.shutdown();
    if fingerprint(&untraced) != fingerprint(&samples) {
        problems.push("serve fingerprint differs between untraced and traced rounds".to_owned());
    }
    problems.extend(samples.iter().filter_map(|s| s.problem.clone()));

    // Each layer of the request path, timed alone on the round's lines.
    let cache = ResultCache::new(CacheConfig::default());
    let mut execute_ms: HashMap<String, f64> = HashMap::new();
    let mut exec_by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut parse, mut canon, mut get, mut insert, mut ser) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    tr.span("serve.layers", 0, None, || {
        for (i, s) in samples.iter().enumerate() {
            let op = i as u64;
            let t = Instant::now();
            let request = tr.span("ppsimd.parse", op, None, || Request::parse_line(&s.line));
            parse.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(request) = request else { continue };
            if !request.cacheable() {
                continue;
            }
            let t = Instant::now();
            let key = tr.span("ppsimd.canonical", op, None, || {
                let key = request.canonical_text();
                std::hint::black_box(content_hash(&key));
                key
            });
            canon.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let hit = tr.span("ppsimd.cache_get", op, None, || cache.get(&key));
            get.push(t.elapsed().as_secs_f64() * 1e6);
            if hit.is_some() {
                continue;
            }
            let t = Instant::now();
            let (response, _) = tr.span("ppsimd.execute", op, None, || exec::execute(&request));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            execute_ms.insert(s.line.clone(), ms);
            exec_by_kind.entry(request.kind()).or_default().push(ms);
            let t = Instant::now();
            let line = tr.span("ppsimd.serialize", op, None, || response.to_line());
            ser.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(answer) = &s.answer {
                if *answer != line {
                    problems
                        .push(format!("server answer to {} differs from exec::execute", s.line));
                }
            }
            let t = Instant::now();
            tr.span("ppsimd.cache_insert", op, None, || cache.insert(key, line));
            insert.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    layers.put("ppsimd.parse_us", mean(&parse), "us");
    layers.put("ppsimd.canonical_us", mean(&canon), "us");
    layers.put("ppsimd.cache_get_us", mean(&get), "us");
    layers.put("ppsimd.cache_insert_us", mean(&insert), "us");
    layers.put("ppsimd.serialize_us", mean(&ser), "us");
    for kind in ["run", "expect", "verify"] {
        layers.put(
            format!("ppsimd.execute_ms.{kind}"),
            mean(exec_by_kind.get(kind).map_or(&[][..], |v| v)),
            "ms",
        );
    }
    let wait_ms = queue_waits(&samples, &execute_ms);
    layers.put("ppsimd.queue_wait_ms.p50", median(&wait_ms), "ms");
    layers.put("ppsimd.queue_wait_ms.p99", quantile(&wait_ms, 0.99), "ms");
    let cacheable = samples.iter().filter(|s| s.class != Class::Stats).count() as f64;
    layers.put(
        "ppsimd.cache.hit_ratio",
        ratio(stat(&snap, &["cache", "hits"]) as f64, cacheable),
        "ratio",
    );
    layers.put("ppsimd.overloaded", stat(&snap, &["overloaded"]) as f64, "count");

    // Attribution: what the layer timings and queue waits explain of the
    // clients' round trips; the rest is loopback, syscalls and hand-offs.
    let front = mean(&parse) + mean(&canon) + mean(&get);
    let back = mean(&insert) + mean(&ser);
    let total_ms: f64 = samples.iter().map(Sample::ms).sum();
    let mut explained_ms = samples.len() as f64 * front / 1e3;
    for s in samples.iter().filter(|s| s.answer.is_some()) {
        explained_ms += execute_ms.get(&s.line).copied().unwrap_or(0.0) + back / 1e3;
    }
    let queued_ms: f64 = wait_ms.iter().sum();
    println!(
        "serve attribution: {total_ms:.1} ms of round trips; layers timed alone explain {explained_ms:.1} ms, queue waits {queued_ms:.1} ms"
    );
    explained_ms += queued_ms;
    layers.put("trace.unattributed_frac.serve", ratio(total_ms - explained_ms, total_ms), "ratio");
    Profile {
        untraced_s,
        traced_s,
        operations: samples.len() as u64,
        problems,
        known_failures: Vec::new(),
    }
}
