//! Wire-level end-to-end run against a `reproduce serve` process.
//!
//! ```text
//! perfbench-e2e --workload <eval_distinct|eval_batch_hot> --seed <n>
//!               --seconds <s> --reproduce <path> --clk-tck <hz>
//! ```
//!
//! Starts the shipped default query plane (`reproduce serve --iterations 0
//! --port 0`) [`SETUPS`] times and reports the median spawn → first
//! correct `200` time, warms the last server up, then drives it open loop
//! for `--seconds`: Poisson arrivals from the shared seeded generator,
//! two client threads, at most one connection each. Every request is
//! timed from its *due* time, so a stalled server or a late generator
//! shows in the latency. After the timed window the server is stopped and
//! every answer is compared bit for bit with `evaluate_query` on a fresh
//! context in this process. Report lines go to stdout; the last line is
//! one JSON object that `perfbench/run.py` reads.
//!
//! Besides the items the shared generator names, this path uses only the
//! `uavail-obs` JSON reader.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use perfbench_harness::{
    http_request, median, quantile, reference, references, Plan, Workload, HOT_BATCH, HOT_SET,
};
use uavail_obs::json::{self, JsonValue};
use uavail_serve::eval::{EvalQuery, QueryClass};
use uavail_travel::TaParameters;

/// Spawns of the server behind the set-up median; the last one is driven.
const SETUPS: usize = 7;
/// Client threads, each holding at most one connection.
const CLIENT_THREADS: usize = 2;
/// A request with no complete answer after this long has failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a phase may run past its last due time.
const PHASE_GRACE: Duration = Duration::from_secs(30);
/// Untimed open-loop warm-up of `eval_distinct`, seconds.
const DISTINCT_WARMUP_S: f64 = 0.5;
/// `eval_batch_hot` warm-up stops after this many consecutive passes over
/// the hot set in which no point missed a worker's availability memo.
const HOT_CLEAN_PASSES: usize = 3;
const HOT_MAX_PASSES: usize = 200;
/// A percentile needs at least ten samples beyond it: a p99 window holds
/// at least this many requests.
const MIN_SAMPLES: usize = 1001;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    reproduce: PathBuf,
    /// Kernel clock ticks per second, the unit of `/proc/<pid>/stat` CPU.
    clk_tck: f64,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut reproduce = None;
        let mut clk_tck = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--reproduce" => reproduce = Some(PathBuf::from(value)),
                "--clk-tck" => clk_tck = Some(value.parse::<f64>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            reproduce: reproduce.ok_or("--reproduce is required")?,
            clk_tck: clk_tck.ok_or("--clk-tck is required")?,
        })
    }
}

fn run(args: &Args) -> Result<String, String> {
    // Set-up: spawn → first correct 200, several times; keep the last.
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let (s, secs) = Server::start(&args.reproduce)?;
        setup_s.push(secs);
        if k + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    println!(
        "setup: {} spawns of `reproduce serve`, spawn -> first correct 200 median {:.2} ms (min {:.2}, max {:.2})",
        setup_s.len(),
        median(&setup_s) * 1e3,
        setup_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        setup_s.iter().copied().fold(0.0, f64::max) * 1e3,
    );

    let mut phases = Vec::new();
    let mut wrong = 0usize;
    let mut refs = References::default();

    // Warm-up, untimed: lazy set-up and, for the hot workload, the memos.
    match args.workload {
        Workload::Distinct => {
            let plan = Plan::warmup(Workload::Distinct, args.seed, DISTINCT_WARMUP_S);
            let records = open_loop(server.addr, &plan);
            let tally = verify(&plan, &records, &mut refs);
            wrong += tally.wrong;
            phases.push(("warmup", tally));
        }
        Workload::BatchHot => phases.push(("warmup", warm_hot_set(&server, args.seed, &mut refs)?)),
    }

    let plan = Plan::timed(args.workload, args.seed, args.seconds);
    if plan.requests.len() < MIN_SAMPLES {
        return Err(format!(
            "{} timed requests; a p99 needs at least {MIN_SAMPLES}: raise --seconds",
            plan.requests.len()
        ));
    }
    let slo0 = server.get_json("/slo")?;
    let m0 = server.metrics()?;
    let cpu0 = server.cpu_seconds(args.clk_tck)?;
    let wall = Instant::now();
    let records = open_loop(server.addr, &plan);
    let cpu1 = server.cpu_seconds(args.clk_tck)?;
    let m1 = server.metrics()?;
    let slo1 = server.get_json("/slo")?;
    let wall_s = wall.elapsed().as_secs_f64();
    server.stop()?;

    // Everything below runs after the timed window.
    let timed = verify(&plan, &records, &mut refs);
    wrong += timed.wrong;
    // Latency from the due time, in request order; a failed request
    // counts as infinitely slow.
    let in_order: Vec<f64> = records
        .iter()
        .zip(&plan.due_ns)
        .zip(&timed.ok)
        .map(|((r, &due), &ok)| {
            if ok {
                (r.done_ns - due) as f64 / 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let window_p99s = window_p99s(&in_order);
    let p99 = median(&window_p99s);
    let mut latency_us = in_order;
    latency_us.sort_by(f64::total_cmp);
    let mut late_us: Vec<f64> = records
        .iter()
        .zip(&plan.due_ns)
        .map(|(r, &due)| r.send_ns.saturating_sub(due) as f64 / 1e3)
        .collect();
    late_us.sort_by(f64::total_cmp);
    let n = latency_us.len();
    let beyond_p99 = n - (0.99 * n as f64).ceil() as usize;
    let answered_queries: usize = plan
        .requests
        .iter()
        .zip(&timed.ok)
        .filter(|(_, &ok)| ok)
        .map(|(q, _)| q.len())
        .sum();
    let cpu_us_per_query = (cpu1 - cpu0) * 1e6 / answered_queries.max(1) as f64;
    phases.push(("timed", timed));

    for (name, t) in &phases {
        println!(
            "phase {name}: attempted {} succeeded {} failed {} (non-200 {}, transport {}, error items {}, wrong bits {}); degraded answers {}",
            t.attempted,
            t.attempted - t.failed,
            t.failed,
            t.non_200,
            t.transport,
            t.error_items,
            t.wrong,
            t.degraded
        );
        for (msg, count) in &t.examples {
            println!("  {count} x {msg}");
        }
    }
    println!(
        "latency from due time over {n} samples: p50 {:.1} us; p99 {p99:.1} us, the median of {} window p99s over >= {MIN_SAMPLES} requests each (whole-run p99 {:.1} us, {beyond_p99} samples beyond it); generator lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us",
        quantile(&latency_us, 0.5),
        window_p99s.len(),
        quantile(&latency_us, 0.99),
        quantile(&late_us, 0.5),
        quantile(&late_us, 0.99),
        late_us[n - 1],
    );
    println!(
        "server CPU over the timed window: {:.3} s for {answered_queries} queries = {cpu_us_per_query:.2} us/query",
        cpu1 - cpu0
    );

    // Per-layer figures from the counters the plane exports.
    let mut layers = wire_layers(&plan, &records, &m0, &m1, &slo0, &slo1, wall_s)?;
    layers.push(("client.late_p50_us", quantile(&late_us, 0.5)));
    layers.push(("client.late_p99_us", quantile(&late_us, 0.99)));
    layers.push(("client.req_samples", n as f64));
    layers.push(("client.req_p99_whole_us", quantile(&latency_us, 0.99)));
    let mut design_errors = Vec::new();
    let hit_metrics = [
        "memo.point_hit_rate",
        "memo.farm_hit_rate",
        "memo.loss_cache_hit_rate",
    ];
    for name in hit_metrics {
        let v = layers.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        let v = v.expect("hit-rate metric computed");
        if args.workload == Workload::Distinct && v == 1.0 {
            // Fresh draws cannot all hit: the layer's solver no longer
            // records solves, so this layer cannot be checked.
            println!("workload check skipped: {name} has no solve counter to read");
            continue;
        }
        let ok = match args.workload {
            Workload::Distinct => v <= 0.01,
            Workload::BatchHot => v >= 0.99,
        };
        if !ok {
            design_errors.push(format!("{name} = {v:.4} contradicts the workload's design"));
        }
    }
    for e in &design_errors {
        println!("workload check FAILED: {e}");
    }
    let failed: usize = phases.iter().map(|(_, t)| t.failed).sum();
    let attempted_all: usize = phases.iter().map(|(_, t)| t.attempted).sum();
    let correct = wrong == 0 && design_errors.is_empty();

    let mut fields = vec![
        format!("\"correct\":{correct}"),
        format!("\"attempted\":{attempted_all}"),
        format!("\"failed\":{failed}"),
        format!("\"setup_s\":{}", median(&setup_s)),
        format!("\"req_p50_us\":{}", json_number(quantile(&latency_us, 0.5))),
        format!("\"req_p99_us\":{}", json_number(p99)),
        format!(
            "\"server_cpu_us_per_query\":{}",
            json_number(cpu_us_per_query)
        ),
    ];
    let layer_fields: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_number(*v)))
        .collect();
    fields.push(format!("\"layers\":{{{}}}", layer_fields.join(",")));
    Ok(format!("{{{}}}", fields.join(",")))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The p99 of each run of [`MIN_SAMPLES`] or more consecutive latencies.
/// Their median is the reported tail: a burst of host-level stalls
/// inflates one window's p99 instead of the whole run's.
fn window_p99s(latency_us: &[f64]) -> Vec<f64> {
    let windows = (latency_us.len() / MIN_SAMPLES).max(1);
    let size = latency_us.len() / windows;
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                latency_us.len()
            } else {
                (w + 1) * size
            };
            let mut v = latency_us[w * size..end].to_vec();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.99)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Server process

struct Server {
    child: Child,
    /// Kept open for the server's lifetime: a closed pipe would make its
    /// next status line fail.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `reproduce serve` and waits for the first correct answer to
    /// the paper-default query. Returns the server and the elapsed seconds.
    fn start(reproduce: &PathBuf) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(reproduce)
            .args(["serve", "--iterations", "0", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", reproduce.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("reproduce serve exited before printing its address".into());
            }
            if let Some(rest) = line.trim().split("listening on http://").nth(1) {
                break rest
                    .trim()
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad listening address {rest:?}: {e}"))?;
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let expected = reference(&EvalQuery {
            params: TaParameters::paper_defaults(),
            class: QueryClass::WebService,
        })?;
        if format!("{expected:.9}") != "0.999995587" {
            return Err(format!(
                "reference A(WS) {expected} misses the paper's 0.999995587"
            ));
        }
        let request = post_bytes(addr, "{\"queries\":[{}]}");
        loop {
            let mut conn = None;
            let mut connects = 0;
            if let Ok(resp) = exchange(addr, &mut conn, &request, &mut connects) {
                if resp.status == 200 {
                    let values = availabilities(&resp.body, &mut 0)?;
                    if values.len() == 1 && values[0].as_ref().ok() == Some(&expected.to_bits()) {
                        return Ok((server, t0.elapsed().as_secs_f64()));
                    }
                    return Err(format!(
                        "first answer to the paper-default query is wrong: {}",
                        String::from_utf8_lossy(&resp.body)
                    ));
                }
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("no 200 from /eval within 30 s of spawn".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, String> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr);
        let mut conn = None;
        let mut connects = 0;
        let resp = exchange(self.addr, &mut conn, request.as_bytes(), &mut connects)?;
        if resp.status != 200 {
            return Err(format!("GET {path} answered {}", resp.status));
        }
        Ok(resp.body)
    }

    fn get_json(&self, path: &str) -> Result<JsonValue, String> {
        let body = self.get(path)?;
        json::parse(&String::from_utf8_lossy(&body))
    }

    /// `/metrics` as a map from series (with labels) to value.
    fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let body = self.get("/metrics")?;
        let mut out = HashMap::new();
        for line in String::from_utf8_lossy(&body).lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        Ok(out)
    }

    /// User + system CPU of the whole server process (all threads), from
    /// the kernel's per-process accounting.
    fn cpu_seconds(&self, clk_tck: f64) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let after = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
        let fields: Vec<&str> = after.split_whitespace().collect();
        // Fields 14 and 15 of stat(5); `after` starts at field 3.
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i - 3)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(14)? + ticks(15)?) / clk_tck)
    }

    /// Asks for `/shutdown` and waits for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = self.get("/shutdown");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("reproduce serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("reproduce serve did not exit within 10 s of /shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// HTTP/1.1 client

struct Response {
    status: u16,
    body: Vec<u8>,
    /// Bytes received, head included.
    bytes_in: usize,
    keep_alive: bool,
}

fn post_bytes(addr: SocketAddr, body: &str) -> Vec<u8> {
    http_request(&addr.to_string(), body)
}

/// Sends one request and reads one response. A connection is reused
/// whenever the previous response did not carry `Connection: close`; a
/// reused connection that the server closed before answering is retried
/// once on a fresh one.
fn exchange(
    addr: SocketAddr,
    conn: &mut Option<TcpStream>,
    request: &[u8],
    connects: &mut u32,
) -> Result<Response, String> {
    loop {
        let reused = conn.is_some();
        if conn.is_none() {
            let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
            *conn = Some(stream);
            *connects += 1;
        }
        let stream = conn.as_mut().expect("connection just ensured");
        let result = stream
            .write_all(request)
            .map_err(|e| (false, format!("send: {e}")))
            .and_then(|()| read_response(stream));
        match result {
            Ok(resp) => {
                if !resp.keep_alive {
                    *conn = None;
                }
                return Ok(resp);
            }
            Err((got_bytes, msg)) => {
                *conn = None;
                if reused && !got_bytes {
                    continue;
                }
                return Err(msg);
            }
        }
    }
}

/// Reads one response; the error flag says whether any byte arrived.
fn read_response(stream: &mut TcpStream) -> Result<Response, (bool, String)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err((
                    !buf.is_empty(),
                    "connection closed before the response head".into(),
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err((!buf.is_empty(), format!("receive: {e}"))),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or((true, format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let body_start = head_end + 4;
    loop {
        let have = buf.len() - body_start;
        if content_length.is_some_and(|len| have >= len) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) if content_length.is_none() => {
                keep_alive = false;
                break;
            }
            Ok(0) => return Err((true, "connection closed inside the response body".into())),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err((true, format!("receive: {e}"))),
        }
    }
    let body_end = content_length.map_or(buf.len(), |len| body_start + len);
    Ok(Response {
        status,
        body: buf[body_start..body_end].to_vec(),
        bytes_in: body_end,
        keep_alive,
    })
}

// ---------------------------------------------------------------------------
// Open-loop client

struct Record {
    /// Nanoseconds after the phase start.
    send_ns: u64,
    done_ns: u64,
    connects: u32,
    bytes_out: usize,
    outcome: Result<Response, String>,
}

/// Sends `plan`'s requests on its schedule from [`CLIENT_THREADS`]
/// threads that pull the next due request from a shared counter. A
/// request due while both threads are busy waits for one, and that wait
/// counts in its latency.
fn open_loop(addr: SocketAddr, plan: &Plan) -> Vec<Record> {
    let requests: Vec<Vec<u8>> = (0..plan.requests.len())
        .map(|i| post_bytes(addr, &plan.body(i)))
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    // Past this point requests are failed unsent, so a wedged server
    // cannot hold the run (and the server process) open.
    let deadline =
        start + Duration::from_nanos(plan.due_ns.last().copied().unwrap_or(0)) + PHASE_GRACE;
    let mut indexed: Vec<(usize, Record)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = None;
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            return out;
                        }
                        let due = start + Duration::from_nanos(plan.due_ns[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let send = Instant::now();
                        let mut connects = 0;
                        let outcome = if send > deadline {
                            Err("not sent: the phase overran its deadline".to_string())
                        } else {
                            exchange(addr, &mut conn, &requests[i], &mut connects)
                        };
                        let done = Instant::now();
                        out.push((
                            i,
                            Record {
                                send_ns: send.duration_since(start).as_nanos() as u64,
                                done_ns: done.duration_since(start).as_nanos() as u64,
                                connects,
                                bytes_out: requests[i].len(),
                                outcome,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// `eval_batch_hot` warm-up: sends the whole hot set in order, two
/// requests at a time, until [`HOT_CLEAN_PASSES`] consecutive passes add
/// no availability computation on the server — every hot point then sits
/// in the memo of whichever worker answers it.
fn warm_hot_set(server: &Server, seed: u64, refs: &mut References) -> Result<Tally, String> {
    let hot = Plan {
        queries: perfbench_harness::hot_set(seed),
        requests: (0..HOT_SET / HOT_BATCH)
            .map(|b| (b * HOT_BATCH..(b + 1) * HOT_BATCH).collect())
            .collect(),
        due_ns: vec![0; HOT_SET / HOT_BATCH],
    };
    let mut tally = Tally::default();
    let mut clean = 0;
    for _ in 0..HOT_MAX_PASSES {
        let before = server.metrics()?;
        let records = open_loop(server.addr, &hot);
        let after = server.metrics()?;
        let pass = verify(&hot, &records, refs);
        if pass.failed > 0 {
            let why = pass.examples.first().map_or("", |(m, _)| m.as_str());
            return Err(format!("hot-set warm-up request failed: {why}"));
        }
        tally.attempted += pass.attempted;
        tally.degraded += pass.degraded;
        if delta(&before, &after, COMPOSITE_COUNT) == 0.0 {
            clean += 1;
            if clean == HOT_CLEAN_PASSES {
                return Ok(tally);
            }
        } else {
            clean = 0;
        }
    }
    Err(format!(
        "hot set still missing the workers' memos after {HOT_MAX_PASSES} warm-up passes"
    ))
}

// ---------------------------------------------------------------------------
// Correctness

/// Reference answers, computed once per distinct query (keyed by its wire
/// form).
#[derive(Default)]
struct References(HashMap<String, Result<u64, String>>);

impl References {
    /// Computes every missing reference of `plan` up front, in parallel.
    fn fill(&mut self, plan: &Plan) {
        let mut missing: Vec<&perfbench_harness::Query> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &q in plan.requests.iter().flatten() {
            let query = &plan.queries[q];
            if !self.0.contains_key(&query.json) && seen.insert(q) {
                missing.push(query);
            }
        }
        let evals: Vec<&EvalQuery> = missing.iter().map(|q| &q.query).collect();
        for (q, r) in missing.iter().zip(references(&evals)) {
            self.0.insert(q.json.clone(), r.map(f64::to_bits));
        }
    }

    fn get(&self, q: &perfbench_harness::Query) -> Result<u64, String> {
        self.0
            .get(&q.json)
            .cloned()
            .expect("references are filled before verification")
    }
}

#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    non_200: usize,
    transport: usize,
    error_items: usize,
    wrong: usize,
    /// `200` answers flagged `degraded` (served while a solver fell back
    /// or the breaker was open); not failures, but reported.
    degraded: usize,
    /// Per request: answered `200` with every result correct.
    ok: Vec<bool>,
    examples: Vec<(String, usize)>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        if let Some((_, c)) = self.examples.iter_mut().find(|(m, _)| *m == msg) {
            *c += 1;
        } else if self.examples.len() < 8 {
            self.examples.push((msg, 1));
        }
    }
}

/// Classifies every response of `plan`: a request fails on a transport
/// error, a status other than `200`, an `error` item, or any availability
/// whose bits differ from the reference.
fn verify(plan: &Plan, records: &[Record], refs: &mut References) -> Tally {
    refs.fill(plan);
    let mut t = Tally::default();
    for (i, record) in records.iter().enumerate() {
        t.attempted += 1;
        let ok = match &record.outcome {
            Err(e) => {
                t.transport += 1;
                t.note(format!("transport: {e}"));
                false
            }
            Ok(resp) if resp.status != 200 => {
                t.non_200 += 1;
                t.note(format!("status {}", resp.status));
                false
            }
            Ok(resp) => match availabilities(&resp.body, &mut t.degraded) {
                Err(e) => {
                    t.error_items += 1;
                    t.note(format!("unparseable body: {e}"));
                    false
                }
                Ok(values) if values.len() != plan.requests[i].len() => {
                    t.error_items += 1;
                    t.note("result count differs from query count".into());
                    false
                }
                Ok(values) => {
                    let mut all = true;
                    for (value, &q) in values.iter().zip(&plan.requests[i]) {
                        match (value, refs.get(&plan.queries[q])) {
                            (Err(msg), _) => {
                                t.error_items += 1;
                                t.note(format!("error item: {msg}"));
                                all = false;
                            }
                            (Ok(bits), Ok(expected)) if *bits == expected => {}
                            (Ok(bits), expected) => {
                                t.wrong += 1;
                                t.note(format!(
                                    "wrong bits: served {} expected {:?} for {}",
                                    f64::from_bits(*bits),
                                    expected.map(f64::from_bits),
                                    plan.queries[q].json
                                ));
                                all = false;
                            }
                        }
                    }
                    all
                }
            },
        };
        if !ok {
            t.failed += 1;
        }
        t.ok.push(ok);
    }
    t
}

/// The availability bits of each result item, or the item's error text.
fn availabilities(body: &[u8], degraded: &mut usize) -> Result<Vec<Result<u64, String>>, String> {
    let root = json::parse(&String::from_utf8_lossy(body))?;
    if root.get("degraded") == Some(&JsonValue::Bool(true)) {
        *degraded += 1;
    }
    let results = root
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("no \"results\" array")?;
    Ok(results
        .iter()
        .map(|item| {
            if let Some(err) = item.get("error") {
                return Err(err.as_str().map_or_else(|| err.to_string(), str::to_string));
            }
            // The parser reads numbers with `f64::from_str`, so the bits
            // are exactly those the server printed.
            item.get("availability")
                .and_then(JsonValue::as_f64)
                .map(f64::to_bits)
                .ok_or_else(|| format!("no numeric availability in {item}"))
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Per-layer figures from /metrics and /slo

/// Solver work counters: each layer records one health sample per solve.
const COMPOSITE_COUNT: &str = "uavail_health_core_composite_prob_drift{stat=\"count\"}";
const GTH_COUNT: &str = "uavail_health_markov_gth_residual{stat=\"count\"}";
const MMCK_COUNT: &str = "uavail_health_queueing_mmck_norm_error{stat=\"count\"}";

fn delta(m0: &HashMap<String, f64>, m1: &HashMap<String, f64>, key: &str) -> f64 {
    m1.get(key).copied().unwrap_or(0.0) - m0.get(key).copied().unwrap_or(0.0)
}

fn wire_layers(
    plan: &Plan,
    records: &[Record],
    m0: &HashMap<String, f64>,
    m1: &HashMap<String, f64>,
    slo0: &JsonValue,
    slo1: &JsonValue,
    wall_s: f64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let queries = plan.query_count() as f64;
    let needed_losses: f64 = plan
        .requests
        .iter()
        .flatten()
        .map(|&q| plan.queries[q].query.params.web_servers as f64)
        .sum();
    let connects: u32 = records.iter().map(|r| r.connects).sum();
    let bytes: usize = records
        .iter()
        .map(|r| r.bytes_out + r.outcome.as_ref().map_or(0, |resp| resp.bytes_in))
        .sum();

    let q = |slo: &JsonValue, key: &str| -> Result<f64, String> {
        slo.get("queueing")
            .and_then(|b| b.get(key))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("/slo has no numeric queueing.{key}"))
    };
    // Cumulative busy time is completions / μ̂.
    let busy = |slo: &JsonValue| -> Result<f64, String> {
        let rate = q(slo, "service_rate")?;
        Ok(if rate > 0.0 {
            q(slo, "completions")? / rate
        } else {
            0.0
        })
    };
    let completions = q(slo1, "completions")? - q(slo0, "completions")?;
    let busy_s = busy(slo1)? - busy(slo0)?;
    let workers = q(slo1, "workers")?;
    let arrivals = q(slo1, "arrivals")? - q(slo0, "arrivals")?;

    // Little's law on the request path (client backlog + wire + pool):
    // N sampled at the Poisson due instants (PASTA) against X·R.
    let mut done: Vec<u64> = records.iter().map(|r| r.done_ns).collect();
    done.sort_unstable();
    let mut in_system = 0.0;
    for (i, &due) in plan.due_ns.iter().enumerate() {
        let finished = done.partition_point(|&d| d <= due);
        in_system += (i - finished.min(i)) as f64;
    }
    let n_pasta = in_system / plan.due_ns.len() as f64;
    let horizon_s = *plan.due_ns.last().expect("non-empty plan") as f64 / 1e9;
    let x = records.len() as f64 / horizon_s;
    let r_s = records
        .iter()
        .zip(&plan.due_ns)
        .map(|(r, &due)| (r.done_ns - due) as f64 / 1e9)
        .sum::<f64>()
        / records.len() as f64;

    Ok(vec![
        (
            "http.connects_per_req",
            connects as f64 / records.len() as f64,
        ),
        ("http.bytes_per_query", bytes as f64 / queries),
        ("pool.service_us", busy_s / completions * 1e6),
        ("pool.busy_share", busy_s / (workers * wall_s)),
        (
            "pool.shed_share",
            (q(slo1, "shed")? - q(slo0, "shed")?) / arrivals,
        ),
        (
            "pool.littles_law_residual",
            ((n_pasta - x * r_s) / (x * r_s)).abs(),
        ),
        (
            "memo.point_hit_rate",
            1.0 - delta(m0, m1, COMPOSITE_COUNT) / queries,
        ),
        (
            "memo.farm_hit_rate",
            1.0 - delta(m0, m1, GTH_COUNT) / queries,
        ),
        (
            "memo.loss_cache_hit_rate",
            1.0 - delta(m0, m1, MMCK_COUNT) / needed_losses,
        ),
        (
            "memo.stale_served_share",
            (q(slo1, "stale_served")? - q(slo0, "stale_served")?) / completions,
        ),
        (
            "queueing.mmck_calls_per_query",
            delta(m0, m1, MMCK_COUNT) / queries,
        ),
    ])
}
