//! Traced in-process replay: per-layer times for the benchmark's
//! `--trace 1` runs.
//!
//! ```text
//! perfbench-layers --workload <eval_distinct|eval_batch_hot> --seed <n>
//!                  --requests <n> [--trace-out <path>]
//! ```
//!
//! Replays requests of the shared seeded plan through the query plane's
//! own stages, called from here: `read_request` → `parse_eval_request` →
//! `evaluate_query` (on one long-lived, worker-like context) →
//! `render_results` → `write_response`. The next `--requests` requests of
//! the same plan are decomposed query by query: `evaluate_query` on a
//! fresh context, the plain dense farm solve, one `MMcK` loss per
//! operational server count, and the eq. (9) / eq. (10) composition. Each
//! stage records a span (name, start, end, parent, request id); spans stay
//! in memory, are written out as a Chrome trace at the end, and give each
//! layer's self time. The two halves use different requests so that each
//! first meets its queries with the process-wide loss cache as cold as the
//! server's.
//!
//! Tracing overhead is measured apart: the same replay, with the context
//! warmed the same way, alternately untraced and traced.
//!
//! The last stdout line is one JSON object of per-layer metrics.

use std::collections::HashMap;
use std::io::Cursor;
use std::time::Instant;

use perfbench_harness::{hot_set, http_request, median, references, Plan, Workload};
use uavail_core::composite::{composite_availability, CompositeState};
use uavail_queueing::MMcK;
use uavail_serve::eval::{
    evaluate_query, parse_eval_request, render_results, EvalQuery, QueryClass, QueryResult,
};
use uavail_serve::http::{read_request, write_response};
use uavail_travel::user::{class_a, class_b, user_availability};
use uavail_travel::webservice::farm_distribution_imperfect;
use uavail_travel::{functions, services, Architecture, Coverage, EvalContext};

/// Blocks the replay is cut into for the overhead measurement: short
/// paired untraced/traced runs keep a noisy neighbour from landing on one
/// side only.
const OVERHEAD_BLOCKS: usize = 16;
/// Distinct warm-up queries that allocate a worker context's buffers.
const DISTINCT_WARM_QUERIES: usize = 32;
/// A decomposed availability must agree with the served one this closely.
const DECOMPOSE_TOLERANCE: f64 = 1e-12;
/// Parent of a root span.
const ROOT: u32 = u32::MAX;

fn main() {
    match run() {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            std::process::exit(1);
        }
    }
}

/// Span sink. [`Off`] compiles every site away, so the untraced replay
/// runs the bare chain.
trait Rec {
    fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32;
    fn close(&mut self, id: u32);
}

struct Off;

impl Rec for Off {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u32, _: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
}

struct Span {
    name: &'static str,
    parent: u32,
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Rec for Tracer {
    fn open(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    requests: usize,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut requests, mut trace_out) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--requests" => requests = value.parse::<usize>().ok(),
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <eval_distinct|eval_batch_hot> is required")?,
        seed: seed.ok_or("--seed <n> is required")?,
        requests: requests.ok_or("--requests <n> is required")?,
        trace_out,
    })
}

/// The worker-like context the chain runs on, warmed the way the server's
/// workers are before the timed window: distinct warm-up draws allocate
/// its buffers; the hot set fills its memos.
fn warm_context(workload: Workload, seed: u64) -> Result<EvalContext, String> {
    let mut ctx = EvalContext::new();
    let warm: Vec<EvalQuery> = match workload {
        Workload::Distinct => Plan::warmup(workload, seed, 0.1)
            .queries
            .into_iter()
            .take(DISTINCT_WARM_QUERIES)
            .map(|q| q.query)
            .collect(),
        Workload::BatchHot => hot_set(seed).into_iter().map(|q| q.query).collect(),
    };
    for q in &warm {
        evaluate_query(q, &mut ctx).map_err(|e| e.to_string())?;
    }
    Ok(ctx)
}

/// One request through the plane's stages; returns the served values.
fn chain<R: Rec>(
    rec: &mut R,
    req: u32,
    wire: &[u8],
    ctx: &mut EvalContext,
    out: &mut Vec<u8>,
) -> Result<Vec<f64>, String> {
    let root = rec.open("request", ROOT, req);
    let s = rec.open("http.read", root, req);
    let request = read_request(&mut Cursor::new(wire)).map_err(|e| format!("{e:?}"))?;
    rec.close(s);
    let s = rec.open("eval.parse", root, req);
    let parsed = parse_eval_request(&request.body)?;
    rec.close(s);
    let mut values = Vec::with_capacity(parsed.queries.len());
    let mut results = Vec::with_capacity(parsed.queries.len());
    for q in &parsed.queries {
        let s = rec.open("eval.query", root, req);
        let a = evaluate_query(q, ctx).map_err(|e| e.to_string())?;
        rec.close(s);
        values.push(a);
        results.push(QueryResult::Ok {
            availability: a,
            stale: false,
        });
    }
    let s = rec.open("eval.render", root, req);
    let body = format!(
        "{}\n",
        render_results(&parsed.queries, &results, false, false)
    );
    rec.close(s);
    let s = rec.open("http.write", root, req);
    out.clear();
    write_response(out, "200 OK", "application/json", &[], &body);
    rec.close(s);
    rec.close(root);
    Ok(values)
}

/// One request's queries taken apart layer by layer; returns, per query,
/// the fresh-context answer and the recomposed one.
fn decompose<R: Rec>(
    rec: &mut R,
    req: u32,
    queries: &[EvalQuery],
) -> Result<Vec<(f64, f64)>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let root = rec.open("decompose", ROOT, req);
    let mut out = Vec::with_capacity(queries.len());
    for q in queries {
        let p = &q.params;
        let mut fresh = EvalContext::new();
        let s = rec.open("eval.query_cold", root, req);
        let cold = evaluate_query(q, &mut fresh).map_err(|e| err(&e))?;
        rec.close(s);

        let s = rec.open("travel.farm", root, req);
        let (op, y) = farm_distribution_imperfect(p).map_err(|e| err(&e))?;
        rec.close(s);
        let mut states = Vec::with_capacity(op.len() + y.len());
        states.push(CompositeState::new(op[0], 0.0));
        for (i, &pi) in op.iter().enumerate().skip(1) {
            let s = rec.open("queueing.mmck", root, req);
            let loss = MMcK::new(
                p.arrival_rate_per_second,
                p.service_rate_per_second,
                i,
                p.buffer_size,
            )
            .map_err(|e| err(&e))?
            .loss_probability();
            rec.close(s);
            states.push(CompositeState::new(pi, 1.0 - loss));
        }
        states.extend(y.iter().map(|&pi| CompositeState::new(pi, 0.0)));

        let s = rec.open("travel.compose", root, req);
        let a_ws = composite_availability(&states).map_err(|e| err(&e))?;
        let composed = match q.class {
            QueryClass::WebService => a_ws,
            QueryClass::ClassA | QueryClass::ClassB => {
                let class = if q.class == QueryClass::ClassA {
                    class_a()
                } else {
                    class_b()
                };
                let arch = Architecture::Redundant(Coverage::Imperfect);
                let env: HashMap<String, f64> = [
                    (functions::SERVICE_NET, p.a_net),
                    (functions::SERVICE_LAN, p.a_lan),
                    (functions::SERVICE_WEB, a_ws),
                    (
                        functions::SERVICE_APP,
                        services::application(p, arch).map_err(|e| err(&e))?,
                    ),
                    (
                        functions::SERVICE_DB,
                        services::database(p, arch).map_err(|e| err(&e))?,
                    ),
                    (
                        functions::SERVICE_FLIGHT,
                        services::flight(p).map_err(|e| err(&e))?,
                    ),
                    (
                        functions::SERVICE_HOTEL,
                        services::hotel(p).map_err(|e| err(&e))?,
                    ),
                    (
                        functions::SERVICE_CAR,
                        services::car(p).map_err(|e| err(&e))?,
                    ),
                    (functions::SERVICE_PAYMENT, services::payment(p)),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
                user_availability(&class, p, &env).map_err(|e| err(&e))?
            }
        };
        rec.close(s);
        out.push((cold, composed));
    }
    rec.close(root);
    Ok(out)
}

/// The replay: chain requests `0..n`, decomposed requests `n..2n`.
struct Replay {
    wire: Vec<Vec<u8>>,
    decomposed: Vec<Vec<EvalQuery>>,
}

/// What a replay produced: every served value in order, and per
/// decomposed query its fresh-context answer and its recomposed one.
struct ReplayOut {
    served: Vec<f64>,
    parts: Vec<(f64, f64)>,
}

impl Replay {
    /// Replays chain and decomposed requests `range` (indices into each
    /// half).
    fn run<R: Rec>(
        &self,
        rec: &mut R,
        ctx: &mut EvalContext,
        range: std::ops::Range<usize>,
    ) -> Result<ReplayOut, String> {
        let mut buf = Vec::with_capacity(64 * 1024);
        let mut out = ReplayOut {
            served: Vec::new(),
            parts: Vec::new(),
        };
        for i in range.clone() {
            out.served
                .extend(chain(rec, i as u32, &self.wire[i], ctx, &mut buf)?);
        }
        let base = self.wire.len();
        for i in range {
            out.parts
                .extend(decompose(rec, (base + i) as u32, &self.decomposed[i])?);
        }
        Ok(out)
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    // A plan long enough to hold 2n requests at the workload's rate.
    let seconds = 2.0 * args.requests as f64 / args.workload.rate() * 1.5 + 0.5;
    let plan = Plan::timed(args.workload, args.seed, seconds);
    let n = args.requests;
    if plan.requests.len() < 2 * n {
        return Err("plan shorter than the requested replay".into());
    }
    let replay = Replay {
        wire: (0..n)
            .map(|i| http_request("127.0.0.1:0", &plan.body(i)))
            .collect(),
        decomposed: (n..2 * n)
            .map(|i| {
                plan.requests[i]
                    .iter()
                    .map(|&q| plan.queries[q].query.clone())
                    .collect()
            })
            .collect(),
    };

    // The reported pass: first contact with every query.
    let mut ctx = warm_context(args.workload, args.seed)?;
    let mut tracer = Tracer::new();
    let replayed = replay.run(&mut tracer, &mut ctx, 0..n)?;

    // Correctness, untimed: served bits against fresh-context references,
    // and each decomposition against its fresh-context answer.
    let chain_queries: Vec<&EvalQuery> = (0..n)
        .flat_map(|i| plan.requests[i].iter().map(|&q| &plan.queries[q].query))
        .collect();
    let expected = references(&chain_queries);
    for (got, want) in replayed.served.iter().zip(&expected) {
        let want = want
            .as_ref()
            .map_err(|e| format!("reference failed: {e}"))?;
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "replayed answer {got} differs from reference {want}"
            ));
        }
    }
    for &(cold, composed) in &replayed.parts {
        if (cold - composed).abs() > DECOMPOSE_TOLERANCE {
            return Err(format!(
                "decomposition {composed} disagrees with evaluate_query {cold}"
            ));
        }
    }

    // Tracing overhead: each block replayed untraced and traced, in
    // alternating order, each on a context warmed the same way and after
    // the reported pass left the process-wide cache in the same state.
    let (mut untraced, mut ratios) = (0.0, Vec::new());
    let block = n.div_ceil(OVERHEAD_BLOCKS);
    for (b, start) in (0..n).step_by(block).enumerate() {
        let range = start..(start + block).min(n);
        let timed = |traced: bool| -> Result<f64, String> {
            let mut ctx = warm_context(args.workload, args.seed)?;
            let t = Instant::now();
            if traced {
                replay.run(&mut Tracer::new(), &mut ctx, range.clone())?;
            } else {
                replay.run(&mut Off, &mut ctx, range.clone())?;
            }
            Ok(t.elapsed().as_secs_f64())
        };
        let (u, t) = if b % 2 == 0 {
            let u = timed(false)?;
            (u, timed(true)?)
        } else {
            let t = timed(true)?;
            (timed(false)?, t)
        };
        untraced += u;
        ratios.push(t / u - 1.0);
    }
    let overhead_share = median(&ratios);

    let stats = SpanStats::of(&tracer.spans);
    check_spans(&stats)?;
    if let Some(path) = &args.trace_out {
        write_chrome_trace(path, &tracer.spans).map_err(|e| format!("write {path}: {e}"))?;
    }
    let chain_q = chain_queries.len() as f64;
    let per_req = |name: &str| stats.total(name) / n as f64;
    let metrics: Vec<(&str, f64)> = vec![
        ("http.read_us", stats.mean("http.read")),
        ("http.write_us", stats.mean("http.write")),
        (
            "eval.parse_us_per_query",
            stats.total("eval.parse") / chain_q,
        ),
        (
            "eval.render_us_per_query",
            stats.total("eval.render") / chain_q,
        ),
        ("eval.query_cold_us", stats.mean("eval.query_cold")),
        ("eval.query_warm_us", stats.mean("eval.query")),
        ("travel.farm_solve_us", stats.mean("travel.farm")),
        ("queueing.mmck_loss_us", stats.mean("queueing.mmck")),
        ("travel.compose_us", stats.mean("travel.compose")),
        (
            "trace.request_self_us",
            stats.self_total("request") / n as f64,
        ),
        (
            "trace.decompose_self_us",
            stats.self_total("decompose") / n as f64,
        ),
        (
            "trace.worker_stages_us",
            per_req("eval.parse")
                + per_req("eval.query")
                + per_req("eval.render")
                + per_req("http.write"),
        ),
        (
            "trace.overhead_ns_per_span",
            overhead_share * untraced * 1e9 / tracer.spans.len() as f64,
        ),
        ("trace.overhead_share", overhead_share),
    ];
    println!(
        "traced replay: {n} requests ({} queries) through the stages, {n} decomposed; {} spans; untraced replay {:.1} ms; tracing overhead {:+.2} % (median of {} paired blocks)",
        chain_q,
        tracer.spans.len(),
        untraced * 1e3,
        overhead_share * 100.0,
        ratios.len()
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    Ok(format!("{{{}}}", fields.join(",")))
}

/// Fails loudly if a stage recorded no span (a skipped stage would
/// otherwise report zeros).
fn check_spans(stats: &SpanStats) -> Result<(), String> {
    for expected in [
        "request",
        "http.read",
        "eval.parse",
        "eval.query",
        "eval.render",
        "http.write",
        "decompose",
        "eval.query_cold",
        "travel.farm",
        "queueing.mmck",
        "travel.compose",
    ] {
        if stats.count(expected) == 0 {
            return Err(format!("no {expected} span recorded"));
        }
    }
    Ok(())
}

/// Per-name span totals in microseconds: duration and self time (duration
/// minus the part covered by direct children).
struct SpanStats(HashMap<&'static str, (usize, f64, f64)>);

impl SpanStats {
    fn of(spans: &[Span]) -> SpanStats {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: HashMap<&'static str, (usize, f64, f64)> = HashMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - *child as f64 / 1e3;
        }
        SpanStats(by_name)
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |e| e.0)
    }

    fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1)
    }

    fn self_total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.2)
    }

    fn mean(&self, name: &str) -> f64 {
        self.total(name) / self.count(name).max(1) as f64
    }
}

/// Writes the spans as Chrome trace-event JSON (Perfetto, chrome://tracing).
fn write_chrome_trace(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            w,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.req
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}
