//! The benchmark's shared seeded workload generator.
//!
//! One generator feeds both the wire client (`perfbench-e2e`) and the
//! traced in-process replay (`perfbench-layers`): the same `--seed` gives
//! the same queries, the same request batches and the same Poisson
//! arrival schedule in both. Every draw is checked with
//! `TaParameters::validate` before it is used, so a request the server
//! rejects points at the server, not at the generator.
//!
//! This file uses only the items the end-to-end path needs (`EvalQuery`,
//! `QueryClass`, `evaluate_query`, `EvalContext`, `TaParameters`), so an
//! API change elsewhere in the workspace can break only the traced run.

use uavail_serve::eval::{evaluate_query, EvalQuery, QueryClass};
use uavail_travel::{EvalContext, TaParameters};

/// Poisson request rate of `eval_distinct`, requests per second: about
/// 15 % of the ~5.5k req/s that two back-to-back clients reach with this
/// traffic against the 2-worker default pool on a quiet 2-core host. At
/// half of capacity the latency spread between identical runs on a shared
/// host was far wider than any usable regression bound (see the notes).
pub const DISTINCT_RATE: f64 = 800.0;

/// Poisson request rate of `eval_batch_hot`, requests per second (each
/// request carries [`HOT_BATCH`] queries): about 25 % of the ~240 req/s
/// two back-to-back clients reach on the same host, and enough requests in
/// a 29 s timed window for more than ten samples beyond the p99.
pub const HOT_RATE: f64 = 60.0;

/// Points in the `eval_batch_hot` working set: far below the per-worker
/// availability memo (16 384 entries) and the stale-answer cache (4096).
pub const HOT_SET: usize = 256;

/// Queries per `eval_batch_hot` request.
pub const HOT_BATCH: usize = 64;

/// Largest farm the generator draws. Table 7 and Figures 11–12 stop at
/// N_W = 10; farms of 140 and more fail on the server (see the notes).
pub const MAX_WEB_SERVERS: usize = 16;

/// Largest input buffer the generator draws. Keeps (α/ν)^K far from
/// overflow: α/ν ≤ 4 gives at most 4^64 ≈ 3.4e38.
pub const MAX_BUFFER: usize = 64;

/// The two wire workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every query a fresh draw, one query per request.
    Distinct,
    /// 64-query requests drawn from a 256-point hot set.
    BatchHot,
}

impl Workload {
    /// Parses the benchmark's workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "eval_distinct" => Some(Workload::Distinct),
            "eval_batch_hot" => Some(Workload::BatchHot),
            _ => None,
        }
    }

    /// Open-loop arrival rate, requests per second.
    pub fn rate(self) -> f64 {
        match self {
            Workload::Distinct => DISTINCT_RATE,
            Workload::BatchHot => HOT_RATE,
        }
    }
}

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: the same `(seed, stream)` pair always
    /// yields the same sequence, and different streams do not overlap in
    /// practice.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponential with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Random-stream identifiers, one per purpose.
const STREAM_TIMED: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_HOT_SET: u64 = 3;
const STREAM_SCHEDULE: u64 = 4;

/// One generated query with its wire form.
#[derive(Debug, Clone)]
pub struct Query {
    pub query: EvalQuery,
    /// The query's JSON object, floats in Rust's round-trip `{}` form so
    /// the server parses exactly the drawn bits.
    pub json: String,
}

/// Draws one query: every result-affecting farm, queue and composition
/// parameter is fresh. The class mix is 50 % `ws`, 25 % `A`, 25 % `B`.
pub fn draw_query(rng: &mut Rng) -> Query {
    let mut p = TaParameters::paper_defaults();
    p.web_servers = rng.int(1, MAX_WEB_SERVERS);
    p.buffer_size = rng.int(p.web_servers, MAX_BUFFER);
    p.failure_rate_per_hour = rng.log_uniform(1e-5, 1e-2);
    p.repair_rate_per_hour = rng.log_uniform(0.1, 10.0);
    p.coverage = rng.uniform(0.9, 0.999);
    p.reconfiguration_rate_per_hour = rng.log_uniform(1.0, 60.0);
    p.arrival_rate_per_second = rng.uniform(20.0, 200.0);
    p.service_rate_per_second = rng.uniform(50.0, 200.0);
    p.q23 = rng.uniform(0.05, 0.95);
    p.q24 = 1.0 - p.q23;
    p.q45 = rng.uniform(0.05, 0.95);
    p.q47 = 1.0 - p.q45;
    p.validate()
        .expect("the generator draws only valid parameter points");
    let class = match rng.int(0, 3) {
        0 | 1 => QueryClass::WebService,
        2 => QueryClass::ClassA,
        _ => QueryClass::ClassB,
    };
    let json = format!(
        concat!(
            "{{\"web_servers\":{},\"buffer_size\":{},\"failure_rate_per_hour\":{},",
            "\"repair_rate_per_hour\":{},\"coverage\":{},\"reconfiguration_rate_per_hour\":{},",
            "\"arrival_rate_per_second\":{},\"service_rate_per_second\":{},",
            "\"q23\":{},\"q24\":{},\"q45\":{},\"q47\":{},\"class\":\"{}\"}}"
        ),
        p.web_servers,
        p.buffer_size,
        p.failure_rate_per_hour,
        p.repair_rate_per_hour,
        p.coverage,
        p.reconfiguration_rate_per_hour,
        p.arrival_rate_per_second,
        p.service_rate_per_second,
        p.q23,
        p.q24,
        p.q45,
        p.q47,
        class.name(),
    );
    Query {
        query: EvalQuery { params: p, class },
        json,
    }
}

/// A generated request stream: a query table, each request's indices
/// into it, and each request's due time on the open-loop schedule.
#[derive(Debug)]
pub struct Plan {
    pub queries: Vec<Query>,
    pub requests: Vec<Vec<usize>>,
    /// Due time of each request, nanoseconds after the phase starts.
    pub due_ns: Vec<u64>,
}

impl Plan {
    /// The timed plan of `workload` for `seconds` of Poisson arrivals.
    pub fn timed(workload: Workload, seed: u64, seconds: f64) -> Plan {
        Plan::build(workload, seed, STREAM_TIMED, seconds)
    }

    /// An untimed warm-up plan drawn from its own stream, so warm-up
    /// never pre-answers a timed `eval_distinct` query.
    pub fn warmup(workload: Workload, seed: u64, seconds: f64) -> Plan {
        Plan::build(workload, seed, STREAM_WARMUP, seconds)
    }

    fn build(workload: Workload, seed: u64, stream: u64, seconds: f64) -> Plan {
        let mut schedule = Rng::new(seed, stream * 16 + STREAM_SCHEDULE);
        let mut due_ns = Vec::new();
        let mut t = schedule.exponential(workload.rate());
        while t < seconds {
            due_ns.push((t * 1e9) as u64);
            t += schedule.exponential(workload.rate());
        }
        let mut draws = Rng::new(seed, stream);
        match workload {
            Workload::Distinct => Plan {
                queries: (0..due_ns.len()).map(|_| draw_query(&mut draws)).collect(),
                requests: (0..due_ns.len()).map(|i| vec![i]).collect(),
                due_ns,
            },
            Workload::BatchHot => Plan {
                queries: hot_set(seed),
                requests: (0..due_ns.len())
                    .map(|_| (0..HOT_BATCH).map(|_| draws.int(0, HOT_SET - 1)).collect())
                    .collect(),
                due_ns,
            },
        }
    }

    /// The `/eval` body of request `i`.
    pub fn body(&self, i: usize) -> String {
        let items: Vec<&str> = self.requests[i]
            .iter()
            .map(|&q| self.queries[q].json.as_str())
            .collect();
        format!("{{\"queries\":[{}]}}", items.join(","))
    }

    /// Number of queries across all requests.
    pub fn query_count(&self) -> usize {
        self.requests.iter().map(Vec::len).sum()
    }
}

/// The exact bytes the wire client sends for one `/eval` body; the traced
/// replay feeds the same bytes to the server's request reader.
pub fn http_request(host: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /eval HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The seeded `eval_batch_hot` working set.
pub fn hot_set(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, STREAM_HOT_SET);
    (0..HOT_SET).map(|_| draw_query(&mut rng)).collect()
}

/// The reference answer: `evaluate_query` on a fresh `EvalContext`, so no
/// memo state can leak between the served and the expected value.
pub fn reference(query: &EvalQuery) -> Result<f64, String> {
    evaluate_query(query, &mut EvalContext::new()).map_err(|e| e.to_string())
}

/// [`reference`] for many queries, split over two threads.
pub fn references(queries: &[&EvalQuery]) -> Vec<Result<f64, String>> {
    let mid = queries.len() / 2;
    let (a, b) = queries.split_at(mid);
    std::thread::scope(|s| {
        let second = s.spawn(|| b.iter().map(|q| reference(q)).collect::<Vec<_>>());
        let mut out: Vec<_> = a.iter().map(|q| reference(q)).collect();
        out.extend(second.join().expect("reference thread panicked"));
        out
    })
}

/// Nearest-rank quantile of sorted samples: the smallest value with at
/// least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = Plan::timed(Workload::BatchHot, 7, 0.2);
        let b = Plan::timed(Workload::BatchHot, 7, 0.2);
        assert_eq!(a.due_ns, b.due_ns);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.body(0), b.body(0));
        let c = Plan::timed(Workload::BatchHot, 8, 0.2);
        assert_ne!(a.body(0), c.body(0));
    }

    #[test]
    fn wire_form_round_trips_through_the_server_parser() {
        let plan = Plan::timed(Workload::Distinct, 3, 0.05);
        for i in 0..plan.requests.len() {
            let parsed = uavail_serve::eval::parse_eval_request(plan.body(i).as_bytes())
                .expect("server accepts every generated body");
            let q = &plan.queries[plan.requests[i][0]].query;
            assert_eq!(parsed.queries[0].params, q.params);
            assert_eq!(parsed.queries[0].class, q.class);
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
