//! `evaluate_mix`: one closed-loop client sending `GET /evaluate` to an
//! in-process `hcft_service::serve`, one connection per request.
//!
//! The request sequence fixes each request's answering tier in advance.
//! The service keeps one trace and one rendered response, so per shape
//! the sequence is: cold `table2` → memo `table2` → warm `full` → memo
//! `full` → warm `table2` → memo `table2`, where `table2` and `full` are
//! the `families=` values. The `table2` response thus comes from all
//! three tiers. The seed orders the shapes; a fixed minority of rank
//! counts the solver's process grid cannot tile is refused with 400.
//!
//! There are nine shapes, so that the p50 of the cold and of the warm
//! `full` requests falls inside one shape's samples, never between two
//! shapes' extremes. The headline is the round's mean warm `full`
//! latency, p50 over rounds: every shape weighs in, not just the middle
//! one.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcft_cluster::ClusteringStrategy;
use hcft_core::evaluate_family_sweep;
use hcft_service::{serve, EvalRequest, EvalService, Server};

use crate::layers::Extra;
use crate::stats::{median, OpLog};
use crate::table2::score_breakdown;
use crate::trace::Tracer;
use crate::{p50, tail_of, Metric, SplitMix, Workload};

/// Machine shapes (nodes, ranks per node), 32 to 1024 ranks.
const SHAPES: [(usize, usize); 9] = [
    (8, 4),
    (16, 4),
    (16, 8),
    (32, 4),
    (32, 8),
    (16, 16),
    (32, 16),
    (64, 8),
    (64, 16),
];

/// Shapes whose rank count the default process grid cannot tile; the
/// service refuses them. One follows every fourth shape.
const ODD: [(usize, usize); 2] = [(5, 3), (7, 3)];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tier {
    /// Trace miss (and response miss).
    Cold,
    /// Trace hit, response miss.
    Warm,
    /// Response hit.
    Memo,
    /// Expected 400.
    Refused,
}

struct Planned {
    target: String,
    query: String,
    tier: Tier,
    /// Latency sample class.
    class: &'static str,
}

pub struct EvaluateMix {
    svc: Arc<EvalService>,
    server: Option<Server>,
    addr: SocketAddr,
    plan: Vec<Planned>,
    /// First response body seen per request target, over the whole run.
    bodies: HashMap<String, String>,
}

fn http_get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("GET {target}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(io)?;
    let mut response = String::new();
    s.read_to_string(&mut response).map_err(io)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {target}: incomplete response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("GET {target}: bad status line {head:?}"))?;
    Ok((status, body.to_string()))
}

/// `(trace hits, trace misses, memo hits, memo misses)` of the service.
fn tier_counts(svc: &EvalService) -> [u64; 4] {
    let (th, tm, _) = svc.trace_cache().stats();
    let (mh, mm) = svc.memo_stats();
    [th, tm, mh, mm]
}

/// The tier a request was answered from, by the service's counters.
fn observed_tier(before: [u64; 4], after: [u64; 4]) -> Option<Tier> {
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    match d[..] {
        [0, 1, 0, 1] => Some(Tier::Cold),
        [1, 0, 0, 1] => Some(Tier::Warm),
        [0, 0, 1, 0] => Some(Tier::Memo),
        [0, 0, 0, 0] => Some(Tier::Refused),
        _ => None,
    }
}

fn plan(seed: u64) -> Vec<Planned> {
    let mut order: Vec<(usize, usize)> = SHAPES.to_vec();
    SplitMix(seed ^ 0xE7A1).shuffle(&mut order);
    let mut out = Vec::new();
    let mut push = |(nodes, ppn): (usize, usize), family: &str, tier: Tier, class: &'static str| {
        let query = format!("nodes={nodes}&ppn={ppn}&families={family}");
        out.push(Planned {
            target: format!("/evaluate?{query}"),
            query,
            tier,
            class,
        });
    };
    for (i, &shape) in order.iter().enumerate() {
        push(shape, "table2", Tier::Cold, "cold");
        push(shape, "table2", Tier::Memo, "memo");
        push(shape, "full", Tier::Warm, "warm");
        push(shape, "full", Tier::Memo, "memo");
        push(shape, "table2", Tier::Warm, "warm_table2");
        push(shape, "table2", Tier::Memo, "memo");
        if i % 4 == 3 {
            push(ODD[i / 4 % ODD.len()], "table2", Tier::Refused, "refused");
        }
    }
    out
}

impl EvaluateMix {
    fn probe(&self, t: &mut Tracer, req: &Planned, log: &mut OpLog) -> Result<(), String> {
        let parsed = EvalRequest::from_query(&req.query).map_err(|e| e.to_string())?;
        match req.tier {
            Tier::Warm => {
                let cfg = parsed.job_config().map_err(|e| e.to_string())?;
                let trace = self.svc.trace_cache().get_or_trace(&cfg);
                let spec = parsed.family_spec();
                t.probe("probe_sweep", |t| {
                    t.span("core.evaluate_family_sweep", |_| {
                        evaluate_family_sweep(&trace, &spec)
                    })
                })
                .map_err(|e| e.to_string())?;
                let strategies = spec.strategies();
                score_breakdown(
                    t,
                    &trace,
                    strategies
                        .iter()
                        .map(|(_, s)| &**s as &dyn ClusteringStrategy),
                )
            }
            Tier::Memo => {
                let start = Instant::now();
                t.probe("probe_memo", |t| {
                    t.span("service.evaluate", |_| self.svc.evaluate(&parsed))
                })
                .map_err(|e| e.to_string())?;
                log.sample("memo_inproc", start.elapsed().as_secs_f64());
                Ok(())
            }
            Tier::Cold | Tier::Refused => Ok(()),
        }
    }
}

impl Workload for EvaluateMix {
    const HEADLINE: &'static str = "warm_round";

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let svc = Arc::new(EvalService::new(1, 1));
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let server = serve("127.0.0.1:0", Arc::clone(&svc), threads)
            .map_err(|e| format!("binding the evaluation server: {e}"))?;
        let addr = server.local_addr();
        let w = EvaluateMix {
            svc,
            server: Some(server),
            addr,
            plan: plan(seed),
            bodies: HashMap::new(),
        };
        // Readiness, then one small evaluation to start the worker pools.
        for target in ["/healthz", "/evaluate?nodes=4&ppn=2"] {
            match http_get(addr, target)? {
                (200, _) => {}
                (status, body) => return Err(format!("GET {target}: {status} {body}")),
            }
        }
        Ok(w)
    }

    fn round(&mut self, t: &mut Tracer, log: &mut OpLog) {
        let mut warm_full = Vec::new();
        for req in &self.plan {
            let before = tier_counts(&self.svc);
            let start = Instant::now();
            let response = t.op("op", |t| {
                t.span("service.http_get", |_| http_get(self.addr, &req.target))
            });
            let secs = start.elapsed().as_secs_f64();
            let tier = observed_tier(before, tier_counts(&self.svc));
            let (status, body) = match response {
                Ok(r) => r,
                Err(e) => {
                    log.fail(e);
                    continue;
                }
            };
            if tier != Some(req.tier) {
                log.fail(format!(
                    "{}: planned {:?}, answered {tier:?}",
                    req.target, req.tier
                ));
                continue;
            }
            if req.tier == Tier::Refused {
                if status == 400 {
                    log.refusal();
                } else {
                    log.fail(format!("{}: expected 400, got {status}", req.target));
                }
                continue;
            }
            if status != 200 {
                log.fail(format!("{}: {status} {}", req.target, body.trim()));
                continue;
            }
            let first = self
                .bodies
                .entry(req.target.clone())
                .or_insert_with(|| body.clone());
            if *first != body {
                log.fail(format!(
                    "{}: {:?} response differs from the first one",
                    req.target, req.tier
                ));
                continue;
            }
            log.ok();
            log.sample(req.class, secs);
            if req.class == "warm" {
                warm_full.push(secs);
            }
            if t.enabled() {
                if let Err(e) = self.probe(t, req, log) {
                    log.fail(e);
                }
            }
        }
        // One sample per complete round: the mean over every shape's warm
        // `full` request. Its p50 over rounds is steadier than the p50 of
        // single requests, which sits inside one shape's few samples.
        if warm_full.len() == SHAPES.len() {
            log.sample(
                "warm_round",
                warm_full.iter().sum::<f64>() / warm_full.len() as f64,
            );
        }
    }

    fn report(&self, log: &OpLog) -> Vec<Metric> {
        vec![
            p50(log, "cold", "evaluate_cold_ms", "ms"),
            p50(log, "warm", "evaluate_warm_ms", "ms"),
            tail_of(log, "warm", "evaluate_warm_tail_ms", "ms"),
            p50(log, "warm_round", "evaluate_warm_round_mean_ms", "ms"),
            p50(log, "warm_table2", "evaluate_warm_table2_ms", "ms"),
            p50(log, "memo", "evaluate_memo_ms", "ms"),
        ]
    }

    fn layers(&mut self, _t: &mut Tracer, log: &OpLog, extra: &mut Extra) {
        let (memo, inproc) = (log.samples("memo"), log.samples("memo_inproc"));
        if !memo.is_empty() && !inproc.is_empty() {
            extra.insert(
                "service.http_overhead_ms",
                (median(memo) - median(inproc)) * 1e3,
            );
        }
        // Computed: work of the cold requests, spread over one round's ops.
        let (mut cells, mut matrix) = (0.0, 0.0);
        for req in self.plan.iter().filter(|r| r.tier == Tier::Cold) {
            let cfg = EvalRequest::from_query(&req.query)
                .and_then(|r| r.job_config())
                .expect("planned cold shapes are valid");
            cells += (cfg.grid.0 * cfg.grid.1) as f64 * cfg.iterations as f64;
            let full = cfg.layout().total_ranks() as f64;
            let app = (cfg.nodes * cfg.app_per_node) as f64;
            matrix += (full * full + app * app) * 8.0;
        }
        let per_round = self.plan.len() as f64;
        extra.insert("tsunami.cell_updates", cells / per_round);
        extra.insert("graph.matrix_bytes", matrix / per_round);
    }

    fn ranks() -> usize {
        64 * 17
    }
}

impl Drop for EvaluateMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
