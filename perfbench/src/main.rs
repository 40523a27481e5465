//! One benchmark for the hcft workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_table2|evaluate_mix|cluster_replay|campaign_grid|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in a process of its own: it sets up several times
//! (the median is `setup_s`), runs whole rounds of ops until `--seconds`
//! have passed, checks every output, and prints a human-readable report
//! followed by one JSON line with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the same rounds run once untraced and once traced,
//! and the metrics are the per-layer ones (see `README.md`).

mod campaign;
mod evaluate;
mod layers;
mod replay;
mod stats;
mod table2;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, tail, OpLog};
use trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "paper_table2",
    "evaluate_mix",
    "cluster_replay",
    "campaign_grid",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One benchmark workload.
pub trait Workload: Sized {
    /// The op class whose p50 is `op_ms`.
    const HEADLINE: &'static str;

    /// Everything before the first timed op. `dir` is a fresh directory
    /// the workload may write into.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// One round of ops: the smallest unit whose op mix is fixed, so
    /// that every run measures the same mix whatever its length.
    fn round(&mut self, t: &mut Tracer, log: &mut OpLog);

    /// Untimed correctness checks after the timed rounds.
    fn finish(&mut self, _log: &mut OpLog) {}

    /// The end-to-end metrics under the workload's own names, for the
    /// human-readable report.
    fn report(&self, log: &OpLog) -> Vec<Metric>;

    /// Baselines and computed counts of the traced run (`log` holds the
    /// traced phase's samples).
    fn layers(&mut self, _t: &mut Tracer, _log: &OpLog, _extra: &mut layers::Extra) {}

    /// World size whose resolved simmpi configuration the fingerprint
    /// reports.
    fn ranks() -> usize;
}

/// A named measurement with its unit and a note on how it was taken.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

fn unit_scale(unit: &str) -> f64 {
    match unit {
        "s" => 1.0,
        "ms" => 1e3,
        _ => panic!("latency unit {unit} is neither s nor ms"),
    }
}

/// p50 of a sample class as metric `name`, in `unit` (s or ms).
pub fn p50(log: &OpLog, class: &str, name: &str, unit: &'static str) -> Metric {
    let xs = log.samples(class);
    let v = if xs.is_empty() { 0.0 } else { median(xs) };
    Metric::new(
        name,
        v * unit_scale(unit),
        unit,
        format!("p50 of {} {class} samples", xs.len()),
    )
}

/// Tail of a sample class as metric `name`, with its percentile.
pub fn tail_of(log: &OpLog, class: &str, name: &str, unit: &'static str) -> Metric {
    let xs = log.samples(class);
    let (v, pct) = if xs.is_empty() { (0.0, 0.0) } else { tail(xs) };
    Metric::new(
        name,
        v * unit_scale(unit),
        unit,
        format!("p{pct:.1} of {} {class} samples", xs.len()),
    )
}

/// SplitMix64, the benchmark's seeded generator: inputs depend on the
/// seed alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..n` (n is tiny here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag} {value:?} is not a whole number");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Host and configuration fingerprint as a JSON object.
fn fingerprint<W: Workload>(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let resolved = hcft_simmpi::WorldConfig::default()
        .resolve(W::ranks())
        .map(|r| {
            format!(
                "{{\"ranks\": {}, \"engine\": \"{:?}\", \"workers\": {}, \"shards\": {}, \"steal\": {}}}",
                W::ranks(),
                r.engine,
                r.workers,
                r.mailbox_shards,
                r.steal
            )
        })
        .unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"));
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rayon_threads\": {}, \"simmpi\": {resolved}, \"gf_kernel\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        hcft_erasure::kernel::active().name()
    )
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's peak resident set (`VmHWM`) to its current size.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Run whole rounds until `seconds` have passed (at least one round);
/// returns each round's peak resident set, MiB.
fn timed_rounds<W: Workload>(w: &mut W, t: &mut Tracer, log: &mut OpLog, seconds: u64) -> Vec<f64> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut peaks = Vec::new();
    loop {
        reset_peak_rss();
        w.round(t, log);
        peaks.push(peak_rss_mb());
        if start.elapsed() >= budget {
            break;
        }
    }
    peaks
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<34} {:>14.6} {:<6} {}",
        m.name, m.value, m.unit, m.note
    );
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a finite number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Run one workload in this process and print its result.
fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let fp = fingerprint::<W>(args);
    println!("fingerprint: {fp}");
    let dir = PathBuf::from(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut w: Option<W> = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        w = Some(W::setup(args.seed, &dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let setup_s = median(&setups);

    let mut log = OpLog::default();
    let peaks = timed_rounds(&mut w, &mut Tracer::new(false), &mut log, args.seconds);
    let mut traced = None;
    if args.trace {
        let mut t = Tracer::new(true);
        let mut tlog = OpLog::default();
        timed_rounds(&mut w, &mut t, &mut tlog, args.seconds);
        traced = Some((t, tlog));
    }
    w.finish(&mut log);

    println!("{} — end to end (tracing off)", args.workload);
    let e2e = w.report(&log);
    for m in &e2e {
        print_metric(m);
    }
    let mut metrics = vec![
        p50(&log, W::HEADLINE, "op_ms", "ms"),
        Metric::new(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS} set-ups"),
        ),
        Metric::new(
            "peak_rss_mb",
            median(&peaks),
            "MiB",
            format!("p50 over {} rounds of the round's VmHWM", peaks.len()),
        ),
    ];

    let mut attempted = log.attempted;
    let mut failed = log.failed;
    let mut refused = log.refused;
    let mut errors = log.errors.clone();
    if let Some((mut t, tlog)) = traced {
        t.check_nesting();
        attempted += tlog.attempted;
        failed += tlog.failed;
        refused += tlog.refused;
        errors.extend(tlog.errors.iter().cloned());
        let mut extra = layers::Extra::default();
        let (traced_ops, plain_ops) = (tlog.samples(W::HEADLINE), log.samples(W::HEADLINE));
        if !traced_ops.is_empty() && !plain_ops.is_empty() {
            extra.insert("tracing_overhead_s", median(traced_ops) - median(plain_ops));
        }
        w.layers(&mut t, &tlog, &mut extra);
        let per_layer = layers::per_layer(&t, &extra);
        layers::print_tree(&t);
        println!(
            "{} — per layer (traced run, per op over {} ops)",
            args.workload,
            t.ops()
        );
        for m in &per_layer {
            print_metric(m);
        }
        let spans_path = PathBuf::from(".perfbench")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        t.write_json(&spans_path, &fp)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        println!("spans written to {}", spans_path.display());
        metrics = per_layer;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let failed_frac = (failed + refused) as f64 / attempted.max(1) as f64;
    println!(
        "  {:<34} {:>14.6} {:<6} {failed} failed + {refused} refused of {attempted} attempted",
        "failed_frac", failed_frac, "ratio"
    );
    for e in &errors {
        println!("  FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    Ok(())
}

/// Run every workload, each in a child process of its own.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        all_ok &= out.status.success()
            && stdout
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": true"));
    }
    if all_ok {
        Ok(())
    } else {
        Err("at least one workload failed".into())
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "all" => run_all(&args),
        "paper_table2" => run::<table2::PaperTable2>(&args),
        "evaluate_mix" => run::<evaluate::EvaluateMix>(&args),
        "cluster_replay" => run::<replay::ClusterReplay>(&args),
        "campaign_grid" => run::<campaign::CampaignGridBench>(&args),
        _ => unreachable!("workload names are validated"),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
