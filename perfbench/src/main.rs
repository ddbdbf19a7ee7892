//! The lpmem benchmark: one workload per process, one worker thread.
//!
//! ```text
//! perfbench --workload <sweep|sweep-faults|fleet-faults|explore>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs whole rounds of the workload for `--seconds`
//! seconds, timing a batch of set-ups before each round, and reports the
//! end-to-end metrics: the ops of every round over the time the rounds
//! took (`ops_per_s`), the median set-up time (`setup_s`) and the
//! process's peak resident memory (`peak_rss_mib`). With `--trace 1` it
//! alternates an untraced round with a traced one, in which
//! the benchmark calls each layer itself and times every call, and reports
//! the per-layer metrics.
//! Either way the first round's outputs are checked (see `checks`), every
//! later round must reproduce them, and the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod explore;
mod fleet;
mod layers;
mod sweep;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Kind, Layers, PER_LAYER};

/// Worker threads every workload runs on.
pub const WORKERS: usize = 1;

/// One benchmark workload.
pub trait Workload {
    /// What set-up hands to the round.
    type Prepared;
    /// What one round produces.
    type Output;
    /// What one traced round produces, for comparison with `Output`.
    type Traced;

    /// Operations one round attempts.
    fn ops(&self) -> u64;
    /// Set-ups per timed batch, so that one batch lasts long enough to
    /// time steadily.
    fn setups_per_batch(&self) -> usize;
    /// Everything before the first operation.
    fn prepare(&self) -> Result<Self::Prepared, String>;
    /// One round of operations.
    fn run(&self, prepared: Self::Prepared) -> Self::Output;
    /// Operations of the round that failed.
    fn failed(&self, out: &Self::Output) -> u64;
    /// A rendering of the round's outputs; every round must repeat it.
    fn fingerprint(&self, out: &Self::Output) -> String;
    /// Checks the round's outputs against computations made apart from
    /// the program.
    fn check(&self, out: &Self::Output) -> Result<(), String>;
    /// The same round with every layer call made and timed by the
    /// benchmark.
    fn traced(&self, layers: &mut Layers) -> Result<Self::Traced, String>;
    /// Checks the traced round's results against the untraced round's.
    fn consistent(&self, out: &Self::Output, traced: &Self::Traced) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "sweep" => measure(&sweep::Sweep::new(args.seed, false), &args),
        "sweep-faults" => measure(&sweep::Sweep::new(args.seed, true), &args),
        "fleet-faults" => measure(&fleet::FleetFaults::new(args.seed), &args),
        "explore" => measure(&explore::Explore, &args),
        other => Err(format!(
            "unknown workload {other:?} (sweep, sweep-faults, fleet-faults, explore)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Totals of a run, whichever mode it measured in.
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    first: Option<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            first: None,
        }
    }

    /// Counts one round and holds its outputs to the first round's.
    fn round<W: Workload>(&mut self, w: &W, out: &W::Output) {
        self.attempted += w.ops();
        self.failed += w.failed(out);
        let print = w.fingerprint(out);
        match &self.first {
            None => self.first = Some(print),
            Some(first) if *first != print => {
                self.problems
                    .push("a later round's outputs differ from the first round's".into());
            }
            Some(_) => {}
        }
    }

    /// Checks the first round's outputs.
    fn check<W: Workload>(&mut self, w: &W, first: Option<W::Output>) {
        if let Some(Err(e)) = first.map(|out| w.check(&out)) {
            self.problems.push(format!("check: {e}"));
        }
    }
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::new();
    let metrics = if args.trace {
        traced_metrics(w, budget, &mut tally)?
    } else {
        end_to_end_metrics(w, budget, &mut tally)?
    };
    for p in &tally.problems {
        eprintln!("perfbench: {p}");
    }
    host_line(args, &tally);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            println!("{name:<26} {value:>16.6e} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.problems.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// A JSON number with every digit of the measurement.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn end_to_end_metrics<W: Workload>(
    w: &W,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut first = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed() < budget {
        setups.push(time_setup(w)?);
        let prepared = w.prepare()?;
        let t0 = Instant::now();
        let out = black_box(w.run(prepared));
        rounds.push(t0.elapsed().as_secs_f64());
        tally.round(w, &out);
        first.get_or_insert(out);
    }
    // Peak memory of the workload alone: read before the checks run.
    let rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    tally.check(w, first);
    let busy: f64 = rounds.iter().sum();
    let ops_per_s = (w.ops() * rounds.len() as u64) as f64 / busy;
    eprintln!(
        "perfbench: {} rounds, fastest {:.4} s, median {:.4} s",
        rounds.len(),
        rounds.iter().copied().fold(f64::INFINITY, f64::min),
        median(&mut rounds)
    );
    Ok(vec![
        ("ops_per_s", ops_per_s, "ops/s"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mib", rss, "MiB"),
    ])
}

/// Seconds per set-up, over one batch of back-to-back set-ups.
fn time_setup<W: Workload>(w: &W) -> Result<f64, String> {
    let n = w.setups_per_batch();
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(w.prepare()?);
    }
    Ok(t0.elapsed().as_secs_f64() / n as f64)
}

fn traced_metrics<W: Workload>(
    w: &W,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut passes: Vec<Layers> = Vec::new();
    let mut first = None;
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let started = Instant::now();
    while passes.is_empty() || started.elapsed() < budget {
        let untraced = |wall: &mut f64| {
            let t0 = Instant::now();
            let prepared = w.prepare()?;
            let out = black_box(w.run(prepared));
            *wall += t0.elapsed().as_secs_f64();
            Ok::<_, String>(out)
        };
        let traced = |wall: &mut f64, layers: &mut Layers| {
            let t0 = Instant::now();
            let out = black_box(w.traced(layers)?);
            *wall += t0.elapsed().as_secs_f64();
            Ok::<_, String>(out)
        };
        // Alternate which side runs first, so neither always runs warm.
        let mut layers = Layers::default();
        let (out, t) = if passes.len().is_multiple_of(2) {
            let out = untraced(&mut untraced_wall)?;
            (out, traced(&mut traced_wall, &mut layers)?)
        } else {
            let t = traced(&mut traced_wall, &mut layers)?;
            (untraced(&mut untraced_wall)?, t)
        };
        tally.round(w, &out);
        if let Err(e) = w.consistent(&out, &t) {
            tally.problems.push(format!("traced run: {e}"));
        }
        first.get_or_insert(out);
        passes.push(layers);
    }
    tally.check(w, first);
    let n = passes.len() as f64;
    eprintln!("perfbench: {n} traced/untraced pairs");
    let mean = |name: &str| passes.iter().map(|p| p.value(name)).sum::<f64>() / n;
    let spans: f64 = PER_LAYER
        .iter()
        .filter(|&&(_, kind, _)| kind == Kind::Span)
        .map(|&(name, _, _)| mean(name))
        .sum();
    let mut out = Vec::new();
    for &(name, kind, _) in PER_LAYER {
        let value = match name {
            "bench.other_s" => traced_wall / n - spans,
            "bench.traced_wall_s" => traced_wall / n,
            "tracing.overhead_s" => (traced_wall - untraced_wall) / n,
            _ if kind == Kind::Count => {
                // Work counts repeat exactly in every pass.
                let first = passes[0].value(name);
                if passes.iter().any(|p| p.value(name) != first) {
                    tally
                        .problems
                        .push(format!("{name} differs between passes"));
                }
                first
            }
            _ => mean(name),
        };
        out.push((name, value, kind.unit()));
    }
    Ok(out)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The run's context, printed beside its metrics.
fn host_line(args: &Args, tally: &Tally) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    println!(
        "workload {} seed {} trace {} | attempted {} failed {} | workers {WORKERS} nproc {nproc} cpu {cpu}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        tally.attempted,
        tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(0.1234567890123), "0.1234567890123");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
    }
}
