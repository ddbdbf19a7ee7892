//! The `sweep` and `sweep-faults` workloads: one op is one grid task.
//!
//! `sweep` is the default 270-task grid (5 flows × 9 kernels × 3 nodes ×
//! 2 variants, faults and CMP off). `sweep-faults` keeps the
//! partitioning, compression and scheduling flows and adds the protections
//! `none`, `parity` and `secded` at the default acceleration (486 tasks).
//! The grid's base seed is the benchmark seed.

use std::collections::{BTreeMap, BTreeSet};

use lpmem_bench::sweep::{SweepTask, TaskResult};
use lpmem_bench::{run_sweep, SweepGrid, SweepReport};
use lpmem_buscode::{BusInvert, RegionEncoder, XorTransform};
use lpmem_compress::DiffCodec;
use lpmem_core::flows::compression::{run_compression_trace, CompressionConfig};
use lpmem_core::flows::partitioning::{run_partitioning, PartitioningConfig};
use lpmem_core::flows::scheduling::{dsp_pipeline_app, run_scheduling};
use lpmem_core::flows::{
    data_memory_exposure, run_campaign, FaultExposure, FaultSpec, FlowSpec, Protection,
    ReliabilityReport, TechNode, VariantSpec,
};
use lpmem_core::workloads::kernel_trace_and_image;
use lpmem_isa::{Backend, Kernel, KernelRun};
use lpmem_sched::SchedPlatform;
use lpmem_trace::{AccessKind, Trace};

use crate::checks::{self, BankFacts, ExposureFacts, KernelFacts, Rel, Row};
use crate::layers::Layers;
use crate::{Workload, WORKERS};

pub struct Sweep {
    seed: u64,
    faults: bool,
}

impl Sweep {
    pub fn new(seed: u64, faults: bool) -> Self {
        Sweep { seed, faults }
    }

    fn grid(&self) -> SweepGrid {
        let mut grid = SweepGrid::default_grid(false);
        grid.base_seed = self.seed;
        if self.faults {
            grid.flows = vec![
                FlowSpec::Partitioning,
                FlowSpec::Compression,
                FlowSpec::Scheduling,
            ];
            grid.faults = Protection::ALL.map(FaultSpec::accelerated).to_vec();
        }
        grid
    }
}

/// Per-task counts the traced and untraced rounds must agree on.
type TaskCounts = Vec<(u64, Option<ReliabilityReport>)>;

impl Workload for Sweep {
    type Prepared = SweepGrid;
    type Output = SweepReport;
    type Traced = TaskCounts;

    fn ops(&self) -> u64 {
        if self.faults {
            486
        } else {
            270
        }
    }

    fn setups_per_batch(&self) -> usize {
        500
    }

    fn prepare(&self) -> Result<SweepGrid, String> {
        let grid = self.grid();
        let tasks = grid.tasks();
        if tasks.len() as u64 != self.ops() {
            return Err(format!("grid expands to {} tasks", tasks.len()));
        }
        Ok(grid)
    }

    fn run(&self, grid: SweepGrid) -> SweepReport {
        run_sweep(&grid, WORKERS)
    }

    fn failed(&self, out: &SweepReport) -> u64 {
        out.results.iter().filter(|r| r.outcome.is_err()).count() as u64
    }

    fn fingerprint(&self, out: &SweepReport) -> String {
        out.jsonl()
    }

    fn check(&self, out: &SweepReport) -> Result<(), String> {
        let rows: Vec<Row> = out.results.iter().map(row).collect();
        if self.faults {
            checks::check_sweep_faults(&rows, self.ops() as usize, exposure_facts)
        } else {
            check_encoders(&out.results)?;
            checks::check_sweep(&rows, self.ops() as usize, interpreter_facts)
        }
    }

    fn traced(&self, layers: &mut Layers) -> Result<TaskCounts, String> {
        self.grid()
            .tasks()
            .iter()
            .map(|t| traced_task(t, layers))
            .collect()
    }

    fn consistent(&self, out: &SweepReport, traced: &TaskCounts) -> Result<(), String> {
        if out.results.len() != traced.len() {
            return Err("task counts differ".into());
        }
        for (r, (events, rel)) in out.results.iter().zip(traced) {
            let s = r.outcome.as_ref().map_err(Clone::clone)?;
            if s.events != *events || s.reliability != *rel {
                return Err(format!(
                    "task {}: events {} / {:?} untraced, {events} / {rel:?} traced",
                    r.task.index, s.events, s.reliability
                ));
            }
        }
        Ok(())
    }
}

fn row(r: &TaskResult) -> Row {
    let t = &r.task;
    let mut row = Row {
        flow: t.flow.name().to_owned(),
        kernel: t.kernel.name().to_owned(),
        scale: t.scale,
        seed: t.seed,
        tech: t.tech.name().to_owned(),
        variant: t.variant.name.clone(),
        protection: t
            .fault
            .enabled()
            .then(|| t.fault.protection.name().to_owned()),
        events: 0,
        baseline_pj: 0.0,
        optimized_pj: 0.0,
        reliability: None,
        error: None,
    };
    match &r.outcome {
        Ok(s) => {
            row.events = s.events;
            row.baseline_pj = s.baseline.as_pj();
            row.optimized_pj = s.optimized.as_pj();
            row.reliability = s.reliability.as_ref().map(rel);
        }
        Err(e) => row.error = Some(e.clone()),
    }
    row
}

/// A campaign's counters as the checkers take them.
pub fn rel(r: &ReliabilityReport) -> Rel {
    Rel {
        injected: r.injected,
        masked: r.masked,
        detected: r.detected,
        corrected: r.corrected,
        silent: r.silent,
    }
}

fn kernel(name: &str) -> Result<Kernel, String> {
    Kernel::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown kernel {name}"))
}

/// A kernel run on the interpreter, the oracle backend.
fn interpret(name: &str, scale: u32, seed: u64) -> Result<KernelRun, String> {
    kernel(name)?
        .run_with(Backend::Interpret, scale, seed)
        .map_err(|e| e.to_string())
}

/// The interpreter oracle: instructions retired and data accesses of the
/// row's kernel run.
fn interpreter_facts(r: &Row) -> Result<KernelFacts, String> {
    let run = interpret(&r.kernel, r.scale, r.seed)?;
    Ok(KernelFacts {
        instructions: run.steps,
        data_accesses: run
            .trace
            .iter()
            .filter(|e| e.kind != AccessKind::InstrFetch)
            .count() as u64,
    })
}

fn fetch_stream(trace: &Trace) -> Vec<(u64, u32)> {
    trace
        .iter()
        .filter(|e| e.kind == AccessKind::InstrFetch)
        .map(|e| (e.addr, e.value))
        .collect()
}

/// Trains each bus-coding task's encoder on the interpreter's fetch stream
/// and checks that it decodes losslessly and never adds in-region
/// transitions.
fn check_encoders(results: &[TaskResult]) -> Result<(), String> {
    for r in results
        .iter()
        .filter(|r| r.task.flow == FlowSpec::BusCoding)
    {
        let t = &r.task;
        let stream = fetch_stream(&interpret(t.kernel.name(), t.scale, t.seed)?.trace);
        let encoder = RegionEncoder::train(&stream, t.variant.regions);
        let encoded = encoder.encode_stream(&stream);
        let addrs: Vec<u64> = stream.iter().map(|s| s.0).collect();
        let decoded = encoder.decode_stream(&addrs, &encoded);
        // Two addresses share a region exactly when they map to the same
        // trained transform.
        let region = |a: u64| encoder.transform_for(a) as *const XorTransform as usize;
        checks::check_encoder(&stream, &encoded, &decoded, region)
            .map_err(|e| format!("buscoding/{} seed {}: {e}", t.kernel, t.seed))?;
    }
    Ok(())
}

/// A fault row's exposure, derived the way the flow derives it: the L0
/// scratchpad busy for the whole run for scheduling, the banked data
/// memory of the row's kernel trace otherwise.
fn exposure_facts(r: &Row) -> Result<ExposureFacts, String> {
    let variant = VariantSpec::parse(&r.variant).ok_or("unknown variant")?;
    let tech = TechNode::parse(&r.tech).ok_or("unknown tech")?.technology();
    let exposure = if r.flow == "scheduling" {
        FaultExposure::single_bank(variant.l0_bytes / 4, r.events, r.events)
    } else {
        let run = kernel(&r.kernel)?
            .run(r.scale, r.seed)
            .map_err(|e| e.to_string())?;
        data_memory_exposure(&run.trace, &variant, &tech).map_err(|e| e.to_string())?
    };
    Ok(ExposureFacts {
        banks: exposure
            .banks
            .iter()
            .map(|b| BankFacts {
                words: b.words,
                active_ticks: b.active_ticks,
                sleep_ticks: b.sleep_ticks,
            })
            .collect(),
        fit_per_mbit: tech.seu_fit_per_mbit,
        drowsy_mult: tech.retention_drowsy_mult,
        rate_scale: FaultSpec::DEFAULT_ACCEL,
    })
}

/// Distinct consecutive-word XOR deltas the trainer sees, per region.
fn distinct_deltas(stream: &[(u64, u32)], encoder: &RegionEncoder) -> u64 {
    let mut seen: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
    for pair in stream.windows(2) {
        let r0 = encoder.transform_for(pair[0].0) as *const XorTransform as usize;
        let r1 = encoder.transform_for(pair[1].0) as *const XorTransform as usize;
        if r0 == r1 {
            seen.entry(r0).or_default().insert(pair[0].1 ^ pair[1].1);
        }
    }
    seen.values().map(|s| s.len() as u64).sum()
}

/// One grid task with every layer call made and timed here, with the
/// arguments `FlowSpec::run_with_faults` passes. Returns the task's event
/// count and campaign outcome.
fn traced_task(
    task: &SweepTask,
    l: &mut Layers,
) -> Result<(u64, Option<ReliabilityReport>), String> {
    let SweepTask {
        flow,
        kernel,
        scale,
        seed,
        ref variant,
        ref fault,
        ..
    } = *task;
    let tech = task.tech.technology();
    let err = |e: lpmem_core::FlowError| e.to_string();
    let kernel_run = |l: &mut Layers| {
        let run = l
            .time("isa.busy_s", || kernel.run(scale, seed))
            .map_err(|e| e.to_string())?;
        l.count("isa.runs", 1);
        l.count("isa.instructions", run.steps);
        Ok::<_, String>(run.trace)
    };
    let trace_and_image = |l: &mut Layers| {
        let (trace, image) = l
            .time("isa.busy_s", || kernel_trace_and_image(kernel, scale, seed))
            .map_err(err)?;
        l.count("isa.runs", 1);
        let fetches = l.time("tracing.probe_s", || {
            trace
                .iter()
                .filter(|e| e.kind == AccessKind::InstrFetch)
                .count()
        });
        l.count("isa.instructions", fetches as u64);
        Ok::<_, String>((trace, image))
    };
    let compress = |l: &mut Layers, trace: &Trace, image, cfg: &CompressionConfig| {
        let out = l
            .time("compress.busy_s", || {
                run_compression_trace(
                    kernel.name(),
                    variant.platform.name(),
                    trace,
                    image,
                    &DiffCodec::new(),
                    cfg,
                    &tech,
                )
            })
            .map_err(err)?;
        l.count("compress.lines", out.lines);
        Ok::<_, String>(out.lines)
    };
    let buscode = |l: &mut Layers, trace: &Trace| {
        let stream = fetch_stream(trace);
        let encoder = l.time("buscode.train_s", || {
            RegionEncoder::train(&stream, variant.regions)
        });
        l.time("buscode.eval_s", || encoder.evaluate(&stream));
        l.count("buscode.fetches", stream.len() as u64);
        let distinct = l.time("tracing.probe_s", || distinct_deltas(&stream, &encoder));
        l.count("buscode.distinct_deltas", distinct);
        stream
    };

    let events = match flow {
        FlowSpec::Partitioning => {
            let trace = kernel_run(l)?;
            let cfg = PartitioningConfig {
                block_size: variant.block_size,
                max_banks: variant.max_banks,
                ..Default::default()
            };
            let out = l
                .time("partition.busy_s", || {
                    run_partitioning(kernel.name(), &trace, &cfg, &tech)
                })
                .map_err(err)?;
            l.count("partition.blocks", out.blocks as u64);
            out.accesses
        }
        FlowSpec::Compression => {
            let (trace, image) = trace_and_image(l)?;
            let cfg = CompressionConfig {
                cache: variant.platform.cache_config(),
                threshold: variant.threshold,
                flush_at_end: true,
            };
            compress(l, &trace, image, &cfg)?
        }
        FlowSpec::BusCoding => {
            let trace = kernel_run(l)?;
            let stream = buscode(l, &trace);
            std::hint::black_box(BusInvert::transitions(&stream));
            stream.len() as u64
        }
        FlowSpec::Scheduling => {
            let app = dsp_pipeline_app(variant.stages, variant.iterations, seed).map_err(err)?;
            let platform = SchedPlatform::new(&tech, variant.l0_bytes, 16 << 10);
            let name = format!("dsp-{}x{}", variant.stages, variant.iterations);
            let out = l
                .time("sched.busy_s", || run_scheduling(&name, &app, &platform))
                .map_err(err)?;
            out.contexts as u64 * out.iterations
        }
        FlowSpec::System => {
            let (trace, image) = trace_and_image(l)?;
            let cfg = CompressionConfig::for_platform(variant.platform);
            compress(l, &trace, image, &cfg)?;
            buscode(l, &trace).len() as u64
        }
    };
    if !fault.enabled() {
        return Ok((events, None));
    }
    let exposure = match flow {
        FlowSpec::Scheduling => FaultExposure::single_bank(variant.l0_bytes / 4, events, events),
        _ => {
            let trace = kernel_run(l)?;
            l.time("fault.exposure_s", || {
                data_memory_exposure(&trace, variant, &tech)
            })
            .map_err(err)?
        }
    };
    let report = l.time("fault.campaign_s", || {
        run_campaign(fault, &tech, &exposure, seed)
    });
    let words: u64 = exposure.banks.iter().map(|b| b.words).sum();
    l.count("fault.words", words);
    l.count(
        "fault.bits_drawn",
        words * u64::from(fault.protection.total_bits()),
    );
    l.count("fault.injected", report.injected);
    Ok((events, Some(report)))
}
