//! The `fleet-faults` workload: `fleet --faults secded --tech t90` over the
//! uniform device mix, 256 events per device. One op is one device; one
//! round is a fleet of `DEVICES` devices whose base seed is the benchmark
//! seed.

use lpmem_bench::fleet::{simulate_device, ClassAgg, NUM_CLASSES};
use lpmem_bench::{run_fleet, FleetReport, FleetSpec};
use lpmem_core::flows::{
    run_campaign, BankExposure, FaultExposure, FaultSpec, Protection, ReliabilityReport, TechNode,
};
use lpmem_core::WorkloadMix;
use lpmem_util::{Rng, SplitMix64};

use crate::checks::{self, BankFacts, ClassFacts, ExposureFacts, FleetFacts, LruCounts};
use crate::layers::Layers;
use crate::sweep::rel;
use crate::{Workload, WORKERS};

/// Devices per round.
const DEVICES: u64 = 256;
/// Events each device streams.
const EVENTS: usize = 256;
/// Devices whose statistics are recomputed the slow way.
const SAMPLES: u64 = 32;

pub struct FleetFaults {
    seed: u64,
}

impl FleetFaults {
    pub fn new(seed: u64) -> Self {
        FleetFaults { seed }
    }

    fn spec(&self) -> FleetSpec {
        let mut spec = FleetSpec::new(WorkloadMix::uniform());
        spec.devices = DEVICES;
        spec.events_per_device = EVENTS;
        spec.base_seed = self.seed;
        spec.fault = FaultSpec::accelerated(Protection::Secded);
        spec.tech = TechNode::T90;
        spec
    }
}

fn sample_devices() -> impl Iterator<Item = u64> {
    (0..SAMPLES).map(|i| i * DEVICES / SAMPLES + i % 7)
}

/// Per-class aggregates of a traced round, and the campaign results it
/// rebuilt for the sampled devices.
pub struct Traced {
    per_class: [ClassAgg; NUM_CLASSES],
    sampled: Vec<(u64, ReliabilityReport)>,
}

impl Workload for FleetFaults {
    type Prepared = FleetSpec;
    type Output = Result<FleetReport, String>;
    type Traced = Traced;

    fn ops(&self) -> u64 {
        DEVICES
    }

    fn setups_per_batch(&self) -> usize {
        200_000
    }

    fn prepare(&self) -> Result<FleetSpec, String> {
        let spec = self.spec();
        spec.validate()?;
        Ok(spec)
    }

    fn run(&self, spec: FleetSpec) -> Self::Output {
        run_fleet(&spec, WORKERS)
    }

    fn failed(&self, out: &Self::Output) -> u64 {
        if out.is_ok() {
            0
        } else {
            DEVICES
        }
    }

    fn fingerprint(&self, out: &Self::Output) -> String {
        match out {
            Ok(r) => r.jsonl(),
            Err(e) => e.clone(),
        }
    }

    fn check(&self, out: &Self::Output) -> Result<(), String> {
        let report = out.as_ref().map_err(Clone::clone)?;
        let spec = &report.spec;
        let tech = spec.tech.technology();
        let model = ExposureFacts {
            banks: Vec::new(),
            fit_per_mbit: tech.seu_fit_per_mbit,
            drowsy_mult: tech.retention_drowsy_mult,
            rate_scale: spec.fault.rate_scale,
        };
        let awake = BankFacts {
            words: 0,
            active_ticks: EVENTS as u64,
            sleep_ticks: 0,
        };
        let mut samples = Vec::new();
        for device in sample_devices() {
            let stats = simulate_device(spec, device);
            // The device's seed tree, as documented in `lpmem_bench::fleet`:
            // class and drift from `derive(base, [device, 0])`, the event
            // generator seed from `derive(base, [device, 1])`.
            let mut pick = Rng::seed_from_u64(SplitMix64::derive(spec.base_seed, &[device, 0]));
            let class = spec.mix.pick(&mut pick);
            let drift = pick.bounded_u64(12);
            if (class.index(), drift) != (stats.class, stats.drift) {
                return Err(format!(
                    "device {device}: class or drift re-derived differently"
                ));
            }
            let gen_seed = SplitMix64::derive(spec.base_seed, &[device, 1]);
            let shift = spec.block_size.trailing_zeros();
            let naive = checks::naive_lru(
                class
                    .events(gen_seed, EVENTS, drift)
                    .map(|e| e.addr >> shift),
            );
            let got = LruCounts {
                cold: stats.cold,
                reuses: stats.reuses,
                dist_sum: stats.dist_sum,
            };
            samples.push((device, got, naive));
        }
        checks::check_fleet(&FleetFacts {
            devices: spec.devices,
            events_per_device: EVENTS as u64,
            total_events: report.total_events(),
            classes: report
                .per_class
                .iter()
                .map(|c| ClassFacts {
                    events: c.events,
                    cold: c.cold,
                    reuses: c.reuses,
                    reliability: rel(&c.reliability),
                })
                .collect(),
            words_per_block: spec.block_size / 4,
            bits: checks::code_bits("secded").expect("known protection"),
            upset_p: checks::upset_probability(&model, &awake),
            samples,
        })
    }

    fn traced(&self, l: &mut Layers) -> Result<Traced, String> {
        let spec = self.prepare()?;
        let plain = FleetSpec {
            fault: FaultSpec::off(),
            ..spec.clone()
        };
        let tech = spec.tech.technology();
        let mut per_class = [ClassAgg::default(); NUM_CLASSES];
        let mut sampled = Vec::new();
        let mut next_sample = sample_devices().peekable();
        for device in 0..spec.devices {
            let mut stats = l.time("trace.busy_s", || simulate_device(&plain, device));
            l.count("trace.events", stats.events);
            // The campaign over the device's touched footprint, rebuilt
            // from its streamed statistics the way the fleet builds it.
            let exposure = FaultExposure {
                domain: device,
                banks: vec![BankExposure {
                    words: stats.cold * (spec.block_size / 4),
                    active_ticks: stats.events,
                    sleep_ticks: 0,
                    reads: stats.reuses,
                    writes: stats.cold,
                }],
            };
            stats.reliability = l.time("fault.campaign_s", || {
                run_campaign(&spec.fault, &tech, &exposure, spec.base_seed)
            });
            let words = exposure.banks[0].words;
            l.count("fault.words", words);
            l.count(
                "fault.bits_drawn",
                words * u64::from(spec.fault.protection.total_bits()),
            );
            l.count("fault.injected", stats.reliability.injected);
            if next_sample.next_if_eq(&device).is_some() {
                sampled.push((device, stats.reliability));
            }
            per_class[stats.class].absorb(&stats);
        }
        Ok(Traced { per_class, sampled })
    }

    fn consistent(&self, out: &Self::Output, traced: &Traced) -> Result<(), String> {
        let report = out.as_ref().map_err(Clone::clone)?;
        if report.per_class != traced.per_class {
            return Err("per-class aggregates differ".into());
        }
        if traced.sampled.len() as u64 != SAMPLES {
            return Err("sampled devices missing from the traced round".into());
        }
        for (device, rebuilt) in &traced.sampled {
            let whole = simulate_device(&report.spec, *device).reliability;
            if whole != *rebuilt {
                return Err(format!(
                    "device {device}: campaign rebuilt from streamed stats {rebuilt:?}, \
                     fault-mode device {whole:?}"
                ));
            }
        }
        Ok(())
    }
}
