//! The `explore` workload: (μ+λ) evolutionary searches over the 20,736-point
//! `full` design space, seeded with the sweep variants' embeddings the way
//! the `explore` binary seeds them. One op is one evaluated design point.
//!
//! One round sets up a fresh space and evaluator and spends the whole
//! budget. The inputs are the `explore` binary's defaults and do not take
//! the benchmark seed: what a search costs depends on when its population
//! converges, which moves with every score it sees, and one workload seed
//! can cost twice another. A seeded input would measure the seed.

use std::time::Instant;

use lpmem_core::flows::VariantSpec;
use lpmem_explore::{
    DesignPoint, DesignSpace, Evaluator, Evolutionary, MemoShard, Objectives, SearchConfig,
    SearchOutcome, SearchStrategy, Workload as ExploreWorkload,
};

use crate::checks::{self, ExploreFacts, Obj};
use crate::layers::Layers;
use crate::{Workload, WORKERS};

/// Evaluations per search: past the point where the population converges
/// and `Evolutionary::fresh` falls back to enumeration.
const BUDGET: usize = 2500;
/// The search's own seed: the `explore` binary's default.
const SEARCH_SEED: u64 = 2003;
/// Points in the fixed sample the traced run scores one by one.
const PROBE_POINTS: usize = 64;

pub struct Explore;

impl Explore {
    fn search(space: &DesignSpace, evaluator: &Evaluator) -> Result<SearchOutcome, String> {
        let cfg = SearchConfig {
            budget: BUDGET,
            seed: SEARCH_SEED,
            workers: WORKERS,
            seeds: embeddings().filter(|p| space.contains(p)).collect(),
        };
        Evolutionary::default()
            .search(space, evaluator, &cfg)
            .map_err(|e| e.to_string())
    }

    fn evaluator() -> Result<Evaluator, String> {
        Evaluator::new(ExploreWorkload::default()).map_err(|e| e.to_string())
    }

    /// Mean microseconds per `Evaluator::evaluate_in` over a fixed sample of
    /// points, first on a fresh evaluator (memo cold), then again with the
    /// memo warm.
    fn probe(&self, space: &DesignSpace) -> Result<(f64, f64), String> {
        let evaluator = Self::evaluator()?;
        let points: Vec<DesignPoint> = (0..PROBE_POINTS)
            .map(|i| space.point_at(i * space.len() / PROBE_POINTS))
            .collect();
        let mut shard = MemoShard::default();
        let mut pass = || {
            let t0 = Instant::now();
            for p in &points {
                let e = evaluator
                    .evaluate_in(&mut shard, p)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(e);
            }
            Ok::<_, String>(t0.elapsed().as_secs_f64() * 1e6 / PROBE_POINTS as f64)
        };
        let miss = pass()?;
        let hit = pass()?;
        Ok((miss, hit))
    }
}

/// The sweep grid's `default` and `tight` variants as design points.
fn embeddings() -> impl Iterator<Item = DesignPoint> {
    [VariantSpec::default(), VariantSpec::tight()]
        .into_iter()
        .map(|v| DesignPoint::from_variant(&v))
}

fn obj(o: &Objectives) -> Obj {
    Obj {
        energy_pj: o.energy_pj,
        area_mm2: o.area_mm2,
        cycles: o.cycles,
        silent: o.silent,
    }
}

fn fingerprint(out: &SearchOutcome) -> String {
    format!("evaluated {}\n{}", out.evaluated, out.frontier.to_jsonl())
}

impl Workload for Explore {
    type Prepared = (DesignSpace, Evaluator);
    type Output = Result<SearchOutcome, String>;
    type Traced = SearchOutcome;

    fn ops(&self) -> u64 {
        BUDGET as u64
    }

    fn setups_per_batch(&self) -> usize {
        20
    }

    fn prepare(&self) -> Result<Self::Prepared, String> {
        let space = DesignSpace::full();
        space.validate()?;
        Ok((space, Self::evaluator()?))
    }

    fn run(&self, (space, evaluator): Self::Prepared) -> Self::Output {
        Self::search(&space, &evaluator)
    }

    fn failed(&self, out: &Self::Output) -> u64 {
        if out.is_ok() {
            0
        } else {
            self.ops()
        }
    }

    fn fingerprint(&self, out: &Self::Output) -> String {
        match out {
            Ok(o) => fingerprint(o),
            Err(e) => e.clone(),
        }
    }

    fn check(&self, out: &Self::Output) -> Result<(), String> {
        let out = out.as_ref().map_err(Clone::clone)?;
        let fresh = Self::evaluator()?;
        let score = |p: &DesignPoint| {
            fresh
                .evaluate(p)
                .map(|e| obj(&e.objectives))
                .map_err(|e| e.to_string())
        };
        let points = out.frontier.points();
        checks::check_explore(&ExploreFacts {
            budget: BUDGET,
            evaluated: out.evaluated,
            frontier: points
                .iter()
                .map(|e| (e.point.key(), obj(&e.objectives)))
                .collect(),
            rescored: points
                .iter()
                .map(|e| score(&e.point))
                .collect::<Result<_, _>>()?,
            embeddings: embeddings().map(|p| score(&p)).collect::<Result<_, _>>()?,
        })
    }

    fn traced(&self, l: &mut Layers) -> Result<SearchOutcome, String> {
        let (space, evaluator) = l.time("explore.setup_s", || self.prepare())?;
        let out = l.time("explore.search_s", || Self::search(&space, &evaluator))?;
        l.count("explore.evaluations", out.evaluated as u64);
        l.count("explore.frontier", out.frontier.len() as u64);
        let (miss, hit) = l.time("tracing.probe_s", || self.probe(&space))?;
        l.set("explore.eval_miss_us", miss);
        l.set("explore.eval_hit_us", hit);
        Ok(out)
    }

    fn consistent(&self, out: &Self::Output, traced: &SearchOutcome) -> Result<(), String> {
        let out = out.as_ref().map_err(Clone::clone)?;
        if fingerprint(out) != fingerprint(traced) {
            return Err("frontier or evaluation count differs".into());
        }
        Ok(())
    }
}
