//! Output checkers, one per workload.
//!
//! Each checker works on plain numbers copied out of the program's results
//! and compares them against computations made here, apart from the code
//! under test (an interpreter run, a naive LRU stack, the documented fault
//! model), or against properties the method must have (conservation,
//! mutual non-domination). None of them calls the function whose output it
//! judges.

use std::collections::BTreeMap;

/// Outcome counters of one fault campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rel {
    pub injected: u64,
    pub masked: u64,
    pub detected: u64,
    pub corrected: u64,
    pub silent: u64,
}

impl Rel {
    fn conserves(&self) -> bool {
        self.masked + self.detected + self.corrected + self.silent == self.injected
    }
}

/// One sweep result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub flow: String,
    pub kernel: String,
    pub scale: u32,
    pub seed: u64,
    pub tech: String,
    pub variant: String,
    /// Protection name of the row's fault campaign (`None` with faults off).
    pub protection: Option<String>,
    pub events: u64,
    pub baseline_pj: f64,
    pub optimized_pj: f64,
    pub reliability: Option<Rel>,
    pub error: Option<String>,
}

/// What the interpreter oracle reports for one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelFacts {
    /// Guest instructions retired.
    pub instructions: u64,
    /// Data (non-fetch) accesses in the trace.
    pub data_accesses: u64,
}

fn row_ok(r: &Row) -> Result<(), String> {
    match &r.error {
        Some(e) => Err(format!(
            "{}/{} seed {} failed: {e}",
            r.flow, r.kernel, r.seed
        )),
        None => Ok(()),
    }
}

/// The default sweep: every row succeeds; event counts match the
/// interpreter oracle (instructions for the bus-coding and system flows,
/// data accesses for partitioning); partitioning never loses to the
/// monolith, since a ≤K-bank optimum contains the one-bank design.
pub fn check_sweep(
    rows: &[Row],
    expected_rows: usize,
    mut oracle: impl FnMut(&Row) -> Result<KernelFacts, String>,
) -> Result<(), String> {
    if rows.len() != expected_rows {
        return Err(format!("{} rows, expected {expected_rows}", rows.len()));
    }
    for r in rows {
        row_ok(r)?;
        let want = match r.flow.as_str() {
            "buscoding" | "system" => Some(oracle(r)?.instructions),
            "partitioning" => {
                if r.optimized_pj > r.baseline_pj {
                    return Err(format!(
                        "partitioning/{} seed {}: optimized {} pJ above monolith {} pJ",
                        r.kernel, r.seed, r.optimized_pj, r.baseline_pj
                    ));
                }
                Some(oracle(r)?.data_accesses)
            }
            _ => None,
        };
        if let Some(want) = want {
            if r.events != want {
                return Err(format!(
                    "{}/{} seed {}: {} events, oracle says {want}",
                    r.flow, r.kernel, r.seed, r.events
                ));
            }
        }
    }
    Ok(())
}

/// A trained bus encoder on one fetch stream: decoding the encoded stream
/// must give the original words back, and over consecutive fetches that
/// stay in one region (`region` maps an address to its transform) the
/// encoded transitions recounted here never exceed the raw ones, because
/// the trainer's per-bit choice is exact on exactly those pairs.
pub fn check_encoder(
    stream: &[(u64, u32)],
    encoded: &[u32],
    decoded: &[u32],
    region: impl Fn(u64) -> usize,
) -> Result<(), String> {
    if encoded.len() != stream.len() || decoded.len() != stream.len() {
        return Err("encoded or decoded stream length differs".into());
    }
    if let Some(i) = (0..stream.len()).find(|&i| decoded[i] != stream[i].1) {
        return Err(format!("decode differs from the fetch stream at word {i}"));
    }
    // region -> (raw, encoded) transitions over in-region pairs
    let mut per_region: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for i in 1..stream.len() {
        let (a0, w0) = stream[i - 1];
        let (a1, w1) = stream[i];
        let r = region(a0);
        if r != region(a1) {
            continue;
        }
        let e = per_region.entry(r).or_default();
        e.0 += u64::from((w0 ^ w1).count_ones());
        e.1 += u64::from((encoded[i - 1] ^ encoded[i]).count_ones());
    }
    for (r, (raw, enc)) in per_region {
        if enc > raw {
            return Err(format!(
                "region {r}: {enc} encoded transitions exceed {raw} raw"
            ));
        }
    }
    Ok(())
}

/// One bank's exposure, as the fault model reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankFacts {
    pub words: u64,
    pub active_ticks: u64,
    pub sleep_ticks: u64,
}

/// A campaign's inputs: the exposure and the technology's model constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureFacts {
    pub banks: Vec<BankFacts>,
    /// Single-event-upset rate, FIT per Mbit.
    pub fit_per_mbit: f64,
    /// Rate multiplier while a bank sleeps drowsy.
    pub drowsy_mult: f64,
    /// Beam-style acceleration factor.
    pub rate_scale: u64,
}

/// Stored bits per 32-bit data word under each protection: none, even
/// parity (one check bit), SECDED Hamming(38,32) plus overall parity.
pub fn code_bits(protection: &str) -> Option<u64> {
    match protection {
        "none" => Some(32),
        "parity" => Some(33),
        "secded" => Some(39),
        _ => None,
    }
}

/// Per-bit upset probability of one bank under the documented FIT model:
/// a tick is 10 ns, FIT counts failures per 10⁹ device-hours per Mbit
/// (2²⁰ bits), drowsy ticks count `drowsy_mult` times, and the
/// probability is capped at 0.25.
pub fn upset_probability(e: &ExposureFacts, bank: &BankFacts) -> f64 {
    let per_bit_tick = e.fit_per_mbit / 1_048_576.0 / (1e9 * 3600.0) * 1e-8;
    let ticks = bank.active_ticks as f64 + e.drowsy_mult * bank.sleep_ticks as f64;
    (per_bit_tick * e.rate_scale as f64 * ticks).min(0.25)
}

/// Running mean and variance of a sum of independent binomial draws.
#[derive(Debug, Default, Clone, Copy)]
pub struct Binomial {
    pub mean: f64,
    pub var: f64,
}

impl Binomial {
    pub fn add(&mut self, trials: f64, p: f64) {
        self.mean += trials * p;
        self.var += trials * p * (1.0 - p);
    }

    /// Whether `observed` lies within six standard deviations (plus one,
    /// for tiny expectations) of the mean.
    pub fn admits(&self, observed: u64) -> bool {
        (observed as f64 - self.mean).abs() <= 6.0 * self.var.sqrt() + 1.0
    }
}

/// The fault sweep: every row succeeds and carries a campaign whose
/// outcomes sum to its injections; `none` detects and corrects nothing and
/// `parity` corrects nothing; SECDED leaves less silent corruption in
/// total than no protection; and per protection, total injections lie
/// within a binomial bound of the expectation computed from each row's
/// exposure.
pub fn check_sweep_faults(
    rows: &[Row],
    expected_rows: usize,
    mut exposure: impl FnMut(&Row) -> Result<ExposureFacts, String>,
) -> Result<(), String> {
    if rows.len() != expected_rows {
        return Err(format!("{} rows, expected {expected_rows}", rows.len()));
    }
    let mut totals: BTreeMap<String, (Rel, Binomial)> = BTreeMap::new();
    for r in rows {
        row_ok(r)?;
        let what = format!("{}/{} seed {}", r.flow, r.kernel, r.seed);
        let prot = r
            .protection
            .as_deref()
            .ok_or_else(|| format!("{what}: no protection"))?;
        let bits = code_bits(prot).ok_or_else(|| format!("{what}: protection {prot}?"))?;
        let rel = r
            .reliability
            .ok_or_else(|| format!("{what}: no campaign result"))?;
        if !rel.conserves() {
            return Err(format!(
                "{what} {prot}: outcomes do not sum to injected: {rel:?}"
            ));
        }
        if prot == "none" && (rel.detected > 0 || rel.corrected > 0) {
            return Err(format!(
                "{what}: unprotected memory detected or corrected: {rel:?}"
            ));
        }
        if prot == "parity" && rel.corrected > 0 {
            return Err(format!("{what}: parity corrected: {rel:?}"));
        }
        let e = exposure(r)?;
        let (sum, model) = totals.entry(prot.to_owned()).or_default();
        for bank in &e.banks {
            model.add((bank.words * bits) as f64, upset_probability(&e, bank));
        }
        sum.injected += rel.injected;
        sum.silent += rel.silent;
    }
    for (prot, (sum, model)) in &totals {
        if !model.admits(sum.injected) {
            return Err(format!(
                "{prot}: {} injected, model expects {:.1} ± {:.1}",
                sum.injected,
                model.mean,
                model.var.sqrt()
            ));
        }
    }
    let silent = |p: &str| totals.get(p).map(|(s, _)| s.silent);
    match (silent("secded"), silent("none")) {
        (Some(s), Some(n)) if s < n => Ok(()),
        (Some(s), Some(n)) => Err(format!("secded silent {s} not below unprotected {n}")),
        _ => Err("fault sweep lacks a none or secded protection".into()),
    }
}

/// Reuse statistics of one device's block stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LruCounts {
    /// First touches.
    pub cold: u64,
    /// Re-touches.
    pub reuses: u64,
    /// Sum over re-touches of the distinct blocks touched since the
    /// previous touch of the same block.
    pub dist_sum: u64,
}

/// LRU stack distances the slow way: a list with the most recent block in
/// front, searched linearly.
pub fn naive_lru(blocks: impl IntoIterator<Item = u64>) -> LruCounts {
    let mut stack: Vec<u64> = Vec::new();
    let mut out = LruCounts::default();
    for b in blocks {
        match stack.iter().position(|&x| x == b) {
            Some(d) => {
                out.reuses += 1;
                out.dist_sum += d as u64;
                stack.remove(d);
            }
            None => out.cold += 1,
        }
        stack.insert(0, b);
    }
    out
}

/// One device class's aggregate in a fleet report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassFacts {
    pub events: u64,
    pub cold: u64,
    pub reuses: u64,
    pub reliability: Rel,
}

/// A fault-mode fleet run as the checker sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFacts {
    pub devices: u64,
    pub events_per_device: u64,
    pub total_events: u64,
    pub classes: Vec<ClassFacts>,
    /// Words exposed per touched block.
    pub words_per_block: u64,
    /// Stored bits per word.
    pub bits: u64,
    /// Per-bit upset probability, the same for every device: each is one
    /// bank, awake for its whole stream of `events_per_device` ticks.
    pub upset_p: f64,
    /// Sampled devices: (device, program's counts, naive LRU counts).
    pub samples: Vec<(u64, LruCounts, LruCounts)>,
}

/// The fault fleet: `events = devices × events per device`; accesses and
/// campaign outcomes are conserved per class; total injections lie within
/// a binomial bound of the model's expectation over the touched
/// footprint; and sampled devices' reuse statistics equal a naive LRU
/// stack.
pub fn check_fleet(f: &FleetFacts) -> Result<(), String> {
    let want = f.devices * f.events_per_device;
    if f.total_events != want {
        return Err(format!("{} events, expected {want}", f.total_events));
    }
    let class_events: u64 = f.classes.iter().map(|c| c.events).sum();
    if class_events != f.total_events {
        return Err(format!(
            "classes hold {class_events} of {} events",
            f.total_events
        ));
    }
    let mut model = Binomial::default();
    let mut injected = 0;
    for (i, c) in f.classes.iter().enumerate() {
        if c.cold + c.reuses != c.events {
            return Err(format!(
                "class {i}: cold {} + reuses {} != events {}",
                c.cold, c.reuses, c.events
            ));
        }
        if !c.reliability.conserves() {
            return Err(format!(
                "class {i}: outcomes do not sum to injected: {:?}",
                c.reliability
            ));
        }
        model.add((c.cold * f.words_per_block * f.bits) as f64, f.upset_p);
        injected += c.reliability.injected;
    }
    if !model.admits(injected) {
        return Err(format!(
            "{injected} injected, model expects {:.1} ± {:.1}",
            model.mean,
            model.var.sqrt()
        ));
    }
    for (device, got, naive) in &f.samples {
        if got != naive {
            return Err(format!(
                "device {device}: stream stats {got:?}, naive LRU {naive:?}"
            ));
        }
    }
    Ok(())
}

/// Objective vector of one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obj {
    pub energy_pj: f64,
    pub area_mm2: f64,
    pub cycles: u64,
    pub silent: u64,
}

/// Pareto dominance, restated here: no objective worse, one strictly
/// better.
pub fn dominates(a: &Obj, b: &Obj) -> bool {
    let no_worse = a.energy_pj <= b.energy_pj
        && a.area_mm2 <= b.area_mm2
        && a.cycles <= b.cycles
        && a.silent <= b.silent;
    no_worse
        && (a.energy_pj < b.energy_pj
            || a.area_mm2 < b.area_mm2
            || a.cycles < b.cycles
            || a.silent < b.silent)
}

/// A finished search as the checker sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreFacts {
    pub budget: usize,
    pub evaluated: usize,
    /// Frontier rows: point key and objectives.
    pub frontier: Vec<(String, Obj)>,
    /// Each frontier point re-scored on a fresh evaluator, same order.
    pub rescored: Vec<Obj>,
    /// Scores of the sweep variants' embeddings.
    pub embeddings: Vec<Obj>,
}

/// The search: it spends exactly its budget; no frontier row dominates
/// another; re-scoring reproduces every row's objectives; and no row is
/// dominated by an embedded sweep variant.
pub fn check_explore(f: &ExploreFacts) -> Result<(), String> {
    if f.evaluated != f.budget {
        return Err(format!("{} evaluated, budget {}", f.evaluated, f.budget));
    }
    if f.frontier.is_empty() {
        return Err("empty frontier".into());
    }
    for (ka, a) in &f.frontier {
        for (kb, b) in &f.frontier {
            if dominates(a, b) {
                return Err(format!("frontier row {ka} dominates frontier row {kb}"));
            }
        }
        for e in &f.embeddings {
            if dominates(e, a) {
                return Err(format!("frontier row {ka} is dominated by a sweep variant"));
            }
        }
    }
    if f.rescored.len() != f.frontier.len() {
        return Err("re-scored a different number of rows".into());
    }
    for ((k, o), r) in f.frontier.iter().zip(&f.rescored) {
        if o != r {
            return Err(format!("frontier row {k}: reported {o:?}, re-scored {r:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(flow: &str, events: u64) -> Row {
        Row {
            flow: flow.into(),
            kernel: "fir".into(),
            scale: 8,
            seed: 1,
            tech: "t180".into(),
            variant: "default".into(),
            protection: None,
            events,
            baseline_pj: 10.0,
            optimized_pj: 8.0,
            reliability: None,
            error: None,
        }
    }

    const FACTS: KernelFacts = KernelFacts {
        instructions: 1000,
        data_accesses: 300,
    };

    fn sweep_rows() -> Vec<Row> {
        vec![
            row("partitioning", 300),
            row("compression", 77),
            row("buscoding", 1000),
            row("scheduling", 128),
            row("system", 1000),
        ]
    }

    #[test]
    fn sweep_checker_accepts_consistent_rows() {
        check_sweep(&sweep_rows(), 5, |_| Ok(FACTS)).unwrap();
    }

    #[test]
    fn sweep_checker_rejects_an_off_by_one_event_count() {
        for i in [0, 2, 4] {
            let mut rows = sweep_rows();
            rows[i].events += 1;
            let err = check_sweep(&rows, 5, |_| Ok(FACTS)).unwrap_err();
            assert!(err.contains("oracle"), "{err}");
        }
    }

    #[test]
    fn sweep_checker_rejects_failures_losses_and_missing_rows() {
        let mut rows = sweep_rows();
        rows[1].error = Some("boom".into());
        assert!(check_sweep(&rows, 5, |_| Ok(FACTS)).is_err());
        let mut rows = sweep_rows();
        rows[0].optimized_pj = 11.0;
        assert!(check_sweep(&rows, 5, |_| Ok(FACTS)).is_err());
        assert!(check_sweep(&sweep_rows()[1..], 5, |_| Ok(FACTS)).is_err());
    }

    #[test]
    fn encoder_checker_rejects_lossy_or_worse_encodings() {
        let stream = [(0u64, 0b1100u32), (4, 0b0011), (8, 0b1100)];
        let words: Vec<u32> = stream.iter().map(|s| s.1).collect();
        check_encoder(&stream, &words, &words, |_| 0).unwrap();
        let mut bad = words.clone();
        bad[1] ^= 1;
        assert!(check_encoder(&stream, &words, &bad, |_| 0).is_err());
        // An "encoding" with more transitions than the raw stream.
        let worse = [0u32, u32::MAX, 0];
        assert!(check_encoder(&stream, &worse, &words, |_| 0).is_err());
        // Pairs that cross regions are not held to the bound.
        check_encoder(&stream, &worse, &words, |a| a as usize).unwrap();
    }

    fn fault_row(prot: &str, rel: Rel) -> Row {
        Row {
            protection: Some(prot.into()),
            reliability: Some(rel),
            ..row("compression", 5)
        }
    }

    fn rel(injected: u64, masked: u64, detected: u64, corrected: u64, silent: u64) -> Rel {
        Rel {
            injected,
            masked,
            detected,
            corrected,
            silent,
        }
    }

    /// An exposure whose expectation is ~100 injections at 32 bits.
    fn exposure(_: &Row) -> Result<ExposureFacts, String> {
        // p = fit/2^20/3.6e12*1e-8*scale*ticks; pick scale so p = 1e-3.
        let per_bit_tick = 1000.0 / 1_048_576.0 / 3.6e12 * 1e-8;
        let ticks = 1000u64;
        let scale = (1e-3 / (per_bit_tick * ticks as f64)).round() as u64;
        Ok(ExposureFacts {
            banks: vec![BankFacts {
                words: 3125,
                active_ticks: ticks,
                sleep_ticks: 0,
            }],
            fit_per_mbit: 1000.0,
            drowsy_mult: 3.0,
            rate_scale: scale,
        })
    }

    fn fault_rows() -> Vec<Row> {
        vec![
            fault_row("none", rel(100, 40, 0, 0, 60)),
            fault_row("parity", rel(103, 41, 60, 0, 2)),
            fault_row("secded", rel(121, 50, 1, 70, 0)),
        ]
    }

    #[test]
    fn fault_checker_accepts_a_plausible_campaign() {
        check_sweep_faults(&fault_rows(), 3, exposure).unwrap();
    }

    #[test]
    fn fault_checker_rejects_a_broken_conservation_sum() {
        let mut rows = fault_rows();
        rows[2].reliability.as_mut().unwrap().silent += 1;
        let err = check_sweep_faults(&rows, 3, exposure).unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn fault_checker_rejects_impossible_outcomes_and_implausible_rates() {
        let mut rows = fault_rows();
        rows[0].reliability = Some(rel(100, 40, 1, 0, 59));
        assert!(check_sweep_faults(&rows, 3, exposure).is_err());
        let mut rows = fault_rows();
        rows[1].reliability = Some(rel(103, 41, 59, 1, 2));
        assert!(check_sweep_faults(&rows, 3, exposure).is_err());
        let mut rows = fault_rows();
        rows[2].reliability = Some(rel(121, 50, 1, 0, 70));
        assert!(check_sweep_faults(&rows, 3, exposure).is_err());
        let mut rows = fault_rows();
        rows[0].reliability = Some(rel(400, 340, 0, 0, 60));
        let err = check_sweep_faults(&rows, 3, exposure).unwrap_err();
        assert!(err.contains("model expects"), "{err}");
    }

    #[test]
    fn naive_lru_counts_distances() {
        // Blocks a b c b a: b at distance 1, a at distance 2.
        let c = naive_lru([1, 2, 3, 2, 1]);
        assert_eq!(
            c,
            LruCounts {
                cold: 3,
                reuses: 2,
                dist_sum: 3
            }
        );
        assert_eq!(naive_lru([7, 7]).dist_sum, 0);
    }

    fn fleet() -> FleetFacts {
        let c = ClassFacts {
            events: 512,
            cold: 100,
            reuses: 412,
            reliability: rel(0, 0, 0, 0, 0),
        };
        let mut classes = vec![c, c];
        // 2 classes × 100 blocks × 16 words × 39 bits at p = 1e-3 ≈ 125.
        classes[0].reliability = rel(60, 20, 1, 39, 0);
        classes[1].reliability = rel(64, 30, 0, 34, 0);
        let counts = naive_lru([1, 2, 1]);
        FleetFacts {
            devices: 4,
            events_per_device: 256,
            total_events: 1024,
            classes,
            words_per_block: 16,
            bits: 39,
            upset_p: 1e-3,
            samples: vec![(3, counts, counts)],
        }
    }

    #[test]
    fn fleet_checker_accepts_a_consistent_report() {
        check_fleet(&fleet()).unwrap();
    }

    #[test]
    fn fleet_checker_rejects_an_off_by_one_event_count() {
        let mut f = fleet();
        f.total_events += 1;
        assert!(check_fleet(&f).is_err());
        let mut f = fleet();
        f.classes[1].events -= 1;
        assert!(check_fleet(&f).is_err());
    }

    #[test]
    fn fleet_checker_rejects_broken_sums_rates_and_lru_mismatches() {
        let mut f = fleet();
        f.classes[0].reliability.masked += 1;
        assert!(check_fleet(&f).is_err());
        let mut f = fleet();
        f.classes[0].cold += 1;
        assert!(check_fleet(&f).is_err());
        let mut f = fleet();
        f.classes[0].reliability = rel(600, 560, 1, 39, 0);
        assert!(check_fleet(&f).is_err());
        let mut f = fleet();
        f.samples[0].1.dist_sum += 1;
        assert!(check_fleet(&f).is_err());
    }

    fn obj(energy_pj: f64, area_mm2: f64, cycles: u64) -> Obj {
        Obj {
            energy_pj,
            area_mm2,
            cycles,
            silent: 0,
        }
    }

    fn explore() -> ExploreFacts {
        let frontier = vec![
            ("a".to_owned(), obj(1.0, 3.0, 10)),
            ("b".to_owned(), obj(2.0, 2.0, 10)),
            ("c".to_owned(), obj(3.0, 1.0, 10)),
        ];
        ExploreFacts {
            budget: 100,
            evaluated: 100,
            rescored: frontier.iter().map(|r| r.1).collect(),
            frontier,
            embeddings: vec![obj(2.5, 2.5, 10)],
        }
    }

    #[test]
    fn explore_checker_accepts_a_pareto_front() {
        check_explore(&explore()).unwrap();
    }

    #[test]
    fn explore_checker_rejects_a_row_whose_objectives_were_altered() {
        // Altered so that it now dominates a neighbour.
        let mut f = explore();
        f.frontier[1].1.cycles = 9;
        f.frontier[1].1.area_mm2 = 0.5;
        let err = check_explore(&f).unwrap_err();
        assert!(err.contains("dominates"), "{err}");
        // Altered without breaking non-domination: re-scoring catches it.
        let mut f = explore();
        f.frontier[1].1.energy_pj = 2.0000001;
        let err = check_explore(&f).unwrap_err();
        assert!(err.contains("re-scored"), "{err}");
    }

    #[test]
    fn explore_checker_rejects_budget_and_embedding_violations() {
        let mut f = explore();
        f.evaluated -= 1;
        assert!(check_explore(&f).is_err());
        let mut f = explore();
        f.embeddings.push(obj(1.5, 1.5, 10));
        assert!(check_explore(&f).is_err());
    }
}
