//! Turns rank outputs into the end-to-end and per-layer metrics.

use std::collections::BTreeMap;

use jsonio::Json;

use crate::run::RankOut;
use crate::stats::{max_across, median, quantile, tail_samples};
use crate::trace::{Span, Stage, MIGRATION, SNAPSHOT};
use crate::workload::Workload;

/// Named metrics with their units, in insertion order of names.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, NaN when it is not set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |&(v, _)| v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; non-finite values
    /// become 0 (and are caught by the guards first).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, (v, u))| {
                    let v = if v.is_finite() { *v } else { 0.0 };
                    (
                        k.clone(),
                        Json::obj([("value", Json::Num(v)), ("unit", Json::Str((*u).into()))]),
                    )
                })
                .collect(),
        )
    }
}

/// Step wall times of timed untraced steps: per step, the slowest rank.
pub fn untraced_step_us(outs: &[RankOut]) -> Vec<f64> {
    let series: Vec<Vec<f64>> = outs.iter().map(|o| o.untraced_us.clone()).collect();
    max_across(&series)
}

/// World tokens per second at the median step time.
pub fn tokens_per_s(w: &Workload, step_us: &[f64]) -> f64 {
    w.world_tokens() as f64 / (median(step_us) * 1e-6)
}

/// Percentile summary of the untraced step times.
#[derive(Debug, Clone, Copy)]
pub struct StepSummary {
    /// Number of timed steps.
    pub samples: usize,
    /// Median step, ms.
    pub p50_ms: f64,
    /// 90th-percentile step, ms.
    pub p90_ms: f64,
    /// Samples beyond the median.
    pub p50_tail: usize,
    /// Samples beyond the p90; below ten the p90 is flagged.
    pub p90_tail: usize,
}

impl StepSummary {
    /// Summarises per-step wall times in microseconds.
    pub fn of(step_us: &[f64]) -> Self {
        StepSummary {
            samples: step_us.len(),
            p50_ms: median(step_us) / 1e3,
            p90_ms: quantile(step_us, 0.9) / 1e3,
            p50_tail: tail_samples(step_us.len(), 0.5),
            p90_tail: tail_samples(step_us.len(), 0.9),
        }
    }
}

/// Per-rank, per-step sums of everything the traced spans measured.
#[derive(Debug, Default, Clone)]
struct StepSums {
    wall: f64,
    class: u8,
    faults: f64,
    gate: f64,
    loss: f64,
    update: f64,
    order_fwd: f64,
    order_bwd: f64,
    layout: f64,
    expert_fwd: f64,
    expert_bwd: f64,
    expert_flops: f64,
    expert_useful: f64,
    expert_rows: f64,
    a2a_busy: f64,
    a2a_wait: f64,
    a2a_calls: f64,
    a2a_bytes: f64,
    a2a_useful: f64,
    a2a_rows: f64,
    ag_busy: f64,
    rs_busy: f64,
    esp_wait: f64,
    esp_calls: f64,
    esp_bytes: f64,
}

impl StepSums {
    /// Time the measured stages account for inside the real step.
    fn attributed(&self) -> f64 {
        self.gate
            + self.loss
            + self.update
            + self.order_fwd
            + self.order_bwd
            + self.layout
            + self.expert_fwd
            + self.expert_bwd
            + self.a2a_busy
            + self.a2a_wait
            + self.ag_busy
            + self.rs_busy
            + self.esp_wait
    }
}

/// Splits every collective span into wait (until the last member
/// entered) and busy (from then to exit). Spans are matched across
/// ranks by step, stage and call index; a 1-member group never waits.
fn wait_and_busy(ranks: &[Vec<Span>]) -> Vec<Vec<(f64, f64)>> {
    let mut last_entry: BTreeMap<(usize, Stage, usize), f64> = BTreeMap::new();
    let index = |spans: &[Span]| -> Vec<(usize, Stage, usize)> {
        let mut seen: BTreeMap<(usize, Stage), usize> = BTreeMap::new();
        spans
            .iter()
            .map(|s| {
                let k = seen.entry((s.step, s.stage)).or_insert(0);
                *k += 1;
                (s.step, s.stage, *k - 1)
            })
            .collect()
    };
    let keys: Vec<Vec<(usize, Stage, usize)>> = ranks.iter().map(|r| index(r)).collect();
    for (spans, keys) in ranks.iter().zip(&keys) {
        for (s, key) in spans.iter().zip(keys) {
            if s.stage.is_collective() && s.group > 1 {
                let e = last_entry.entry(*key).or_insert(f64::MIN);
                *e = e.max(s.start_us);
            }
        }
    }
    ranks
        .iter()
        .zip(&keys)
        .map(|(spans, keys)| {
            spans
                .iter()
                .zip(keys)
                .map(|(s, key)| {
                    let last = if s.group > 1 {
                        last_entry.get(key).copied().unwrap_or(s.start_us)
                    } else {
                        s.start_us
                    };
                    let last = last.clamp(s.start_us, s.end_us);
                    (last - s.start_us, s.end_us - last)
                })
                .collect()
        })
        .collect()
}

fn step_sums(spans: &[Span], splits: &[(f64, f64)]) -> BTreeMap<usize, StepSums> {
    let mut by_step: BTreeMap<usize, StepSums> = BTreeMap::new();
    for (s, &(wait, busy)) in spans.iter().zip(splits) {
        let e = by_step.entry(s.step).or_default();
        let d = s.dur_us();
        match s.stage {
            Stage::Step | Stage::TrainStep => {
                e.wall = d;
                e.class = s.class;
                e.faults = s.faults as f64;
            }
            Stage::Forward | Stage::Backward => {}
            Stage::Loss => e.loss += d,
            Stage::Update => e.update += d,
            Stage::Gate => e.gate += d,
            Stage::OrderFwd => e.order_fwd += d,
            Stage::OrderBwd => e.order_bwd += d,
            Stage::Layout => e.layout += d,
            Stage::ExpertFwd => {
                e.expert_fwd += d;
                e.expert_flops += s.flops;
                e.expert_useful += s.useful as f64;
                e.expert_rows += s.rows as f64;
            }
            Stage::ExpertBwd => {
                e.expert_bwd += d;
                e.expert_flops += s.flops;
            }
            Stage::A2a => {
                e.a2a_busy += busy;
                e.a2a_wait += wait;
                e.a2a_calls += 1.0;
                e.a2a_bytes += s.bytes as f64;
            }
            Stage::ReplayA2a => {
                e.a2a_useful += s.useful as f64;
                e.a2a_rows += s.rows as f64;
            }
            Stage::EspAg => {
                e.ag_busy += busy;
                e.esp_wait += wait;
                e.esp_calls += 1.0;
                e.esp_bytes += s.bytes as f64;
            }
            Stage::EspRs => {
                e.rs_busy += busy;
                e.esp_wait += wait;
                e.esp_calls += 1.0;
                e.esp_bytes += s.bytes as f64;
            }
        }
    }
    by_step
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run (every one is per step and
/// the maximum over ranks, then the median over steps).
///
/// `untraced_tps` and `single_tps` are the untraced 2-rank and 1-rank
/// tokens per second of the same run. Returns the metrics and the
/// traced tokens per second.
pub fn per_layer(
    w: &Workload,
    outs: &[RankOut],
    untraced_tps: f64,
    single_tps: f64,
) -> (Metrics, f64) {
    let spans: Vec<Vec<Span>> = outs.iter().map(|o| o.spans.clone()).collect();
    let splits = wait_and_busy(&spans);
    let sums: Vec<BTreeMap<usize, StepSums>> = spans
        .iter()
        .zip(&splits)
        .map(|(s, sp)| step_sums(s, sp))
        .collect();
    let steps: Vec<usize> = sums
        .first()
        .map(|m| m.keys().copied().collect())
        .unwrap_or_default();
    let per_step = |f: &dyn Fn(&StepSums) -> f64| -> Vec<f64> {
        steps
            .iter()
            .map(|k| {
                sums.iter()
                    .filter_map(|m| m.get(k))
                    .map(f)
                    .fold(f64::MIN, f64::max)
            })
            .collect()
    };
    let med = |f: &dyn Fn(&StepSums) -> f64| median(&per_step(f));

    let mut m = Metrics::default();
    m.set("gate.us", med(&|s| s.gate), "us");
    m.set("order.fwd_us", med(&|s| s.order_fwd), "us");
    m.set("order.bwd_us", med(&|s| s.order_bwd), "us");
    let drops: Vec<Vec<f64>> = outs.iter().map(|o| o.route_drop.clone()).collect();
    m.set("route.drop_ratio", median(&max_across(&drops)), "ratio");
    m.set("a2a.busy_us", med(&|s| s.a2a_busy), "us");
    m.set("a2a.wait_us", med(&|s| s.a2a_wait), "us");
    m.set("a2a.calls", med(&|s| s.a2a_calls), "count");
    m.set("a2a.bytes", med(&|s| s.a2a_bytes), "B");
    m.set(
        "a2a.gbps",
        med(&|s| ratio(s.a2a_bytes, s.a2a_busy) / 1e3),
        "GB/s",
    );
    m.set(
        "a2a.useful_bytes_ratio",
        med(&|s| ratio(s.a2a_useful, s.a2a_rows)),
        "ratio",
    );
    m.set("esp.ag_busy_us", med(&|s| s.ag_busy), "us");
    m.set("esp.rs_busy_us", med(&|s| s.rs_busy), "us");
    m.set("esp.wait_us", med(&|s| s.esp_wait), "us");
    m.set("esp.calls", med(&|s| s.esp_calls), "count");
    m.set("esp.bytes", med(&|s| s.esp_bytes), "B");
    m.set("expert.fwd_us", med(&|s| s.expert_fwd), "us");
    m.set("expert.bwd_us", med(&|s| s.expert_bwd), "us");
    m.set(
        "expert.gflops",
        med(&|s| ratio(s.expert_flops, s.expert_fwd + s.expert_bwd) / 1e3),
        "GFLOP/s",
    );
    m.set(
        "expert.useful_rows_ratio",
        med(&|s| ratio(s.expert_useful, s.expert_rows)),
        "ratio",
    );
    m.set("layout.us", med(&|s| s.layout), "us");
    m.set("update.us", med(&|s| s.update), "us");
    m.set("step.page_faults", med(&|s| s.faults), "count");

    // Elastic step classes: stall = median class step − median plain.
    let walls = per_step(&|s| s.wall);
    let classes = per_step(&|s| f64::from(s.class));
    let of_class = |want: u8| -> Vec<f64> {
        walls
            .iter()
            .zip(&classes)
            .filter(|(_, &c)| {
                let c = c as u8;
                if want == 0 {
                    c == 0
                } else {
                    c & want != 0 && (want == MIGRATION || c & MIGRATION == 0)
                }
            })
            .map(|(&w, _)| w)
            .collect()
    };
    let plain = median(&of_class(0));
    let stall = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            (median(&v) - plain) / 1e3
        }
    };
    let elastic = w.driver == crate::workload::Driver::Elastic;
    m.set(
        "snapshot.stall_ms",
        if elastic {
            stall(of_class(SNAPSHOT))
        } else {
            0.0
        },
        "ms",
    );
    m.set(
        "migrate.stall_ms",
        if elastic {
            stall(of_class(MIGRATION))
        } else {
            0.0
        },
        "ms",
    );
    m.set(
        "migrations",
        outs.iter().map(|o| o.migrations).max().unwrap_or(0) as f64,
        "count",
    );

    m.set(
        "unattributed_pct",
        med(&|s| ratio(s.wall - s.attributed(), s.wall) * 100.0),
        "%",
    );
    let traced_tps = w.world_tokens() as f64 / (median(&walls) * 1e-6);
    m.set(
        "trace_overhead_pct",
        ratio(untraced_tps - traced_tps, untraced_tps) * 100.0,
        "%",
    );
    m.set(
        "scaling_eff",
        ratio(untraced_tps, w.ranks as f64 * single_tps),
        "ratio",
    );
    let attempted: usize = outs.iter().map(|o| o.losses.len()).max().unwrap_or(0);
    let degraded: usize = outs.iter().map(|o| o.degraded).max().unwrap_or(0);
    m.set(
        "fail_ratio",
        ratio(degraded as f64, attempted as f64),
        "ratio",
    );
    (m, traced_tps)
}
