//! One benchmark run: command line, worlds, guards and the result.

use std::path::PathBuf;
use std::time::Instant;

use jsonio::Json;

use crate::report::{per_layer, tokens_per_s, untraced_step_us, Metrics, StepSummary};
use crate::run::{run_world, Phase, Plan, RankOut, WARMUP};
use crate::stats::median;
use crate::trace::Span;
use crate::workload::{Driver, Workload};
use crate::Result;

/// Worlds built per untraced run; `setup_s` is their median set-up.
pub const SETUP_REPS: usize = 15;

/// Lowest `unattributed_pct` a layer workload's traced run accepts.
/// Below it the replayed stages take longer than the real step, which
/// means the layer no longer runs the copies and collectives the replay
/// repeats, and the replay's stage metrics time code the layer dropped.
pub const UNATTRIBUTED_FLOOR_PCT: f64 = -5.0;

/// Share of a traced run's seconds spent on traced steps; the rest is
/// split evenly between untraced 2-rank steps and the 1-rank baseline.
const TRACED_SHARE: f64 = 0.5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Where a traced run writes its spans (Chrome trace JSON).
    pub spans: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--spans P]`.
    ///
    /// # Errors
    ///
    /// Returns an error on a missing, unknown or malformed flag.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut spans = None;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                    })
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}").into()),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}").into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            spans,
        })
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns freed heap memory to the OS and restarts the `VmHWM` peak
/// from the current resident set, so that a later [`peak_rss_mb`]
/// covers only what is resident from here on.
///
/// # Errors
///
/// Returns an error when `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only hands free
        // heap pages back to the OS under the allocator's own locks.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}").into())
}

fn setup_s(outs: &[RankOut]) -> f64 {
    outs.iter().map(|o| o.setup_us).fold(0.0, f64::max) / 1e6
}

/// Checks every rank's outputs and that the workload exercised what it
/// was chosen for; returns the broken conditions.
fn guards(w: &Workload, outs: &[RankOut], traced: bool) -> Vec<String> {
    let mut bad: Vec<String> = outs
        .iter()
        .enumerate()
        .flat_map(|(r, o)| o.errors.iter().map(move |e| format!("rank {r}: {e}")))
        .collect();
    let steps: Vec<usize> = outs.iter().map(|o| o.losses.len()).collect();
    if steps.windows(2).any(|p| p[0] != p[1]) {
        bad.push(format!("ranks ran different step counts {steps:?}"));
    }
    if outs.iter().any(|o| o.losses.iter().any(|l| !l.is_finite())) {
        bad.push("non-finite loss".into());
    }
    if outs.iter().any(|o| o.degraded > 0) {
        bad.push("an exchange degraded (dropped_tokens grew)".into());
    }
    if outs.iter().any(|o| o.checked == 0) {
        bad.push("no step was checked against the replay".into());
    }
    if traced && outs.iter().any(|o| o.spans.is_empty()) {
        bad.push("traced run recorded no spans".into());
    }
    if w.ranks > 1 {
        match w.name {
            "esp_mixtral" if outs.iter().any(|o| o.ep_group != 1) => {
                bad.push("esp_mixtral ran with an EP group larger than 1".into())
            }
            "skew_elastic" => {
                if outs.iter().any(|o| o.migrations == 0) {
                    bad.push("skew_elastic ran without a migration".into());
                }
                if outs.iter().any(|o| o.snapshots == 0) {
                    bad.push("skew_elastic ran without a snapshot step".into());
                }
                if !outs.iter().any(|o| o.route_drop.iter().any(|&d| d > 0.0)) {
                    bad.push("skew_elastic dropped no token at capacity".into());
                }
            }
            _ => {}
        }
    }
    bad
}

fn chrome_trace(outs: &[RankOut]) -> Json {
    let events = outs
        .iter()
        .enumerate()
        .flat_map(|(rank, o)| o.spans.iter().map(move |s: &Span| (rank, s)))
        .map(|(rank, s)| {
            Json::obj([
                ("name", Json::Str(s.stage.name().into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us())),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(rank as f64)),
                (
                    "args",
                    Json::obj([
                        ("step", Json::Num(s.step as f64)),
                        ("bytes", Json::Num(s.bytes as f64)),
                        ("group", Json::Num(s.group as f64)),
                        ("class", Json::Num(f64::from(s.class))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))])
}

fn num(v: usize) -> Json {
    Json::Num(v as f64)
}

/// Runs one benchmark invocation and returns its result object:
/// `correct`, `attempted`, `failed`, `metrics`, plus the run `record`
/// and any `errors`.
///
/// # Errors
///
/// Returns an error for bad arguments, for more compute threads than
/// the machine has, and when the span file cannot be written.
pub fn run(args: &Args) -> Result<Json> {
    let w = Workload::by_name(&args.workload)?;
    let nproc = tensor::par::hardware_threads();
    let threads = tensor::par::num_threads();
    if w.ranks * threads > nproc {
        return Err(format!(
            "{} ranks x {threads} compute threads exceed nproc = {nproc}; set TENSOR_THREADS=1",
            w.ranks
        )
        .into());
    }
    let s = args.seconds;
    let (traced_s, untraced_s) = if args.trace {
        (s * TRACED_SHARE, s * (1.0 - TRACED_SHARE) / 2.0)
    } else {
        (0.0, s)
    };
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut outs = Vec::new();
    for i in 0..reps {
        let plan = Plan {
            epoch: Instant::now(),
            setup_only: i + 1 < reps,
            traced: Phase::new(traced_s),
            untraced: Phase::new(untraced_s),
            min_steps: w.loss_horizon,
        };
        let o = run_world(&w, args.seed, plan);
        setups.push(setup_s(&o));
        outs = o;
    }
    let step_us = untraced_step_us(&outs);
    let summary = StepSummary::of(&step_us);
    let tps = tokens_per_s(&w, &step_us);
    let attempted = outs.iter().map(|o| o.losses.len()).max().unwrap_or(0);
    let failed = outs.iter().map(|o| o.degraded).max().unwrap_or(0);
    let mut errors = guards(&w, &outs, args.trace);
    if summary.samples == 0 {
        errors.push("no timed step".into());
    }

    let mut record = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(s)),
        ("nproc", num(nproc)),
        ("ranks", num(w.ranks)),
        ("compute_threads_per_rank", num(threads)),
        ("shape", Json::Str(w.shape())),
        (
            "loop",
            Json::Str("closed: each rank issues step i+1 when step i returns".into()),
        ),
        ("steps", num(attempted)),
        (
            "replay_checked_steps",
            num(outs.iter().map(|o| o.checked).min().unwrap_or(0)),
        ),
        ("step_samples", num(summary.samples)),
        ("p50_tail_samples", num(summary.p50_tail)),
        ("p90_tail_samples", num(summary.p90_tail)),
        ("p90_flagged", Json::Bool(summary.p90_tail < 10)),
        ("loss_horizon", num(w.loss_horizon)),
        (
            "migrations",
            num(outs.iter().map(|o| o.migrations).max().unwrap_or(0)),
        ),
        (
            "snapshot_steps",
            num(outs.iter().map(|o| o.snapshots).max().unwrap_or(0)),
        ),
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ];
    if summary.p90_tail < 10 {
        eprintln!(
            "note: step_ms_p90 rests on {} samples beyond it (fewer than ten)",
            summary.p90_tail
        );
    }

    let metrics = if args.trace {
        let single = w.single_rank();
        let plan = Plan {
            epoch: Instant::now(),
            setup_only: false,
            traced: Phase::new(0.0),
            untraced: Phase::new(untraced_s),
            min_steps: WARMUP + 1,
        };
        let single_outs = run_world(&single, args.seed, plan);
        let single_us = untraced_step_us(&single_outs);
        let single_tps = tokens_per_s(&single, &single_us);
        record.push(("single_rank_steps", num(single_us.len())));
        let (m, traced_tps) = per_layer(&w, &outs, tps, single_tps);
        if w.driver == Driver::Layer {
            let unattributed = m.get("unattributed_pct");
            if unattributed < UNATTRIBUTED_FLOOR_PCT {
                errors.push(format!(
                    "unattributed_pct is {unattributed:.2}%, below {UNATTRIBUTED_FLOOR_PCT}%: \
                     the replayed stages take longer than the real step, so the \
                     replay no longer mirrors DistMoeLayer's internals"
                ));
            }
        }
        record.push(("untraced_tokens_per_s", Json::Num(tps)));
        record.push(("traced_tokens_per_s", Json::Num(traced_tps)));
        record.push(("single_rank_tokens_per_s", Json::Num(single_tps)));
        if let Some(path) = &args.spans {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, chrome_trace(&outs).to_string()?)?;
        }
        m
    } else {
        let mut m = Metrics::default();
        m.set("tokens_per_s", tps, "tokens/s");
        m.set("step_ms_p50", summary.p50_ms, "ms");
        m.set("step_ms_p90", summary.p90_ms, "ms");
        m.set("setup_s", median(&setups), "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        let horizon = w.loss_horizon - 1;
        let losses: Vec<f64> = outs
            .iter()
            .filter_map(|o| o.losses.get(horizon))
            .map(|&l| f64::from(l))
            .collect();
        m.set(
            "loss_final",
            losses.iter().sum::<f64>() / losses.len().max(1) as f64,
            "mse",
        );
        m
    };
    if w.driver == Driver::Elastic {
        record.push(("snapshot_interval", num(crate::workload::SNAPSHOT_INTERVAL)));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(errors.is_empty())),
        ("attempted", num(attempted)),
        ("failed", num(failed)),
        ("metrics", metrics.to_json()),
        ("record", Json::obj(record)),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
    ]))
}
