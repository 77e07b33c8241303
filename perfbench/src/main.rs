//! `recipe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload's trial (same seed, fresh deployment) for about
//! `--seconds` of wall time, checks every trial, and prints each metric by
//! name with its unit, then one JSON line. `--trace 0` gives the end-to-end
//! metrics; `--trace 1` runs the workload untraced and traced and gives the
//! per-layer metrics. Any failed check exits non-zero before the JSON line.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use recipe_perfbench::timed::Ledger;
use recipe_perfbench::trial::{self, Round, Trial};
use recipe_perfbench::units;
use recipe_perfbench::workload::Workload;
use recipe_perfbench::{json_line, median, Metric};
use recipe_telemetry::CostCategory;

/// Figures printed by both modes but carried by neither JSON line: each is a
/// time that reads the same on every seed of some workload (`p50_us` is the
/// 5 us leader-local read on `confidential-read-heavy`; `max_stall_ms` is
/// quantised to the timeline bucket).
const PRINTED_ONLY: [&str; 2] = ["p50_us", "max_stall_ms"];

/// `setup_s` is the median of this many set-ups, made before the first trial.
const SETUPS: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Repeats untraced trials for about `budget` seconds (at least three, for a
/// median), stopping before a trial that would overrun the budget.
fn trials(args: &Args, budget: f64) -> Result<Vec<Trial>, String> {
    let start = Instant::now();
    let mut out: Vec<Trial> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_trial = if out.is_empty() {
            0.0
        } else {
            elapsed / out.len() as f64
        };
        if out.len() >= 3 && elapsed + per_trial > budget {
            return Ok(out);
        }
        out.push(trial::run(&args.workload.shape(), args.seed, false)?);
    }
}

/// Every trial of one seed must have produced the same virtual outcome.
fn check_identical(reference: &Trial, trials: &[Trial]) -> Result<(), String> {
    if trials.iter().all(|t| t.same_outcome(reference)) {
        Ok(())
    } else {
        Err("two trials of one seed produced different virtual outcomes".into())
    }
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak_rss_mb: no VmHWM line")?;
    Ok(kb / 1024.0)
}

fn med(trials: &[Trial], f: impl Fn(&Trial) -> f64) -> f64 {
    median(&mut trials.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics a run reports in its JSON line and with
/// `--trace 0`.
fn end_to_end(trials: &[Trial], setup_s: f64) -> Result<Vec<Metric>, String> {
    let t = &trials[0];
    Ok(vec![
        Metric::new(
            "wall_us_per_op",
            med(trials, Trial::wall_us_per_op),
            "us/op",
        ),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
        Metric::new("vops_per_s", t.vops_per_s(), "1/s"),
        Metric::new("p99_us", t.p99_us(), "us"),
    ])
}

/// The other four end-to-end figures, printed by both modes. Each can read 0
/// or the same on every seed of some workload (`diverged_keys` is 0 without a
/// crash), so the untraced JSON line leaves them out; the traced one carries
/// the two that are not [`PRINTED_ONLY`] with the per-layer metrics.
fn outcome(t: &Trial) -> Vec<Metric> {
    vec![
        Metric::new("p50_us", t.p50_us(), "us"),
        Metric::new("max_stall_ms", t.max_stall_ms(), "ms"),
        Metric::new("error_rate", t.error_rate(), "ratio"),
        Metric::new("diverged_keys", t.diverged_keys() as f64, "count"),
    ]
}

fn hooks(trial: &Trial) -> &Ledger {
    trial.ledger.as_ref().expect("traced trials carry a ledger")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics: hook times and counts from the traced trials,
/// virtual cost attribution, unit costs, and the tracing overhead.
fn per_layer(args: &Args, untraced: &[Trial], traced: &[Trial]) -> Result<Vec<Metric>, String> {
    let t = &traced[0];
    let ops = t.ops() as f64;
    let hook_us = |f: fn(&Ledger) -> f64| med(traced, |trial| f(hooks(trial)));
    let l = hooks(t);
    // Counts are summed over the trial's rounds.
    let sum = |f: &dyn Fn(&Round) -> u64| t.rounds.iter().map(f).sum::<u64>() as f64;
    let gateway = |f: fn(&recipe_gateway::TenantStats) -> u64| {
        sum(&|r| r.stats.gateway.tenants.iter().map(f).sum())
    };
    let mut attribution = Vec::new();
    for round in &t.rounds {
        let report = round
            .telemetry
            .as_ref()
            .ok_or("traced round without telemetry")?;
        attribution.extend(report.attribution.iter().cloned());
    }
    let cost =
        |cat: CostCategory| attribution.iter().map(|a| a.busy.get(cat)).sum::<u64>() as f64 / ops;
    let capacity: u64 = attribution.iter().map(|a| a.capacity_ns()).sum();
    let units = units::measure(
        &args.workload.shape(),
        Duration::from_secs_f64((args.seconds * 0.1).max(1.0)),
    )?;
    let overhead = med(traced, Trial::wall_us_per_op) / med(untraced, Trial::wall_us_per_op) - 1.0;

    let mut m = vec![
        Metric::new(
            "replica.on_message_us",
            hook_us(|l| ratio(l.message.ns as f64, l.message.calls as f64) / 1e3),
            "us",
        ),
        Metric::new(
            "replica.on_message_per_op",
            l.message.calls as f64 / ops,
            "calls/op",
        ),
        Metric::new(
            "replica.on_client_request_us",
            hook_us(|l| ratio(l.client_request.ns as f64, l.client_request.calls as f64) / 1e3),
            "us",
        ),
        Metric::new(
            "replica.on_timer_us_per_op",
            med(traced, |tr| {
                hooks(tr).timer.ns as f64 / 1e3 / tr.ops() as f64
            }),
            "us/op",
        ),
        Metric::new(
            "replica.txn_us_per_op",
            med(traced, |tr| hooks(tr).txn.ns as f64 / 1e3 / tr.ops() as f64),
            "us/op",
        ),
        Metric::new(
            "replica.wall_share",
            med(traced, |tr| hooks(tr).total_ns() as f64 / (tr.wall_s * 1e9)),
            "share",
        ),
        Metric::new(
            "driver.self_us_per_op",
            med(traced, |tr| {
                (tr.wall_s * 1e9 - hooks(tr).total_ns() as f64) / 1e3 / tr.ops() as f64
            }),
            "us/op",
        ),
        Metric::new(
            "net.msgs_per_op",
            sum(&|r| r.stats.total.messages_delivered) / ops,
            "msgs/op",
        ),
        Metric::new(
            "net.bytes_per_msg",
            ratio(l.message_bytes as f64, l.message.calls as f64),
            "bytes",
        ),
        Metric::new("net.bytes_per_op", l.message_bytes as f64 / ops, "bytes/op"),
        Metric::new(
            "net.injected_copies",
            sum(&|r| r.stats.total.messages_replayed),
            "count",
        ),
        Metric::new(
            "shield.sealed_frames_per_op",
            sum(&|r| r.counters.sealed_frames) / ops,
            "frames/op",
        ),
        Metric::new(
            "shield.ops_per_frame",
            ratio(
                sum(&|r| r.counters.sealed_ops),
                sum(&|r| r.counters.sealed_frames),
            ),
            "ops/frame",
        ),
        Metric::new(
            "shield.rejected_frames",
            sum(&|r| r.counters.rejected_frames),
            "count",
        ),
        Metric::new(
            "batch.timer_flush_share",
            ratio(
                sum(&|r| r.counters.batch_timer_flushes),
                sum(&|r| r.counters.batch_flushes),
            ),
            "share",
        ),
        Metric::new(
            "txn.abort_ratio",
            ratio(sum(&|r| r.stats.txn.aborted), sum(&|r| r.stats.txn.started)),
            "ratio",
        ),
        Metric::new(
            "txn.frames_per_txn",
            ratio(
                sum(&|r| r.stats.txn.frames_sent),
                sum(&|r| r.stats.txn.committed),
            ),
            "frames",
        ),
        Metric::new(
            "txn.bytes_per_txn",
            ratio(
                sum(&|r| r.stats.txn.wire_bytes),
                sum(&|r| r.stats.txn.committed),
            ),
            "bytes",
        ),
        Metric::new("gateway.admitted", gateway(|t| t.admitted), "count"),
        Metric::new("gateway.rejected", gateway(|t| t.rejected), "count"),
        Metric::new("gateway.throttled", gateway(|t| t.throttled), "count"),
    ];
    for (name, cat) in [
        ("cost.transport_ns_per_op", CostCategory::Transport),
        ("cost.counter_slot_ns_per_op", CostCategory::CounterSlot),
        ("cost.mac_ns_per_op", CostCategory::Mac),
        ("cost.aead_ns_per_op", CostCategory::Aead),
        ("cost.app_ns_per_op", CostCategory::App),
        ("cost.tee_exec_ns_per_op", CostCategory::TeeExec),
        ("cost.epc_pressure_ns_per_op", CostCategory::EpcPressure),
        ("cost.batch_overhead_ns_per_op", CostCategory::BatchOverhead),
        ("cost.replication_ns_per_op", CostCategory::Replication),
    ] {
        m.push(Metric::new(name, cost(cat), "ns/op"));
    }
    m.extend([
        Metric::new(
            "cost.idle_share",
            ratio(cost(CostCategory::Idle) * ops, capacity as f64),
            "share",
        ),
        Metric::new("crypto.mac_us_per_kb", units.mac_us_per_kb, "us/KiB"),
        Metric::new(
            "crypto.aead_seal_us_per_kb",
            units.aead_seal_us_per_kb,
            "us/KiB",
        ),
        Metric::new(
            "crypto.aead_open_us_per_kb",
            units.aead_open_us_per_kb,
            "us/KiB",
        ),
        Metric::new("crypto.sha256_us_per_kb", units.sha256_us_per_kb, "us/KiB"),
        Metric::new("shield.wrap_us", units.wrap_us, "us"),
        Metric::new("shield.unwrap_us", units.unwrap_us, "us"),
        Metric::new("shield.wrap_batch_us", units.wrap_batch_us, "us"),
        Metric::new("shield.frame_bytes", units.frame_bytes, "bytes"),
        Metric::new("kv.write_us", units.kv_write_us, "us"),
        Metric::new("kv.get_us", units.kv_get_us, "us"),
        Metric::new("gateway.admit_us", units.gateway_admit_us, "us"),
        Metric::new("trace.overhead", overhead, "ratio"),
    ]);
    Ok(m)
}

/// Runs the benchmark, prints every metric, and returns the JSON line.
fn run(args: &Args) -> Result<String, String> {
    let (printed, json, trials) = if args.trace {
        // Untraced and traced trials alternate, so a drift in machine speed
        // lands on both sides of `trace.overhead`.
        let shape = args.workload.shape();
        let start = Instant::now();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        loop {
            untraced.push(trial::run(&shape, args.seed, false)?);
            traced.push(trial::run(&shape, args.seed, true)?);
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed * (1.0 + 1.0 / traced.len() as f64) > args.seconds * 0.9 {
                break;
            }
        }
        check_identical(&untraced[0], &untraced)?;
        check_identical(&untraced[0], &traced)?;
        let mut printed = outcome(&traced[0]);
        printed.extend(per_layer(args, &untraced, &traced)?);
        let json = printed
            .iter()
            .filter(|m| !PRINTED_ONLY.contains(&m.name))
            .cloned()
            .collect();
        let all: Vec<Trial> = untraced.into_iter().chain(traced).collect();
        (printed, json, all)
    } else {
        let start = Instant::now();
        let mut setups: Vec<f64> = (0..SETUPS)
            .map(|_| trial::setup_only(&args.workload.shape(), args.seed))
            .collect();
        let budget = args.seconds - start.elapsed().as_secs_f64();
        let runs = trials(args, budget)?;
        check_identical(&runs[0], &runs)?;
        let json = end_to_end(&runs, median(&mut setups))?;
        let mut printed = json.clone();
        printed.extend(outcome(&runs[0]));
        (printed, json, runs)
    };
    // p99 is the highest percentile reported, so it needs ten samples
    // beyond it.
    let samples = trials[0]
        .rounds
        .iter()
        .map(Round::committed_requests)
        .min()
        .unwrap_or(0);
    if samples < 1_000 {
        return Err(format!(
            "{samples} latency samples leave fewer than 10 beyond p99"
        ));
    }
    println!(
        "workload {} seed {} trials {} latency_samples_per_round {} ({} beyond p99)",
        args.workload.name(),
        args.seed,
        trials.len(),
        samples,
        samples / 100,
    );
    for m in &printed {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let attempted = trials.iter().map(Trial::drawn).sum();
    let failed = trials.iter().map(Trial::rejected).sum();
    json_line(&json, attempted, failed)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
