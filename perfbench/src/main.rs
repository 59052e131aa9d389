//! The Agilla simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <field_100k|paper_testbed|mobile_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark repeats the pass's timed trials back to
//! back, one at a time on one thread, for `--seconds` host seconds, then
//! runs the rest of the pass once, and prints the end-to-end metrics.
//! With `--trace 1` it runs an untraced, a traced and another untraced
//! pass, then the layer probes, and prints the per-layer metrics. Either way it checks the simulated outputs (agent accounting,
//! determinism against `ScenarioSpec::execute`) and prints, as its last
//! stdout line, one JSON object: `correct`, `attempted` (trials run),
//! `failed` (trials that failed a check) and `metrics`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod cpus;
mod driver;
mod probes;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use agilla::testbed::TrialStep;
use driver::{run_trial, Counts, Fingerprint, Outcome, Timing, Traced, Tracer};
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <field_100k|paper_testbed|mobile_mix> \
--seed <n> --seconds <s> --trace <0|1>";

/// Set-ups each spec's best set-up time is taken over at least: passes
/// that fall short are topped up with extra compile+build rounds.
const SETUP_SAMPLES: usize = 9;

/// Whole passes every untraced run makes at least, so each spec's best
/// time is a best of several.
const MIN_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one invocation prints.
struct Report {
    lines: Vec<String>,
    defects: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for d in &self.defects {
            println!("CHECK FAILED: {d}");
        }
        let correct = self.defects.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let wl = Workload::new(&args.workload, args.seed).expect("name validated by parse_args");
    let report = if args.trace {
        traced_run(&args, &wl)
    } else {
        untraced_run(&args, &wl)
    };
    report.print();
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
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

/// Sums a pass's counts.
fn pass_counts(outcomes: &[Outcome]) -> Counts {
    let mut c = Counts::default();
    for o in outcomes {
        c.add(&o.counts);
    }
    c
}

/// The deterministic counts, printed beside the timings so a later change
/// can show every simulated statistic stayed identical.
fn count_lines(c: &Counts) -> Vec<String> {
    let refused: Vec<String> = driver::REFUSALS
        .iter()
        .zip(c.refused)
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    vec![
        format!(
            "counts: sim_s={} events={} frames={} beacons={} lost_copies={} moves={}",
            c.sim_us as f64 / 1e6,
            c.events,
            c.frames,
            c.beacons,
            c.lost_copies,
            c.moves
        ),
        format!(
            "counts: migration started={} arrived={} retx={} remote issued={} ok={} retx={} reack={}",
            c.mig_started,
            c.mig_arrived,
            c.mig_retx,
            c.remote_issued,
            c.remote_ok,
            c.remote_retx,
            c.remote_reack
        ),
        format!(
            "ops: offered={} completed={} failed={} op_success_ratio={:.6} | refused {} | halted_failed={} faulted={} evicted={} unfinished={} lost={} | duplicated={}",
            c.offered,
            c.completed,
            c.failed(),
            ratio(c.completed, c.offered),
            refused.join(" "),
            c.halted_failed,
            c.faulted,
            c.evicted,
            c.resident,
            c.lost,
            c.duplicated
        ),
        format!(
            "tenancy: rejected={} evicted={} completed={}",
            c.tenancy_rejected, c.tenancy_evicted, c.tenancy_completed
        ),
    ]
}

/// Runs `ScenarioSpec::execute` on the pass's first spec and checks that
/// the driver's trial of the same spec left the same network behind.
fn check_against_execute(wl: &Workload, first: &Outcome, defects: &mut Vec<String>) {
    let trial = wl.specs[0].execute();
    let fp = Fingerprint::of(&trial.net, &trial.agents, &trial.rejected);
    if fp != first.fingerprint {
        defects.push(format!(
            "stepped driver diverged from ScenarioSpec::execute on the sample trial: {:?} vs {:?}",
            first.fingerprint, fp
        ));
    }
}

/// One spec's best-of-k timing: the minimum over passes of each timed
/// call, in seconds.
#[derive(Clone)]
struct Best {
    setup: f64,
    calls: Vec<f64>,
    teardown: f64,
}

impl Best {
    fn from(t: &Timing) -> Best {
        Best {
            setup: t.setup.as_secs_f64(),
            calls: t.calls.iter().map(Duration::as_secs_f64).collect(),
            teardown: t.teardown.as_secs_f64(),
        }
    }

    /// Folds in another pass; false when its call sequence differs.
    fn merge(&mut self, t: &Timing) -> bool {
        if t.calls.len() != self.calls.len() {
            return false;
        }
        self.setup = self.setup.min(t.setup.as_secs_f64());
        self.teardown = self.teardown.min(t.teardown.as_secs_f64());
        for (b, c) in self.calls.iter_mut().zip(&t.calls) {
            *b = b.min(c.as_secs_f64());
        }
        true
    }

    /// The run phase: every network call.
    fn run(&self) -> f64 {
        self.calls.iter().sum()
    }

    /// The whole trial: set-up, run phase, teardown.
    fn total(&self) -> f64 {
        self.setup + self.run() + self.teardown
    }
}

fn untraced_run(args: &Args, wl: &Workload) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    let n = wl.specs.len();
    let start = Instant::now();
    let mut first: Vec<Outcome> = Vec::new();
    // Per spec, the fastest of its passes for each timed call: set-up,
    // every network call of the run phase, teardown. Every pass repeats
    // identical work call for call, and host noise on a shared machine
    // only ever adds time, so the best of k repeats is the steady estimate.
    let mut best: Vec<Option<Best>> = vec![None; wl.timed];
    let mut trials = 0u64;
    let mut passes = 0usize;
    let mut failed = 0u64;
    let mut defects = Vec::new();
    let rotation = cpus::Rotation::new();
    // The whole budget goes to passes of the timed trials; the rest of the
    // pass runs once afterwards, for the simulated statistics only.
    while passes < MIN_PASSES || start.elapsed() < budget {
        rotation.pin(passes);
        for (i, spec) in wl.specs[..wl.timed].iter().enumerate() {
            let (o, t) = run_trial(spec, wl.slice, None, |_| {});
            trials += 1;
            match &mut best[i] {
                None => best[i] = Some(Best::from(&t)),
                Some(b) => {
                    if !b.merge(&t) {
                        failed += 1;
                        defects.push(format!(
                            "trial {i} changed its call sequence between passes"
                        ));
                    }
                }
            }
            if !o.defects.is_empty() {
                failed += 1;
                defects.extend(o.defects.iter().take(3).cloned());
            }
            if passes == 0 {
                first.push(o);
            } else if o.counts != first[i].counts || o.fingerprint != first[i].fingerprint {
                failed += 1;
                defects.push(format!("trial {i} changed its outcome between passes"));
            }
        }
        passes += 1;
    }
    let mut best: Vec<Best> = best.into_iter().flatten().collect();
    // Top up thin set-up samples (one-trial passes) with extra set-ups.
    for k in passes..SETUP_SAMPLES {
        rotation.pin(k);
        for (spec, b) in wl.specs.iter().zip(&mut best) {
            let t = Instant::now();
            let compiled = spec.compile();
            let net = compiled.build();
            b.setup = b.setup.min(t.elapsed().as_secs_f64());
            drop((net, compiled));
        }
    }
    rotation.release();
    for spec in &wl.specs[wl.timed..] {
        let (o, _) = run_trial(spec, wl.slice, None, |_| {});
        trials += 1;
        if !o.defects.is_empty() {
            failed += 1;
            defects.extend(o.defects.iter().take(3).cloned());
        }
        first.push(o);
    }
    let rss = peak_rss_mb();
    check_against_execute(wl, &first[0], &mut defects);

    let counts = pass_counts(&first);
    let sim_s = pass_counts(&first[..best.len()]).sim_us as f64 / 1e6;
    let setups: Vec<f64> = best.iter().map(|b| b.setup).collect();
    let run_s: f64 = best.iter().map(Best::run).sum();
    let totals_ms: Vec<f64> = best.iter().map(|b| b.total() * 1e3).collect();
    let latencies_ms: Vec<f64> = first
        .iter()
        .flat_map(|o| o.latencies_us.iter().map(|&us| us as f64 / 1e3))
        .collect();

    let mut lines = vec![format!(
        "perfbench {} seed={} trials={} passes={} specs_per_pass={} timed_specs={} completed_latency_samples={}",
        args.workload,
        args.seed,
        trials,
        passes,
        n,
        best.len(),
        latencies_ms.len()
    )];
    lines.extend(count_lines(&counts));
    Report {
        lines,
        defects,
        attempted: trials,
        failed,
        metrics: vec![
            ("sim_s_per_wall_s", sim_s / run_s, "sim-s/s"),
            (
                "trials_per_s",
                best.len() as f64 / (totals_ms.iter().sum::<f64>() / 1e3),
                "1/s",
            ),
            ("trial_ms_p50", percentile(&totals_ms, 0.50), "ms"),
            ("trial_ms_p99", percentile(&totals_ms, 0.99), "ms"),
            ("setup_s", percentile(&setups, 0.50), "s"),
            ("peak_rss_mb", rss, "MB"),
            (
                "op_success_ratio",
                ratio(counts.completed, counts.offered),
                "ratio",
            ),
            ("op_sim_ms_p50", percentile(&latencies_ms, 0.50), "sim-ms"),
            ("op_sim_ms_p90", percentile(&latencies_ms, 0.90), "sim-ms"),
        ],
    }
}

/// What the probes take from the traced pass's last trial.
struct Harvest {
    topology: wsn_radio::Topology,
    tuples: Vec<agilla_tuplespace::Tuple>,
}

fn harvest(net: &agilla::AgillaNetwork) -> Harvest {
    let mut seen = std::collections::HashSet::new();
    let mut tuples = Vec::new();
    'nodes: for node in net.medium().topology().nodes() {
        for t in net.node(node).space.iter() {
            if seen.insert(t.encode()) {
                tuples.push(t);
                if tuples.len() >= 512 {
                    break 'nodes;
                }
            }
        }
    }
    Harvest {
        topology: net.medium().topology().clone(),
        tuples,
    }
}

fn traced_run(args: &Args, wl: &Workload) -> Report {
    let mut defects = Vec::new();
    let mut failed = 0u64;

    let untraced_pass = || {
        let t = Instant::now();
        let outcomes: Vec<Outcome> = wl
            .specs
            .iter()
            .map(|spec| run_trial(spec, wl.slice, None, |_| {}).0)
            .collect();
        (outcomes, t.elapsed())
    };
    let (untraced, untraced_wall) = untraced_pass();

    let mut tracer = Tracer::new();
    let mut sample = None;
    let last = wl.specs.len() - 1;
    let t = Instant::now();
    for (i, spec) in wl.specs.iter().enumerate() {
        let traced = Traced {
            tracer: &mut tracer,
            trial: i as u32,
        };
        let (o, _) = run_trial(spec, wl.slice, Some(traced), |net| {
            if i == last {
                sample = Some(harvest(net));
            }
        });
        let u = &untraced[i];
        if !o.defects.is_empty() || !u.defects.is_empty() {
            failed += 1;
            defects.extend(o.defects.iter().chain(&u.defects).take(3).cloned());
        }
        if o.counts != u.counts || o.fingerprint != u.fingerprint {
            failed += 1;
            defects.push(format!(
                "traced trial {i} diverged from the untraced run: {:?} vs {:?}",
                o.counts, u.counts
            ));
        }
    }
    let traced_wall = t.elapsed();
    // A second untraced pass after the traced one, so the overhead ratio
    // is not skewed by which pass ran first.
    let untraced_wall = untraced_wall.min(untraced_pass().1);
    check_against_execute(wl, &untraced[0], &mut defects);

    let counts = pass_counts(&untraced);
    let sample = sample.expect("the pass has a last trial");
    let spec = &wl.specs[last];
    let mut sources: BTreeMap<String, u64> = BTreeMap::new();
    for s in &wl.specs {
        for step in s.compile().steps {
            if let TrialStep::Inject { source, .. }
            | TrialStep::TryInject { source, .. }
            | TrialStep::TryInjectAs { source, .. } = step
            {
                *sources.entry(source).or_default() += 1;
            }
        }
    }
    let sim_s = counts.sim_us as f64 / 1e6;
    let inputs = probes::Inputs {
        fresh_topology: wl.topology,
        boot_topology: workloads::topology_of(spec),
        final_topology: sample.topology,
        loss: workloads::loss_of(spec),
        frames_per_sim_s: counts.frames as f64 / sim_s,
        beacon_share: ratio(counts.beacons, counts.events),
        motion: spec.motion.clone(),
        horizon: spec.horizon,
        sources,
        tuples: sample.tuples,
        seed: args.seed,
    };
    let probe_results = probes::run(&inputs);

    let spans_path = write_spans(&tracer, args);
    let us = |v: Vec<u64>, q: f64| {
        percentile(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>(), q)
    };
    let mut inject = tracer.durations("network.inject_source");
    inject.extend(tracer.durations("network.inject_source_as"));
    let slices = tracer.durations("network.run_for");
    let slice_ns: u64 = slices.iter().sum();
    let [no_slots, unverifiable, quota, dead] = counts.refused;

    let mut metrics: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "scenario.compile_us",
            us(tracer.durations("scenario.compile"), 0.5),
            "us",
        ),
        (
            "testbed.build_ms",
            us(tracer.durations("testbed.build"), 0.5) / 1e3,
            "ms",
        ),
        (
            "testbed.teardown_ms",
            us(tracer.durations("testbed.teardown"), 0.5) / 1e3,
            "ms",
        ),
        ("network.inject_us", us(inject, 0.5), "us"),
        ("network.injects", counts.admitted as f64, "count"),
        ("network.refused.no_slots", no_slots as f64, "count"),
        ("network.refused.unverifiable", unverifiable as f64, "count"),
        ("network.refused.quota", quota as f64, "count"),
        ("network.refused.dead", dead as f64, "count"),
        ("network.slice_ms_p50", us(slices.clone(), 0.5) / 1e3, "ms"),
        ("network.slice_ms_p99", us(slices, 0.99) / 1e3, "ms"),
        ("network.events", counts.events as f64, "count"),
        (
            "network.events_per_sim_s",
            counts.events as f64 / sim_s,
            "1/sim-s",
        ),
        (
            "network.ns_per_event",
            slice_ns as f64 / counts.events.max(1) as f64,
            "ns",
        ),
        ("radio.frames_sent", counts.frames as f64, "count"),
        ("radio.beacons", counts.beacons as f64, "count"),
        (
            "radio.lost_copies_per_frame",
            ratio(counts.lost_copies, counts.frames),
            "ratio",
        ),
        ("motion.moves", counts.moves as f64, "count"),
        ("migration.started", counts.mig_started as f64, "count"),
        ("migration.arrived", counts.mig_arrived as f64, "count"),
        (
            "migration.arrived_ratio",
            ratio(counts.mig_arrived, counts.mig_started),
            "ratio",
        ),
        (
            "migration.retx_per_arrival",
            ratio(counts.mig_retx, counts.mig_arrived),
            "ratio",
        ),
        (
            "migration.duplicated_agents",
            counts.duplicated as f64,
            "count",
        ),
        ("remote.issued", counts.remote_issued as f64, "count"),
        (
            "remote.ok_ratio",
            ratio(counts.remote_ok, counts.remote_issued),
            "ratio",
        ),
        ("remote.retx", counts.remote_retx as f64, "count"),
        ("remote.reack", counts.remote_reack as f64, "count"),
        ("tenancy.rejected", counts.tenancy_rejected as f64, "count"),
        ("tenancy.evicted", counts.tenancy_evicted as f64, "count"),
        (
            "tenancy.completed",
            counts.tenancy_completed as f64,
            "count",
        ),
        (
            "trace.overhead_ratio",
            traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
            "ratio",
        ),
    ];
    metrics.extend(probe_results);

    let mut lines = vec![format!(
        "perfbench {} seed={} traced pass: trials={} spans={} untraced_s={:.3} traced_s={:.3} spans_file={}",
        args.workload,
        args.seed,
        wl.specs.len(),
        tracer.spans.len(),
        untraced_wall.as_secs_f64(),
        traced_wall.as_secs_f64(),
        spans_path
    )];
    lines.extend(count_lines(&counts));
    lines.extend(
        metrics
            .iter()
            .map(|(name, v, unit)| format!("layer {name:<32} {v:>16.4} {unit}")),
    );
    Report {
        lines,
        defects,
        attempted: 3 * wl.specs.len() as u64,
        failed,
        metrics,
    }
}

/// Writes the traced pass's spans as JSON lines next to the benchmark
/// sources, returning the path (or why it could not be written).
fn write_spans(tracer: &Tracer, args: &Args) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let file = format!("spans-{}-seed{}.jsonl", args.workload, args.seed);
    let path = format!("{dir}/{file}");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => format!("perfbench/out/{file}"),
        Err(e) => format!("(not written: {e})"),
    }
}
