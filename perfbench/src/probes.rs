//! Layer probes: micro-measurements of single layers, each fed with inputs
//! taken from the workload's own run. Probes work on copies (a cloned
//! topology, fresh media, queues and tuple spaces), so no probe can change
//! what the workload itself computed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use agilla_tuplespace::{Template, Tuple, TupleSpace};
use wsn_common::{Location, NodeId};
use wsn_radio::{Frame, LossModel, Medium, MotionPlan, Topology};
use wsn_sim::{EventQueue, RngStream, SimDuration, SimTime};

/// What the probes take from the workload's run.
pub struct Inputs {
    /// Builds the workload's topology from scratch.
    pub fresh_topology: fn() -> Topology,
    /// The sample trial's topology at boot (vehicles at their origins).
    pub boot_topology: Topology,
    /// The sample trial's topology as it stood at the horizon (movers
    /// displaced, dead motes removed).
    pub final_topology: Topology,
    /// The sample trial's initial loss model.
    pub loss: LossModel,
    /// Frames transmitted per simulated second in the workload.
    pub frames_per_sim_s: f64,
    /// Share of events that were beacons (1 s timers).
    pub beacon_share: f64,
    /// The sample trial's motion plan and horizon.
    pub motion: MotionPlan,
    /// Simulated length of the sample trial.
    pub horizon: SimDuration,
    /// Every agent source the workload injects, with its injection count.
    pub sources: BTreeMap<String, u64>,
    /// Tuples found in the sample trial's tuple spaces at the horizon.
    pub tuples: Vec<Tuple>,
    /// Seed for the probes' own draws.
    pub seed: u64,
}

/// The probe results, in the per-layer metric names.
pub type Results = Vec<(&'static str, f64, &'static str)>;

/// Host-time budget of one timed probe loop.
const BUDGET: Duration = Duration::from_millis(250);
/// Calls per timed block: big enough to hide the clock read.
const BLOCK: usize = 256;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Runs `block` (which performs `BLOCK` calls) until the budget is spent
/// and returns the median ns per call over the blocks.
fn per_call_ns(mut block: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < BUDGET && samples.len() < 10_000) {
        let t = Instant::now();
        block();
        samples.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    median(samples)
}

/// Runs every probe.
pub fn run(inputs: &Inputs) -> Results {
    let mut out = Results::new();
    radio(inputs, &mut out);
    motion(inputs, &mut out);
    queue(inputs, &mut out);
    vm(inputs, &mut out);
    tuplespace(inputs, &mut out);
    out
}

/// Topology build, medium construction, neighbor scans, carrier sense and
/// transmission at the workload's measured frame rate.
fn radio(inputs: &Inputs, out: &mut Results) {
    let mut builds = Vec::new();
    let mut news = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let topo = black_box((inputs.fresh_topology)());
        builds.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let medium = black_box(Medium::new(topo, inputs.loss.clone(), inputs.seed));
        news.push(t.elapsed().as_secs_f64() * 1e3);
        drop(medium);
    }
    out.push(("radio.topology_build_ms", median(builds), "ms"));
    out.push(("radio.medium_new_ms", median(news), "ms"));

    let topo = &inputs.final_topology;
    let active: Vec<NodeId> = topo.nodes().filter(|&n| topo.is_active(n)).collect();
    let mut rng = RngStream::derive(inputs.seed, "perfbench.radio");
    let mut pick = || active[rng.index(active.len())];

    let neighbors_ns = per_call_ns(|| {
        for _ in 0..BLOCK {
            black_box(topo.neighbors(black_box(pick())));
        }
    });

    // Carrier sense at the workload's frame rate: transmit a beacon-sized
    // frame from a random mote every 1/rate simulated seconds, so the
    // in-flight population matches the workload's, and probe the channel
    // from random motes in between.
    let mut medium = Medium::new(topo.clone(), inputs.loss.clone(), inputs.seed);
    let gap_us = (1e6 / inputs.frames_per_sim_s.max(1.0)).max(1.0);
    let payload = wsn_net::encode_beacon(Location::new(1, 1));
    let mut now_us = 0.0f64;
    let mut send = |medium: &mut Medium, now_us: &mut f64, n: usize| {
        for _ in 0..n {
            *now_us += gap_us;
            let frame = Frame::broadcast(pick(), payload.clone());
            black_box(medium.transmit(
                SimTime::ZERO + SimDuration::from_micros(*now_us as u64),
                &frame,
            ));
        }
    };
    // Warm up past several air times so the in-flight list is at steady state.
    let air_us = Frame::broadcast(NodeId(0), payload.clone())
        .air_time()
        .as_micros() as f64;
    send(
        &mut medium,
        &mut now_us,
        ((8.0 * air_us / gap_us) as usize).max(BLOCK),
    );
    let mut probe_rng = RngStream::derive(inputs.seed, "perfbench.carrier");
    let mut busy_samples = Vec::new();
    let mut tx_samples = Vec::new();
    let start = Instant::now();
    while busy_samples.len() < 5 || (start.elapsed() < BUDGET && busy_samples.len() < 10_000) {
        let at = SimTime::ZERO + SimDuration::from_micros(now_us as u64);
        let nodes: Vec<NodeId> = (0..BLOCK)
            .map(|_| active[probe_rng.index(active.len())])
            .collect();
        let t = Instant::now();
        for &n in &nodes {
            black_box(medium.channel_busy(at, n));
        }
        busy_samples.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        let t = Instant::now();
        send(&mut medium, &mut now_us, BLOCK);
        tx_samples.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    out.push(("radio.channel_busy_ns", median(busy_samples), "ns"));
    out.push(("radio.transmit_ns", median(tx_samples), "ns"));
    out.push(("radio.neighbors_ns", neighbors_ns, "ns"));
}

/// `Medium::move_node` along the workload's mover paths, tick by tick.
fn motion(inputs: &Inputs, out: &mut Results) {
    let topo = &inputs.boot_topology;
    let plan = &inputs.motion;
    let mut moves: Vec<(NodeId, Location)> = Vec::new();
    if !plan.is_static() && plan.tick.as_micros() > 0 {
        let movers: Vec<(NodeId, Location, &wsn_radio::Motion)> = plan
            .entries
            .iter()
            .filter_map(|(origin, m)| topo.node_at(*origin).map(|n| (n, *origin, m)))
            .collect();
        let mut at: Vec<Location> = movers.iter().map(|m| m.1).collect();
        let ticks = inputs.horizon.as_micros() / plan.tick.as_micros();
        for k in 1..=ticks {
            let elapsed = SimDuration::from_micros(k * plan.tick.as_micros());
            for (i, (node, origin, m)) in movers.iter().enumerate() {
                let loc = m.location_at(*origin, elapsed);
                if loc != at[i] {
                    at[i] = loc;
                    moves.push((*node, loc));
                }
            }
        }
    }
    let ns = if moves.is_empty() {
        0.0
    } else {
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < 5 || (start.elapsed() < BUDGET && samples.len() < 1_000) {
            let mut medium = Medium::new(topo.clone(), inputs.loss.clone(), inputs.seed);
            let t = Instant::now();
            for &(node, loc) in &moves {
                medium.move_node(node, loc);
            }
            samples.push(t.elapsed().as_nanos() as f64 / moves.len() as f64);
            black_box(&medium);
        }
        median(samples)
    };
    out.push(("radio.move_node_ns", ns, "ns"));
}

/// `EventQueue::schedule` + `pop` at the workload's pending population and
/// timer mix: beacon timers re-armed a period out, everything else
/// (frame arrivals, MAC backoffs, VM slices) a few milliseconds out.
fn queue(inputs: &Inputs, out: &mut Results) {
    let pending = inputs.final_topology.len() + inputs.motion.entries.len();
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = RngStream::derive(inputs.seed, "perfbench.queue");
    for i in 0..pending {
        q.schedule(
            SimTime::ZERO + SimDuration::from_micros(rng.range_u64(0, 1_000_000)),
            i as u32,
        );
    }
    let delays: Vec<u64> = (0..4096)
        .map(|_| {
            if rng.chance(inputs.beacon_share) {
                1_000_000
            } else {
                rng.range_u64(500, 30_000)
            }
        })
        .collect();
    let mut k = 0usize;
    let ns = per_call_ns(|| {
        for _ in 0..BLOCK {
            let (at, ev) = q.pop().expect("the population stays constant");
            let d = delays[k % delays.len()];
            k += 1;
            q.schedule(at + SimDuration::from_micros(d), black_box(ev));
        }
    });
    out.push(("sim.queue_op_ns", ns, "ns"));
}

/// Assembly and static verification of every injected source, weighted by
/// how often the workload injects it.
fn vm(inputs: &Inputs, out: &mut Results) {
    let mut asm_us = 0.0;
    let mut verify_us = 0.0;
    let mut injections = 0u64;
    for (source, &count) in &inputs.sources {
        let reps = 50u32;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(
                agilla_vm::asm::assemble(black_box(source)).expect("workload sources assemble"),
            );
        }
        let a = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        let code = agilla_vm::asm::assemble(source)
            .expect("workload sources assemble")
            .into_code();
        let t = Instant::now();
        for _ in 0..reps {
            black_box(agilla_analysis::analyze(black_box(&code)));
        }
        let v = t.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        asm_us += a * count as f64;
        verify_us += v * count as f64;
        injections += count;
    }
    let n = injections.max(1) as f64;
    out.push(("vm.assemble_us", asm_us / n, "us"));
    out.push(("analysis.verify_us", verify_us / n, "us"));
}

/// `out` / `rdp` / `inp` on a mote-sized tuple space holding the tuples the
/// workload left behind, with exact-match templates of the same shapes.
fn tuplespace(inputs: &Inputs, out: &mut Results) {
    let mut tuples = inputs.tuples.clone();
    if tuples.is_empty() {
        tuples.push(Tuple::new(vec![agilla_tuplespace::Field::value(1)]).expect("tiny tuple"));
    }
    let templates: Vec<Template> = tuples.iter().map(Template::for_tuple).collect();
    let mut space = TupleSpace::with_default_capacity();
    // Keep the space about half full of the workload's tuples, so matches
    // scan realistic residents.
    for t in &tuples {
        if space.free_bytes() < space.capacity() / 2 || space.out(t.clone()).is_err() {
            break;
        }
    }
    let mut k = 0usize;
    let ns = per_call_ns(|| {
        // Four operations per round: BLOCK operations per block.
        for _ in 0..BLOCK / 4 {
            let i = k % tuples.len();
            k += 1;
            if space.out(tuples[i].clone()).is_ok() {
                black_box(space.rdp(&templates[i]));
                black_box(space.inp(&templates[i]));
            }
            black_box(space.rdp(&templates[(i * 7 + 3) % templates.len()]));
        }
    });
    out.push(("tuplespace.op_ns", ns, "ns"));
}
