//! The three benchmark workloads, generated from the workload seed.
//!
//! Each workload is one *pass*: a fixed list of [`ScenarioSpec`]s that the
//! benchmark runs back to back, cold, one trial at a time. Everything a
//! trial does is decided by its spec, so the same seed gives the same pass,
//! and every pass of one run repeats the same simulated outcomes exactly.

use agilla::scenario::{OneShot, Periodic, Perturbation, Poisson, ScenarioSpec, TenantApp};
use agilla::testbed::{Testbed, TopologySpec};
use agilla::{workload, AgillaConfig, AgillaNetwork};
use agilla_tenancy::{AppId, AppProfile, AppQuota, Priority};
use wsn_common::Location;
use wsn_radio::{Connectivity, DistanceLoss, LossModel, Motion, MotionPlan, Topology};
use wsn_sim::{RngStream, SimDuration};

/// Names accepted by `--workload`, in the order the documentation uses.
pub const NAMES: [&str; 3] = ["field_100k", "paper_testbed", "mobile_mix"];

/// One workload: its pass of scenarios plus what the layer probes need to
/// rebuild its radio substrate.
pub struct Workload {
    /// The scenarios of one pass, in run order.
    pub specs: Vec<ScenarioSpec>,
    /// How many leading specs the untraced run repeats for timing after
    /// the first full pass. The simulated statistics come from the whole
    /// pass; timing needs many repeats of fewer trials.
    pub timed: usize,
    /// Simulated slice every `Run` step is cut into, traced or not.
    pub slice: SimDuration,
    /// Builds the workload's topology from scratch (the `radio.topology_build_ms` probe).
    pub topology: fn() -> Topology,
}

impl Workload {
    /// Builds the named workload from `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "field_100k" => Some(field_100k(seed)),
            "paper_testbed" => Some(paper_testbed(seed)),
            "mobile_mix" => Some(mobile_mix(seed)),
            _ => None,
        }
    }
}

/// The topology a spec's network boots with.
pub fn topology_of(spec: &ScenarioSpec) -> Topology {
    match &spec.topology {
        TopologySpec::Lossy5x5 | TopologySpec::Reliable5x5 => Topology::grid_with_base(5, 5),
        TopologySpec::ReliableLine(n) => Topology::line(*n),
        TopologySpec::Custom { topology, .. } => (**topology).clone(),
    }
}

/// The loss model a spec's network is built with.
pub fn loss_of(spec: &ScenarioSpec) -> LossModel {
    match &spec.topology {
        TopologySpec::Lossy5x5 => AgillaNetwork::testbed_loss(),
        TopologySpec::Reliable5x5 | TopologySpec::ReliableLine(_) => LossModel::perfect(),
        TopologySpec::Custom { loss, .. } => loss.clone(),
    }
}

// --- field_100k --------------------------------------------------------------

/// Grid side of the 100k field: 317² = 100,489 motes, fig_scale's top row.
const FIELD_SIDE: i16 = 317;
/// Simulated seconds per field_100k trial.
const FIELD_SIM_S: u64 = 5;

fn field_topology() -> Topology {
    Topology::grid(FIELD_SIDE, FIELD_SIDE)
}

/// `smove` patrols per side of the field_100k patrol grid (4 × 4 = 16).
const PATROL_SIDE: i16 = 4;
/// Spacing of the patrol grid's home motes, in hops.
const PATROL_PITCH: i16 = 12;

/// fig_scale at its 100k row: a static, lossless `GridAdjacent` field where
/// every mote beacons at 1 Hz, plus `smove` round trips five hops out and
/// back and one `rout` three hops out near the base corner. fig_scale sends
/// one patrol every 2 s from the base; here sixteen patrols start in the
/// first 1.6 s from sixteen home motes 12 hops apart, so the operation
/// metrics rest on seventeen independent operations rather than four, and
/// no two patrols contend for a mote. Agent traffic stays negligible next to
/// 100k beacons a second.
fn field_100k(seed: u64) -> Workload {
    let bed = Testbed::new(
        TopologySpec::custom(field_topology(), LossModel::perfect()),
        AgillaConfig::default(),
        seed,
    );
    let base = Location::new(1, 1);
    let mut spec = bed
        .scenario(0x5CA1E)
        .traffic(OneShot::at(
            base,
            workload::rout_test_agent(Location::new(4, 1)),
        ))
        .horizon(SimDuration::from_secs(FIELD_SIM_S));
    for k in 0..PATROL_SIDE * PATROL_SIDE {
        let home = Location::new(
            1 + PATROL_PITCH * (k % PATROL_SIDE),
            1 + PATROL_PITCH * (k / PATROL_SIDE),
        );
        let target = Location::new(home.x + 5, home.y);
        spec = spec.traffic(
            OneShot::at(home, workload::smove_test_agent(target, home))
                .delayed(SimDuration::from_millis(100 * k as u64)),
        );
    }
    Workload {
        specs: vec![spec],
        timed: 1,
        slice: SimDuration::from_millis(100),
        topology: field_topology,
    }
}

// --- paper_testbed -----------------------------------------------------------

/// Repetitions of each of the 17 trial kinds in one paper_testbed pass.
const TESTBED_REPS: u64 = 30;

fn testbed_topology() -> Topology {
    Topology::grid_with_base(5, 5)
}

/// The paper's 5×5+base testbed as many short cold trials: the Fig. 9/10
/// `smove` round trips and `rout`s at 1–5 hops on the calibrated lossy
/// channel (20 s each), and Fig. 11's seven one-hop operations on the
/// reliable testbed (10 s each, `rinp`/`rrdp` after a 1 s seeding phase).
fn paper_testbed(seed: u64) -> Workload {
    let config = AgillaConfig::default();
    let lossy = Testbed::lossy_5x5(config.clone(), seed);
    let reliable = Testbed::reliable_5x5(config, seed);
    let home = Location::new(0, 1);
    let mut specs = Vec::new();
    for rep in 0..TESTBED_REPS {
        for h in 1..=5i16 {
            let target = Location::new(h, 1);
            let mix = rep * 1_000 + h as u64;
            specs.push(
                lossy
                    .scenario(mix * 65_537)
                    .traffic(OneShot::at_base(workload::smove_test_agent(target, home)))
                    .horizon(SimDuration::from_secs(20)),
            );
            specs.push(
                lossy
                    .scenario(mix * 131_071 + 3)
                    .traffic(OneShot::at_base(workload::rout_test_agent(target)))
                    .horizon(SimDuration::from_secs(20)),
            );
        }
        let target = Location::new(1, 1);
        for (i, op) in ["rout", "rinp", "rrdp", "smove", "wmove", "sclone", "wclone"]
            .iter()
            .enumerate()
        {
            let spec = reliable.scenario((rep * 2_097_143) ^ (i as u64 * 7_919));
            let measured = SimDuration::from_secs(10);
            specs.push(match *op {
                "rout" => spec
                    .traffic(OneShot::at_base(workload::rout_test_agent(target)))
                    .horizon(measured),
                "rinp" | "rrdp" => {
                    let setup = SimDuration::from_secs(1);
                    let probe = format!(
                        "pusht value\npushc 1\npushloc {} {}\n{op}\nhalt",
                        target.x, target.y
                    );
                    spec.traffic(OneShot::at(target, "pushc 1\npushc 1\nout\nhalt"))
                        .traffic(OneShot::at_base(probe).delayed(setup))
                        .measure_from(setup)
                        .horizon(setup + measured)
                }
                _ => spec
                    .traffic(OneShot::at_base(workload::one_way_agent(op, target)))
                    .horizon(measured),
            });
        }
    }
    let timed = specs.len();
    Workload {
        specs,
        timed,
        slice: SimDuration::from_secs(1),
        topology: testbed_topology,
    }
}

// --- mobile_mix --------------------------------------------------------------

/// Static motes per side of the mobile_mix field: 100² = 10,000 motes.
const MOBILE_SIDE: i16 = 100;
/// Grid pitch of the static motes. Motes sit on even coordinates, so the
/// odd rows between them are lanes where vehicles drive without ever
/// sharing an address with a static mote.
const PITCH: i16 = 2;
/// Radio range: a static mote hears its eight grid neighbours (the
/// `Range(1.5)` field at unit pitch, scaled by the pitch).
const MOBILE_RANGE: f64 = 2.9;
/// The base station: the static mote at the centre of the field.
const MOBILE_BASE: Location = Location {
    x: MOBILE_SIDE,
    y: MOBILE_SIDE,
};
/// Vehicles per trial.
const MOVERS: usize = 120;
/// Vehicles boot within this many units of the base on both axes.
const MOVER_REACH: i16 = 30;
/// Simulated seconds per mobile_mix trial.
const MOBILE_SIM_S: u64 = 16;
/// Vehicle reporters start over the first this many seconds, on motion ticks.
const REPORTER_LAUNCH_S: u64 = 10;
/// Trials in one mobile_mix pass.
const MOBILE_TRIALS: u64 = 32;
/// Leading trials the untraced run repeats for timing.
const MOBILE_TIMED: usize = 4;

/// A uniform coordinate in `lo..=hi`.
fn coord(rng: &mut RngStream, lo: i16, hi: i16) -> i16 {
    lo + rng.range_u64(0, (hi - lo + 1) as u64) as i16
}

/// The static field, base station first (node 0 is the base), followed by
/// `extra` boot addresses.
fn mobile_positions(extra: &[Location]) -> Vec<Location> {
    let mut positions =
        Vec::with_capacity(MOBILE_SIDE as usize * MOBILE_SIDE as usize + extra.len());
    positions.push(MOBILE_BASE);
    for y in 1..=MOBILE_SIDE {
        for x in 1..=MOBILE_SIDE {
            let loc = Location::new(x * PITCH, y * PITCH);
            if loc != MOBILE_BASE {
                positions.push(loc);
            }
        }
    }
    positions.extend_from_slice(extra);
    positions
}

fn mobile_topology() -> Topology {
    Topology::new(mobile_positions(&[]), Connectivity::Range(MOBILE_RANGE))
}

fn mobile_loss(edge_loss: f64) -> DistanceLoss {
    DistanceLoss::new(2.0, MOBILE_RANGE, edge_loss)
}

/// A 10k-mote field with distance-driven loss and the base station at its
/// centre, plus a few hundred vehicles driving the lanes between mote rows
/// — at constant velocity away from the base, or back and forth through
/// waypoints. Each vehicle carries a `vehicle_reporter` that routs position
/// fixes to the base; the reporters start over the first seconds, each
/// injected where its vehicle then is. Four tenant applications arrive at
/// the base as Poisson and periodic streams under per-app quotas,
/// priorities, and base-station allocation. Mid-run, three relay motes near
/// the base die and the channel loss steps up.
fn mobile_mix(seed: u64) -> Workload {
    let horizon = SimDuration::from_secs(MOBILE_SIM_S);
    let tick = MotionPlan::DEFAULT_TICK;
    let sleeper = "pushcl 32\nsleep\nhalt";
    let bulk = "pushc 1\npop\n".repeat(60) + "halt";
    // The base station's uplink: drains every `<heading, "veh", location>`
    // fix from the base's tuple space, so reports do not fill it.
    let drain = "LOOP pusht value\npushn veh\npusht location\npushc 3\ninp\nrjumpc GOT\nhalt\n\
                 GOT pop\npop\npop\npop\nrjump LOOP";
    let (bx, by) = (MOBILE_BASE.x, MOBILE_BASE.y);
    let specs = (0..MOBILE_TRIALS)
        .map(|t| {
            let mut rng = RngStream::derive(seed, "perfbench.mobile_mix").substream(t);
            let mut origins: Vec<Location> = Vec::with_capacity(MOVERS);
            while origins.len() < MOVERS {
                let loc = Location::new(
                    coord(&mut rng, bx - MOVER_REACH, bx + MOVER_REACH),
                    by + 1 + 2 * coord(&mut rng, -MOVER_REACH / 2, MOVER_REACH / 2 - 1),
                );
                if !origins.contains(&loc) {
                    origins.push(loc);
                }
            }
            let mut movers = Vec::with_capacity(MOVERS);
            for (i, &origin) in origins.iter().enumerate() {
                let speed = 0.25 * coord(&mut rng, 1, 4) as f64;
                let motion = if i % 2 == 0 {
                    let away = if origin.x < bx { -speed } else { speed };
                    Motion::ConstantVelocity { vx: away, vy: 0.0 }
                } else {
                    let waypoints = (0..3)
                        .map(|_| {
                            Location::new(
                                coord(&mut rng, bx - MOVER_REACH, bx + MOVER_REACH),
                                origin.y,
                            )
                        })
                        .collect();
                    Motion::LinearWaypoints { waypoints, speed }
                };
                let ticks = REPORTER_LAUNCH_S * 1_000_000 / tick.as_micros();
                let launch = SimDuration::from_micros(rng.range_u64(0, ticks) * tick.as_micros());
                movers.push((origin, motion, launch));
            }
            let mut kills = Vec::new();
            while kills.len() < 3 {
                let loc = Location::new(
                    bx + PITCH * coord(&mut rng, -4, 4),
                    by + PITCH * coord(&mut rng, -4, 4),
                );
                if loc != MOBILE_BASE && !kills.contains(&loc) {
                    kills.push(loc);
                }
            }
            let bed = Testbed::new(
                TopologySpec::custom(
                    Topology::new(
                        mobile_positions(&origins),
                        Connectivity::Range(MOBILE_RANGE),
                    ),
                    LossModel::perfect().with_distance(mobile_loss(0.02)),
                ),
                AgillaConfig::default(),
                seed,
            );
            let mut spec = bed
                .scenario(t * 524_287 + 11)
                .traffic(Periodic::at(
                    MOBILE_BASE,
                    SimDuration::from_secs(2),
                    MOBILE_SIM_S as u32 / 2,
                    drain,
                ))
                .tenant(TenantApp::new(
                    AppProfile::new(AppId(1), "habitat")
                        .priority(Priority::Low)
                        .quota(AppQuota::new(2, 400, u64::MAX)),
                    Poisson::new(1.5, sleeper),
                ))
                .tenant(TenantApp::new(
                    AppProfile::new(AppId(2), "telemetry"),
                    Poisson::new(
                        0.5,
                        workload::rout_test_agent(Location::new(bx + 6, by + 4)),
                    ),
                ))
                .tenant(TenantApp::new(
                    AppProfile::new(AppId(3), "fire").priority(Priority::High),
                    Periodic::at_base(SimDuration::from_millis(500), 12, sleeper)
                        .starting_at(SimDuration::from_secs(6)),
                ))
                .tenant(TenantApp::new(
                    AppProfile::new(AppId(4), "bulk"),
                    Periodic::at_base(SimDuration::from_secs(2), 6, bulk.clone()),
                ))
                .allocate_apps(4, 40)
                .horizon(horizon);
            for (origin, motion, launch) in movers {
                // Lanes hold no static mote, so the vehicle's position at
                // launch addresses the vehicle itself.
                let at = motion.location_at(origin, launch);
                spec = spec.motion(origin, motion).traffic(
                    OneShot::at(at, workload::vehicle_reporter(MOBILE_BASE, 1, 8)).delayed(launch),
                );
            }
            for (k, loc) in kills.into_iter().enumerate() {
                spec = spec.event(
                    SimDuration::from_secs(4 + 2 * k as u64),
                    Perturbation::KillNode(loc),
                );
            }
            spec.event(
                SimDuration::from_secs(MOBILE_SIM_S / 2),
                Perturbation::SetLoss(LossModel::uniform(0.01).with_distance(mobile_loss(0.04))),
            )
        })
        .collect();
    Workload {
        specs,
        timed: MOBILE_TIMED,
        slice: SimDuration::from_millis(100),
        topology: mobile_topology,
    }
}
