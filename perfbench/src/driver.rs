//! The stepped trial driver: replays a compiled [`TrialSpec`] through the
//! network's public calls, times each phase, optionally records a span per
//! call, and audits how every offered agent ended.
//!
//! The driver mirrors `TrialSpec::execute` step for step (build, then each
//! step, then drop), so a trial it runs must leave exactly the state
//! `execute` leaves; [`Fingerprint`] is how callers check that.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use agilla::scenario::{Perturbation, ScenarioSpec};
use agilla::stats::OpRecord;
use agilla::testbed::{Rejections, TrialStep};
use agilla::{AdmissionReason, AgillaError, AgillaNetwork};
use wsn_common::{AgentId, Location};
use wsn_sim::{SimDuration, SimTime};

/// Why an offered arrival was refused admission, in `Rejections` order.
pub const REFUSALS: [&str; 4] = ["no_slots", "unverifiable", "quota", "dead"];

/// Deterministic counts of one trial (or a sum of trials). Every field is a
/// function of the spec alone, so two runs of one spec must agree on all of
/// them, whatever the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated microseconds advanced.
    pub sim_us: u64,
    /// Events dispatched (every queue pop).
    pub events: u64,
    /// Frames transmitted, beacons included.
    pub frames: u64,
    /// Beacon transmissions.
    pub beacons: u64,
    /// Per-receiver frame copies lost to the channel or collisions.
    pub lost_copies: u64,
    /// Migration sessions started / agents arrived / data retransmissions.
    pub mig_started: u64,
    /// Agents installed at a migration destination.
    pub mig_arrived: u64,
    /// Migration data retransmissions.
    pub mig_retx: u64,
    /// Remote tuple-space operations issued / succeeded.
    pub remote_issued: u64,
    /// Remote operations completed successfully.
    pub remote_ok: u64,
    /// Remote request retransmissions.
    pub remote_retx: u64,
    /// Duplicate remote requests answered from the reply cache.
    pub remote_reack: u64,
    /// Grid-cell crossings by moving motes.
    pub moves: u64,
    /// Tenancy counters summed over apps.
    pub tenancy_rejected: u64,
    /// Tenant agents evicted by priority preemption.
    pub tenancy_evicted: u64,
    /// Tenant agents that ran to completion.
    pub tenancy_completed: u64,
    /// Offered arrivals (every inject step).
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals refused, by reason ([`REFUSALS`] order).
    pub refused: [u64; 4],
    /// Operations completed: halted after its task with every remote op
    /// acknowledged and no failed migration.
    pub completed: u64,
    /// Halted, but a migration or remote op failed (timeouts included).
    pub halted_failed: u64,
    /// Faulted and killed by the VM.
    pub faulted: u64,
    /// Evicted by priority preemption.
    pub evicted: u64,
    /// Still resident (or mid-migration) at the horizon: unfinished.
    pub resident: u64,
    /// Neither finished nor resident anywhere: lost (e.g. on a killed mote).
    pub lost: u64,
    /// Admitted agents that finished twice or finished while a copy lives
    /// on: duplicated by the simulator. Not a bucket of its own — each such
    /// arrival is also counted once above.
    pub duplicated: u64,
}

impl Counts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            sim_us,
            events,
            frames,
            beacons,
            lost_copies,
            mig_started,
            mig_arrived,
            mig_retx,
            remote_issued,
            remote_ok,
            remote_retx,
            remote_reack,
            moves,
            tenancy_rejected,
            tenancy_evicted,
            tenancy_completed,
            offered,
            admitted,
            completed,
            halted_failed,
            faulted,
            evicted,
            resident,
            lost,
            duplicated
        );
        for (a, b) in self.refused.iter_mut().zip(o.refused) {
            *a += b;
        }
    }

    /// Operations that did not complete.
    pub fn failed(&self) -> u64 {
        self.offered - self.completed
    }

    /// Whether every offered arrival sits in exactly one outcome bucket.
    pub fn balanced(&self) -> bool {
        let refused: u64 = self.refused.iter().sum();
        self.offered == self.admitted + refused
            && self.admitted
                == self.completed
                    + self.halted_failed
                    + self.faulted
                    + self.evicted
                    + self.resident
                    + self.lost
    }
}

/// What identifies a trial's simulated outcome: the deterministic counters
/// (events, frames, beacons, migrations, moves), the admitted agents, the
/// refusals, and a hash of the final experiment log. Equal fingerprints
/// mean equal trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    events: u64,
    frames: u64,
    beacons: u64,
    migrations: u64,
    moves: u64,
    agents: Vec<AgentId>,
    refused: [u32; 4],
    log_hash: u64,
}

impl Fingerprint {
    /// Fingerprints a finished network plus the driver-side bookkeeping.
    pub fn of(net: &AgillaNetwork, agents: &[AgentId], refused: &Rejections) -> Fingerprint {
        let mut h = DefaultHasher::new();
        format!("{:?}", net.log().records()).hash(&mut h);
        Fingerprint {
            events: net.events_dispatched(),
            frames: net.medium().frames_sent(),
            beacons: net.metrics().counter("radio.beacons"),
            migrations: net.metrics().counter("migration.arrived"),
            moves: net.metrics().counter("motion.moves"),
            agents: agents.to_vec(),
            refused: [
                refused.no_slots,
                refused.unverifiable,
                refused.quota,
                refused.dead_mote,
            ],
            log_hash: h.finish(),
        }
    }
}

/// Host time of one trial's phases.
#[derive(Debug)]
pub struct Timing {
    /// `ScenarioSpec::compile` plus `TrialSpec::build`.
    pub setup: Duration,
    /// Each network call of the run phase, in order: every inject,
    /// registration and perturbation, and every `run_for` slice. The
    /// sequence is fixed by the spec, so call *j* does the same work in
    /// every pass.
    pub calls: Vec<Duration>,
    /// Dropping the network and the compiled script.
    pub teardown: Duration,
}

/// One finished trial.
pub struct Outcome {
    /// Deterministic counts.
    pub counts: Counts,
    /// Injection-to-completion latency of every completed operation, µs.
    pub latencies_us: Vec<u64>,
    /// The trial's identity, for determinism checks.
    pub fingerprint: Fingerprint,
    /// Accounting defects found (empty when every agent balances).
    pub defects: Vec<String>,
}

/// One recorded call: name, host interval, its parent span, the trial it
/// belongs to, and the network counters it moved.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id (1-based; 0 means "no parent").
    pub id: u32,
    /// The enclosing span.
    pub parent: u32,
    /// Trial index within the pass.
    pub trial: u32,
    /// Call name, e.g. `network.run_for`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Simulated µs advanced inside the span.
    pub sim_us: u64,
    /// Events dispatched inside the span.
    pub events: u64,
    /// Frames transmitted inside the span.
    pub frames: u64,
}

/// In-memory span store for the traced run.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in close order.
    pub spans: Vec<Span>,
    next_id: u32,
}

/// A span that has been opened but not closed.
struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    at: (u64, u64, u64),
}

/// The network counters a span records deltas of: (sim µs, events, frames).
fn probe(net: Option<&AgillaNetwork>) -> (u64, u64, u64) {
    net.map_or((0, 0, 0), |n| {
        (
            n.now().as_micros(),
            n.events_dispatched(),
            n.medium().frames_sent(),
        )
    })
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    fn open(&mut self, parent: u32, name: &'static str, net: Option<&AgillaNetwork>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            at: probe(net),
            start: Instant::now(),
        }
    }

    fn close(&mut self, trial: u32, o: Open, net: Option<&AgillaNetwork>) {
        let end = Instant::now();
        let now = probe(net);
        self.spans.push(Span {
            id: o.id,
            parent: o.parent,
            trial,
            name: o.name,
            start_ns: o.start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(o.start).as_nanos() as u64,
            sim_us: now.0.saturating_sub(o.at.0),
            events: now.1.saturating_sub(o.at.1),
            frames: now.2.saturating_sub(o.at.2),
        });
    }

    /// Host durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"trial\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"sim_us\":{},\"events\":{},\"frames\":{}}}\n",
                s.id, s.parent, s.trial, s.name, s.start_ns, s.dur_ns, s.sim_us, s.events, s.frames
            ));
        }
        out
    }
}

/// Where the traced run's spans go, and the trial's index in the pass.
pub struct Traced<'a> {
    /// Where spans go.
    pub tracer: &'a mut Tracer,
    /// Trial index within the pass.
    pub trial: u32,
}

/// Everything the audit needs to know about one agent, folded from the
/// experiment log.
#[derive(Debug, Default, Clone, Copy)]
struct Facts {
    injected_at: Option<SimTime>,
    /// Earliest record of the agent. An agent injected at the end of a run
    /// slice takes its first engine step at the queue's clock (the last
    /// popped event), so its first records can precede its injection
    /// record; operations are timed from whichever came first.
    first_at: Option<SimTime>,
    halted_at: Option<SimTime>,
    /// Halt, fault and eviction records seen (more than one is a double count).
    terminal: u32,
    faulted: bool,
    evicted: bool,
    mig_failed: bool,
    remote_issued: u32,
    remote_ok: u32,
}

fn fold(facts: &mut HashMap<AgentId, Facts>, records: &[OpRecord]) {
    for r in records {
        if let Some(agent) = agent_of(r) {
            let first = &mut facts.entry(agent).or_default().first_at;
            let at = time_of(r);
            *first = Some(first.map_or(at, |f| f.min(at)));
        }
        match *r {
            OpRecord::AgentInjected { agent, at, .. } => {
                facts
                    .entry(agent)
                    .or_default()
                    .injected_at
                    .get_or_insert(at);
            }
            OpRecord::AgentHalted { agent, at, .. } => {
                let f = facts.entry(agent).or_default();
                f.terminal += 1;
                f.halted_at.get_or_insert(at);
            }
            OpRecord::AgentFaulted { agent, .. } => {
                let f = facts.entry(agent).or_default();
                f.terminal += 1;
                f.faulted = true;
            }
            OpRecord::AgentEvicted { agent, .. } => {
                let f = facts.entry(agent).or_default();
                f.terminal += 1;
                f.evicted = true;
            }
            OpRecord::MigrationFailed { agent, .. } => {
                facts.entry(agent).or_default().mig_failed = true;
            }
            OpRecord::RemoteIssued { agent, .. } => {
                facts.entry(agent).or_default().remote_issued += 1;
            }
            OpRecord::RemoteCompleted {
                agent,
                success: true,
                ..
            } => {
                facts.entry(agent).or_default().remote_ok += 1;
            }
            OpRecord::RemoteCompleted { .. }
            | OpRecord::MigrationArrived { .. }
            | OpRecord::NodeDied { .. } => {}
        }
    }
}

fn agent_of(r: &OpRecord) -> Option<AgentId> {
    match *r {
        OpRecord::AgentInjected { agent, .. }
        | OpRecord::MigrationArrived { agent, .. }
        | OpRecord::MigrationFailed { agent, .. }
        | OpRecord::AgentHalted { agent, .. }
        | OpRecord::AgentFaulted { agent, .. }
        | OpRecord::AgentEvicted { agent, .. }
        | OpRecord::RemoteIssued { agent, .. }
        | OpRecord::RemoteCompleted { agent, .. } => Some(agent),
        OpRecord::NodeDied { .. } => None,
    }
}

fn time_of(r: &OpRecord) -> SimTime {
    match *r {
        OpRecord::AgentInjected { at, .. }
        | OpRecord::MigrationArrived { at, .. }
        | OpRecord::MigrationFailed { at, .. }
        | OpRecord::AgentHalted { at, .. }
        | OpRecord::AgentFaulted { at, .. }
        | OpRecord::AgentEvicted { at, .. }
        | OpRecord::RemoteIssued { at, .. }
        | OpRecord::RemoteCompleted { at, .. }
        | OpRecord::NodeDied { at, .. } => at,
    }
}

/// One offered arrival's admission result.
enum Offer {
    Admitted(AgentId),
    Refused(usize),
}

fn offer(result: Result<AgentId, AgillaError>, refused: &mut Rejections) -> Offer {
    match result {
        Ok(id) => Offer::Admitted(id),
        Err(AgillaError::Admission { reason }) => match reason {
            AdmissionReason::NoSlots => {
                refused.no_slots += 1;
                Offer::Refused(0)
            }
            AdmissionReason::QuotaExceeded => {
                refused.quota += 1;
                Offer::Refused(2)
            }
            AdmissionReason::DeadMote => {
                refused.dead_mote += 1;
                Offer::Refused(3)
            }
        },
        Err(AgillaError::Unverifiable { .. }) => {
            refused.unverifiable += 1;
            Offer::Refused(1)
        }
        Err(e) => panic!("workload arrival failed to assemble: {e}"),
    }
}

fn perturb(net: &mut AgillaNetwork, p: &Perturbation) {
    let resolve = |net: &AgillaNetwork, loc: Location| {
        net.node_at(loc)
            .unwrap_or_else(|| panic!("perturbation addresses no node at {loc}"))
    };
    match p {
        Perturbation::KillNode(loc) => {
            let node = resolve(net, *loc);
            net.kill_node(node);
        }
        Perturbation::DropLink(a, b) => {
            let (a, b) = (resolve(net, *a), resolve(net, *b));
            net.drop_link(a, b);
        }
        Perturbation::HealLink(a, b) => {
            let (a, b) = (resolve(net, *a), resolve(net, *b));
            net.heal_link(a, b);
        }
        Perturbation::SetLoss(loss) => net.set_loss_model(loss.clone()),
    }
}

/// Runs one trial of `spec`: compile, build, every step through public
/// calls with each `Run` step cut into fixed `slice`s of simulated time,
/// audit, then drop. Each call is timed; with `traced`, each also gets a
/// span. `inspect` sees the finished network before it is dropped
/// (untimed).
pub fn run_trial(
    spec: &ScenarioSpec,
    slice: SimDuration,
    mut traced: Option<Traced<'_>>,
    inspect: impl FnOnce(&AgillaNetwork),
) -> (Outcome, Timing) {
    let trial_no = traced.as_ref().map_or(0, |t| t.trial);
    let root = traced.as_mut().map(|t| t.tracer.open(0, "trial", None));
    let root_id = root.as_ref().map_or(0, |o| o.id);

    let t0 = Instant::now();
    let span = traced
        .as_mut()
        .map(|t| t.tracer.open(root_id, "scenario.compile", None));
    let compiled = spec.compile();
    if let (Some(t), Some(s)) = (traced.as_mut(), span) {
        t.tracer.close(trial_no, s, None);
    }
    assert!(
        compiled.clients.is_empty(),
        "closed-loop clients cannot be replayed through public calls"
    );
    let span = traced
        .as_mut()
        .map(|t| t.tracer.open(root_id, "testbed.build", None));
    let mut net = compiled.build();
    if let (Some(t), Some(s)) = (traced.as_mut(), span) {
        t.tracer.close(trial_no, s, Some(&net));
    }
    let t1 = Instant::now();

    let mut facts: HashMap<AgentId, Facts> = HashMap::new();
    let mut offers: Vec<Offer> = Vec::new();
    let mut refused = Rejections::default();
    let mut tenant_offers = (0u64, 0u64);
    let mut calls = Vec::new();
    for step in &compiled.steps {
        let name = match step {
            TrialStep::Inject { .. } | TrialStep::TryInject { .. } => "network.inject_source",
            TrialStep::TryInjectAs { .. } => "network.inject_source_as",
            TrialStep::RegisterApp(_) => "network.register_app",
            TrialStep::Run(_) => "network.run",
            TrialStep::ClearLog => "network.clear_log",
            TrialStep::Perturb(_) => "network.perturb",
        };
        if matches!(step, TrialStep::ClearLog) {
            // Fold what the log knows before it is cleared, so agents that
            // finished during set-up still balance.
            fold(&mut facts, net.log().records());
        }
        let span = traced
            .as_mut()
            .map(|t| t.tracer.open(root_id, name, Some(&net)));
        let span_id = span.as_ref().map_or(0, |o| o.id);
        let call = Instant::now();
        match step {
            TrialStep::Inject { at, source } | TrialStep::TryInject { at, source } => {
                let result = match at {
                    None => net.inject_source(source),
                    Some(loc) => net.inject_source_at(*loc, source),
                };
                if matches!(step, TrialStep::Inject { .. }) && result.is_err() {
                    panic!("trial agent failed to inject: {result:?}");
                }
                offers.push(offer(result, &mut refused));
            }
            TrialStep::TryInjectAs { at, source, app } => {
                let result = match at {
                    None => net.inject_source_as(source, *app),
                    Some(loc) => net.inject_source_at_as(*loc, source, *app),
                };
                let o = offer(result, &mut refused);
                match o {
                    Offer::Admitted(_) => tenant_offers.0 += 1,
                    Offer::Refused(_) => tenant_offers.1 += 1,
                }
                offers.push(o);
            }
            TrialStep::RegisterApp(profile) => net.register_app(profile.clone()),
            TrialStep::Run(d) => {
                let end = net.now() + *d;
                while net.now() < end {
                    let left = SimDuration::from_micros(end.since(net.now()).as_micros());
                    let d = if left < slice { left } else { slice };
                    let s = traced
                        .as_mut()
                        .map(|t| t.tracer.open(span_id, "network.run_for", Some(&net)));
                    let t0 = Instant::now();
                    net.run_for(d);
                    calls.push(t0.elapsed());
                    if let (Some(t), Some(s)) = (traced.as_mut(), s) {
                        t.tracer.close(trial_no, s, Some(&net));
                    }
                }
            }
            TrialStep::ClearLog => net.clear_log(),
            TrialStep::Perturb(p) => perturb(&mut net, p),
        }
        if !matches!(step, TrialStep::Run(_)) {
            calls.push(call.elapsed());
        }
        if let (Some(t), Some(s)) = (traced.as_mut(), span) {
            t.tracer.close(trial_no, s, Some(&net));
        }
    }
    fold(&mut facts, net.log().records());
    let agents: Vec<AgentId> = offers
        .iter()
        .filter_map(|o| match o {
            Offer::Admitted(id) => Some(*id),
            Offer::Refused(_) => None,
        })
        .collect();
    let fingerprint = Fingerprint::of(&net, &agents, &refused);
    let (counts, latencies_us, defects) = audit(&net, &offers, &agents, &facts, tenant_offers);
    inspect(&net);

    let span = traced
        .as_mut()
        .map(|t| t.tracer.open(root_id, "testbed.teardown", None));
    let t3 = Instant::now();
    drop(net);
    drop(compiled);
    let teardown = t3.elapsed();
    if let (Some(t), Some(s)) = (traced.as_mut(), span) {
        t.tracer.close(trial_no, s, None);
    }
    if let (Some(t), Some(s)) = (traced.as_mut(), root) {
        t.tracer.close(trial_no, s, None);
    }
    (
        Outcome {
            counts,
            latencies_us,
            fingerprint,
            defects,
        },
        Timing {
            setup: t1 - t0,
            calls,
            teardown,
        },
    )
}

/// Counts every offered arrival into exactly one outcome bucket, counts
/// agents the simulator duplicated, and reports bookkeeping defects.
fn audit(
    net: &AgillaNetwork,
    offers: &[Offer],
    agents: &[AgentId],
    facts: &HashMap<AgentId, Facts>,
    tenant_offers: (u64, u64),
) -> (Counts, Vec<u64>, Vec<String>) {
    let m = net.metrics();
    let tenancy = |suffix: &str| -> u64 {
        m.counters()
            .filter(|(k, _)| k.starts_with("tenancy.") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let mut c = Counts {
        sim_us: net.now().as_micros(),
        events: net.events_dispatched(),
        frames: net.medium().frames_sent(),
        beacons: m.counter("radio.beacons"),
        lost_copies: net.medium().frames_lost(),
        mig_started: m.counter("migration.started"),
        mig_arrived: m.counter("migration.arrived"),
        mig_retx: m.counter("migration.retx"),
        remote_retx: m.counter("remote.retx"),
        remote_reack: m.counter("remote.reack"),
        moves: m.counter("motion.moves"),
        tenancy_rejected: tenancy(".rejected"),
        tenancy_evicted: tenancy(".evicted"),
        tenancy_completed: tenancy(".completed"),
        offered: offers.len() as u64,
        ..Counts::default()
    };
    for f in facts.values() {
        c.remote_issued += u64::from(f.remote_issued);
        c.remote_ok += u64::from(f.remote_ok);
    }

    // Where every offered agent lives at the horizon: a slot, or held by
    // an outbound strong-migration session awaiting its ack. An agent on a
    // dead mote never runs again, so it counts as lost, not resident.
    let mut resident: HashMap<AgentId, u32> = HashMap::new();
    let offered_ids: HashSet<AgentId> = agents.iter().copied().collect();
    for node in net.medium().topology().nodes() {
        if net.is_dead(node) {
            continue;
        }
        let n = net.node(node);
        let slots = n.slots.iter().flatten().map(|s| s.agent.id());
        let held = n
            .send_sessions
            .values()
            .filter_map(|s| s.held_agent.as_ref().map(|a| a.id()));
        for id in slots.chain(held) {
            if offered_ids.contains(&id) {
                *resident.entry(id).or_default() += 1;
            }
        }
    }

    let mut defects = Vec::new();
    let mut latencies = Vec::new();
    if offered_ids.len() != agents.len() {
        defects.push("an agent id was admitted twice".to_string());
    }
    for o in offers {
        let id = match o {
            Offer::Refused(reason) => {
                c.refused[*reason] += 1;
                continue;
            }
            Offer::Admitted(id) => *id,
        };
        c.admitted += 1;
        let f = facts.get(&id).copied().unwrap_or_default();
        let copies = resident.get(&id).copied().unwrap_or(0);
        if f.injected_at.is_none() {
            defects.push(format!("{id} admitted without an injection record"));
        }
        // Two finishes, or a finish plus a live copy, means the simulator
        // duplicated the agent (a migration that failed at the sender but
        // landed at the receiver). That is a measured outcome, not a
        // bookkeeping error: the arrival still lands in one bucket below.
        if f.terminal > 1 || copies > 1 || (copies > 0 && f.terminal > 0) {
            c.duplicated += 1;
        }
        if let Some(halted) = f.halted_at {
            let ok = !f.mig_failed && f.remote_ok == f.remote_issued;
            if ok {
                c.completed += 1;
                latencies.push(halted.since(f.first_at.unwrap_or(halted)).as_micros());
            } else {
                c.halted_failed += 1;
            }
        } else if f.faulted {
            c.faulted += 1;
        } else if f.evicted {
            c.evicted += 1;
        } else if copies > 0 {
            c.resident += 1;
        } else {
            c.lost += 1;
        }
    }
    if !c.balanced() {
        defects.push(format!("outcome buckets do not balance: {c:?}"));
    }
    let tenancy_injected = tenancy(".injected");
    if (tenancy_injected, c.tenancy_rejected) != tenant_offers {
        defects.push(format!(
            "tenancy ledger (injected {tenancy_injected}, rejected {}) disagrees with the offers (admitted {}, refused {})",
            c.tenancy_rejected, tenant_offers.0, tenant_offers.1
        ));
    }
    (c, latencies, defects)
}
