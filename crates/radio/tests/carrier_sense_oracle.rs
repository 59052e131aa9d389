//! Carrier sense and collisions checked against the pre-index medium.
//!
//! `Medium` answers carrier sense from dense per-node "on the air until"
//! times, reading only the sensing node and the candidates in the
//! topology's 3×3 cell neighborhood. The reference below is the earlier
//! design, kept as a brute-force model: one pruned list of in-flight
//! frames (each transmitter's latest), scanned in full and judged with
//! `are_neighbors` at sense time; per-receiver busy times in a map; and
//! receivers found by a scan over every node. Random interleavings of
//! transmissions, moves (cell crossings mid-frame, and positions outside
//! the boot bounding box), removals, and link drops and heals, at
//! non-decreasing times, must get the same carrier-sense answer from both
//! at every node after every step, and the same batch for every frame.

use std::collections::HashMap;

use proptest::prelude::*;
use wsn_common::{Location, NodeId};
use wsn_radio::{Connectivity, DeliveryOutcome, Frame, LossModel, Medium, Topology, TxBatch};
use wsn_sim::{RngStream, SimDuration, SimTime};

/// The earlier medium's carrier-sense and collision bookkeeping.
struct Reference {
    /// In-flight frames as (transmitter, on the air until): finished
    /// entries and the sender's previous entry are dropped on each
    /// transmit.
    in_flight: Vec<(NodeId, SimTime)>,
    /// Per receiver: time until which it is busy receiving.
    rx_busy_until: HashMap<NodeId, SimTime>,
    /// Per-transmitter loss streams, derived as the medium derives them.
    rng: Vec<RngStream>,
    loss: LossModel,
}

impl Reference {
    fn new(nodes: usize, loss: LossModel, seed: u64) -> Self {
        let root = RngStream::derive(seed, "radio.medium");
        Reference {
            in_flight: Vec::new(),
            rx_busy_until: HashMap::new(),
            rng: (0..nodes).map(|i| root.substream(i as u64)).collect(),
            loss,
        }
    }

    fn channel_busy(&self, topo: &Topology, now: SimTime, node: NodeId) -> bool {
        self.in_flight
            .iter()
            .any(|&(tx, until)| until > now && (tx == node || topo.are_neighbors(tx, node)))
    }

    fn transmit(&mut self, topo: &Topology, now: SimTime, frame: &Frame) -> TxBatch {
        let end = now + frame.air_time();
        self.in_flight
            .retain(|&(tx, until)| until > now && tx != frame.src);
        self.in_flight.push((frame.src, end));
        let receivers: Vec<NodeId> = topo
            .nodes()
            .filter(|&n| topo.are_neighbors(frame.src, n))
            .collect();
        let p = self.loss.frame_loss_probability(frame.on_air_bits());
        let outcomes = receivers
            .into_iter()
            .map(|dst| {
                let busy = self.rx_busy_until.get(&dst).copied();
                let outcome = if busy.unwrap_or(SimTime::ZERO) > now {
                    DeliveryOutcome::LostCollision
                } else {
                    self.rx_busy_until.insert(dst, end);
                    if self.rng[frame.src.index()].chance(p) {
                        DeliveryOutcome::LostChannel
                    } else {
                        DeliveryOutcome::Delivered
                    }
                };
                (dst, outcome)
            })
            .collect();
        TxBatch {
            arrive_at: end,
            outcomes,
        }
    }
}

/// Distinct boot positions in a compact band.
fn positions() -> impl Strategy<Value = Vec<Location>> {
    prop::collection::btree_set((-6i16..=6, -6i16..=6), 2..=16)
        .prop_map(|set| set.into_iter().map(|(x, y)| Location::new(x, y)).collect())
}

/// A script of `(op, a, b, x, y, dt)` steps: `op` picks the action, `a`
/// and `b` pick nodes (modulo the node count) or a payload size, `x`/`y`
/// a move target, and `dt` how far the clock advances first (µs). Moves
/// overshoot the boot box so movers reach the clamped border cells.
fn script() -> impl Strategy<Value = Vec<(u8, usize, usize, i16, i16, u64)>> {
    prop::collection::vec(
        (
            0u8..12,
            0usize..64,
            0usize..64,
            -14i16..=14,
            -14i16..=14,
            0u64..6_000,
        ),
        1..=60,
    )
}

/// Runs `steps` against both the medium and the reference, comparing every
/// node's carrier-sense answer after every step and every frame's batch.
fn replay(
    boot: Vec<Location>,
    connectivity: Connectivity,
    loss: f64,
    seed: u64,
    steps: Vec<(u8, usize, usize, i16, i16, u64)>,
) -> Result<(), TestCaseError> {
    let n = boot.len();
    let node = |i: usize| NodeId((i % n) as u16);
    let loss = LossModel::uniform(loss);
    let mut medium = Medium::new(Topology::new(boot, connectivity), loss.clone(), seed);
    let mut reference = Reference::new(n, loss, seed);
    let mut now = SimTime::ZERO;
    let mut last_end = SimTime::ZERO;
    for (step, (op, a, b, x, y, dt)) in steps.into_iter().enumerate() {
        now += SimDuration::from_micros(dt);
        match op {
            0..=3 => {
                let frame = Frame::broadcast(node(a), vec![0; 1 + b % 36]);
                let got = medium.transmit(now, &frame);
                let want = reference.transmit(medium.topology(), now, &frame);
                prop_assert_eq!(&got, &want, "frame from {:?} at step {}", node(a), step);
                last_end = got.arrive_at;
            }
            4 => medium.move_node(node(a), Location::new(x, y)),
            5 => {
                // A one-unit nudge: the cell crossings a mover makes while
                // its own or a neighbor's frame is still on the air.
                let from = medium.topology().location(node(a));
                let to = Location::new(from.x + x.rem_euclid(3) - 1, from.y + y.rem_euclid(3) - 1);
                medium.move_node(node(a), to);
            }
            6 => medium.remove_node(node(a)),
            7 | 8 => medium.drop_link(node(a), node(b)),
            9 => medium.heal_link(node(a), node(b)),
            // Sense exactly when the latest frame ends: the channel is
            // free at its end time, not one tick later.
            10 => now = now.max(last_end),
            _ => {}
        }
        for i in 0..n {
            let sensed = node(i);
            prop_assert_eq!(
                medium.channel_busy(now, sensed),
                reference.channel_busy(medium.topology(), now, sensed),
                "node {:?} at {:?}, step {} (op {}), t = {:?}",
                sensed,
                medium.topology().location(sensed),
                step,
                op,
                now
            );
        }
    }
    Ok(())
}

proptest! {
    /// The paper's testbed rule: Manhattan-adjacent neighbors, one-unit
    /// cells, so every neighbor of a mote sits in a fringe cell.
    #[test]
    fn carrier_sense_matches_the_in_flight_list_on_grids(
        boot in positions(),
        loss in 0.0f64..=0.5,
        seed in 0u64..10_000,
        steps in script(),
    ) {
        replay(boot, Connectivity::GridAdjacent, loss, seed, steps)?;
    }

    /// Euclidean range: neighbors share the mote's own cell or a fringe
    /// cell, depending on where the cell boundaries fall.
    #[test]
    fn carrier_sense_matches_the_in_flight_list_in_range(
        boot in positions(),
        radius in 1.0f64..=3.5,
        loss in 0.0f64..=0.5,
        seed in 0u64..10_000,
        steps in script(),
    ) {
        replay(boot, Connectivity::Range(radius), loss, seed, steps)?;
    }
}

/// A mote that crosses into a fringe cell while a neighbor's frame is on
/// the air hears that frame's carrier at once, and stops hearing it once it
/// moves out of range, all before the frame ends.
#[test]
fn a_mover_senses_carrier_from_the_cell_it_enters_mid_frame() {
    let topo = Topology::new(
        vec![Location::new(0, 0), Location::new(8, 0)],
        Connectivity::Range(2.0),
    );
    let mut medium = Medium::new(topo, LossModel::perfect(), 1);
    let frame = Frame::broadcast(NodeId(0), vec![0; 20]);
    let batch = medium.transmit(SimTime::ZERO, &frame);
    assert!(batch.outcomes.is_empty(), "node 1 starts out of range");
    let mid = SimTime::from_micros(batch.arrive_at.as_micros() / 2);
    assert!(!medium.channel_busy(mid, NodeId(1)));
    medium.move_node(NodeId(1), Location::new(2, 0));
    assert!(medium.channel_busy(mid, NodeId(1)), "in range mid-frame");
    medium.move_node(NodeId(1), Location::new(5, 0));
    assert!(!medium.channel_busy(mid, NodeId(1)), "out of range again");
    medium.move_node(NodeId(1), Location::new(1, 1));
    assert!(medium.channel_busy(mid, NodeId(1)));
    assert!(!medium.channel_busy(batch.arrive_at, NodeId(1)));
}
