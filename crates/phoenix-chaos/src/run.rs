//! Running a schedule: the only code that drives a world. `run_schedule`
//! boots a cluster, applies the masked steps, samples while an island split
//! stands, settles, and asks the settled cluster the questions the
//! invariants need answered (directory, bulletin, event probe) — each time
//! gathering one [`Observed`] and handing it to the invariants table.

use std::cell::Cell;

use phoenix_kernel::boot::GsdView;
use phoenix_kernel::group::{Gsd, Wd};
use phoenix_kernel::{boot_cluster_custom, ClientHandle, PhoenixCluster, Rung};
use phoenix_proto::{
    BulletinKey, BulletinQuery, ConsumerReg, Event, EventFilter, EventPayload, EventType,
    KernelMsg, NodeOp, PartitionId, RequestId, ServiceDirectory,
};
use phoenix_sim::{
    Diagnosis, Fault, FaultTarget, NodeId, Pid, SimDuration, SimTime, TraceEvent, World,
};

use crate::invariants::{
    check, Answers, Bulletin, Observed, Settled, SlowWindow, Split, Violation, Violations, Votes,
    When, Wiring,
};
use crate::{fmt_ns, full_mask, generate_schedule, ChaosConfig, StepAction};

/// The byte-comparison streams of a run, captured when
/// [`ChaosConfig::record_streams`] is set. Two runs of the same seed are
/// byte-identical iff both streams match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStreams {
    /// One line per dispatched simulator event (time, sequence, routing).
    pub events: String,
    /// The rendered structured trace log.
    pub trace: String,
}

/// Everything a schedule run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub seed: u64,
    pub total_steps: usize,
    pub applied_steps: usize,
    pub faults_injected: usize,
    /// A step killed a live GSD (directly or by crashing its node).
    pub gsd_died: bool,
    pub quiesced: bool,
    /// Virtual time consumed by the whole run.
    pub virtual_ns: u64,
    pub violations: Vec<Violation>,
    /// Recorded event/trace streams (`None` unless
    /// `ChaosConfig::record_streams`).
    pub streams: Option<RunStreams>,
}

impl RunOutcome {
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

fn takeover_count() -> u64 {
    phoenix_telemetry::with(|reg| reg.histogram("gsd.takeover").map_or(0, |h| h.count()))
}

/// Does applying `fault` right now kill a live GSD?
fn kills_live_gsd(world: &World<KernelMsg>, fault: Fault) -> bool {
    match fault {
        Fault::KillProcess(pid) => world.actor_as::<Gsd>(pid).is_some(),
        Fault::CrashNode(node) => world
            .pids_on(node)
            .iter()
            .any(|&p| world.actor_as::<Gsd>(p).is_some()),
        _ => false,
    }
}

/// What the step loop knows when it hands the world over for a check.
struct Progress {
    gsd_died: bool,
    /// Baseline random loss already makes the network "dirty": a lost
    /// heartbeat run can legitimately raise suspicion.
    clean_network: bool,
    takeovers_before: u64,
    island_since: Option<SimTime>,
    last_step: SimTime,
    slow_windows: Vec<SlowWindow>,
}

/// Boot a cluster, apply the masked subset of the seed's schedule, wait for
/// quiescence, and check every invariant. `verbose` prints what a replay
/// shows: the schedule with the masked steps starred, then each step as it
/// is applied.
pub fn run_schedule(seed: u64, cfg: &ChaosConfig, mask: u64, verbose: bool) -> RunOutcome {
    let (mut world, cluster) = boot_cluster_custom(
        cfg.topology(),
        cfg.params.clone(),
        seed,
        cfg.net.clone(),
        cfg.scheduler,
        cfg.record_streams,
    );
    let hb = cfg.params.ft.hb_interval;
    world.run_until(SimTime::ZERO + hb * 2 + SimDuration::from_millis(10));

    let steps = generate_schedule(seed, cfg, &cluster);
    if verbose {
        println!(
            "replay seed {seed} mask {:#x} — schedule ({} steps):",
            mask & full_mask(steps.len()),
            steps.len()
        );
        for (i, step) in steps.iter().enumerate() {
            let selected = mask & (1u64 << i) != 0;
            println!("  {} [{i:>2}] {step}", if selected { "*" } else { " " });
        }
        println!("running:");
    }
    let t0 = world.now();
    let client = ClientHandle::spawn(&mut world, cluster.topology.partitions[0].server);
    world.run_for(SimDuration::from_millis(1));

    let mut applied = 0usize;
    let mut faults_injected = 0usize;
    let mut violations = Violations::default();
    let mut at = Progress {
        gsd_died: false,
        clean_network: cfg.net.loss_permille == 0,
        takeovers_before: takeover_count(),
        island_since: None,
        last_step: t0,
        slow_windows: Vec::new(),
    };

    for (i, step) in steps.iter().enumerate() {
        if mask & (1u64 << i) == 0 {
            continue;
        }
        advance_sampled(
            &mut world,
            &cluster,
            cfg,
            t0 + step.offset,
            &at,
            &mut violations,
        );
        match step.action {
            StepAction::Fault(fault) => {
                if kills_live_gsd(&world, fault) {
                    at.gsd_died = true;
                }
                if matches!(
                    fault,
                    Fault::NicDown(..)
                        | Fault::PartitionLink(..)
                        | Fault::LossBurst { .. }
                        | Fault::NicDegrade(..)
                        | Fault::Partition { .. }
                ) {
                    at.clean_network = false;
                }
                match fault {
                    Fault::Partition { .. } => at.island_since = Some(world.now()),
                    Fault::Heal => at.island_since = None,
                    _ => {}
                }
                // Fail-slow window bookkeeping for the slow-not-dead
                // invariant. Slowing an already-dead node opens no window
                // (it answers nothing, late or otherwise, and its dead
                // verdict is correct); a crash ends the window (the node
                // really is dead from then on); a network fault taints it
                // (a dead verdict could then be the network's fault, not
                // the detector's).
                let open = at.slow_windows.iter_mut().filter(|w| w.to.is_none());
                match fault {
                    Fault::SlowNode { node, .. } if world.node(node).up => {
                        at.slow_windows.push(SlowWindow {
                            node,
                            from: world.now(),
                            to: None,
                            clean: true,
                        })
                    }
                    Fault::SlowClear(node) | Fault::CrashNode(node) => {
                        close_slow_windows(&mut at.slow_windows, node, world.now())
                    }
                    Fault::NicDown(node, _) | Fault::NicDegrade(node, _, _) => open
                        .filter(|w| w.node == node)
                        .for_each(|w| w.clean = false),
                    Fault::PartitionLink(a, b) => open
                        .filter(|w| w.node == a || w.node == b)
                        .for_each(|w| w.clean = false),
                    Fault::LossBurst { .. } | Fault::Partition { .. } => {
                        open.for_each(|w| w.clean = false)
                    }
                    _ => {}
                }
                if verbose {
                    println!("  t={:>9} apply {:?}", fmt_ns(world.now().0), fault);
                }
                world.apply_fault(fault);
                faults_injected += 1;
            }
            StepAction::RepairNode(node) => {
                // The config service spawns fresh daemons unconditionally;
                // repairing a node that is already up would duplicate them.
                if world.node(node).up {
                    continue;
                }
                if verbose {
                    println!("  t={:>9} repair node {}", fmt_ns(world.now().0), node.0);
                }
                client.send(
                    &mut world,
                    cluster.config(),
                    KernelMsg::CfgNodeOp {
                        req: RequestId(90_000 + i as u64),
                        node,
                        op: NodeOp::Start,
                    },
                );
            }
        }
        applied += 1;
        at.last_step = world.now();
    }

    // A shrunk mask may keep a `Partition` step but drop its `Heal`: a
    // cluster left split forever can never reconverge, so every run heals
    // any leftover island before settling (exactly like the generated
    // schedules always pair the two).
    if world.island() != 0 {
        world.apply_fault(Fault::Heal);
    }
    // Same for leftover slowness: a shrunk mask may keep a `SlowNode` but
    // drop its `SlowClear`. A cluster with a permanently slow node would
    // (correctly) hold its quarantine forever, so heal before settling —
    // the convergence invariant then asserts the quarantine warms out.
    for n in 0..world.node_count() {
        let node = NodeId(n as u32);
        if world.slow_factor(node) != 0 {
            world.apply_fault(Fault::SlowClear(node));
            close_slow_windows(&mut at.slow_windows, node, world.now());
        }
    }

    let deadline = world.now() + cfg.settle_deadline;
    let quiesced = world.run_until_quiet(cfg.settle_window, deadline);
    client.drain(); // discard CfgAcks before the invariant queries

    let gsd_died = at.gsd_died;
    let mut obs = observe(&world, &cluster, cfg, &at);
    obs.settled = Some(question(&mut world, &cluster, cfg, &client, quiesced, at));
    check(When::Quiesced, &obs, &mut violations);

    let streams = cfg.record_streams.then(|| RunStreams {
        events: world.take_event_log(),
        trace: world.trace().render(),
    });

    RunOutcome {
        seed,
        total_steps: steps.len(),
        applied_steps: applied,
        faults_injected,
        gsd_died,
        quiesced,
        virtual_ns: world.now().0,
        violations: violations.into_vec(),
        streams,
    }
}

fn close_slow_windows(windows: &mut [SlowWindow], node: NodeId, now: SimTime) {
    for w in windows.iter_mut().filter(|w| w.node == node) {
        w.to.get_or_insert(now);
    }
}

/// Advance virtual time to `target`. While an island split is active the
/// advance happens in 100 ms slices, checking the sampled invariants at
/// every slice end.
fn advance_sampled(
    world: &mut World<KernelMsg>,
    cluster: &PhoenixCluster,
    cfg: &ChaosConfig,
    target: SimTime,
    at: &Progress,
    violations: &mut Violations,
) {
    let slice = SimDuration::from_millis(100);
    while world.now().0 < target.0 {
        if world.island() == 0 {
            world.run_until(target);
            return;
        }
        let next = world.now() + slice;
        world.run_until(if next.0 < target.0 { next } else { target });
        check(When::Sampled, &observe(world, cluster, cfg, at), violations);
    }
}

/// What can be read off the world as it stands: the live GSDs and, while an
/// island split is active, the split — under a vote table with the witness
/// the GSDs currently believe in and which nodes are up.
fn observe<'a>(
    world: &World<KernelMsg>,
    cluster: &'a PhoenixCluster,
    cfg: &'a ChaosConfig,
    at: &Progress,
) -> Observed<'a> {
    let gsds = PhoenixCluster::live_gsds(world);
    let votes = || Votes {
        witness: gsds
            .iter()
            .filter_map(|g| world.actor_as::<Gsd>(g.pid).and_then(|a| a.witness_view()))
            .max_by_key(|&(_, e)| e)
            .map(|(w, _)| w)
            .or(cfg.params.ft.witness)
            .unwrap_or(PartitionId(0)),
        up: world.nodes().iter().map(|n| n.up).collect(),
    };
    let standing = at.island_since.filter(|_| world.island() != 0);
    let split = standing.map(|since| Split {
        island: world.island(),
        held: world.now().since(since),
        since_step: world.now().since(at.last_step),
        votes: (cfg.params.ft.rung >= Rung::Quorum).then(votes),
    });
    Observed {
        topology: &cluster.topology,
        hb_interval: cfg.params.ft.hb_interval,
        now: world.now(),
        gsds,
        split,
        settled: None,
    }
}

/// Question the settled cluster. The order is part of the contract (each
/// question moves virtual time, and each fact is read where a run always
/// read it): after the takeover count and the live GSDs of [`observe`], the
/// directory query, WD wiring, the bulletin query, the event probe, the
/// telemetry registry and the event pool, and last the trace and the
/// quarantine views.
fn question(
    world: &mut World<KernelMsg>,
    cluster: &PhoenixCluster,
    cfg: &ChaosConfig,
    client: &ClientHandle,
    quiesced: bool,
    at: Progress,
) -> Settled {
    let takeovers = takeover_count() - at.takeovers_before;
    let directory = query_directory(world, client, cluster).map(|dir| Answers {
        wiring: up_nodes(world)
            .into_iter()
            .map(|n| (n, wiring_of(world, &dir, n)))
            .collect(),
        gsd_died: at.gsd_died,
        clean_network: at.clean_network,
        takeovers,
        bulletin: query_bulletin(world, client, dir.partitions[0].bulletin),
        deliveries: probe_event_delivery(world, &dir),
        open_spans: phoenix_telemetry::with(|reg| reg.open_spans()),
        pool: world.scheduler_stats(),
        queued: world.queue_len(),
    });
    let dead_verdicts = world
        .trace()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FaultDiagnosed {
                target: FaultTarget::Node(node),
                diagnosis: Diagnosis::NodeFailure,
                ..
            } => Some((node, r.at)),
            _ => None,
        });
    // Quarantine views exist only with the fail-slow detector on.
    let detecting = (cfg.params.ft.rung >= Rung::Slow).then(|| PhoenixCluster::live_gsds(world));
    let quarantine = |g: &GsdView| {
        let gsd = world.actor_as::<Gsd>(g.pid)?;
        Some((g.partition, gsd.quarantine_view().1))
    };
    Settled {
        unquiet: (!quiesced).then_some((cfg.settle_window, cfg.settle_deadline)),
        directory,
        slow_windows: at.slow_windows,
        dead_verdicts: dead_verdicts.collect(),
        quarantines: detecting.iter().flatten().filter_map(quarantine).collect(),
    }
}

fn up_nodes(world: &World<KernelMsg>) -> Vec<NodeId> {
    let up = world.nodes().iter().filter(|n| n.up);
    up.map(|n| n.id).collect()
}

fn wiring_of(world: &World<KernelMsg>, dir: &ServiceDirectory, node: NodeId) -> Wiring {
    let Some(ns) = dir.node(node) else {
        return Wiring::Unlisted;
    };
    let Some(wd) = world.actor_as::<Wd>(ns.wd) else {
        return Wiring::WdDead(ns.wd);
    };
    let pid = wd.gsd_pid();
    let gsd_of = world.actor_as::<Gsd>(pid).map(|g| g.partition_id());
    Wiring::Heartbeats { pid, gsd_of }
}

/// A harness question crosses the (possibly lossy) network like any other
/// message, so it is asked up to three times: `send` (given the attempt
/// number), run `wait`, then `heard`, which drains the answers and says
/// whether the question is settled. On a reliable network the first
/// attempt always answers and the extra attempts send nothing.
fn ask(
    world: &mut World<KernelMsg>,
    wait: SimDuration,
    send: impl Fn(&mut World<KernelMsg>, u64),
    mut heard: impl FnMut() -> bool,
) {
    for attempt in 0..3u64 {
        send(world, attempt);
        world.run_for(wait);
        if heard() {
            return;
        }
    }
}

fn query_directory(
    world: &mut World<KernelMsg>,
    client: &ClientHandle,
    cluster: &PhoenixCluster,
) -> Option<ServiceDirectory> {
    // Asked up to three times, like every question here (see `ask`).
    (0..3u64).find_map(|attempt| {
        let query = KernelMsg::CfgQueryDirectory {
            req: RequestId(91_000 + attempt),
        };
        let wait = SimDuration::from_millis(200);
        client.ask(world, cluster.config(), query, wait, |msg| match msg {
            KernelMsg::CfgDirectory { directory, .. } => Some(*directory),
            _ => None,
        })
    })
}

/// Only the last answer's completeness counts (earlier attempts may have
/// been cut short by loss).
fn query_bulletin(world: &mut World<KernelMsg>, client: &ClientHandle, pid: Pid) -> Bulletin {
    let (mut answer, mut seen) = (None, Vec::new());
    let send = |world: &mut World<KernelMsg>, attempt| {
        let (req, query) = (RequestId(92_000 + attempt), BulletinQuery::Resources);
        client.send(world, pid, KernelMsg::DbQuery { req, query });
    };
    ask(world, SimDuration::from_millis(500), send, || {
        for (_, msg) in client.drain() {
            if let KernelMsg::DbResp {
                entries, complete, ..
            } = msg
            {
                answer = Some(complete);
                seen.extend(entries.iter().filter_map(|e| match e.key {
                    BulletinKey::Resource(n) => Some(n),
                    _ => None,
                }));
            }
        }
        answer.is_some()
    });
    let up = up_nodes(world);
    Bulletin {
        pid,
        answer,
        seen,
        up,
    }
}

/// One consumer per partition, registered at that partition's event service
/// on the node the directory says hosts it; then one event published at
/// partition 0's. Registrations are acknowledged (req != 0) and re-sent
/// until acked so a lost registration does not read as a federation
/// failure (registration is idempotent server-side); the event is
/// re-published if loss swallowed it, and a consumer counts as served once
/// it sees any copy.
fn probe_event_delivery(
    world: &mut World<KernelMsg>,
    dir: &ServiceDirectory,
) -> Vec<(PartitionId, bool)> {
    let etype = EventType::Custom(4242);
    let mut consumers: Vec<(PartitionId, Pid, ClientHandle)> = Vec::new();
    for m in &dir.partitions {
        if !world.is_alive(m.event) || !world.node(m.node).up {
            continue;
        }
        let c = ClientHandle::spawn(world, m.node);
        world.run_for(SimDuration::from_millis(1));
        consumers.push((m.partition, m.event, c));
    }
    if consumers.is_empty() {
        return Vec::new();
    }
    // Drain every consumer, noting who got a `wanted` message; true once
    // all have.
    let drain_for = |got: &[Cell<bool>], wanted: &dyn Fn(&KernelMsg) -> bool| {
        for ((_, _, c), got) in consumers.iter().zip(got) {
            got.set(got.get() | c.drain().iter().any(|(_, m)| wanted(m)));
        }
        got.iter().all(Cell::get)
    };
    let acked = vec![Cell::new(false); consumers.len()];
    let register = |world: &mut World<KernelMsg>, attempt| {
        for ((_, es, c), _) in consumers.iter().zip(&acked).filter(|(_, a)| !a.get()) {
            let filter = EventFilter::Types(vec![etype]);
            let reg = ConsumerReg {
                consumer: c.pid,
                filter,
            };
            let req = RequestId(93_000 + attempt);
            c.send(world, *es, KernelMsg::EsRegisterConsumer { req, reg });
        }
    };
    ask(world, SimDuration::from_millis(100), register, || {
        drain_for(&acked, &|m| matches!(m, KernelMsg::EsRegisterAck { .. }))
    });
    let got = vec![Cell::new(false); consumers.len()];
    let publish = |world: &mut World<KernelMsg>, _| {
        let event = Event::new(etype, NodeId(0), EventPayload::Text("chaos-probe".into()));
        consumers[0].2.send(
            world,
            dir.partitions[0].event,
            KernelMsg::EsPublish { event },
        );
    };
    ask(world, SimDuration::from_millis(500), publish, || {
        drain_for(
            &got,
            &|m| matches!(m, KernelMsg::EsNotify { event } if event.etype == etype),
        )
    });
    consumers
        .iter()
        .map(|c| c.0)
        .zip(got.iter().map(Cell::get))
        .collect()
}
