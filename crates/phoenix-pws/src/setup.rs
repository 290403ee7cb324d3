//! Installing PWS onto a booted Phoenix cluster, plus client-side helpers
//! (login, submit, status) used by examples, tests, and benches.
//!
//! Paper Sec 5.4: "Phoenix kernel provides most of functions of PBS, and
//! the development of new PWS system focuses only on the user interface
//! and scheduling modules" — accordingly, installing PWS is just: spawn
//! one scheduler per pool on a server node, register its respawn factory
//! with the group service, and let the kernel do the rest.

use crate::pbs::PbsServer;
use crate::scheduler::{pool_directory, PoolConfig, PoolDirectory, PwsScheduler};
use phoenix_kernel::boot::PhoenixCluster;
use phoenix_kernel::client::ClientHandle;
use phoenix_proto::{AuthToken, JobSpec, KernelMsg, PartitionId, QueueRow, RequestId, UserId};
use phoenix_sim::{NodeId, Pid, SimDuration, World};

/// Handle to an installed PWS.
pub struct PwsHandle {
    pub(crate) pools: PoolDirectory,
}

impl PwsHandle {
    /// Current pid of a pool's scheduler (follows respawns).
    pub fn scheduler(&self, pool: &str) -> Option<Pid> {
        self.pools.borrow().get(pool).copied()
    }
}

/// Spawn one PWS scheduler per pool and register respawn factories so the
/// group service can keep them highly available.
pub fn install_pws(
    world: &mut World<KernelMsg>,
    cluster: &PhoenixCluster,
    pools: Vec<PoolConfig>,
) -> PwsHandle {
    let dir = pool_directory();
    let nparts = cluster.topology.partitions.len();
    for (i, pool) in pools.into_iter().enumerate() {
        // Spread schedulers across partitions ("scheduling service group").
        let partition = PartitionId((i % nparts) as u32);
        let server = cluster.topology.partitions[partition.index()].server;

        // Respawn factory so the GSD can restart or migrate the scheduler.
        {
            let pool = pool.clone();
            let dir = dir.clone();
            let directory = cluster.directory.clone();
            cluster.registry.borrow_mut().register(
                PwsScheduler::factory_key(&pool.name),
                Box::new(move |args| {
                    Box::new(PwsScheduler::respawn(
                        pool.clone(),
                        args,
                        directory.clone(),
                        dir.clone(),
                    ))
                }),
            );
        }

        let sched = PwsScheduler::new(
            pool.clone(),
            partition,
            cluster.params.clone(),
            cluster.directory.clone(),
            dir.clone(),
        );
        world.spawn(server, Box::new(sched));
    }
    PwsHandle { pools: dir }
}

/// Spawn the PBS baseline server on a node.
pub fn install_pbs(
    world: &mut World<KernelMsg>,
    cluster: &PhoenixCluster,
    node: NodeId,
    managed: Vec<NodeId>,
    poll_interval: SimDuration,
) -> Pid {
    world.spawn(
        node,
        Box::new(PbsServer::new(
            cluster.directory.clone(),
            managed,
            poll_interval,
        )),
    )
}

/// Log a user in through the security service; panics on failure (test
/// and example convenience).
pub fn login(
    world: &mut World<KernelMsg>,
    cluster: &PhoenixCluster,
    client: &ClientHandle,
    user: &str,
    secret: &str,
) -> AuthToken {
    let login = KernelMsg::SecLogin {
        req: RequestId(u64::MAX),
        user: UserId::new(user),
        secret: secret.to_string(),
    };
    let wait = SimDuration::from_millis(5);
    let answer = client.ask(world, cluster.security(), login, wait, |m| match m {
        KernelMsg::SecLoginResp {
            req: RequestId(u64::MAX),
            token,
        } => Some(token),
        _ => None,
    });
    answer.expect("no login response").expect("login rejected")
}

/// Submit a job and wait for the accept/reject response.
pub fn submit(
    world: &mut World<KernelMsg>,
    client: &ClientHandle,
    scheduler: Pid,
    token: AuthToken,
    spec: JobSpec,
) -> bool {
    let req = RequestId(spec.id.0 | (1 << 62));
    let submit = KernelMsg::PwsSubmit { req, token, spec };
    let wait = SimDuration::from_millis(10);
    let accepted = client.ask(world, scheduler, submit, wait, |m| match m {
        KernelMsg::PwsSubmitResp {
            req: r, accepted, ..
        } if r == req => Some(accepted),
        _ => None,
    });
    accepted.unwrap_or(false)
}

/// Fetch the queue status of a scheduler.
pub fn queue_status(
    world: &mut World<KernelMsg>,
    client: &ClientHandle,
    scheduler: Pid,
) -> Vec<QueueRow> {
    let query = KernelMsg::PwsQueueStatus {
        req: RequestId(u64::MAX - 1),
        pool: None,
    };
    let wait = SimDuration::from_millis(10);
    let rows = client.ask(world, scheduler, query, wait, |m| match m {
        KernelMsg::PwsQueueStatusResp { rows, .. } => Some(rows),
        _ => None,
    });
    rows.unwrap_or_default()
}
