//! PWS-vs-PBS harness (paper Sec 5.4, Figs 7–8): equal job workloads under
//! the event-driven PWS and the polling PBS baseline, comparing resource
//! collection traffic and high-availability behaviour.

use phoenix_kernel::boot::boot_cluster;
use phoenix_kernel::client::ClientHandle;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, JobSpec, TaskSpec};
use phoenix_pws::{install_pbs, install_pws, login, queue_status, submit, PolicyKind, PoolConfig};
use phoenix_sim::{SimDuration, TraceEvent};

use crate::compute_nodes;

/// Traffic and outcome of one run.
#[derive(Clone, Debug)]
pub(crate) struct RunStats {
    pub(crate) system: &'static str,
    pub(crate) jobs_completed: usize,
    /// Bytes of resource-collection + job-control traffic.
    pub(crate) collection_bytes: u64,
    pub(crate) collection_msgs: u64,
    /// Did the job manager survive a scheduler-process kill?
    pub(crate) survived_scheduler_fault: bool,
}

fn workload(count: usize, duration_s: u64, pool: &str) -> Vec<JobSpec> {
    (0..count)
        .map(|i| JobSpec {
            task: TaskSpec {
                duration_ns: Some(duration_s * 1_000_000_000),
                ..TaskSpec::default()
            },
            ..JobSpec::simple(i as u64 + 1, "alice", pool, 1)
        })
        .collect()
}

/// Run the workload under PWS or PBS; `inject_fault` kills the scheduler
/// mid-run to compare HA.
pub(crate) fn run(
    use_pbs: bool,
    partitions: usize,
    per_partition: usize,
    jobs: usize,
    secs: u64,
    inject_fault: bool,
    seed: u64,
) -> RunStats {
    let topo = ClusterTopology::uniform(partitions, per_partition, 1);
    let params = KernelParams::fast();
    let (mut w, cluster) = boot_cluster(topo, params, seed);
    w.run_for(SimDuration::from_millis(100));
    let nodes = compute_nodes(&cluster);

    let (target, pws_handle) = if use_pbs {
        (
            install_pbs(
                &mut w,
                &cluster,
                cluster.topology.partitions[0].server,
                nodes.clone(),
                // PBS polls continuously; a 2 s period on a 1 s-heartbeat
                // fast profile mirrors the paper's relative rates.
                SimDuration::from_secs(2),
            ),
            None,
        )
    } else {
        let h = install_pws(
            &mut w,
            &cluster,
            vec![PoolConfig::new("batch", nodes.clone(), PolicyKind::Backfill)],
        );
        w.run_for(SimDuration::from_millis(100));
        (h.scheduler("batch").unwrap(), Some(h))
    };

    let client = ClientHandle::spawn(&mut w, nodes[0]);
    let token = login(&mut w, &cluster, &client, "alice", "alice-secret");
    for s in workload(jobs, 2, "batch") {
        submit(&mut w, &client, target, token.clone(), s);
    }

    let mut survived = true;
    if inject_fault {
        w.run_for(SimDuration::from_secs(2));
        w.kill_process(target);
        w.run_for(SimDuration::from_secs(5));
        // Is anyone answering queue queries afterwards?
        let now_target = pws_handle
            .as_ref()
            .and_then(|h| h.scheduler("batch"))
            .unwrap_or(target);
        let rows = queue_status(&mut w, &client, now_target);
        survived = w.is_alive(now_target) && (now_target != target || !rows.is_empty());
    }

    w.run_for(SimDuration::from_secs(secs));

    let m = w.metrics();
    let (collection_msgs, collection_bytes) = if use_pbs {
        let s = m.label("pbs");
        (s.sent, s.sent_bytes)
    } else {
        let e = m.label("event");
        let p = m.label("pws");
        (e.sent + p.sent, e.sent_bytes + p.sent_bytes)
    };
    let completed_label = if use_pbs {
        "pbs-job-completed"
    } else {
        "job-completed"
    };
    let jobs_completed = w
        .trace()
        .count(|e| matches!(e, TraceEvent::Milestone { label, .. } if *label == completed_label));

    RunStats {
        system: if use_pbs { "PBS" } else { "PWS" },
        jobs_completed,
        collection_bytes,
        collection_msgs,
        survived_scheduler_fault: survived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pws_survives_fault_pbs_does_not() {
        let pws = run(false, 2, 4, 2, 10, true, 51);
        let pbs = run(true, 2, 4, 2, 10, true, 52);
        assert!(pws.survived_scheduler_fault, "{pws:?}");
        assert!(!pbs.survived_scheduler_fault, "{pbs:?}");
    }

    #[test]
    fn both_complete_jobs_without_faults() {
        let pws = run(false, 2, 4, 3, 20, false, 53);
        let pbs = run(true, 2, 4, 3, 20, false, 54);
        assert_eq!(pws.jobs_completed, 3, "{pws:?}");
        assert_eq!(pbs.jobs_completed, 3, "{pbs:?}");
        assert!(pbs.collection_bytes > pws.collection_bytes);
    }
}
