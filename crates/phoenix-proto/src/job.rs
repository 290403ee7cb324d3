//! Job and task descriptions shared by PPM (kernel) and PWS (user env).

use crate::ids::{JobId, UserId};
use std::sync::Arc;

/// What one task of a job does on a node, in simulation terms: how many
//  CPUs it pins and what resource load it generates while it runs.
#[derive(Clone, PartialEq, Debug)]
pub struct TaskSpec {
    /// CPUs the task occupies on its node.
    pub cpus: u32,
    /// Fraction of node CPU the task drives while running (0..=1).
    pub cpu_load: f64,
    /// Fraction of node memory the task occupies (0..=1).
    pub mem_load: f64,
    /// Virtual run time in nanoseconds; `None` runs until deleted.
    pub duration_ns: Option<u64>,
}

impl Default for TaskSpec {
    fn default() -> Self {
        TaskSpec {
            cpus: 1,
            cpu_load: 0.9,
            mem_load: 0.3,
            duration_ns: Some(60_000_000_000), // 60 virtual seconds
        }
    }
}

/// A job submitted to the PWS job-management system.
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    pub id: JobId,
    pub user: UserId,
    /// Scheduling pool the job targets (PWS supports multiple pools with
    /// customized policies, paper Sec 5.4). Reference-counted, like the
    /// user's name: copying a `JobSpec` allocates nothing.
    pub pool: Arc<str>,
    /// Number of nodes requested.
    pub nodes: u32,
    pub task: TaskSpec,
    /// Scheduling priority (higher runs first under the priority policy).
    pub priority: i32,
    /// Virtual submission time (ns), stamped by the scheduler.
    pub submitted_ns: u64,
}

impl JobSpec {
    /// A small test job.
    pub fn simple(id: u64, user: &str, pool: &str, nodes: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            user: UserId::new(user),
            pool: pool.into(),
            nodes,
            task: TaskSpec::default(),
            priority: 0,
            submitted_ns: 0,
        }
    }
}

/// Lifecycle of a job in the scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    Queued,
    Running,
    Completed,
    Failed,
    Cancelled,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_job_defaults() {
        let j = JobSpec::simple(1, "alice", "default", 4);
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.nodes, 4);
        assert_eq!(j.task.cpus, 1);
    }
}
