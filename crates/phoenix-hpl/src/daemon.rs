//! Background "Phoenix daemon" load for the Table 4 interference
//! experiment.
//!
//! On the Dawning 4000A the question was: how many cycles do the Phoenix
//! kernel daemons (WD heartbeats, detectors sampling /proc, GSD analysis)
//! steal from Linpack? This module reproduces the measurement on real
//! threads: each simulated daemon wakes at its interval, does a small
//! burst of bookkeeping-like work, and sleeps again — the duty cycle is
//! the knob. The paper's result (Table 4: 97–102 % of baseline, "little
//! impact") corresponds to a sub-percent duty cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the background daemon set.
#[derive(Clone, Debug)]
pub struct DaemonLoad {
    /// Number of daemon threads (WD + detector + share of GSD ≈ 3).
    pub daemons: usize,
    /// Wake-up interval.
    pub interval: Duration,
    /// Busy time per wake-up.
    pub busy: Duration,
}

impl DaemonLoad {
    /// The calibrated default: three daemons waking every 10 ms for
    /// ~40 µs each ≈ 1.2 % aggregate duty cycle — the right order for
    /// heartbeat + sampling daemons. The short period keeps the bursts
    /// fine-grained relative to benchmark run times, like the real
    /// daemons' interrupt-sized work.
    pub fn phoenix_default() -> DaemonLoad {
        DaemonLoad {
            daemons: 3,
            interval: Duration::from_millis(10),
            busy: Duration::from_micros(40),
        }
    }

    /// Aggregate duty cycle (fraction of one CPU).
    pub fn duty_cycle(&self) -> f64 {
        self.daemons as f64 * self.busy.as_secs_f64() / self.interval.as_secs_f64()
    }
}

/// Running daemon set; stops and joins on drop.
pub struct DaemonSet {
    stop: Arc<AtomicBool>,
    /// One per daemon; each returns how many busy rounds it ran.
    handles: Vec<JoinHandle<u64>>,
}

/// Spin for roughly `busy` doing arithmetic that will not be optimized out.
fn busy_work(busy: Duration) -> u64 {
    let start = Instant::now();
    let mut acc: u64 = 0x9E3779B9;
    while start.elapsed() < busy {
        for _ in 0..64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
    }
    acc
}

/// Start the daemon set.
pub fn start(load: &DaemonLoad) -> DaemonSet {
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(load.daemons);
    for d in 0..load.daemons {
        let stop = stop.clone();
        let interval = load.interval;
        let busy = load.busy;
        handles.push(std::thread::spawn(move || {
            // Stagger daemons so their bursts do not align.
            std::thread::sleep(interval.mul_f64(d as f64 / 3.0));
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(busy_work(busy));
                rounds += 1;
                std::thread::sleep(interval);
            }
            rounds
        }));
    }
    DaemonSet { stop, handles }
}

impl DaemonSet {
    /// Stop and join all daemons; returns the busy rounds they ran.
    pub(crate) fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        let mut rounds = 0u64;
        for h in self.handles.drain(..) {
            rounds += h.join().unwrap_or(0);
        }
        rounds
    }
}

impl Drop for DaemonSet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_is_small_by_default() {
        let d = DaemonLoad::phoenix_default();
        assert!(d.duty_cycle() < 0.05, "duty {:.3}", d.duty_cycle());
        assert!(d.duty_cycle() > 0.001);
    }

    #[test]
    fn daemons_do_work_and_stop() {
        let set = start(&DaemonLoad {
            daemons: 2,
            interval: Duration::from_millis(5),
            busy: Duration::from_micros(100),
        });
        std::thread::sleep(Duration::from_millis(60));
        let done = set.stop();
        assert!(done >= 4, "daemons woke several times, got {done}");
    }
}
