//! Self-tests of the perf ledger, at `--smoke` size:
//! `cd benchmark && cargo test --offline`.

use phoenix_kernel::boot::boot_cluster_custom;
use phoenix_kernel::KernelParams;
use phoenix_perf::report::{measure, Rep, Report, Slice};
use phoenix_perf::spec::{self, Workload};
use phoenix_perf::tracer::{actor_name, parse_log_line};
use phoenix_perf::{run, Opts};
use phoenix_proto::ClusterTopology;
use phoenix_sim::{Fault, NetParams, SchedulerKind, SimDuration};
use std::collections::BTreeSet;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    }
}

/// Two runs of a seed agree on every exact output, traced or not (each
/// run has already checked its own second in-process replay against its
/// first); another seed gives other inputs.
#[test]
fn same_seed_repeats_exactly_and_another_seed_differs() {
    for w in Workload::ALL {
        let a = run(&smoke(w, 7, false));
        let b = run(&smoke(w, 7, false));
        assert!(a.correct(), "{}: {:?}", w.name(), a.problems);
        assert_eq!(
            a.exact_outputs(),
            b.exact_outputs(),
            "{} is not deterministic",
            w.name()
        );
        let (t1, t2) = (run(&smoke(w, 7, true)), run(&smoke(w, 7, true)));
        assert_eq!(
            t1.exact_outputs(),
            t2.exact_outputs(),
            "{} traced is not deterministic",
            w.name()
        );
        let c = run(&smoke(w, 8, false));
        assert!(c.correct(), "{}: {:?}", w.name(), c.problems);
        assert_ne!(
            a.digest,
            c.digest,
            "{}: seed does not reach the inputs",
            w.name()
        );
    }
}

/// Every metric `BENCHMARK.json` names is printed, nothing else is, and
/// end-to-end metrics are never 0. `run` itself checks names against the
/// spec; here the spec is checked against the committed file.
#[test]
fn runs_print_exactly_the_names_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::render_benchmark_json(),
        "BENCHMARK.json is stale: benchmark/run.sh --print-spec > BENCHMARK.json"
    );
    for w in Workload::ALL {
        let e2e = run(&smoke(w, 1, false));
        assert!(e2e.correct(), "{}: {:?}", w.name(), e2e.problems);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<String> = spec::end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        // A chaos schedule may violate an invariant; that is counted, not
        // a reason to fail the run. Nothing else may fail.
        assert!(e2e.attempted >= 1, "{}", w.name());
        assert!(w == Workload::FaultMix || e2e.failed == 0, "{}", w.name());

        let traced = run(&smoke(w, 1, true));
        assert!(
            traced.correct(),
            "{} traced: {:?}",
            w.name(),
            traced.problems
        );
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{} traced", w.name());
        assert!(
            traced.get("trace.overhead_ratio").unwrap() > 0.0,
            "{}",
            w.name()
        );
    }
}

/// The result line is one JSON object with the contract's four keys.
#[test]
fn result_line_has_the_contract_shape() {
    let line = run(&smoke(Workload::FaultMix, 1, false)).json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(
        line.contains(", \"metrics\": {\"setup_s\": {\"value\": "),
        "{line}"
    );
    assert!(
        line.ends_with("\"unit\": \"MB\"}}}") && !line.contains('\n'),
        "{line}"
    );
}

/// `attempted` and `failed` count the operations of one replay, so a run
/// that fits more replays into its `--seconds` reports the same counts:
/// two sets of runs of one seed agree whatever the host's speed.
#[test]
fn counts_do_not_depend_on_how_many_replays_fit() {
    let measured = |seconds: f64| {
        let mut report = Report::new(Workload::FaultMix, false);
        let mut replays = 0;
        measure(&mut report, seconds, |_, _| {
            replays += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            let slice = Slice {
                host_ns: 1_000 + replays,
                events: 10,
                virtual_ns: 1_000_000,
                ops: 4,
            };
            Rep {
                setup_s: 0.001,
                slices: vec![slice; 3],
                attempted: 12,
                failed: 1,
                digest: "d".to_string(),
            }
        });
        assert!(report.correct(), "{:?}", report.problems);
        (replays, report.attempted, report.failed)
    };
    let (short, long) = (measured(0.0), measured(0.05));
    assert!(long.0 > short.0);
    assert_eq!((short.1, short.2), (12, 1));
    assert_eq!((long.1, long.2), (12, 1));
}

/// The parser maps every line kind `World::log_event` emits — start,
/// deliver, timer, fault — to an actor name, `dead` or `sim`.
#[test]
fn every_event_log_line_maps_to_an_actor() {
    let topo = ClusterTopology::uniform(3, 4, 1);
    let (mut world, cluster) = boot_cluster_custom(
        topo,
        KernelParams::fast_slow(),
        3,
        NetParams::default(),
        SchedulerKind::default(),
        true,
    );
    world.run_for(SimDuration::from_secs(2));
    // A scheduled fault is a `fault` line; the crash leaves deliveries and
    // timers addressed to processes that no longer exist.
    let victim = cluster.topology.partitions[1].server;
    world
        .schedule_fault(
            world.now() + SimDuration::from_millis(10),
            Fault::CrashNode(victim),
        )
        .expect("fault is in the future");
    world.run_for(SimDuration::from_secs(3));

    let known: BTreeSet<&str> = spec::ACTOR_LAYERS
        .iter()
        .map(|(actor, _)| *actor)
        .chain(["dead", "sim", "client"])
        .collect();
    let mut kinds = BTreeSet::new();
    let mut names = BTreeSet::new();
    let log = world.event_log().to_string();
    assert!(!log.is_empty());
    for line in log.lines() {
        let parsed = parse_log_line(line).unwrap_or_else(|| panic!("unparsed line: {line}"));
        let name = actor_name(&world, &parsed);
        assert!(
            known.contains(name),
            "unknown actor {name} for line: {line}"
        );
        assert!(parsed.at_seq().0 <= world.now().as_nanos());
        kinds.insert(parsed.kind);
        names.insert(name.to_string());
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["deliver", "fault", "start", "timer"]
    );
    for want in ["gsd", "wd", "dead", "sim"] {
        assert!(names.contains(want), "no line mapped to {want}: {names:?}");
    }
}
