//! Step tracer: drives a world one event at a time and attributes host
//! time to the actor that handled each event.
//!
//! Everything here works from outside the simulator. The world is booted
//! with `record_events = true`; each `World::step()` is timed with
//! `Instant` and named from the line the step appended to the event log
//! (kind, label, target pid → `World::actor(pid).name()`). A step is one
//! span whose parent is the open phase span. Naming a step — parsing the
//! line, looking the actor up, filing the span — is the tracer's own work:
//! it is timed apart (`tracer_ns`) and belongs neither to the step nor to
//! the phase. A phase's self time is its duration minus its step spans and
//! the tracer's work.

use crate::spec::ACTOR_LAYERS;
use phoenix_proto::KernelMsg;
use phoenix_sim::{Pid, SimDuration, SimTime, TraceEvent, World};
use std::fmt::Write as _;
use std::time::Instant;

/// What one event-log line says about the step that wrote it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogLine<'a> {
    /// The `AT SEQ` head of the line, parsed on demand by [`at_seq`].
    ///
    /// [`at_seq`]: LogLine::at_seq
    head: &'a str,
    /// `start`, `deliver`, `timer` or `fault`.
    pub kind: &'static str,
    /// Target pid; `None` for faults, which no actor handles.
    pub pid: Option<Pid>,
    /// Traffic label of a delivery, empty otherwise.
    pub label: &'a str,
}

impl LogLine<'_> {
    /// Virtual time and global sequence number of the event.
    pub fn at_seq(&self) -> (u64, u64) {
        let (at, seq) = self
            .head
            .split_once(' ')
            .expect("checked by parse_log_line");
        let num = |s: &str| s.parse().expect("checked by parse_log_line");
        (num(at), num(seq))
    }
}

/// Parse one line of `World::event_log` (see `World::log_event`):
/// `AT SEQ start pid=P`, `AT SEQ deliver to=P from=F label=L bytes=B`,
/// `AT SEQ timer id=I pid=P token=T`, `AT SEQ fault <Debug>`.
/// Runs once per traced step, outside the step's span, so it scans bytes
/// by hand and leaves the two head numbers to [`LogLine::at_seq`].
pub fn parse_log_line(line: &str) -> Option<LogLine<'_>> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let at_len = digits(line)?;
    let seq_len = digits(line[at_len..].strip_prefix(' ')?)?;
    let head = &line[..at_len + 1 + seq_len];
    let rest = line[head.len()..].strip_prefix(' ')?;
    let (kind, pid, label) = if let Some(tail) = rest.strip_prefix("deliver to=") {
        // `... label=L bytes=B`: the label is the last field but one.
        let fields = &tail[..tail.rfind(' ')?];
        let label = fields[fields.rfind(' ')? + 1..].strip_prefix("label=")?;
        ("deliver", Some(number(tail)?), label)
    } else if let Some(tail) = rest.strip_prefix("timer id=") {
        let pid = tail[digits(tail)?..].strip_prefix(" pid=")?;
        ("timer", Some(number(pid)?), "")
    } else if let Some(tail) = rest.strip_prefix("start pid=") {
        ("start", Some(number(tail)?), "")
    } else if rest.starts_with("fault ") {
        ("fault", None, "")
    } else {
        return None;
    };
    Some(LogLine {
        head,
        kind,
        pid: pid.map(Pid),
        label,
    })
}

/// How many decimal digits `s` starts with; `None` for none, or for more
/// than a `u64` can hold.
fn digits(s: &str) -> Option<usize> {
    let n = s.bytes().take_while(u8::is_ascii_digit).count();
    (1..=19).contains(&n).then_some(n)
}

/// The decimal number `s` starts with.
fn number(s: &str) -> Option<u64> {
    let n = digits(s)?;
    Some(
        s.as_bytes()[..n]
            .iter()
            .fold(0, |acc, b| acc * 10 + (b - b'0') as u64),
    )
}

/// Name of the actor that handled a step: the live actor's `name()`,
/// `dead` when the target no longer exists, `sim` for a fault.
pub fn actor_name<'w>(world: &'w World<KernelMsg>, line: &LogLine<'_>) -> &'w str {
    match line.pid {
        None => "sim",
        Some(pid) => world.actor(pid).map_or("dead", |a| a.name()),
    }
}

/// Layer an actor name belongs to; actors outside the table (the driver's
/// `client`, `dead`, `sim`) are their own layer under `other.`.
pub fn layer_of(actor: &str) -> String {
    ACTOR_LAYERS
        .iter()
        .find(|(a, _)| *a == actor)
        .map_or_else(|| format!("other.{actor}"), |(_, l)| l.to_string())
}

const HIST_BUCKETS: usize = 40;

/// Count, sum and log2-bucket histogram of step durations.
#[derive(Clone, Debug)]
pub struct Agg {
    pub count: u64,
    pub sum_ns: u64,
    /// Bucket `i` counts durations in `[2^i, 2^(i+1))` ns (0 ns in bucket 0).
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            count: 0,
            sum_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl Agg {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        let bucket = (64 - ns.leading_zeros() as usize).saturating_sub(1);
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `p`-th percentile step.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (i + 1)) as f64;
            }
        }
        (1u64 << HIST_BUCKETS) as f64
    }
}

/// A phase span: `boot`, `stabilise`, `slice.N`, `cascade`, `drain`.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub steps: u64,
    pub step_ns: u64,
    /// Host time the tracer spent naming and filing this phase's steps.
    pub tracer_ns: u64,
    /// Whether the phase counts toward `trace.step_coverage` (the
    /// step-driven slices; boot runs no steps by construction).
    pub timed: bool,
}

impl Phase {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
    /// Host time of the phase that is not the tracer's own.
    pub fn net_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.tracer_ns)
    }
    pub fn self_ns(&self) -> u64 {
        self.net_ns().saturating_sub(self.step_ns)
    }
}

/// One kept step span: start and duration on the tracer's host clock, and
/// the (actor, kind, label) key.
#[derive(Clone, Copy, Debug)]
pub struct StepSpan {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub key: u32,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepKey {
    pub actor: String,
    pub kind: String,
    pub label: String,
}

pub struct StepTracer {
    origin: Instant,
    pub phases: Vec<Phase>,
    keys: Vec<StepKey>,
    /// Key id + 1 by `[actor][kind][label]` index (0 = none yet).
    key_ids: Vec<u32>,
    /// Delivery labels seen; index 0 is the empty label of other kinds.
    labels: Vec<String>,
    /// Aggregates by key id, over the timed phases.
    pub aggs: Vec<Agg>,
    /// Actor-name id by pid (0 = not looked up yet), valid while the
    /// world's spawn and kill counts stay at `actor_epoch`.
    actor_of_pid: Vec<u32>,
    actor_names: Vec<String>,
    actor_epoch: u64,
    /// Every step span of the first traced slice.
    pub first_slice: Vec<StepSpan>,
    keep_spans: bool,
    /// `(at, seq)` of every event popped in the first traced slice: the
    /// stream the scheduler replay probe runs.
    pub first_slice_stream: Vec<(u64, u64)>,
}

impl Default for StepTracer {
    fn default() -> Self {
        StepTracer {
            origin: Instant::now(),
            phases: Vec::new(),
            keys: Vec::new(),
            key_ids: Vec::new(),
            labels: vec![String::new()],
            aggs: Vec::new(),
            first_slice: Vec::new(),
            keep_spans: false,
            first_slice_stream: Vec::new(),
            actor_of_pid: Vec::new(),
            actor_names: vec![String::new(), "dead".to_string(), "sim".to_string()],
            actor_epoch: 0,
        }
    }
}

impl StepTracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a phase span; closes the one before it.
    pub fn phase(&mut self, name: &str, timed: bool) {
        let now = self.now_ns();
        self.end_phase_at(now);
        self.keep_spans = name == "slice.0";
        self.phases.push(Phase {
            name: name.to_string(),
            start_ns: now,
            end_ns: 0,
            steps: 0,
            step_ns: 0,
            tracer_ns: 0,
            timed,
        });
    }

    pub fn end_phase(&mut self) {
        let now = self.now_ns();
        self.end_phase_at(now);
    }

    fn end_phase_at(&mut self, now: u64) {
        if let Some(p) = self.phases.last_mut() {
            if p.end_ns == 0 {
                p.end_ns = now;
            }
        }
        self.keep_spans = false;
    }

    /// Id of the name of the actor that handled the step (see
    /// [`actor_name`]). `World::actor` hashes the pid; this remembers the
    /// answer per pid until a process is spawned or killed.
    fn actor_id(&mut self, world: &World<KernelMsg>, line: &LogLine<'_>) -> u32 {
        const DEAD: u32 = 1;
        const SIM: u32 = 2;
        let Some(pid) = line.pid else { return SIM };
        let epoch = world.metrics().spawns + world.metrics().kills;
        if epoch != self.actor_epoch {
            self.actor_epoch = epoch;
            self.actor_of_pid.clear();
        }
        let slot = pid.0 as usize;
        if let Some(&id) = self.actor_of_pid.get(slot) {
            if id != 0 {
                return id;
            }
        }
        let name = actor_name(world, line);
        let id = match self.actor_names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.actor_names.push(name.to_string());
                self.actor_names.len() as u32 - 1
            }
        };
        // Dead targets are not remembered: the pid may be respawned into.
        if id != DEAD {
            if self.actor_of_pid.len() <= slot {
                self.actor_of_pid.resize(slot + 1, 0);
            }
            self.actor_of_pid[slot] = id;
        }
        id
    }

    fn key_id(&mut self, actor: u32, kind: &'static str, label: &str) -> u32 {
        /// Room for every kernel traffic label; more would only alias.
        const LABELS: usize = 32;
        let kind_no = match kind.as_bytes()[0] {
            b's' => 0,
            b'd' => 1,
            b't' => 2,
            _ => 3,
        };
        let label_no = match self.labels.iter().position(|l| l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label.to_string());
                self.labels.len() - 1
            }
        };
        assert!(label_no < LABELS, "more than {LABELS} traffic labels");
        let slot = (actor as usize * 4 + kind_no) * LABELS + label_no;
        if self.key_ids.len() <= slot {
            self.key_ids.resize(slot + 1, 0);
        }
        if self.key_ids[slot] == 0 {
            self.keys.push(StepKey {
                actor: self.actor_names[actor as usize].clone(),
                kind: kind.to_string(),
                label: label.to_string(),
            });
            self.aggs.push(Agg::default());
            self.key_ids[slot] = self.keys.len() as u32;
        }
        self.key_ids[slot] - 1
    }

    /// Step the world through every event at or before `boundary` and the
    /// first one after it, one span per step. The untraced twin of this
    /// call is `run_until(boundary)` followed by one `step()`: stopping on
    /// the event *after* the boundary needs no `next_event_at()`, which
    /// scans the whole wheel. Returns false once the queue is empty.
    pub fn step_until(&mut self, world: &mut World<KernelMsg>, boundary: SimTime) -> bool {
        // Two clock reads a step: the read that closes one step's
        // bookkeeping opens the next step's span.
        let mut t0 = Instant::now();
        loop {
            let log_len = world.event_log().len();
            let more = world.step();
            let t1 = Instant::now();
            if !more {
                return false;
            }
            let dur_ns = (t1 - t0).as_nanos() as u64;
            let line = parse_log_line(&world.event_log()[log_len..])
                .expect("World::step appends one well-formed event-log line");
            let actor = self.actor_id(world, &line);
            let key = self.key_id(actor, line.kind, line.label);
            let timed = self.phases.last().expect("step outside a phase").timed;
            if timed {
                self.aggs[key as usize].record(dur_ns);
            }
            if self.keep_spans {
                self.first_slice.push(StepSpan {
                    start_ns: (t0 - self.origin).as_nanos() as u64,
                    dur_ns,
                    key,
                });
                self.first_slice_stream.push(line.at_seq());
            }
            let done = world.now() > boundary;
            let t2 = Instant::now();
            let phase = self.phases.last_mut().expect("step outside a phase");
            phase.steps += 1;
            phase.step_ns += dur_ns;
            phase.tracer_ns += (t2 - t1).as_nanos() as u64;
            if done {
                return true;
            }
            t0 = t2;
        }
    }

    pub fn keys(&self) -> &[StepKey] {
        &self.keys
    }

    /// Aggregate of every key whose actor belongs to `layer`.
    pub fn layer(&self, layer: &str) -> Agg {
        let mut out = Agg::default();
        for (k, a) in self.keys.iter().zip(&self.aggs) {
            if layer_of(&k.actor) == layer {
                out.merge(a);
            }
        }
        out
    }

    /// Aggregate of one handler: deliveries of `label` to `actor`.
    pub fn handler(&self, actor: &str, label: &str) -> Agg {
        let mut out = Agg::default();
        for (k, a) in self.keys.iter().zip(&self.aggs) {
            if k.actor == actor && k.kind == "deliver" && k.label == label {
                out.merge(a);
            }
        }
        out
    }

    /// Share of the timed phases' host time, the tracer's own work set
    /// aside, that step spans cover; the rest is phase self time.
    pub fn step_coverage(&self) -> f64 {
        let (steps, total) = self
            .phases
            .iter()
            .filter(|p| p.timed)
            .fold((0u64, 0u64), |(s, t), p| (s + p.step_ns, t + p.net_ns()));
        if total == 0 {
            0.0
        } else {
            steps as f64 / total as f64
        }
    }
}

/// How a traced run's fixed work is driven: `Plain` is the untraced twin
/// (`run_until` + one `step`), `Traced` steps one event at a time. Both
/// process every event at or before a boundary and the first one after it,
/// so their counts and digests must agree.
pub enum Driver<'a> {
    Plain,
    Traced(&'a mut StepTracer),
}

impl Driver<'_> {
    pub fn is_traced(&self) -> bool {
        matches!(self, Driver::Traced(_))
    }

    pub fn phase(&mut self, name: &str, timed: bool) {
        if let Driver::Traced(t) = self {
            t.phase(name, timed);
        }
    }

    pub fn end_phase(&mut self) {
        if let Driver::Traced(t) = self {
            t.end_phase();
        }
    }

    pub fn advance(&mut self, world: &mut World<KernelMsg>, boundary: SimTime) {
        match self {
            Driver::Plain => {
                world.run_until(boundary);
                world.step();
            }
            Driver::Traced(t) => {
                t.step_until(world, boundary);
            }
        }
    }

    /// Advance in windows of `window` virtual time until one passes in
    /// which the trace log gained nothing but GridView's refresh
    /// milestones (one a second while a console is attached, which is why
    /// `World::run_until_quiet` never sees silence here), or `deadline`.
    pub fn until_quiet(
        &mut self,
        world: &mut World<KernelMsg>,
        window: SimDuration,
        deadline: SimTime,
    ) -> bool {
        while world.now() + window <= deadline {
            let from = world.trace().len();
            let target = world.now() + window;
            self.advance(world, target);
            let busy = world.trace().records()[from..].iter().any(|r| {
                !matches!(
                    r.event,
                    TraceEvent::Milestone {
                        label: "gridview-refresh",
                        ..
                    }
                )
            });
            if !busy {
                return true;
            }
        }
        false
    }
}

/// At most this many first-slice step spans are written to the trace
/// file (a 640-node slice has ~650,000; the aggregates cover all of them).
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// Render `trace-<workload>.json`. Spans are the workload span (id 0),
/// phase spans (parent 0) and step rows `[start_ns, dur_ns, key]` whose
/// parent is the `slice.0` phase; times are host ns since the tracer began.
pub fn render_trace_json(
    workload: &str,
    seed: u64,
    tracer: &StepTracer,
    call_spans: &[(String, u64, u64)],
    telemetry: &std::collections::BTreeMap<&'static str, u64>,
) -> String {
    let mut o = String::new();
    let end = tracer
        .phases
        .last()
        .map_or(0, |p| p.end_ns)
        .max(call_spans.last().map_or(0, |c| c.2));
    let _ = writeln!(o, "{{");
    let _ = writeln!(o, "  \"workload\": \"{workload}\",");
    let _ = writeln!(o, "  \"seed\": {seed},");
    let _ = writeln!(o, "  \"clock\": \"host ns since the tracer began\",");
    let _ = writeln!(o, "  \"spans\": [");
    let _ = write!(
        o,
        "    {{\"id\": 0, \"parent\": null, \"name\": \"{workload}\", \"start_ns\": 0, \"end_ns\": {end}}}"
    );
    let mut id = 0;
    for p in &tracer.phases {
        id += 1;
        let _ = write!(
            o,
            ",\n    {{\"id\": {id}, \"parent\": 0, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"steps\": {}, \"step_ns\": {}, \"tracer_ns\": {}, \"self_ns\": {}}}",
            p.name, p.start_ns, p.end_ns, p.steps, p.step_ns, p.tracer_ns, p.self_ns()
        );
    }
    for (name, start, end) in call_spans {
        id += 1;
        let _ = write!(
            o,
            ",\n    {{\"id\": {id}, \"parent\": 0, \"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}}}"
        );
    }
    let _ = writeln!(o, "\n  ],");
    let _ = writeln!(o, "  \"keys\": [");
    let rows: Vec<String> = tracer
        .keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            format!(
                "    {{\"key\": {i}, \"actor\": \"{}\", \"kind\": \"{}\", \"label\": \"{}\", \"layer\": \"{}\"}}",
                k.actor,
                k.kind,
                k.label,
                layer_of(&k.actor)
            )
        })
        .collect();
    let _ = writeln!(o, "{}\n  ],", rows.join(",\n"));
    let _ = writeln!(o, "  \"aggregates\": [");
    let rows: Vec<String> = tracer
        .aggs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let hist: Vec<String> = a.hist.iter().map(u64::to_string).collect();
            format!(
                "    {{\"key\": {i}, \"count\": {}, \"sum_ns\": {}, \"hist_log2_ns\": [{}]}}",
                a.count,
                a.sum_ns,
                hist.join(",")
            )
        })
        .collect();
    let _ = writeln!(o, "{}\n  ],", rows.join(",\n"));
    let slice0 = tracer
        .phases
        .iter()
        .position(|p| p.name == "slice.0")
        .map_or(0, |i| i + 1);
    let written = tracer.first_slice.len().min(MAX_SPANS_WRITTEN);
    let _ = writeln!(
        o,
        "  \"steps\": {{\"parent\": {slice0}, \"in_slice\": {}, \"written\": {written}, \"columns\": [\"start_ns\", \"dur_ns\", \"key\"], \"rows\": [",
        tracer.first_slice.len()
    );
    let rows: Vec<String> = tracer.first_slice[..written]
        .iter()
        .map(|s| format!("    [{},{},{}]", s.start_ns, s.dur_ns, s.key))
        .collect();
    let _ = writeln!(o, "{}\n  ]}},", rows.join(",\n"));
    let rows: Vec<String> = telemetry
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let _ = writeln!(
        o,
        "  \"telemetry_counters\": {{\n{}\n  }}",
        rows.join(",\n")
    );
    let _ = writeln!(o, "}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_line_kind() {
        let l = parse_log_line("120 7 start pid=3\n").unwrap();
        assert_eq!(
            (l.at_seq(), l.kind, l.pid, l.label),
            ((120, 7), "start", Some(Pid(3)), "")
        );
        let l = parse_log_line("5 9 deliver to=12 from=4 label=hb bytes=17").unwrap();
        assert_eq!((l.kind, l.pid, l.label), ("deliver", Some(Pid(12)), "hb"));
        let l = parse_log_line("5 10 timer id=88 pid=6 token=2").unwrap();
        assert_eq!((l.kind, l.pid), ("timer", Some(Pid(6))));
        let l = parse_log_line("5 11 fault CrashNode(NodeId(3))").unwrap();
        assert_eq!((l.kind, l.pid), ("fault", None));
        assert!(parse_log_line("garbage").is_none());
        assert!(parse_log_line("1 2 teleport pid=3").is_none());
    }

    #[test]
    fn agg_percentile_is_a_bucket_bound() {
        let mut a = Agg::default();
        for ns in [100, 110, 120, 5_000] {
            a.record(ns);
        }
        assert_eq!(a.count, 4);
        assert_eq!(a.percentile_ns(50.0), 128.0);
        assert_eq!(a.percentile_ns(99.0), 8192.0);
        assert_eq!(a.mean_ns(), 1332.5);
    }

    #[test]
    fn layers_cover_the_kernel_actors() {
        assert_eq!(layer_of("gsd"), "kernel.gsd");
        assert_eq!(layer_of("app"), "kernel.ppm");
        assert_eq!(layer_of("client"), "other.client");
    }
}
