//! `bench-report`: the machine-readable throughput harness behind the CI
//! bench gate. Measures the batched apply pipeline (batch-size sweep, with
//! and without a journal) and the PRI matcher (bulk repair and the Central
//! Client's fill cycle), then writes `BENCH_sync.json` and
//! `BENCH_matching.json` — one result object per line, so `scripts/bench_compare.sh` can diff two
//! runs with nothing fancier than sed.
//!
//! Usage: `bench-report [--quick] [--out-dir DIR]`
//!
//! `--quick` shrinks the workload and repetition count for CI smoke runs;
//! the numbers are noisier but the file format is identical.

use crowdfill_bench::connscale::{
    run_conn_scale, verify_zero_acked_loss_remote, ConnScaleMode, ConnScaleOptions,
};
use crowdfill_bench::overload::{run_schedule, HarnessOptions, ScenarioReport};
use crowdfill_bench::workload::{
    record_fill_workload, replay_batched, replay_singleton, sharded_graph,
};
use crowdfill_docstore::{FsyncPolicy, Wal};
use crowdfill_matching::ShardedMatcher;
use crowdfill_server::{Backend, ConnLayer};
use crowdfill_sim::openloop;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One measured configuration, serialized as a single JSON line.
struct Entry {
    name: String,
    median_ns_per_op: u64,
    ops_per_sec: f64,
    ops: usize,
    reps: usize,
}

impl Entry {
    fn json_line(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"median_ns_per_op\": {}, \"ops_per_sec\": {:.1}, \"ops\": {}, \"reps\": {}}}",
            self.name, self.median_ns_per_op, self.ops_per_sec, self.ops, self.reps
        )
    }
}

/// Runs `f` (a whole-workload pass over `ops` operations) `reps` times and
/// reduces to the median per-op cost.
fn measure(name: &str, ops: usize, reps: usize, mut f: impl FnMut()) -> Entry {
    let mut samples: Vec<u128> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos());
    }
    reduce(name, ops, reps, samples)
}

/// Reduces whole-pass timings (nanoseconds each) to a median-based entry;
/// for suites that interleave configurations and time the passes
/// themselves rather than handing a closure to [`measure`].
fn reduce(name: &str, ops: usize, reps: usize, mut samples: Vec<u128>) -> Entry {
    samples.sort_unstable();
    let median_total = samples[samples.len() / 2];
    let median_ns_per_op = (median_total / ops.max(1) as u128) as u64;
    let ops_per_sec = if median_total == 0 {
        f64::INFINITY
    } else {
        ops as f64 * 1e9 / median_total as f64
    };
    let entry = Entry {
        name: name.to_string(),
        median_ns_per_op,
        ops_per_sec,
        ops,
        reps,
    };
    eprintln!(
        "{:<44} {:>12} ns/op {:>14.0} ops/s",
        entry.name, entry.median_ns_per_op, entry.ops_per_sec
    );
    entry
}

fn temp_wal(tag: &str) -> (PathBuf, Wal) {
    let path = std::env::temp_dir().join(format!(
        "crowdfill-bench-report-{tag}-{}-{}.wal",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let wal = Wal::open_with(&path, FsyncPolicy::EveryN(1), |_| {}).unwrap();
    (path, wal)
}

fn write_report(path: &Path, suite: &str, quick: bool, entries: &[Entry]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    out.push_str("  \"generated_by\": \"bench-report\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&e.json_line());
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(out.as_bytes()).unwrap();
    eprintln!("wrote {}", path.display());
}

fn sync_suite(quick: bool) -> Vec<Entry> {
    // Modest table size on purpose: per-op apply cost grows with the table
    // (PRI maintenance is table-sized work), and what this suite isolates
    // is the pipeline's amortization of the per-op constants — the journal
    // fsync above all — not replica scaling.
    // The regression gate on this suite is blocking in CI, so quick mode
    // still takes enough reps for a stable median.
    let (rows, workers, reps) = if quick { (16, 4, 5) } else { (32, 4, 9) };
    let jobs = record_fill_workload(rows, workers);
    let ops = jobs.len();
    eprintln!("sync workload: {ops} ops over {rows} rows, {workers} workers, {reps} reps");
    let mut entries = Vec::new();

    // Interleave every variant rep by rep: timing each variant as its own
    // back-to-back pass lets clock/cache drift between passes masquerade
    // as a batching regression, when singleton and batch replay the same ops through the
    // same pipeline. The order also rotates each rep so no variant always
    // occupies the same slot of the cycle — a fixed slot picks up a small
    // systematic bias from whatever the previous variant left in cache.
    const BATCHES: [usize; 4] = [1, 8, 32, 128];
    replay_singleton(&jobs, rows, workers, None); // warm-up
    let variants = 1 + BATCHES.len();
    let mut samples: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); variants];
    for rep in 0..reps {
        for k in 0..variants {
            let i = (rep + k) % variants;
            let start = Instant::now();
            match i {
                0 => replay_singleton(&jobs, rows, workers, None),
                _ => replay_batched(&jobs, rows, workers, BATCHES[i - 1], None),
            };
            samples[i].push(start.elapsed().as_nanos());
        }
    }
    let mut samples = samples.into_iter();
    entries.push(reduce(
        "apply/singleton",
        ops,
        reps,
        samples.next().unwrap(),
    ));
    for batch in BATCHES {
        entries.push(reduce(
            &format!("apply/batch={batch}"),
            ops,
            reps,
            samples.next().unwrap(),
        ));
    }

    // The journaled sweep is the headline: with FsyncPolicy::EveryN(1) a
    // batch pays one fsync regardless of size, so batch=32 must clear the
    // 2x acceptance bar over the per-op-fsync singleton path. Interleaved
    // for the same reason as above (fsync latency drifts too).
    const JBATCHES: [usize; 3] = [8, 32, 128];
    let jvariants = 1 + JBATCHES.len();
    let mut jsamples: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); jvariants];
    for rep in 0..reps {
        for k in 0..jvariants {
            let i = (rep + k) % jvariants;
            let (path, wal) = temp_wal(if i == 0 { "single" } else { "batch" });
            let start = Instant::now();
            match i {
                0 => replay_singleton(&jobs, rows, workers, Some(wal)),
                _ => replay_batched(&jobs, rows, workers, JBATCHES[i - 1], Some(wal)),
            };
            jsamples[i].push(start.elapsed().as_nanos());
            std::fs::remove_file(path).ok();
        }
    }
    let mut jsamples = jsamples.into_iter();
    entries.push(reduce(
        "apply_journaled/singleton",
        ops,
        reps,
        jsamples.next().unwrap(),
    ));
    for batch in JBATCHES {
        entries.push(reduce(
            &format!("apply_journaled/batch={batch}"),
            ops,
            reps,
            jsamples.next().unwrap(),
        ));
    }
    entries
}

fn matching_suite(quick: bool) -> Vec<Entry> {
    let (configs, reps): (&[(usize, usize)], usize) = if quick {
        (&[(16, 16), (64, 16)], 5)
    } else {
        (&[(16, 16), (64, 16), (64, 64), (256, 32)], 31)
    };
    let mut entries = Vec::new();
    for &(components, size) in configs {
        // One repair resolves every free left across all components; count
        // the lefts as the "ops" so ns/op is per augmenting start.
        let ops = components * size;
        // Warm-up pass so the first rep does not pay the cold caches.
        sharded_graph(components, size).repair();
        entries.push(measure(
            &format!("repair/c{components}x{size}"),
            ops,
            reps,
            || assert_eq!(sharded_graph(components, size).repair(), ops),
        ));
    }

    // The Central Client's cycle on a crowd-large collection: a fill
    // replaces the row matched to a template row, so its right leaves and
    // a fresh right joins all 300 lefts (`Template::cardinality` joins
    // every template row to every probable row), then repair. 1000 cycles
    // cross the matcher's compaction point, so its cost is in the figure.
    const LEFTS: usize = 300;
    const RIGHTS: usize = 330;
    const CYCLES: usize = 1000;
    let add_row = |m: &mut ShardedMatcher<usize, usize>, r: usize| {
        m.add_right(r);
        for l in 0..LEFTS {
            m.add_edge(l, r);
        }
    };
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut m = ShardedMatcher::new();
        for r in 0..RIGHTS {
            add_row(&mut m, r);
        }
        m.repair();
        let start = Instant::now();
        for i in 0..CYCLES {
            let gone = *m.matched_right(&(i % LEFTS)).expect("template covered");
            m.remove_right(&gone);
            add_row(&mut m, RIGHTS + i);
            assert_eq!(m.repair(), LEFTS);
        }
        samples.push(start.elapsed().as_nanos());
    }
    entries.push(reduce(
        &format!("fill_cycle/{LEFTS}x{RIGHTS}"),
        CYCLES,
        reps,
        samples,
    ));
    entries
}

/// Tracing overhead on the sync-pipeline workload: the same batched
/// replay with tracing off, sampled (1-in-64), and on for every op. The
/// `off` row is the hot path the ≤2% regression gate watches; the others
/// price turning the flight recorder on.
fn trace_overhead_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_obs::trace::{self as obstrace, TraceMode};
    let (rows, workers, reps) = if quick { (16, 4, 3) } else { (32, 4, 9) };
    eprintln!("trace overhead workload: {rows} rows, {workers} workers, {reps} reps");
    let before = obstrace::mode();
    let mut entries = Vec::new();
    for (label, mode) in [
        ("off", TraceMode::Off),
        ("sampled64", TraceMode::Sampled(64)),
        ("all", TraceMode::All),
    ] {
        obstrace::set_mode(mode);
        // Re-record under each mode: the workload mints its jobs' trace
        // ids at record time, gated on the mode (off → untraced jobs,
        // sampled → 1-in-64, all → every job).
        let jobs = record_fill_workload(rows, workers);
        let ops = jobs.len();
        entries.push(measure(&format!("apply_traced/{label}"), ops, reps, || {
            replay_batched(&jobs, rows, workers, 32, None);
        }));
    }
    obstrace::set_mode(before);
    entries
}

/// Telemetry-sampler overhead on the sync-pipeline workload: the batched
/// replay with no sampler vs a sampler diffing the global registry at an
/// aggressive period (far shorter than the production 250 ms default).
/// The acceptance bound holds `on` within 2% of `off`: the sampler runs
/// on its own thread and the instruments it reads are lock-free, so the
/// hot path should not feel it. Off and on reps are interleaved — the
/// sampler (re)started around each on-rep — so clock-frequency and cache
/// drift over the run land on both sides equally; a sequential A-then-B
/// layout shows multi-percent phantom deltas on shared runners.
fn health_overhead_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_obs::timeseries::{RegistryRef, Sampler, SamplerOptions};
    let (rows, workers, reps) = if quick { (16, 4, 5) } else { (96, 4, 25) };
    eprintln!("health overhead workload: {rows} rows, {workers} workers, {reps} interleaved reps");
    let jobs = record_fill_workload(rows, workers);
    let ops = jobs.len();

    // Warm-up pass so neither side pays the cold caches.
    replay_batched(&jobs, rows, workers, 32, None);

    let mut off: Vec<u128> = Vec::with_capacity(reps);
    let mut on: Vec<u128> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        replay_batched(&jobs, rows, workers, 32, None);
        off.push(start.elapsed().as_nanos());

        // 5 ms period: 50x the production sampling rate, to make any
        // hot-path interference visible above measurement noise.
        let sampler = Sampler::start(
            RegistryRef::Global,
            SamplerOptions {
                period: std::time::Duration::from_millis(5),
                capacity: 1 << 14,
            },
        );
        let start = Instant::now();
        replay_batched(&jobs, rows, workers, 32, None);
        on.push(start.elapsed().as_nanos());
        drop(sampler);
    }
    vec![
        reduce("apply_sampled/off", ops, reps, off),
        reduce("apply_sampled/on", ops, reps, on),
    ]
}

/// The overload stress suite: seeded open-loop storms against a tiny
/// admission bound (DESIGN.md §9). Every scenario's invariants — bounded
/// queue depth, zero acked loss — are asserted, so a regression fails the
/// report run rather than just shifting a number.
fn overload_suite(quick: bool) -> Vec<ScenarioReport> {
    let seeds: &[u64] = if quick { &[11] } else { &[11, 47, 101] };
    let mut reports = Vec::new();
    for &seed in seeds {
        let mut burst_opts = HarnessOptions::tiny(32, 3);
        burst_opts.overload.max_queue = 4;
        burst_opts.overload.spec_queue = 2;
        reports.push(run_schedule(
            &openloop::burst(seed, 32, 3, 10, 300),
            &burst_opts,
        ));

        let mut ramp_opts = HarnessOptions::tiny(16, 6);
        ramp_opts.overload.max_queue = 4;
        reports.push(run_schedule(&openloop::ramp(seed, 16, 96, 400), &ramp_opts));

        let mut stall_opts = HarnessOptions::tiny(8, 8);
        stall_opts.overload.writer_pace = Some(std::time::Duration::from_millis(100));
        stall_opts.overload.write_buffer_frames = 4;
        stall_opts.overload.evict_after = std::time::Duration::from_millis(50);
        reports.push(run_schedule(
            &openloop::stalled_reader(seed, 8, 8, 400, 2),
            &stall_opts,
        ));

        reports.push(run_schedule(
            &openloop::thundering_herd(seed, 12, 5, 400, 150),
            &HarnessOptions::tiny(12, 5),
        ));
    }
    for r in &reports {
        r.assert_invariants();
        eprintln!(
            "{:<28} offered {:>4} acked {:>4} rejects {:>4} sheds {:>3} evictions {:>2} p99 {:>5}ms depth {:>3}/{}",
            format!("{}/seed={}", r.scenario, r.seed),
            r.offered,
            r.acked,
            r.admission_rejects,
            r.sheds,
            r.evictions,
            r.p99_ack_ms,
            r.max_queue_depth,
            r.queue_bound,
        );
    }
    reports
}

/// The connection-scale suite (DESIGN.md §13): lean wire-level sessions
/// across many collections, reported as ack-latency entries so the same
/// `bench_compare.sh` gate that guards the apply pipeline also guards the
/// connection layer. Every scenario's invariants — zero acked-op loss,
/// bounded fairness spread, no lost or timed-out sessions — are asserted
/// here, so a regression fails the report run outright.
///
/// `median_ns_per_op` is the ack p50; `ops` is the acked fill count.
fn connscale_suite(quick: bool) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut run = |opts: &ConnScaleOptions| {
        let report = run_conn_scale(opts);
        report.assert_invariants(100.0);
        eprintln!(
            "connscale/{:<24} conns {:>6} peak {:>6} acked {:>6} p50 {:>6}ms p99 {:>6}ms spread {:>5.1} deferrals {:>6}",
            report.name,
            report.conns,
            report.peak_concurrent,
            report.acked,
            report.ack_p50_ns / 1_000_000,
            report.ack_p99_ns / 1_000_000,
            report.fairness_spread(),
            report.fairness_deferrals,
        );
        let secs = report.elapsed.as_secs_f64();
        entries.push(Entry {
            name: format!("connscale/{}", opts.name),
            median_ns_per_op: report.ack_p50_ns.max(1),
            ops_per_sec: report.acked as f64 / secs.max(1e-9),
            ops: report.acked,
            reps: 1,
        });
    };

    // The gated headline: 1k connections over 16 collections against the
    // in-process reactor.
    let mut headline = ConnScaleOptions::smoke(211, 16, 1_000);
    headline.name = "reactor-1kx16";
    run(&headline);

    // The A/B pair bench_compare diffs across layers: same plan, reactor
    // vs thread-per-connection.
    for (name, layer) in [
        ("reactor-128x4", ConnLayer::default()),
        ("threadper-128x4", ConnLayer::ThreadPerConn),
    ] {
        let mut opts = ConnScaleOptions::smoke(223, 4, 128);
        opts.name = name;
        opts.connect_window_ms = 500;
        opts.duration_ms = 1_500;
        opts.mode = ConnScaleMode::InProcess(layer);
        run(&opts);
    }

    // Full mode only: the 10k-connection, 128-collection headline. Driver
    // and server each spend a file descriptor per session, so the server
    // runs as a child process (see the `connscale-server` bin). The entry
    // is informational in the compare gate — quick CI runs don't produce
    // it, and one-sided names never gate.
    if !quick {
        let mut opts = ConnScaleOptions::smoke(227, 128, 10_000);
        opts.name = "reactor-10kx128";
        opts.connect_window_ms = 15_000;
        opts.duration_ms = 30_000;
        opts.deadline = std::time::Duration::from_secs(240);
        opts.driver_threads = 8;
        let (mut child, addr) =
            spawn_connscale_server(opts.collections, opts.workers, opts.fills_per_worker);
        opts.mode = ConnScaleMode::External(addr);
        let report = run_conn_scale(&opts);
        report.assert_invariants(100.0);
        if let Err(msg) = verify_zero_acked_loss_remote(addr, &report) {
            let _ = child.kill();
            panic!("{msg}");
        }
        eprintln!(
            "connscale/{:<24} conns {:>6} peak {:>6} acked {:>6} p50 {:>6}ms p99 {:>6}ms spread {:>5.1}",
            report.name,
            report.conns,
            report.peak_concurrent,
            report.acked,
            report.ack_p50_ns / 1_000_000,
            report.ack_p99_ns / 1_000_000,
            report.fairness_spread(),
        );
        let secs = report.elapsed.as_secs_f64();
        entries.push(Entry {
            name: "connscale/reactor-10kx128".to_string(),
            median_ns_per_op: report.ack_p50_ns.max(1),
            ops_per_sec: report.acked as f64 / secs.max(1e-9),
            ops: report.acked,
            reps: 1,
        });
        drop(child.stdin.take()); // EOF tells the server to exit
        let _ = child.wait();
    }
    entries
}

/// Spawns the `connscale-server` sibling binary hosting the scenario's
/// collections and scrapes its `LISTENING <addr>` line.
fn spawn_connscale_server(
    collections: usize,
    workers: usize,
    fills: usize,
) -> (std::process::Child, std::net::SocketAddr) {
    let bin = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("connscale-server");
    if !bin.exists() {
        panic!(
            "{} not found — build it first: cargo build --release -p crowdfill-bench --bins",
            bin.display()
        );
    }
    let mut child = std::process::Command::new(&bin)
        .args([
            "--collections",
            &collections.to_string(),
            "--workers",
            &workers.to_string(),
            "--fills",
            &fills.to_string(),
            "--layer",
            "reactor",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn connscale-server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
        .parse()
        .expect("parse server addr");
    (child, addr)
}

/// The recovery suite (DESIGN.md §14): restart cost at a 100× op-count
/// spread, with and without compaction. The workload holds live state
/// constant (vote/undo cycles), so journal-replay recovery grows ~100×
/// while checkpoint + suffix recovery must stay flat — asserted at 2×, so
/// a regression fails the report run (and the CI gate) outright.
///
/// `median_ns_per_op` carries the *total* median recovery wall time
/// (ops=1): flatness across scales is the signal, not per-op cost.
fn recovery_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_bench::recovery::{assert_flat, run_recovery};
    let (small_ops, reps) = if quick { (300, 5) } else { (500, 9) };
    let large_ops = small_ops * 100;
    // Compact once the journal tops 16 KiB: both scales cross it, so both
    // recover from a snapshot plus a bounded (constant-size) suffix.
    let threshold = Some(16 << 10);
    eprintln!("recovery workload: vote cycles over {small_ops} and {large_ops} ops, {reps} reps");
    let mut entries = Vec::new();
    let mut push = |r: &crowdfill_bench::recovery::RecoveryReport| {
        eprintln!(
            "{:<40} {:>12} ns/recovery  wal {:>9} B  base seq {:>7}",
            r.name, r.median_recovery_ns, r.wal_bytes, r.history_base
        );
        entries.push(Entry {
            name: r.name.clone(),
            median_ns_per_op: r.median_recovery_ns,
            ops_per_sec: 1e9 / r.median_recovery_ns.max(1) as f64,
            ops: 1,
            reps: r.reps,
        });
    };
    let journal_small = run_recovery("journal-small", small_ops, None, reps);
    let journal_large = run_recovery("journal-large", large_ops, None, reps);
    let compact_small = run_recovery("compact-small", small_ops, threshold, reps);
    let compact_large = run_recovery("compact-large", large_ops, threshold, reps);
    push(&journal_small);
    push(&journal_large);
    push(&compact_small);
    push(&compact_large);
    // The §14 acceptance bar: flat within 2× at 100× ops.
    assert_flat(&compact_small, &compact_large, 2.0);
    assert!(
        compact_large.median_recovery_ns < journal_large.median_recovery_ns,
        "compaction did not beat full replay at {large_ops} ops"
    );
    entries
}

/// The progress suite (DESIGN.md §15): estimator accuracy and overhead.
///
/// Accuracy entries replay pinned-seed species-arrival schedules through
/// the streaming Chao92 estimator and score `est_total` against realized
/// ground truth at fixed true-completeness checkpoints; adaptive-stop
/// entries replay the same schedules under the conservative stopping rule
/// and record how much of the stream (≈ cost) the stop avoided. Both are
/// pure functions of the seeds — quick and full runs emit identical
/// values, so the CI compare gates them exactly. The §15 acceptance bar
/// (APE ≤ 20% once true completeness ≥ 50%) is asserted in-run, so an
/// estimator regression fails the report (and the CI gate) outright.
///
/// `median_ns_per_op` carries the score in basis points (APE × 100 /
/// saved-percent × 100): the field the compare script diffs.
///
/// Overhead entries are real timings: the batched replay with the health
/// sampler running, without vs with a `ProgressTracker` advanced at batch
/// cadence — interleaved reps, mirroring `health_overhead_suite`, sized
/// into the name so quick and full runs never collide in the compare.
fn progress_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_bench::progress::{autostop, score_schedule, CHECKPOINTS};
    use crowdfill_obs::timeseries::{RegistryRef, Sampler, SamplerOptions};
    use crowdfill_server::ProgressTracker;
    use crowdfill_sim::{species_streakers, species_zipf};

    let mut entries = Vec::new();

    // Pinned estimator-accuracy scenarios, three seeds each so one lucky
    // or unlucky crossing cannot swing a gate. The finite-universe crowds
    // (uniform / Zipf-skewed) carry the §15 acceptance bar; the streaker
    // crowds keep minting brand-new species forever, so their realized
    // richness includes arrivals no finite-universe estimator can see yet
    // — they are report-only diagnostics, bounded (the streaker-corrected
    // f1′ must keep the error under 100%) but not held to 20%.
    const SEEDS: [u64; 3] = [1, 2, 3];
    let scenarios: Vec<(&str, bool, Vec<crowdfill_sim::SpeciesSchedule>)> = vec![
        (
            "uniform",
            true,
            SEEDS
                .iter()
                .map(|&s| species_zipf(s, 6, 300, 4000, 60_000, 0.0))
                .collect(),
        ),
        (
            "zipf1.0",
            true,
            SEEDS
                .iter()
                .map(|&s| species_zipf(s, 6, 300, 6000, 60_000, 1.0))
                .collect(),
        ),
        (
            "zipf0.6",
            true,
            SEEDS
                .iter()
                .map(|&s| species_zipf(s, 6, 300, 6000, 60_000, 0.6))
                .collect(),
        ),
        (
            "adv-streak2x10",
            false,
            SEEDS
                .iter()
                .map(|&s| species_streakers(s, 6, 300, 4000, 60_000, 2, 0.10))
                .collect(),
        ),
        (
            "adv-streak3x20",
            false,
            SEEDS
                .iter()
                .map(|&s| species_streakers(s, 8, 300, 5000, 60_000, 3, 0.20))
                .collect(),
        ),
    ];

    // (est_total, truth) pairs per checkpoint, asserted scenarios only.
    let mut by_checkpoint: std::collections::BTreeMap<u32, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for (label, asserted, scheds) in &scenarios {
        let mut per_cp: std::collections::BTreeMap<u32, Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        let mut obs_at: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for sched in scheds {
            for s in score_schedule(sched, &CHECKPOINTS) {
                // `mape` pairs are (actual, estimate).
                per_cp
                    .entry(s.pct)
                    .or_default()
                    .push((s.truth as f64, s.est_total));
                *obs_at.entry(s.pct).or_default() += s.observations;
            }
        }
        for (pct, pairs) in &per_cp {
            let mape = crowdfill_pay::mape(pairs).expect("non-empty, nonzero truths");
            eprintln!(
                "{:<44} mape {:>6.1}%  ({} seeds)",
                format!("progress_mape/{label}@{pct}"),
                mape,
                pairs.len()
            );
            // The §15 acceptance bar on the finite-universe crowds; the
            // adversarial streaker rows only have to stay bounded.
            if *asserted {
                assert!(
                    *pct < 50 || mape <= 20.0,
                    "estimator MAPE {mape:.1}% > 20% on {label} at {pct}% true completeness"
                );
                by_checkpoint.entry(*pct).or_default().extend(pairs);
            } else {
                assert!(
                    mape <= 100.0,
                    "streaker correction lost control on {label} at {pct}%: MAPE {mape:.1}%"
                );
            }
            entries.push(Entry {
                name: format!("progress_mape_bp/{label}@{pct}"),
                median_ns_per_op: (mape * 100.0).round() as u64,
                ops_per_sec: mape,
                ops: obs_at[pct] as usize,
                reps: pairs.len(),
            });
        }
    }
    // Cross-scenario MAPE per checkpoint: the headline §15 trajectory.
    for (pct, pairs) in &by_checkpoint {
        let mape = crowdfill_pay::mape(pairs).expect("non-empty, nonzero truths");
        assert!(
            *pct < 50 || mape <= 20.0,
            "aggregate estimator MAPE {mape:.1}% > 20% at {pct}% true completeness"
        );
        entries.push(Entry {
            name: format!("progress_mape_bp/all@{pct}"),
            median_ns_per_op: (mape * 100.0).round() as u64,
            ops_per_sec: mape,
            ops: pairs.len(),
            reps: pairs.len(),
        });
    }

    // Adaptive stopping: stream share (≈ cost at uniform per-fill
    // pricing) saved at the default 90% target. Saturated finite pools
    // must stop early without giving up real coverage; streaker streams
    // are reported as-is (an unbounded-novelty crowd may hold the CI open
    // to the end, or stop against its own estimated universe).
    for (label, asserted, scheds) in &scenarios {
        let reports: Vec<_> = scheds.iter().map(|s| autostop(s, 0.9, 30)).collect();
        let mean = |f: fn(&crowdfill_bench::progress::AutostopReport) -> f64| {
            reports.iter().map(f).sum::<f64>() / reports.len() as f64
        };
        let saved = mean(|r| r.saved_pct);
        let realized = mean(|r| r.realized_completeness);
        eprintln!(
            "{:<44} saved {:>5.1}%  realized {:>5.2}  ({} seeds)",
            format!("progress_autostop/{label}"),
            saved,
            realized,
            reports.len()
        );
        if *asserted {
            for r in &reports {
                assert!(
                    r.stopped && r.saved_pct > 0.0,
                    "auto-stop never fired on saturated schedule {label}"
                );
                assert!(
                    r.realized_completeness >= 0.85,
                    "auto-stop fired too greedily on {label}: realized {:.2}",
                    r.realized_completeness
                );
            }
        }
        entries.push(Entry {
            name: format!("progress_autostop_saved_bp/{label}"),
            median_ns_per_op: (saved * 100.0).round() as u64,
            ops_per_sec: realized * 100.0,
            ops: reports.iter().map(|r| r.consumed).sum(),
            reps: reports.len(),
        });
    }

    // Estimator overhead on the apply path, measured the way production
    // pays it: the batched replay applies through a mutexed backend (as
    // under `TcpService`) with the health sampler running; the `on` side
    // additionally runs a progress-sweep thread that locks the backend on
    // a short tick to advance a ProgressTracker and build the report —
    // 5 ms, 100× the production 500 ms cadence, so any hot-path
    // interference shows well above noise (the same trick
    // health_overhead_suite plays with the sampler period). The measured
    // on/off delta is an *upper bound at 100× duty cycle*: scale by the
    // cadence ratio — and check the per-tick entries below, which price
    // the sweep's actual work — to compare against the ≤ 2% health gate.
    let (rows, workers, reps) = if quick { (16, 4, 5) } else { (96, 4, 25) };
    eprintln!(
        "progress overhead workload: {rows} rows, {workers} workers, {reps} interleaved reps"
    );
    let jobs = record_fill_workload(rows, workers);
    let ops = jobs.len();
    let replay = |sweep: bool| {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Mutex};
        let mut backend = Backend::new(crowdfill_bench::workload::pipeline_config(rows));
        for _ in 0..workers {
            backend.connect(crowdfill_pay::Millis(0));
        }
        let backend = Arc::new(Mutex::new(backend));
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = sweep.then(|| {
            let backend = Arc::clone(&backend);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut tracker = ProgressTracker::new();
                while !stop.load(Ordering::Relaxed) {
                    {
                        let b = backend.lock().unwrap();
                        tracker.advance(&b);
                        std::hint::black_box(tracker.report(&b, 0.9));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
        });
        for chunk in jobs.chunks(32) {
            let mut b = backend.lock().unwrap();
            let outcome = b.submit_batch(chunk.to_vec(), crowdfill_pay::Millis(1));
            for r in outcome.results {
                r.expect("recorded op rejected on replay");
            }
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sweeper {
            h.join().unwrap();
        }
    };
    replay(true); // warm-up
    let mut off: Vec<u128> = Vec::with_capacity(reps);
    let mut on: Vec<u128> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sampler = Sampler::start(
            RegistryRef::Global,
            SamplerOptions {
                period: std::time::Duration::from_millis(5),
                capacity: 1 << 14,
            },
        );
        let start = Instant::now();
        replay(false);
        off.push(start.elapsed().as_nanos());
        let start = Instant::now();
        replay(true);
        on.push(start.elapsed().as_nanos());
        drop(sampler);
    }
    entries.push(reduce(
        &format!("apply_progress/off-{rows}r"),
        ops,
        reps,
        off,
    ));
    entries.push(reduce(&format!("apply_progress/on-{rows}r"), ops, reps, on));

    // The sweep's own per-tick cost on a fully-applied backend: the first
    // advance pays the O(trace) catch-up once; steady-state ticks only
    // re-estimate (O(columns × workers)). `steady × cadence` is the
    // sweep's production duty cycle.
    {
        let mut backend = Backend::new(crowdfill_bench::workload::pipeline_config(rows));
        for _ in 0..workers {
            backend.connect(crowdfill_pay::Millis(0));
        }
        for chunk in jobs.chunks(32) {
            let outcome = backend.submit_batch(chunk.to_vec(), crowdfill_pay::Millis(1));
            for r in outcome.results {
                r.expect("recorded op rejected on replay");
            }
        }
        let tick_reps = if quick { 200 } else { 2000 };
        let mut first: Vec<u128> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut tracker = ProgressTracker::new();
            let start = Instant::now();
            tracker.advance(&backend);
            std::hint::black_box(tracker.report(&backend, 0.9));
            first.push(start.elapsed().as_nanos());
        }
        let mut tracker = ProgressTracker::new();
        tracker.advance(&backend);
        let mut steady: Vec<u128> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            for _ in 0..tick_reps {
                tracker.advance(&backend);
                std::hint::black_box(tracker.report(&backend, 0.9));
            }
            steady.push(start.elapsed().as_nanos());
        }
        entries.push(reduce(
            &format!("progress_tick/first-{rows}r"),
            1,
            reps,
            first,
        ));
        entries.push(reduce(
            &format!("progress_tick/steady-{rows}r"),
            tick_reps,
            reps,
            steady,
        ));
    }

    entries
}

fn write_overload_report(path: &Path, quick: bool, reports: &[ScenarioReport]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"overload\",\n");
    out.push_str("  \"generated_by\": \"bench-report\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&r.json_line());
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(out.as_bytes()).unwrap();
    eprintln!("wrote {}", path.display());
}

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut suite: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => {
                out_dir = PathBuf::from(args.next().expect("--out-dir needs a value"));
            }
            "--suite" => {
                suite = Some(args.next().expect("--suite needs a name"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench-report [--quick] [--out-dir DIR] \
                     [--suite sync|matching|trace_overhead|health_overhead|overload|connscale|recovery|progress]"
                );
                std::process::exit(2);
            }
        }
    }
    let wants = |name: &str| suite.as_deref().is_none_or(|s| s == name);

    let mut sync = Vec::new();
    if wants("sync") {
        sync = sync_suite(quick);
        write_report(&out_dir.join("BENCH_sync.json"), "sync", quick, &sync);
    }

    if wants("matching") {
        let matching = matching_suite(quick);
        write_report(
            &out_dir.join("BENCH_matching.json"),
            "matching",
            quick,
            &matching,
        );
    }

    if wants("trace_overhead") {
        let trace_overhead = trace_overhead_suite(quick);
        write_report(
            &out_dir.join("BENCH_trace_overhead.json"),
            "trace_overhead",
            quick,
            &trace_overhead,
        );
    }

    if wants("health_overhead") {
        let health_overhead = health_overhead_suite(quick);
        write_report(
            &out_dir.join("BENCH_health_overhead.json"),
            "health_overhead",
            quick,
            &health_overhead,
        );
    }

    if wants("overload") {
        let overload = overload_suite(quick);
        write_overload_report(&out_dir.join("BENCH_overload.json"), quick, &overload);
    }

    if wants("connscale") {
        let connscale = connscale_suite(quick);
        write_report(
            &out_dir.join("BENCH_connscale.json"),
            "connscale",
            quick,
            &connscale,
        );
    }

    if wants("recovery") {
        let recovery = recovery_suite(quick);
        write_report(
            &out_dir.join("BENCH_recovery.json"),
            "recovery",
            quick,
            &recovery,
        );
    }

    if wants("progress") {
        let progress = progress_suite(quick);
        write_report(
            &out_dir.join("BENCH_progress.json"),
            "progress",
            quick,
            &progress,
        );
    }

    // Surface the acceptance ratio so a human skimming CI logs sees it.
    let find = |name: &str| {
        sync.iter()
            .find(|e| e.name == name)
            .map(|e| e.ops_per_sec)
            .unwrap_or(0.0)
    };
    let single = find("apply_journaled/singleton");
    let batch32 = find("apply_journaled/batch=32");
    if single > 0.0 {
        eprintln!(
            "journaled batch=32 vs singleton: {:.2}x ops/sec",
            batch32 / single
        );
    }
}
