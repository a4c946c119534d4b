//! `TcpService::stop` leaves no background sweep behind. The eviction,
//! durability and progress sweeps each wait out an interval of up to a
//! second; `stop` must wake and join them, not return while they sleep.
//! Alone in its test binary, so no other service's threads show up in the
//! process's thread list.

use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_server::{Backend, DurabilitySweepOptions, ServiceOptions, TaskConfig, TcpService};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The names of this process's live threads. The kernel keeps the first
/// 15 bytes of each, so "crowdfill-durability-sweep" reads
/// "crowdfill-durab".
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

fn sweeps() -> Vec<String> {
    const SWEEPS: [&str; 3] = ["crowdfill-evict", "crowdfill-durab", "crowdfill-progr"];
    thread_names()
        .into_iter()
        .filter(|name| SWEEPS.iter().any(|s| name.starts_with(s)))
        .collect()
}

#[test]
fn stop_joins_every_sweep() {
    let schema = Schema::new("T", vec![Column::new("a", DataType::Text)], &["a"]).unwrap();
    let config = TaskConfig::new(
        Arc::new(schema),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(2),
        2.0,
    );
    let options = ServiceOptions {
        durability: Some(DurabilitySweepOptions {
            interval: Duration::from_secs(5),
            compact_wal_bytes: 1,
        }),
        ..ServiceOptions::default()
    };
    assert!(options.telemetry.as_ref().unwrap().progress.is_some());
    let service = TcpService::start_with(Backend::new(config), "127.0.0.1:0", options).unwrap();
    // A thread names itself once it runs, so poll until all three have.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut running = sweeps();
        running.sort();
        if running == ["crowdfill-durab", "crowdfill-evict", "crowdfill-progr"] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweeps never all ran: {running:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    service.stop();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "stop waited out a sweep interval: {:?}",
        started.elapsed()
    );
    assert_eq!(sweeps(), Vec::<String>::new(), "a sweep outlived stop");
}
