//! Deterministic workloads for the throughput benches: a recorded op
//! stream replayable through either the singleton or the batched backend
//! apply path, and synthetic many-component bipartite graphs for the
//! sharded matcher.

use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::{Backend, BatchJob, BatchOp, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use std::sync::Arc;

/// The 3-column schema used by the sync-pipeline workload.
pub fn pipeline_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "B",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Text),
            ],
            &["a"],
        )
        .unwrap(),
    )
}

/// A fresh task configuration for `rows` template rows. Replay targets must
/// be built from this exact config: the recorded messages reference row ids
/// the Central Client mints deterministically from it.
pub fn pipeline_config(rows: usize) -> TaskConfig {
    TaskConfig::new(
        pipeline_schema(),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        rows as f64,
    )
}

struct Driver {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
}

impl Driver {
    fn connect(backend: &mut Backend) -> Driver {
        let (id, client_id, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        Driver {
            id,
            client,
            applied,
        }
    }

    fn deliver(&mut self, backend: &mut Backend) {
        for (seq, msg) in backend.poll_seq(self.id) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }
}

/// Records a complete collection run — every template row filled by one of
/// `n_workers` workers and upvoted to quorum by another — as a replayable
/// job stream. Roughly `4 × rows` jobs.
///
/// Replay the stream into `Backend::new(pipeline_config(rows))` with
/// `n_workers` sessions connected in order; by the batch/singleton
/// equivalence property the resulting state is identical however the
/// stream is chunked.
pub fn record_fill_workload(rows: usize, n_workers: usize) -> Vec<BatchJob> {
    assert!(n_workers >= 2, "need a second worker to reach quorum");
    let mut backend = Backend::new(pipeline_config(rows));
    let mut drivers: Vec<Driver> = (0..n_workers)
        .map(|_| Driver::connect(&mut backend))
        .collect();
    let mut jobs: Vec<BatchJob> = Vec::with_capacity(rows * 4);

    let submit = |backend: &mut Backend,
                  d: &mut Driver,
                  msg: Message,
                  auto: bool,
                  jobs: &mut Vec<BatchJob>| {
        let report = backend
            .submit(d.id, msg.clone(), Millis(1), auto)
            .expect("deterministic workload op rejected");
        for s in report.seqs {
            d.applied.note(s);
        }
        jobs.push(BatchJob {
            worker: d.id,
            op: BatchOp::Msg {
                msg,
                auto_upvote: auto,
            },
            trace: crowdfill_obs::trace::TraceId::generate(0x51_EED, jobs.len() as u64 + 1),
        });
    };

    for r in 0..rows {
        let filler = r % n_workers;
        let voter = (r + 1) % n_workers;

        let mut row: RowId = {
            let d = &mut drivers[filler];
            d.deliver(&mut backend);
            d.client
                .replica()
                .table()
                .iter()
                .find(|(_, e)| e.value.is_empty())
                .map(|(id, _)| id)
                .expect("an unfilled template row remains")
        };
        for (ci, text) in [
            (0u16, format!("key-{r}")),
            (1, format!("b-{r}")),
            (2, format!("c-{r}")),
        ] {
            let d = &mut drivers[filler];
            let outs = d
                .client
                .fill(row, ColumnId(ci), Value::text(text))
                .expect("fill applies locally");
            row = outs[0].msg.creates_row().unwrap();
            for out in outs {
                submit(
                    &mut backend,
                    &mut drivers[filler],
                    out.msg,
                    out.auto_upvote,
                    &mut jobs,
                );
            }
        }

        let d = &mut drivers[voter];
        d.deliver(&mut backend);
        let out = d.client.upvote(row).expect("vote on freshly completed row");
        submit(&mut backend, &mut drivers[voter], out.msg, false, &mut jobs);
    }
    jobs
}

/// Replays a recorded job stream through `submit_batch` in chunks of
/// `batch` against a fresh backend (`batch == 1` measures the batched
/// plumbing at singleton granularity; use [`replay_singleton`] for the
/// true direct path).
pub fn replay_batched(
    jobs: &[BatchJob],
    rows: usize,
    n_workers: usize,
    batch: usize,
    wal: Option<crowdfill_docstore::Wal>,
) -> Backend {
    let mut backend = Backend::new(pipeline_config(rows));
    for _ in 0..n_workers {
        backend.connect(Millis(0));
    }
    if let Some(wal) = wal {
        backend.attach_wal(wal);
    }
    for chunk in jobs.chunks(batch.max(1)) {
        let outcome = backend.submit_batch(chunk.to_vec(), Millis(1));
        for r in outcome.results {
            r.expect("recorded op rejected on replay");
        }
    }
    backend
}

/// Replays a recorded job stream through the direct per-op submit path.
pub fn replay_singleton(
    jobs: &[BatchJob],
    rows: usize,
    n_workers: usize,
    wal: Option<crowdfill_docstore::Wal>,
) -> Backend {
    let mut backend = Backend::new(pipeline_config(rows));
    for _ in 0..n_workers {
        backend.connect(Millis(0));
    }
    if let Some(wal) = wal {
        backend.attach_wal(wal);
    }
    for job in jobs {
        match &job.op {
            BatchOp::Msg { msg, auto_upvote } => {
                backend
                    .submit(job.worker, msg.clone(), Millis(1), *auto_upvote)
                    .expect("recorded op rejected on replay");
            }
            BatchOp::Modify { bundle } => {
                backend
                    .submit_modify(job.worker, bundle.clone(), Millis(1))
                    .expect("recorded bundle rejected on replay");
            }
        }
    }
    backend
}

/// A bipartite graph of `components` disjoint blocks, each with `size`
/// lefts and `size + 1` rights connected in a dense-ish local pattern.
pub fn sharded_graph(
    components: usize,
    size: usize,
) -> crowdfill_matching::ShardedMatcher<usize, usize> {
    let mut m = crowdfill_matching::ShardedMatcher::new();
    for c in 0..components {
        let lbase = c * size;
        let rbase = c * (size + 1);
        for l in 0..size {
            m.add_left(lbase + l);
            for dr in 0..=2usize {
                m.add_right(rbase + (l + dr) % (size + 1));
                m.add_edge(lbase + l, rbase + (l + dr) % (size + 1));
            }
        }
    }
    m
}
