//! Golden Central Client history on a large collection. A seeded 300-row
//! `Template::cardinality` collection is filled through [`Backend`] by two
//! workers with the crowd-large op mix: each fills its own rows (three
//! fills plus the auto-upvote) and reviews the peer's; a tenth of each
//! side's rows are filled wrong, downvoted by the peer, their auto-upvote
//! undone, corrected through `modify`, and the correction confirmed.
//!
//! The CC's matching graph here holds 600+ vertices in one connected
//! component, and every insert/shuffle/drop decision the CC makes reads
//! that matching. The digest of the whole broadcast history pins those
//! decisions: it was captured from the component-sharded matcher this
//! crate used before the in-place dense-slot matcher replaced it, and both
//! produce it, so the rewrite changed no CC decision.

use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::{wire, Backend, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use std::sync::Arc;

const ROWS: usize = 300;
const WRONG_PER_SIDE: usize = 15;
/// Row lag between a side's own fills and its reviews of the peer's rows.
const LAG: usize = 2;
const SEED: u64 = 0x5EED_C0DE;

/// FNV-1a 64 over the history's wire bytes, and the history's length.
/// Captured from the component-sharded matcher (whose `Parallelism::Auto`
/// repair partitioned this graph on every call); the in-place matcher must
/// reproduce them.
const GOLDEN_DIGEST: u64 = 0x6d9d_f789_505e_f3ac;
const GOLDEN_LEN: u64 = 2041;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config() -> TaskConfig {
    let schema = Schema::new(
        "Crowd",
        vec![
            Column::new("a", DataType::Text),
            Column::new("b", DataType::Text),
            Column::new("c", DataType::Text),
        ],
        &["a"],
    )
    .unwrap();
    TaskConfig::new(
        Arc::new(schema),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(ROWS),
        ROWS as f64,
    )
}

/// The seeded table the workers must produce, and each row's wrong first
/// value, if any: (column, text).
struct Truth {
    rows: Vec<[String; 3]>,
    wrong: Vec<Option<(u16, String)>>,
}

fn truth() -> Truth {
    let mut state = SEED;
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let rows: Vec<[String; 3]> = (0..ROWS)
        .map(|r| {
            [
                format!("k{r}-{:04x}", next() % 0x1_0000),
                format!("b{:06x}", next() % 0x100_0000),
                format!("c{:06x}", next() % 0x100_0000),
            ]
        })
        .collect();
    let mut wrong = vec![None; ROWS];
    let n = ROWS / 2;
    for side in 0..2 {
        let mut pick: Vec<usize> = (side * n..(side + 1) * n).collect();
        for i in 0..WRONG_PER_SIDE {
            let j = i + (next() % (n - i) as u64) as usize;
            pick.swap(i, j);
            let col = 1 + (next() % 2) as u16;
            wrong[pick[i]] = Some((col, format!("x{:06x}", next() % 0x100_0000)));
        }
    }
    Truth { rows, wrong }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Fill { row: usize, col: u16 },
    AutoUp,
    Review { row: usize },
    Undo { row: usize },
    Modify { row: usize },
    Confirm { row: usize },
}

/// A side's plan: own fills, reviews of the peer's rows `LAG` rows behind,
/// corrections `2·LAG` behind and confirmations `3·LAG` behind.
fn plan(truth: &Truth, side: usize) -> Vec<Action> {
    let n = ROWS / 2;
    let own = |i: usize| side * n + i;
    let peer = |i: usize| (1 - side) * n + i;
    let mut out = Vec::new();
    for s in 0..n + 3 * LAG {
        if s < n {
            for col in 0..3 {
                out.push(Action::Fill { row: own(s), col });
            }
            out.push(Action::AutoUp);
        }
        if s >= LAG && s - LAG < n {
            out.push(Action::Review { row: peer(s - LAG) });
        }
        if s >= 2 * LAG && s - 2 * LAG < n && truth.wrong[own(s - 2 * LAG)].is_some() {
            let row = own(s - 2 * LAG);
            out.push(Action::Undo { row });
            out.push(Action::Modify { row });
        }
        if s >= 3 * LAG && s - 3 * LAG < n && truth.wrong[peer(s - 3 * LAG)].is_some() {
            out.push(Action::Confirm {
                row: peer(s - 3 * LAG),
            });
        }
    }
    out
}

struct Worker {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
    /// Each own row's current id (fills and modifies replace rows).
    own: Vec<RowId>,
    /// The auto-upvote the row's third fill produced, not yet submitted.
    held: Option<Message>,
}

impl Worker {
    fn connect(backend: &mut Backend, side: usize) -> Worker {
        let (id, client_id, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        let n = ROWS / 2;
        let own = (0..n)
            .map(|i| RowId::new(crowdfill_model::ClientId::CENTRAL, (side * n + i) as u64))
            .collect();
        Worker {
            id,
            client,
            applied,
            own,
            held: None,
        }
    }

    fn deliver(&mut self, backend: &mut Backend) {
        for (seq, msg) in backend.poll_seq(self.id) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }

    /// The first row whose value satisfies `pred`, in this worker's view.
    fn find(&self, pred: impl Fn(&RowValue) -> bool) -> Option<RowId> {
        self.client
            .replica()
            .table()
            .iter()
            .find(|(_, e)| pred(&e.value))
            .map(|(id, _)| id)
    }

    fn complete_with_key(&self, key: &str) -> Option<RowId> {
        let key = Value::text(key);
        let schema = self.client.replica().schema();
        self.find(|v| v.get(ColumnId(0)) == Some(&key) && v.is_complete(schema))
    }

    fn with_value(&self, row: &[String; 3]) -> Option<RowId> {
        let value =
            RowValue::from_pairs((0..3u16).map(|c| (ColumnId(c), Value::text(&row[c as usize]))));
        self.find(|v| *v == value)
    }

    /// Whether the peer's step that `action` waits for has been seen.
    fn ready(&mut self, backend: &mut Backend, truth: &Truth, side: usize, action: Action) -> bool {
        self.deliver(backend);
        match action {
            Action::Review { row } => self.complete_with_key(&truth.rows[row][0]).is_some(),
            Action::Undo { row } => {
                let id = self.own[row - side * (ROWS / 2)];
                let table = self.client.replica().table();
                table.get(id).is_some_and(|e| e.downvotes >= 1)
            }
            Action::Confirm { row } => self.with_value(&truth.rows[row]).is_some(),
            _ => true,
        }
    }

    /// Performs one planned step and submits what it produced.
    fn step(&mut self, backend: &mut Backend, truth: &Truth, side: usize, action: Action, at: u64) {
        let n = ROWS / 2;
        let at = Millis(at);
        let (msg, auto) = match action {
            Action::Fill { row, col } => {
                let text = match &truth.wrong[row] {
                    Some((c, wrong)) if *c == col => wrong.clone(),
                    _ => truth.rows[row][col as usize].clone(),
                };
                let id = self.own[row - side * n];
                let mut outs = self
                    .client
                    .fill(id, ColumnId(col), Value::text(text))
                    .unwrap()
                    .into_iter();
                let fill = outs.next().expect("fill yields its replace");
                self.own[row - side * n] = fill.msg.creates_row().expect("replace creates");
                self.held = outs.next().map(|o| o.msg);
                (fill.msg, false)
            }
            Action::AutoUp => (self.held.take().expect("third fill upvoted"), true),
            Action::Review { row } => {
                let id = self.complete_with_key(&truth.rows[row][0]).unwrap();
                let out = if truth.wrong[row].is_none() {
                    self.client.upvote(id)
                } else {
                    self.client.downvote(id)
                };
                (out.unwrap().msg, false)
            }
            Action::Undo { row } => {
                let id = self.own[row - side * n];
                (self.client.undo_upvote(id).unwrap().msg, false)
            }
            Action::Modify { row } => {
                let (col, _) = truth.wrong[row].clone().expect("planned for wrong rows");
                let id = self.own[row - side * n];
                let value = Value::text(&truth.rows[row][col as usize]);
                let bundle = self.client.modify(id, ColumnId(col), value).unwrap();
                if let Some(new) = bundle.iter().rev().find_map(|o| match &o.msg {
                    Message::Replace { new, .. } => Some(*new),
                    _ => None,
                }) {
                    self.own[row - side * n] = new;
                }
                let bundle = bundle.into_iter().map(|o| (o.msg, o.auto_upvote)).collect();
                let report = backend.submit_modify(self.id, bundle, at).unwrap();
                for seq in report.seqs {
                    self.applied.note(seq);
                }
                return;
            }
            Action::Confirm { row } => {
                let id = self.with_value(&truth.rows[row]).unwrap();
                (self.client.upvote(id).unwrap().msg, false)
            }
        };
        let report = backend.submit(self.id, msg, at, auto).unwrap();
        for seq in report.seqs {
            self.applied.note(seq);
        }
    }
}

/// FNV-1a 64 over `seq:json\n` for every history entry.
fn history_digest(backend: &Backend) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (seq, m) in backend.history_suffix(0) {
        let line = format!("{seq}:{}\n", wire::message_to_json(&m).encode());
        for b in line.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

#[test]
fn large_collection_cc_history_is_golden() {
    let truth = truth();
    let mut backend = Backend::new(config());
    let mut workers = [
        Worker::connect(&mut backend, 0),
        Worker::connect(&mut backend, 1),
    ];
    let plans = [plan(&truth, 0), plan(&truth, 1)];
    // The sides take turns; one whose next step waits on the peer passes.
    let mut next = [0usize; 2];
    let mut turn = 0;
    let mut at = 0;
    while next[0] < plans[0].len() || next[1] < plans[1].len() {
        let side = [turn, 1 - turn]
            .into_iter()
            .find(|&s| {
                next[s] < plans[s].len()
                    && workers[s].ready(&mut backend, &truth, s, plans[s][next[s]])
            })
            .expect("one side can always move");
        at += 1;
        workers[side].step(&mut backend, &truth, side, plans[side][next[side]], at);
        next[side] += 1;
        turn = 1 - side;
    }
    assert!(backend.is_fulfilled(), "every row confirmed");
    let (digest, len) = (history_digest(&backend), backend.history_len());
    println!("history digest {digest:#018x}, {len} messages");
    assert_eq!(
        (digest, len),
        (GOLDEN_DIGEST, GOLDEN_LEN),
        "the CC's broadcast history changed"
    );
}
