//! The Central Client and Probable Rows Invariant maintenance (paper §4.2).
//!
//! The Central Client (CC) is the only client allowed to insert rows. It
//! keeps the candidate table in a state where filling in empty values can
//! still produce a final table satisfying the values constraint, by
//! maintaining the **Probable Rows Invariant**: every template row `t ∈ T`
//! corresponds to a unique probable row `r` with `r ⊇ t` — equivalently, a
//! maximum matching of the template-to-probable-rows bipartite graph has
//! exactly `|T|` edges.
//!
//! After every table change CC diffs the probable set (row values are
//! immutable per id, so only *membership* changes), repairs the matching
//! with augmenting paths, and when a template row goes unmatched:
//!
//! 1. inserts a fresh row carrying the template's prescribed values, if that
//!    row would itself be probable;
//! 2. otherwise *shuffles* the matching (paper: finds another template row
//!    `t'` on an alternating path and frees that one instead) and inserts for
//!    `t'`;
//! 3. if no insertable template row can be freed, **drops** `t` from the
//!    template — the paper's degraded-continuation behavior; dropped rows
//!    are reported so callers may abort instead.
//!
//! ### Predicates extension
//! The paper's system implements values constraints only. We also support
//! predicate entries with *optimistic* edges: a partial row is connected to
//! `t` when every prescribed value matches exactly and every predicate is
//! either satisfied or its column is still empty; a complete row must
//! satisfy all entries strictly. This preserves the fulfillment theorem:
//! when every matched row is a condition-3 winner (complete, positive,
//! group-best), the derived final table satisfies the constraint.

use crate::probable::classify;
use crowdfill_matching::ShardedMatcher;
use crowdfill_model::{
    ClientId, Entry, Message, Operation, RowId, RowValue, Schema, ScoringRef, Template, TemplateRow,
};
use crowdfill_sync::Replica;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A template row's index in the *original* user template. Stable across
/// drops, so reports stay meaningful.
pub type TemplateIdx = usize;

/// The Central Client: a replica plus PRI bookkeeping.
#[derive(Clone)]
pub struct PriMaintainer {
    replica: Replica,
    scoring: ScoringRef,
    /// Live template rows (original index, row). Dropped rows are removed.
    template: Vec<(TemplateIdx, TemplateRow)>,
    /// Template rows CC had to give up on (paper §4.2's degenerate case).
    dropped: Vec<(TemplateIdx, TemplateRow)>,
    /// Deterministic, so two maintainers fed identical messages make
    /// identical decisions (the batched server relies on that for
    /// cross-instance history identity).
    matcher: ShardedMatcher<TemplateIdx, RowId>,
    /// Current probable set (mirrors the matcher's right vertices).
    probable: BTreeSet<RowId>,
    /// Size of the derived final table as of the last classification sweep
    /// (the number of group-winner rows). Lets [`is_fulfilled`] reject in
    /// O(1) without deriving the final table: a matching covering the
    /// template needs at least `template.len()` final rows.
    ///
    /// [`is_fulfilled`]: Self::is_fulfilled
    final_rows: usize,
    /// Messages CC has generated and not yet handed to the caller.
    outbox: Vec<Message>,
}

impl PriMaintainer {
    /// Creates the CC for a task: populates the candidate table with the
    /// template rows (upvoting fully-prescribed complete ones, as if workers
    /// had completed them) and establishes the PRI.
    ///
    /// Call [`take_outbox`](Self::take_outbox) afterwards to collect the
    /// initialization messages for broadcast.
    pub fn new(schema: Arc<Schema>, scoring: ScoringRef, template: &Template) -> PriMaintainer {
        let mut m = PriMaintainer {
            replica: Replica::new(ClientId::CENTRAL, schema),
            scoring,
            template: template.rows().iter().cloned().enumerate().collect(),
            dropped: Vec::new(),
            matcher: ShardedMatcher::new(),
            probable: BTreeSet::new(),
            final_rows: 0,
            outbox: Vec::new(),
        };
        for (idx, row) in m.template.clone() {
            m.matcher.add_left(idx);
            m.insert_template_row(&row);
        }
        m.refresh_and_maintain();
        m
    }

    /// Rebuilds the CC from checkpointed state (DESIGN.md §14): a restored
    /// replica plus the live/dropped template partition as of the
    /// checkpoint. The matching, probable set, and final-row count are all
    /// *derived* state, so they are recomputed rather than stored; crucially
    /// this emits **no messages** — recovery must reproduce history, not
    /// extend it. Recovered history always ends on a submit boundary, where
    /// maintenance had just run, so the recomputed maximum matching covers
    /// the live template; if it somehow does not, the next incoming message
    /// triggers ordinary maintenance and journals its repairs with that op.
    pub fn restore(
        scoring: ScoringRef,
        replica: Replica,
        template: Vec<(TemplateIdx, TemplateRow)>,
        dropped: Vec<(TemplateIdx, TemplateRow)>,
    ) -> PriMaintainer {
        let mut m = PriMaintainer {
            replica,
            scoring,
            template,
            dropped,
            matcher: ShardedMatcher::new(),
            probable: BTreeSet::new(),
            final_rows: 0,
            outbox: Vec::new(),
        };
        let lefts: Vec<TemplateIdx> = m.template.iter().map(|(idx, _)| *idx).collect();
        for idx in lefts {
            m.matcher.add_left(idx);
        }
        m.sync_probable_set();
        m.matcher.repair();
        if !m.invariant_holds() {
            crowdfill_obs::obs_warn!(
                "constraints",
                "PRI not covered after restore; deferring repair to next message";
                matched => m.matcher.matching_size() as u64,
                template => m.template.len() as u64,
            );
        }
        m
    }

    /// CC's replica (read access).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Absorbs one recovered message into CC's replica WITHOUT running
    /// maintenance. Journal replay must reproduce history, not extend it:
    /// the repairs CC generated for this message are themselves later
    /// entries in the journal, so re-running maintenance here would emit
    /// them twice. Call [`rederive`](Self::rederive) once after the whole
    /// replay to rebuild the matching over the final replica state.
    pub fn replay_message(&mut self, msg: &Message) {
        self.replica.process(msg);
    }

    /// Replays a journaled template-drop event: moves original template row
    /// `idx` from the live template to the dropped list. Drops are decided
    /// by the *pre-crash* maintainer (they depend on its matching, which is
    /// not checkpointed), so recovery takes them from the journal instead of
    /// re-deriving them. No-op if `idx` is not live (e.g. the snapshot
    /// already reflects the drop and the journal frame overlaps it).
    pub fn replay_template_drop(&mut self, idx: TemplateIdx) {
        let Some(pos) = self.template.iter().position(|(i, _)| *i == idx) else {
            return;
        };
        let dropped = self.template.remove(pos);
        self.matcher.remove_left(&idx);
        self.dropped.push(dropped);
        self.matcher.repair();
    }

    /// Raises CC's row-id counter to at least `n` (recovery bookkeeping:
    /// replayed CC messages go through [`replay_message`](Self::replay_message),
    /// which — unlike the original `apply_local` — does not advance it).
    pub fn resume_seq_at_least(&mut self, n: u64) {
        self.replica.resume_seq_at_least(n);
    }

    /// Recomputes the derived state — probable set, matching, final-row
    /// count — after a journal replay, emitting no messages (the same
    /// deferred-repair contract as [`restore`](Self::restore)).
    pub fn rederive(&mut self) {
        self.sync_probable_set();
        self.matcher.repair();
        if !self.invariant_holds() {
            crowdfill_obs::obs_warn!(
                "constraints",
                "PRI not covered after replay; deferring repair to next message";
                matched => self.matcher.matching_size() as u64,
                template => self.template.len() as u64,
            );
        }
    }

    /// The live template (original indexes preserved).
    pub fn live_template(&self) -> &[(TemplateIdx, TemplateRow)] {
        &self.template
    }

    /// Template rows that had to be dropped to keep the PRI maintainable.
    pub fn dropped_template_rows(&self) -> &[(TemplateIdx, TemplateRow)] {
        &self.dropped
    }

    /// The current probable-row set.
    pub fn probable_set(&self) -> &BTreeSet<RowId> {
        &self.probable
    }

    /// The probable row currently matched to original template row `idx`.
    pub fn matched_row(&self, idx: TemplateIdx) -> Option<RowId> {
        self.matcher.matched_right(&idx).copied()
    }

    /// Drains CC's pending messages (inserts/fills/upvotes it generated).
    /// The caller must apply them to the master table and broadcast them.
    pub fn take_outbox(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.outbox)
    }

    /// Processes a message that arrived at CC (any worker message the server
    /// broadcasts), then re-establishes the PRI. New CC messages appear in
    /// the outbox.
    pub fn on_message(&mut self, msg: &Message) {
        self.replica.process(msg);
        self.refresh_and_maintain();
    }

    /// Batched variant of [`on_message`](Self::on_message): absorbs a run of
    /// messages into the replica and re-establishes the PRI **once**, so the
    /// probable-set diff and augmenting-path repair are amortized over the
    /// whole run instead of paid per message.
    ///
    /// The final state can differ from calling `on_message` per element —
    /// intermediate maintenance (and the inserts it would have generated) is
    /// skipped — so this is for callers that only observe the end state:
    /// bulk replay, offline analysis, and the PRI throughput benchmarks. The
    /// live server keeps per-message maintenance, which is what the
    /// batch/singleton history-equivalence property pins down.
    pub fn on_messages(&mut self, msgs: &[Message]) {
        for msg in msgs {
            self.replica.process(msg);
        }
        self.refresh_and_maintain();
    }

    /// Fulfillment check: does the final table derived from the current
    /// candidate table satisfy the (live) values/predicates constraint?
    ///
    /// Note this is *not* "is CC's current matching made of winners": the
    /// maintenance matching maximizes coverage of the template by probable
    /// rows (which include zero-score contenders), so it may pin a template
    /// row to a still-open row even though a finished winner could serve it.
    /// Satisfaction is therefore checked directly against the derived final
    /// table, with its own unique-witness matching.
    pub fn is_fulfilled(&self) -> bool {
        // O(1) necessary condition first: the unique-witness matching cannot
        // cover the template with fewer final rows than live template rows,
        // and the classification sweep already counted the final rows (the
        // per-key-group winners). This skips the full derivation on the vast
        // majority of mid-collection checks.
        if self.final_rows < self.template.len() {
            return false;
        }
        let final_table = crowdfill_model::derive_final_table(
            self.replica.table(),
            self.replica.schema(),
            &*self.scoring,
        );
        crowdfill_model::rows_satisfied_by(self.template.iter().map(|(_, r)| r), &final_table)
    }

    /// Whether the PRI currently holds (matching covers the live template).
    pub fn invariant_holds(&self) -> bool {
        self.matcher.matching_size() == self.template.len()
    }

    // ---- internals -------------------------------------------------------

    /// The PRI edge condition: prescribed values strict, predicates
    /// optimistic on partial rows (see module docs).
    fn edge(&self, trow: &TemplateRow, value: &RowValue) -> bool {
        let complete = value.is_complete(self.replica.schema());
        trow.entries().iter().all(|(col, entry)| match entry {
            Entry::Any => true,
            Entry::Value(v) => value.get(*col) == Some(v),
            Entry::Pred(p) => match value.get(*col) {
                Some(cell) => p.eval(cell),
                None => !complete,
            },
        })
    }

    /// CC performs `op` on its replica and queues the message.
    fn cc_op(&mut self, op: &Operation) -> Option<RowId> {
        match self.replica.apply_local(op) {
            Ok(msg) => {
                let created = msg.creates_row();
                self.outbox.push(msg);
                created
            }
            Err(e) => unreachable!("CC generated an invalid operation {op}: {e}"),
        }
    }

    /// Inserts a row carrying `trow`'s prescribed values; upvotes it if the
    /// prescription is complete (paper §4.2 initialization rule). Returns the
    /// final row id.
    fn insert_template_row(&mut self, trow: &TemplateRow) -> RowId {
        let mut row = self.cc_op(&Operation::Insert).expect("insert creates");
        for (col, v) in trow.prescribed_values() {
            let v = v.clone();
            row = self
                .cc_op(&Operation::Fill {
                    row,
                    column: col,
                    value: v,
                })
                .expect("fill creates");
        }
        if self
            .replica
            .table()
            .get(row)
            .expect("row just created")
            .value
            .is_complete(self.replica.schema())
        {
            self.cc_op(&Operation::Upvote { row });
        }
        row
    }

    /// Would a freshly-inserted row with `trow`'s prescribed values be
    /// probable right now? (Paper §4.2's "inserting row q with value t̄ does
    /// not always make q probable".)
    fn insertable(&self, trow: &TemplateRow) -> bool {
        let schema = self.replica.schema();
        let value = trow.prescribed_row_value();
        let complete = value.is_complete(schema);
        // A fresh row completed by CC would also be auto-upvoted; its counts
        // come from the vote histories.
        let upvotes = if complete {
            self.replica.upvote_history().get(&value) + 1
        } else {
            0
        };
        let downvotes = self.replica.downvote_history().sum_subsets_of(&value);
        let score = self.scoring.score(upvotes, downvotes);
        if score < 0 {
            // Failure case 1: the template value has been downvoted into
            // unacceptability.
            return false;
        }
        match value.key_projection(schema) {
            None => score == 0,
            Some(key) => {
                // Scores of existing same-key rows. If the new row would be
                // complete, CC's auto-upvote also bumps every *equal-valued*
                // row, so account for that when projecting their scores.
                let mut best_other = 0i64;
                for (_, e) in self.replica.table().iter() {
                    if e.value.key_projection(schema).as_ref() == Some(&key) {
                        let up = if complete && e.value == value {
                            e.upvotes + 1
                        } else {
                            e.upvotes
                        };
                        best_other = best_other.max(self.scoring.score(up, e.downvotes));
                    }
                }
                if score == 0 {
                    best_other <= 0
                } else {
                    // The new row has the highest id, so an equal-score
                    // incumbent wins the tie: require strictly greater.
                    score > best_other
                }
            }
        }
    }

    /// Recomputes the probable set, diffs it into the matcher, repairs, and
    /// restores the PRI by insertion / shuffle / template-drop.
    fn refresh_and_maintain(&mut self) {
        crowdfill_obs::metrics::counter("crowdfill_constraints_pri_refreshes").inc();
        let _refresh_timer = crowdfill_obs::SpanTimer::start(&crowdfill_obs::metrics::histogram(
            "crowdfill_constraints_pri_refresh_ns",
        ));
        self.sync_probable_set();
        self.matcher.repair();

        // Restore the matching to cover the whole live template.
        while self.matcher.matching_size() < self.template.len() {
            let mut free = self.matcher.free_lefts();
            free.sort_unstable(); // determinism
            let t = free[0];
            let trow = self.template_row(t).clone();

            if self.insertable(&trow) {
                let row = self.insert_template_row(&trow);
                self.sync_probable_set();
                debug_assert!(self.probable.contains(&row), "inserted row not probable");
                self.matcher.repair();
                continue;
            }

            // Shuffle: free some other (insertable) template row instead.
            let mut donors = self.matcher.exchangeable_lefts(&t);
            donors.sort_unstable();
            let donor = donors
                .iter()
                .copied()
                .find(|d| self.insertable(self.template_row(*d)));
            match donor {
                Some(d) => {
                    let ok = self.matcher.exchange(&t, &d);
                    debug_assert!(ok, "exchangeable donor must be reachable");
                    let drow = self.template_row(d).clone();
                    let row = self.insert_template_row(&drow);
                    self.sync_probable_set();
                    debug_assert!(self.probable.contains(&row));
                    self.matcher.repair();
                }
                None => {
                    // Degenerate case: drop t from the template and continue
                    // with the reduced constraint (paper §4.2).
                    let pos = self
                        .template
                        .iter()
                        .position(|(idx, _)| *idx == t)
                        .expect("free left is a live template row");
                    let dropped = self.template.remove(pos);
                    self.matcher.remove_left(&t);
                    self.dropped.push(dropped);
                    crowdfill_obs::metrics::counter("crowdfill_constraints_template_drops").inc();
                    crowdfill_obs::obs_warn!(
                        "constraints",
                        "PRI degenerate case: dropped template row";
                        template_idx => t,
                    );
                    self.matcher.repair();
                }
            }
        }
        debug_assert!(self.matcher.check_consistency());
    }

    fn template_row(&self, idx: TemplateIdx) -> &TemplateRow {
        &self
            .template
            .iter()
            .find(|(i, _)| *i == idx)
            .expect("live template row")
            .1
    }

    /// Diffs the probable set into the matcher. Row values are immutable, so
    /// existing edges never change; only vertices enter and leave.
    fn sync_probable_set(&mut self) {
        let classification = classify(self.replica.table(), self.replica.schema(), &*self.scoring);
        self.final_rows = classification.winners;
        let fresh = classification.probable();
        // Removed rows.
        let gone: Vec<RowId> = self.probable.difference(&fresh).copied().collect();
        for id in gone {
            self.matcher.remove_right(&id);
        }
        // Added rows: connect to every live template row whose edge condition
        // holds.
        let added: Vec<RowId> = fresh.difference(&self.probable).copied().collect();
        for id in added {
            self.matcher.add_right(id);
            let value = self
                .replica
                .table()
                .get(id)
                .expect("probable row exists")
                .value
                .clone();
            for (idx, trow) in &self.template {
                if self.edge(trow, &value) {
                    self.matcher.add_edge(*idx, id);
                }
            }
        }
        self.probable = fresh;
    }
}

impl std::fmt::Debug for PriMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriMaintainer")
            .field("live_template", &self.template.len())
            .field("dropped", &self.dropped.len())
            .field("probable", &self.probable.len())
            .field("matching", &self.matcher.matching_size())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}
