//! The interception session — Figure 2 of the paper, as an API.
//!
//! The analyst believes they are working on a local data frame; the
//! frame is a *strawman* for a database table ("constructing a so-called
//! 'strawman object' in the statistical environment, which wraps a
//! database table or query result, but is indistinguishable from a local
//! dataset"). Fitting against the frame is transparently offloaded into
//! the engine (step 2), which judges and stores the model (step 3) and
//! returns the goodness of fit; later value queries are answered from
//! the captured model with error bounds (steps 4–5).
//!
//! The [`TransferModel`] prices the counterfactual: what shipping the
//! frame's bytes to the client for a local fit would have cost. That
//! simulated saving is the quantity experiment E3 sweeps.

use crate::engine::{Answer, AnswerMode, LawsDb};
use crate::error::Result;
use lawsdb_approx::ApproxAnswer;
use lawsdb_fit::FitOptions as RawFitOptions;
use lawsdb_models::model::ModelId;
use lawsdb_obs::ProfileCollector;
use lawsdb_query::ExecOptions;
use std::sync::Arc;

/// Client↔server link model for the offload comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Link bandwidth in MB/s.
    pub bandwidth_mb_s: f64,
    /// Per-request latency in microseconds.
    pub latency_us: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        // A 2015-era office link to the database server: 1 Gb/s, 500 µs.
        TransferModel { bandwidth_mb_s: 125.0, latency_us: 500.0 }
    }
}

impl TransferModel {
    /// Simulated microseconds to ship `bytes` over this link.
    pub fn ship_us(&self, bytes: usize) -> f64 {
        self.latency_us + bytes as f64 / self.bandwidth_mb_s
    }
}

/// A strawman handle on a database table: to the analyst it looks like a
/// local data set; every operation on it runs inside the engine.
#[derive(Debug, Clone)]
pub struct RemoteFrame {
    /// The wrapped table name.
    pub table: String,
    /// Row count at handle creation (display metadata, like a data
    /// frame's `nrow`).
    pub rows: usize,
    /// Byte size of the wrapped data — what a naive client would pull.
    pub bytes: usize,
}

/// Options for a session fit.
#[derive(Debug, Clone, Default)]
pub struct FitOptions {
    /// Fit per group of this column ("a set of model parameters for
    /// each aggregation group").
    pub group_by: Option<String>,
    /// Underlying optimizer options.
    pub raw: RawFitOptions,
}

impl FitOptions {
    /// Grouped fit by a key column.
    pub fn grouped_by(column: &str) -> FitOptions {
        FitOptions { group_by: Some(column.to_string()), raw: RawFitOptions::default() }
    }

    /// Global (ungrouped) fit.
    pub fn global() -> FitOptions {
        FitOptions::default()
    }

    /// Override the raw optimizer options.
    pub fn with_raw(mut self, raw: RawFitOptions) -> FitOptions {
        self.raw = raw;
        self
    }
}

/// What the analyst gets back from an intercepted fit — Figure 2 step 3:
/// "the database dutifully fits the model and returns the goodness of
/// fit. At the same time, the database stores the model as well as its
/// parameters for later use."
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Catalog id of the stored model.
    pub model: ModelId,
    /// Pooled R².
    pub overall_r2: f64,
    /// Parameter vectors stored (1, or the group count).
    pub parameter_vectors: usize,
    /// Bytes of stored parameters.
    pub parameter_bytes: usize,
    /// Bytes the client *would* have pulled for a local fit.
    pub bytes_not_shipped: usize,
    /// Simulated microseconds saved by not shipping them.
    pub transfer_saved_us: f64,
}

/// One entry in the session's interception audit trail.
#[derive(Debug, Clone, PartialEq)]
pub enum InterceptEvent {
    /// A fit was intercepted and executed in-engine.
    FitIntercepted {
        /// Table fitted against.
        table: String,
        /// Formula source.
        formula: String,
        /// Stored model id.
        model: ModelId,
    },
    /// A query was answered from a captured model.
    AnsweredApproximately {
        /// The SQL text.
        sql: String,
        /// Reconstructed tuples.
        tuples: usize,
    },
    /// A query fell back to exact execution.
    FellBackToExact {
        /// The SQL text.
        sql: String,
    },
}

/// An interception session over one engine.
pub struct Session<'db> {
    db: &'db LawsDb,
    /// Link model for offload accounting.
    pub transfer: TransferModel,
    log: Vec<InterceptEvent>,
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db LawsDb) -> Session<'db> {
        Session { db, transfer: TransferModel::default(), log: Vec::new() }
    }

    /// Wrap a table in a strawman frame (Figure 2 step 1).
    pub fn frame(&self, table: &str) -> Result<RemoteFrame> {
        let t = self.db.table(table)?;
        Ok(RemoteFrame {
            table: t.name().to_string(),
            rows: t.row_count(),
            bytes: t.byte_size(),
        })
    }

    /// Fit a model against a frame — the interception (steps 2–3).
    pub fn fit(
        &mut self,
        frame: &RemoteFrame,
        formula: &str,
        options: FitOptions,
    ) -> Result<FitReport> {
        let model = self.db.capture_model(
            &frame.table,
            formula,
            options.group_by.as_deref(),
            &options.raw,
        )?;
        self.log.push(InterceptEvent::FitIntercepted {
            table: frame.table.clone(),
            formula: formula.to_string(),
            model: model.id,
        });
        Ok(self.report_for(&model, frame))
    }

    fn report_for(
        &self,
        model: &Arc<lawsdb_models::CapturedModel>,
        frame: &RemoteFrame,
    ) -> FitReport {
        FitReport {
            model: model.id,
            overall_r2: model.overall_r2,
            parameter_vectors: model.params.rows(),
            parameter_bytes: model.params.byte_size(),
            bytes_not_shipped: frame.bytes,
            transfer_saved_us: self.transfer.ship_us(frame.bytes),
        }
    }

    /// Approximate query (steps 4–5); logged.
    pub fn query_approx(&mut self, sql: &str) -> Result<ApproxAnswer> {
        let a = self.db.query_approx(sql)?;
        self.log.push(InterceptEvent::AnsweredApproximately {
            sql: sql.to_string(),
            tuples: a.tuples_reconstructed,
        });
        Ok(a)
    }

    /// Transparent query: model-backed when possible, exact otherwise;
    /// the fallback is logged.
    pub fn query(&mut self, sql: &str) -> Result<Answer> {
        let db = self.db;
        self.answer_logged(sql, &db.exec)
    }

    /// One trip down the engine's answer ladder, recorded in the audit
    /// trail.
    fn answer_logged(&mut self, sql: &str, exec: &ExecOptions) -> Result<Answer> {
        let ans = self.db.answer(sql, AnswerMode::Resilient, exec)?.answer;
        self.log.push(match &ans {
            Answer::Approx(a) => InterceptEvent::AnsweredApproximately {
                sql: sql.to_string(),
                tuples: a.tuples_reconstructed,
            },
            Answer::Exact(_) => InterceptEvent::FellBackToExact { sql: sql.to_string() },
        });
        Ok(ans)
    }

    /// The interception audit trail.
    pub fn log(&self) -> &[InterceptEvent] {
        &self.log
    }

    /// The engine's metrics in Prometheus text exposition format — the
    /// session-level `stats` command (DESIGN.md §12).
    pub fn stats_prometheus(&self) -> String {
        self.db.stats_prometheus()
    }

    /// The engine's metrics as JSON.
    pub fn stats_json(&self) -> String {
        self.db.stats_json()
    }

    /// `EXPLAIN ANALYZE`: run the query through the resilient ladder
    /// with full profiling and return the rendered execution tree —
    /// ladder decisions, plan-node spans, per-morsel timings, pruning
    /// and governor points, and any bridged storage events.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let collector = ProfileCollector::new();
        let exec = ExecOptions { profile: Some(collector.context()), ..self.db.exec.clone() };
        self.answer_logged(sql, &exec)?;
        Ok(collector.build("query").render())
    }

    /// Model exploration (Section 4.2): the `top_k` steepest points of
    /// a captured model's parameter space, by gradient magnitude —
    /// "find interesting subsets of the data by analyzing the first
    /// derivative of the model function".
    pub fn explore(
        &self,
        model: ModelId,
        top_k: usize,
    ) -> Result<Vec<lawsdb_approx::explore::GradientPoint>> {
        let m = self.db.models().get(model)?;
        Ok(lawsdb_approx::explore::explore_gradients(&m, top_k)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn db_with_lofar() -> LawsDb {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for s in 0..3i64 {
            let (p, a) = (2.0 - s as f64 * 0.5, -0.7 - s as f64 * 0.1);
            for i in 0..40 {
                src.push(s);
                nu.push(freqs[i % 4]);
                intensity.push(p * freqs[i % 4].powf(a));
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let db = LawsDb::new();
        db.register_table(b.build().unwrap()).unwrap();
        db
    }

    #[test]
    fn figure_two_protocol_end_to_end() {
        let db = db_with_lofar();
        let mut session = db.session();
        // (1) strawman frame
        let frame = session.frame("measurements").unwrap();
        assert_eq!(frame.rows, 120);
        assert!(frame.bytes > 0);
        // (2–3) intercepted fit returns goodness of fit
        let report = session
            .fit(&frame, "intensity ~ p * nu ^ alpha", FitOptions::grouped_by("source"))
            .unwrap();
        assert!(report.overall_r2 > 0.99);
        assert_eq!(report.parameter_vectors, 3);
        assert!(report.transfer_saved_us > 0.0);
        // (4–5) model answers with error bounds
        let answer = session
            .query_approx("SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.16")
            .unwrap();
        assert_eq!(answer.rows_scanned, 0);
        assert!(answer.error_bound.is_some());
        // The audit trail saw both events.
        assert_eq!(session.log().len(), 2);
        assert!(matches!(session.log()[0], InterceptEvent::FitIntercepted { .. }));
        assert!(matches!(session.log()[1], InterceptEvent::AnsweredApproximately { .. }));
    }

    #[test]
    fn transparent_query_logs_fallbacks() {
        let db = db_with_lofar();
        let mut session = db.session();
        let ans = session.query("SELECT COUNT(*) FROM measurements").unwrap();
        assert!(!ans.is_approximate());
        assert!(matches!(session.log()[0], InterceptEvent::FellBackToExact { .. }));
    }

    #[test]
    fn transfer_model_scales_with_bytes_and_bandwidth() {
        let slow = TransferModel { bandwidth_mb_s: 10.0, latency_us: 100.0 };
        let fast = TransferModel { bandwidth_mb_s: 1000.0, latency_us: 100.0 };
        let mb = 1_000_000;
        assert!(slow.ship_us(mb) > fast.ship_us(mb));
        assert!((slow.ship_us(mb) - (100.0 + 100_000.0)).abs() < 1e-9);
        assert!(slow.ship_us(2 * mb) > slow.ship_us(mb));
    }

    #[test]
    fn session_explore_ranks_gradients() {
        let db = db_with_lofar();
        let mut session = db.session();
        let frame = session.frame("measurements").unwrap();
        let report = session
            .fit(
                &frame,
                "intensity ~ p * nu ^ alpha",
                FitOptions::grouped_by("source")
                    .with_raw(RawFitOptions::default().with_initial("alpha", -0.7)),
            )
            .unwrap();
        let top = session.explore(report.model, 5).unwrap();
        assert_eq!(top.len(), 5);
        // Power laws with negative α are steepest at the lowest ν.
        assert_eq!(top[0].inputs, vec![0.12]);
        assert!(top[0].gradient_norm >= top[4].gradient_norm);
    }

    #[test]
    fn frame_for_missing_table_errors() {
        let db = LawsDb::new();
        let session = db.session();
        assert!(session.frame("zz").is_err());
    }
}
