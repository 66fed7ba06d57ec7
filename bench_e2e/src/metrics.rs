//! The declared metrics — `BENCHMARK.json` lists exactly these — and the
//! report a workload fills.

use std::collections::BTreeMap;

use obs::metrics::MetricsSnapshot;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// What a user of each workload sees. "op" is the workload's own
/// operation: a `GET /query` (serve_warm, serve_cold, live_update), an
/// add/remove `POST /admin/update` (live_commit), one ingest of the
/// corpus (ingest).
///
/// Every bound is the widest the driver allows. The calibration host's
/// speed wanders by a tenth and more from one minute to the next
/// (README, "Repeatability"), and a bound has to be a few times the
/// spread seen; a tighter bound would refuse runs, not regressions.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Names are `<crate>.<metric>`; `client` is the load generator and
/// `trace` the staged replay. A metric of a layer the workload does not
/// run reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    layer("xserve.parse_us", "us", "lower"),
    layer("xserve.render_us", "us", "lower"),
    layer("xserve.write_us", "us", "lower"),
    layer("xserve.transport_us", "us", "lower"),
    layer("xserve.queue_wait_mean_us", "us", "lower"),
    layer("xserve.request_mean_us", "us", "lower"),
    layer("xserve.shed", "count", "lower"),
    layer("lexicon.rules_us", "us", "lower"),
    layer("invindex.session_self_us", "us", "lower"),
    layer("invindex.advances_per_query", "count", "lower"),
    layer("invindex.ns_per_advance", "ns", "lower"),
    layer("invindex.cache_hit_ratio", "ratio", "higher"),
    layer("invindex.cache_evictions", "count", "lower"),
    layer("invindex.lists_decoded_per_query", "count", "lower"),
    layer("invindex.blocks_decoded_per_query", "count", "lower"),
    layer("invindex.blocks_skipped_per_query", "count", "higher"),
    layer("invindex.cache_resident_bytes", "B", "lower"),
    layer("kvstore.get_us", "us", "lower"),
    layer("kvstore.gets_per_query", "count", "lower"),
    layer("kvstore.value_bytes_per_query", "B", "lower"),
    layer("kvstore.page_reads_per_query", "count", "lower"),
    layer("kvstore.disk_page_reads_per_query", "count", "lower"),
    layer("xrefine.algorithm_self_us", "us", "lower"),
    layer("xrefine.dp_calls_per_query", "count", "lower"),
    layer("xrefine.dp_memo_hit_ratio", "ratio", "higher"),
    layer("xrefine.partitions_per_query", "count", "lower"),
    layer("xrefine.rqs_pruned_per_query", "count", "higher"),
    layer("xrefine.phase_rules_mean_us", "us", "lower"),
    layer("xrefine.phase_session_mean_us", "us", "lower"),
    layer("xrefine.phase_algorithm_mean_us", "us", "lower"),
    layer("slca.scan_us", "us", "lower"),
    layer("slca.invocations_per_query", "count", "lower"),
    layer("slca.eager_steps_per_query", "count", "lower"),
    layer("invindex.maint_commit_mean_ms", "ms", "lower"),
    layer("invindex.compaction_mean_ms", "ms", "lower"),
    layer("invindex.compactions", "count", "lower"),
    layer("invindex.cache_invalidations_per_commit", "count", "lower"),
    layer("invindex.overlay_entries_max", "count", "lower"),
    layer("kvstore.wal_bytes_per_commit", "B", "lower"),
    layer("kvstore.wal_syncs_per_commit", "count", "lower"),
    layer("kvstore.page_writes_per_commit", "count", "lower"),
    layer("kvstore.wal_bytes_per_fragment_byte", "B/B", "lower"),
    layer("xmldom.scan_mb_per_s", "MB/s", "higher"),
    layer("xmldom.events_per_mb", "count", "lower"),
    layer("invindex.build_s", "s", "lower"),
    layer("invindex.persist_self_s", "s", "lower"),
    layer("kvstore.put_s", "s", "lower"),
    layer("kvstore.sync_s", "s", "lower"),
    layer("invindex.ingest_scan_share", "ratio", "lower"),
    layer("invindex.ingest_tokenize_share", "ratio", "lower"),
    layer("invindex.ingest_merge_share", "ratio", "lower"),
    layer("invindex.ingest_df_share", "ratio", "lower"),
    layer("invindex.encoded_bytes", "B", "lower"),
    layer("invindex.dedup_hits", "count", "higher"),
    layer("kvstore.page_writes", "count", "lower"),
    layer("kvstore.btree_splits", "count", "lower"),
    layer("kvstore.store_bytes_per_input_byte", "B/B", "lower"),
    layer("client.ingest_mb_per_s", "MB/s", "higher"),
    layer("client.samples", "count", "higher"),
    layer("client.timed_s", "s", "lower"),
    layer("client.query_p50_ms", "ms", "lower"),
    layer("client.query_p95_ms", "ms", "lower"),
    layer("client.query_p99_ms", "ms", "lower"),
    layer("client.queries_per_s", "1/s", "higher"),
    layer("client.commit_p50_ms", "ms", "lower"),
    layer("client.commit_p90_ms", "ms", "lower"),
    layer("client.commits_per_s", "1/s", "higher"),
    layer("client.class.none.p50_ms", "ms", "lower"),
    layer("client.class.extraterm.p50_ms", "ms", "lower"),
    layer("client.class.splitkeyword.p50_ms", "ms", "lower"),
    layer("client.class.mergedkeywords.p50_ms", "ms", "lower"),
    layer("client.class.typo.p50_ms", "ms", "lower"),
    layer("client.class.synonym.p50_ms", "ms", "lower"),
    layer("client.class.stemming.p50_ms", "ms", "lower"),
    layer("trace.requests", "count", "higher"),
    layer("trace.identity_gap", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// One workload's result: request accounting plus metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The declared metrics of one table, in declared order, each with
    /// its value (0 when the workload did not run that layer). Panics on
    /// a value set under an undeclared name: that is a bug here, and the
    /// smoke test runs every workload through this.
    pub fn declared(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for name in self.values.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not declared for --trace {}",
                u8::from(traced)
            );
        }
        table
            .into_iter()
            .map(|(name, unit)| (name, self.get(name), unit))
            .collect()
    }

    /// The contract's result line.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .declared(traced)
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn counter(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.counters.get(name).copied().unwrap_or(0) as f64
}

/// Exact mean of a histogram's samples (sum ÷ count), unlike the log₂
/// bucket quantiles.
fn hist_mean_nanos(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.histograms.get(name).map_or(0.0, |h| h.mean())
}

fn hist_sum_nanos(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Every per-layer metric that is a delta of the program's own `obs`
/// registry over a window in which `queries` queries were answered and
/// `commits` add/remove transactions committed.
pub fn obs_layers(report: &mut Report, delta: &MetricsSnapshot, queries: f64, commits: f64) {
    let c = |name: &str| counter(delta, name);
    report.set(
        "xserve.queue_wait_mean_us",
        hist_mean_nanos(delta, "serve_queue_wait_nanos") / 1e3,
    );
    report.set(
        "xserve.request_mean_us",
        hist_mean_nanos(delta, "serve_request_nanos") / 1e3,
    );
    report.set("xserve.shed", c("serve_requests_shed_total"));

    report.set(
        "invindex.advances_per_query",
        per(c("invindex_scan_advances_total"), queries),
    );
    let lookups = c("invindex_cache_hits_total") + c("invindex_cache_misses_total");
    report.set(
        "invindex.cache_hit_ratio",
        per(c("invindex_cache_hits_total"), lookups),
    );
    report.set(
        "invindex.cache_evictions",
        c("invindex_cache_evictions_total"),
    );
    report.set(
        "invindex.lists_decoded_per_query",
        per(c("invindex_cache_lists_decoded_total"), queries),
    );
    report.set(
        "invindex.blocks_decoded_per_query",
        per(c("compress_blocks_decoded_total"), queries),
    );
    report.set(
        "invindex.blocks_skipped_per_query",
        per(c("compress_blocks_skipped_total"), queries),
    );
    let resident = delta
        .gauges
        .get("invindex_cache_resident_bytes")
        .copied()
        .unwrap_or(0);
    report.set("invindex.cache_resident_bytes", resident as f64);
    report.set(
        "kvstore.page_reads_per_query",
        per(c("kvstore_pager_page_reads_total"), queries),
    );
    report.set(
        "kvstore.disk_page_reads_per_query",
        per(c("kvstore_pager_disk_page_reads_total"), queries),
    );

    report.set(
        "xrefine.dp_calls_per_query",
        per(c("xrefine_dp_calls_total"), queries),
    );
    report.set(
        "xrefine.dp_memo_hit_ratio",
        per(
            c("xrefine_dp_memo_hits_total"),
            c("xrefine_dp_calls_total") + c("xrefine_dp_memo_hits_total"),
        ),
    );
    report.set(
        "xrefine.partitions_per_query",
        per(c("xrefine_partitions_scanned_total"), queries),
    );
    report.set(
        "xrefine.rqs_pruned_per_query",
        per(c("xrefine_rqs_pruned_total"), queries),
    );
    for phase in ["rules", "session", "algorithm"] {
        report.set(
            &format!("xrefine.phase_{phase}_mean_us"),
            hist_mean_nanos(delta, &format!("xrefine_phase_{phase}_nanos")) / 1e3,
        );
    }
    report.set(
        "slca.invocations_per_query",
        per(c("slca_invocations_total"), queries),
    );
    report.set(
        "slca.eager_steps_per_query",
        per(c("slca_eager_steps_total"), queries),
    );

    report.set(
        "invindex.maint_commit_mean_ms",
        hist_mean_nanos(delta, "maint_commit_nanos") / 1e6,
    );
    report.set("invindex.compactions", c("maint_compactions_total"));
    report.set(
        "invindex.cache_invalidations_per_commit",
        per(c("invindex_cache_invalidations_total"), commits),
    );
    report.set(
        "kvstore.wal_bytes_per_commit",
        per(c("kvstore_wal_appended_bytes_total"), commits),
    );
    report.set(
        "kvstore.wal_syncs_per_commit",
        per(c("kvstore_wal_syncs_total"), commits),
    );
    report.set(
        "kvstore.page_writes_per_commit",
        per(c("kvstore_pager_page_writes_total"), commits),
    );

    let ingest_nanos: f64 = ["scan", "tokenize", "merge", "df"]
        .iter()
        .map(|p| hist_sum_nanos(delta, &format!("invindex_ingest_{p}_nanos")))
        .sum();
    for phase in ["scan", "tokenize", "merge", "df"] {
        report.set(
            &format!("invindex.ingest_{phase}_share"),
            per(
                hist_sum_nanos(delta, &format!("invindex_ingest_{phase}_nanos")),
                ingest_nanos,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let mut report = Report {
            attempted: 7,
            failed: 0,
            ..Default::default()
        };
        report.set("op_p50_ms", 1.25);
        let line = report.result_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0"),
            "{line}"
        );
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{line}"
            );
        }
        assert!(
            line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"),
            "{line}"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        let mut report = Report::default();
        report.set("kvstore.get_us", 1.0);
        let _ = report.declared(false);
    }
}
