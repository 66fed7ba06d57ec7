//! `XRefineEngine` — the search-engine facade (the paper's "XRefine"
//! prototype): index a document once — or open a persisted index — then
//! answer keyword queries with automatic refinement.
//!
//! Every engine answers through a [`KvBackedIndex`]: one built in memory
//! is taken over by [`KvBackedIndex::from_built`], so its lists are read
//! from the store format, checked, decoded and cached exactly as from a
//! store on disk. The engine holds the reader as an `Arc<KvBackedIndex>`.

use crate::partition::{partition_refine, PartitionOptions, SlcaMethod};
use crate::query::Query;
use crate::ranking::RankingConfig;
use crate::results::{QueryFailure, RefineOutcome};
use crate::session::RefineSession;
use crate::sle::{sle_refine, SleOptions};
use crate::stack_refine::stack_refine;
use invindex::{Index, KvBackedIndex, ListHandle};
use lexicon::{generate_rules, AcronymTable, RuleSet, Thesaurus, VocabIndex};
use slca::SearchForConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xmldom::{Dewey, Document, ScanError};

/// Which refinement algorithm answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1 (`stack-refine`): optimal RQ only.
    StackRefine,
    /// Algorithm 2 (`Partition`): Top-K.
    Partition,
    /// Algorithm 3 (`SLE`): Top-K.
    ShortListEager,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub algorithm: Algorithm,
    /// K of Top-K refinement.
    pub k: usize,
    pub ranking: RankingConfig,
    pub search_for: SearchForConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: Algorithm::Partition,
            k: 3,
            ranking: RankingConfig::default(),
            search_for: SearchForConfig::default(),
        }
    }
}

/// The XRefine prototype engine.
pub struct XRefineEngine {
    reader: Arc<KvBackedIndex>,
    vocab: VocabIndex,
    thesaurus: Thesaurus,
    acronyms: AcronymTable,
    config: EngineConfig,
}

impl XRefineEngine {
    /// Indexes an XML document through the streaming builder, the ingest
    /// path `xrefine-cli index` writes stores with.
    pub fn from_xml(xml: &str, config: EngineConfig) -> Result<Self, ScanError> {
        Ok(Self::from_index(invindex::build_streaming(xml, 1)?, config))
    }

    /// Indexes an already-built document.
    pub fn from_document(doc: Arc<Document>, config: EngineConfig) -> Self {
        Self::from_index(Index::build(doc), config)
    }

    /// Serves a freshly built index through the store format
    /// ([`KvBackedIndex::from_built`]).
    pub fn from_index(index: Index, config: EngineConfig) -> Self {
        Self::from_reader(Arc::new(KvBackedIndex::from_built(index)), config)
    }

    /// Wraps an opened reader (a persisted store, or one with a custom
    /// cache budget).
    pub fn from_reader(reader: Arc<KvBackedIndex>, config: EngineConfig) -> Self {
        let vocab = VocabIndex::new(reader.vocabulary().iter().map(|(_, w)| w));
        XRefineEngine {
            reader,
            vocab,
            thesaurus: Thesaurus::bibliographic(),
            acronyms: AcronymTable::computer_science(),
            config,
        }
    }

    /// Opens a persisted index (written by `invindex::persist`) straight
    /// from its on-disk kv store: of the document only `D/types` is read,
    /// a record's chunk is decoded when a result in it is rendered, and
    /// posting lists are decoded lazily, per query — no XML re-parse, no
    /// full index load. The store is read through
    /// [`kvstore::Snapshot::open`], the one read-only open: committed
    /// but not yet compacted updates in the WAL beside it are visible,
    /// nothing on disk is created, repaired or truncated, and a missing
    /// `path` is a `NotFound` error naming it.
    pub fn from_store(path: &Path, config: EngineConfig) -> kvstore::Result<Self> {
        Self::from_store_with_vfs(&kvstore::StdVfs::arc(), path, config)
    }

    /// As [`XRefineEngine::from_store`], on an explicit VFS (tests,
    /// fault injection).
    pub fn from_store_with_vfs(
        vfs: &Arc<dyn kvstore::Vfs>,
        path: &Path,
        config: EngineConfig,
    ) -> kvstore::Result<Self> {
        let index = KvBackedIndex::open_snapshot(kvstore::Snapshot::open(vfs, path)?)?;
        Ok(Self::from_reader(Arc::new(index), config))
    }

    /// Swaps the thesaurus (e.g. for a non-bibliographic corpus).
    pub fn with_thesaurus(mut self, thesaurus: Thesaurus) -> Self {
        self.thesaurus = thesaurus;
        self
    }

    pub fn index(&self) -> &KvBackedIndex {
        &self.reader
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// The pertinent rule set for a query (`getNewKeywords` consultation).
    pub fn rules_for(&self, query: &Query) -> RuleSet {
        generate_rules(
            query.keywords(),
            &self.vocab,
            &self.thesaurus,
            &self.acronyms,
        )
    }

    /// Answers a free-text query. Storage errors surface as `Err`.
    pub fn answer(&self, query_text: &str) -> kvstore::Result<RefineOutcome> {
        self.answer_query(Query::parse(query_text))
    }

    /// Answers a parsed query with the configured algorithm.
    pub fn answer_query(&self, query: Query) -> kvstore::Result<RefineOutcome> {
        self.answer_query_detailed(query).map_err(Into::into)
    }

    /// Like [`XRefineEngine::answer`], but failures keep their keyword
    /// attribution (see [`QueryFailure`]) and successful outcomes carry
    /// their degradation notes — the serving path's entry point, where a
    /// corrupt posting list must fail *this query*, structured enough to
    /// report, while the engine keeps serving everything else.
    pub fn answer_detailed(&self, query_text: &str) -> Result<RefineOutcome, QueryFailure> {
        self.answer_query_detailed(Query::parse(query_text))
    }

    /// Answers a parsed query with keyword-attributed failures and
    /// degradation notes. Each phase (rules, session, algorithm) is
    /// recorded as a trace span (when a capture is active) and a latency
    /// histogram `xrefine_phase_*_nanos` in the global metrics registry —
    /// the one place phase time is kept.
    pub fn answer_query_detailed(&self, query: Query) -> Result<RefineOutcome, QueryFailure> {
        obs::counter!("xrefine_queries_total").inc();
        let result = self.answer_phases(query);
        if result.is_err() {
            obs::counter!("xrefine_query_failures_total").inc();
        }
        result
    }

    fn answer_phases(&self, query: Query) -> Result<RefineOutcome, QueryFailure> {
        #[expect(
            clippy::disallowed_methods,
            reason = "once per query: the whole-query latency histogram, not per-node work"
        )]
        let started = Instant::now();

        #[expect(
            clippy::disallowed_methods,
            reason = "once per query: brackets the rules phase"
        )]
        let t0 = Instant::now();
        let rules = {
            let _span = obs::trace::span("rules");
            obs::trace::attr("query", SpaceJoined(query.keywords()));
            self.rules_for(&query)
        };
        obs::histogram!("xrefine_phase_rules_nanos").observe_duration(t0.elapsed());

        #[expect(
            clippy::disallowed_methods,
            reason = "once per query: brackets the session phase"
        )]
        let t1 = Instant::now();
        let mut session = {
            let _span = obs::trace::span("session");
            obs::trace::attr("rules", rules.len());
            RefineSession::with_search_for(
                self.reader.as_ref(),
                query,
                rules,
                &self.config.search_for,
            )?
        };
        obs::histogram!("xrefine_phase_session_nanos").observe_duration(t1.elapsed());

        #[expect(
            clippy::disallowed_methods,
            reason = "once per query: brackets the algorithm phase"
        )]
        let t2 = Instant::now();
        let run = |session: &RefineSession<'_>| {
            let _span = obs::trace::span(match self.config.algorithm {
                Algorithm::StackRefine => "stack-refine",
                Algorithm::Partition => "partition",
                Algorithm::ShortListEager => "sle",
            });
            match self.config.algorithm {
                Algorithm::StackRefine => stack_refine(session),
                Algorithm::Partition => partition_refine(
                    session,
                    &PartitionOptions {
                        k: self.config.k,
                        slca: slca::slca_scan_eager,
                        ranking: self.config.ranking.clone(),
                    },
                ),
                Algorithm::ShortListEager => sle_refine(
                    session,
                    &SleOptions {
                        k: self.config.k,
                        slca: slca::slca_scan_eager,
                        ranking: self.config.ranking.clone(),
                        smart_choice: true,
                    },
                ),
            }
        };
        // A block that failed to decode read as empty, so the outcome is
        // wrong: the query fails, or runs again without the keyword.
        let outcome = loop {
            let outcome = run(&session);
            if !session.drop_damaged()? {
                break outcome;
            }
        };
        obs::histogram!("xrefine_phase_algorithm_nanos").observe_duration(t2.elapsed());
        obs::histogram!("xrefine_query_nanos").observe_duration(started.elapsed());

        obs::counter!("invindex_scan_advances_total").add(outcome.advances);
        obs::counter!("invindex_random_accesses_total").add(outcome.random_accesses);
        obs::trace::count("scan.advances", outcome.advances);
        obs::trace::count("scan.random_accesses", outcome.random_accesses);
        Ok(outcome)
    }

    /// Answers a free-text query while capturing a per-query span tree
    /// (see [`obs::QueryTrace`]). The trace is returned alongside the
    /// outcome whether the query succeeded or failed — a failing query's
    /// trace shows how far it got.
    pub fn answer_traced(
        &self,
        query_text: &str,
    ) -> (Result<RefineOutcome, QueryFailure>, obs::QueryTrace) {
        let query = Query::parse(query_text);
        obs::trace::capture("query", || self.answer_query_detailed(query))
    }

    /// Explains how a refined query derives from `query_text`: the
    /// cheapest refinement sequence (Definition 3.6) reaching exactly
    /// `target`'s keyword set over the whole-document vocabulary.
    pub fn explain(
        &self,
        query_text: &str,
        target: &[String],
    ) -> Option<(f64, Vec<crate::dp::AppliedOp>)> {
        let query = Query::parse(query_text);
        let rules = self.rules_for(&query);
        let available = |w: &str| self.reader.contains_keyword(w);
        crate::dp::explain_rq(&query, &available, &rules, target)
    }

    /// Narrowing refinement for over-broad queries (the paper's §IX
    /// future work): `Ok(None)` when the query does not have "too many"
    /// meaningful results.
    pub fn narrow(
        &self,
        query_text: &str,
        options: &crate::narrow::NarrowOptions,
    ) -> kvstore::Result<Option<Vec<crate::narrow::Narrowing>>> {
        crate::narrow::narrow_refine(self.reader.as_ref(), &Query::parse(query_text), options)
    }

    /// Plain SLCA of the query with no refinement (the `stack-slca` /
    /// `scan-slca` baselines of Figure 4).
    pub fn baseline_slca(&self, query: &Query, method: SlcaMethod) -> kvstore::Result<Vec<Dewey>> {
        let slices: Vec<ListHandle> = query
            .keywords()
            .iter()
            .map(|k| self.reader.list_handle(k))
            .collect::<kvstore::Result<_>>()?;
        Ok(method(&slices))
    }

    /// Renders a result subtree back to XML (for display), decoding the
    /// record it falls in ([`KvBackedIndex::document_at`]): `None` when
    /// the label names no node, an error when the record's chunk cannot
    /// be read.
    pub fn render(&self, dewey: &Dewey) -> kvstore::Result<Option<String>> {
        let Some(doc) = self.reader.document_at(dewey)? else {
            return Ok(None);
        };
        Ok(doc.node_by_dewey(dewey).map(|id| doc.subtree_to_xml(id)))
    }
}

/// Keywords shown separated by spaces, formatted only when displayed: a
/// trace attribute costs nothing unless a capture is active.
struct SpaceJoined<'a>(&'a [String]);

impl std::fmt::Display for SpaceJoined<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, k) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            f.write_str(k)?;
        }
        Ok(())
    }
}

// The serving model is one engine behind an `Arc`, queried from many
// threads concurrently. If this assertion stops compiling, some engine
// component (reader, lexicon table, config) grew thread-unsafe state.
const _: () = {
    fn _assert_send_sync<T: Send + Sync>() {}
    fn _check() {
        _assert_send_sync::<XRefineEngine>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::fixtures::figure1;

    fn engine(algorithm: Algorithm) -> XRefineEngine {
        XRefineEngine::from_document(
            Arc::new(figure1()),
            EngineConfig {
                algorithm,
                k: 2,
                ..Default::default()
            },
        )
    }

    #[test]
    fn space_joined_displays_like_join() {
        for words in [&[][..], &["xml"], &["on", "line", "data", "base"]] {
            let owned: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            assert_eq!(SpaceJoined(&owned).to_string(), owned.join(" "));
        }
    }

    #[test]
    fn from_xml_end_to_end() {
        let e = XRefineEngine::from_xml(
            "<bib><author><name>Ann</name><hobby>chess</hobby></author></bib>",
            EngineConfig::default(),
        )
        .unwrap();
        let out = e.answer("ann chess").unwrap();
        assert!(out.original_ok);
        assert!(!out.best().unwrap().slcas.is_empty());
    }

    #[test]
    fn all_algorithms_answer_example1() {
        // {database, publication}: needs synonym substitution.
        for alg in [
            Algorithm::StackRefine,
            Algorithm::Partition,
            Algorithm::ShortListEager,
        ] {
            let e = engine(alg);
            let out = e.answer("database publication").unwrap();
            assert!(!out.original_ok, "{alg:?}");
            let best = out
                .best()
                .unwrap_or_else(|| panic!("{alg:?} found nothing"));
            assert!(best.candidate.dissimilarity > 0.0);
            assert!(!best.slcas.is_empty());
            // some top candidate repairs the missing term at dSim 1 while
            // keeping "database" (e.g. publication -> publications)
            if alg != Algorithm::StackRefine {
                assert!(
                    out.refinements.iter().any(|r| {
                        r.candidate.dissimilarity == 1.0
                            && r.candidate.keywords.contains(&"database".to_string())
                    }),
                    "{alg:?}: {:?}",
                    out.refinements
                        .iter()
                        .map(|r| &r.candidate.keywords)
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn generated_rules_cover_spelling_and_stemming() {
        let e = engine(Algorithm::Partition);
        let q = Query::parse("databse publication");
        let rules = e.rules_for(&q);
        assert!(rules
            .iter()
            .any(|(_, r)| r.lhs == ["databse"] && r.rhs == ["database"]));
        assert!(rules
            .iter()
            .any(|(_, r)| r.lhs == ["publication"] && r.rhs == ["publications"]));
    }

    #[test]
    fn baseline_slca_matches_direct_computation() {
        let e = engine(Algorithm::Partition);
        let q = Query::parse("xml john 2003");
        let got = e.baseline_slca(&q, slca::slca_scan_eager).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].to_string(), "0");
    }

    #[test]
    fn render_produces_xml_snippet() {
        let e = engine(Algorithm::Partition);
        let out = e.answer("john fishing").unwrap();
        let d = &out.best().unwrap().slcas[0];
        let xml = e.render(d).unwrap().unwrap();
        assert!(xml.contains("fishing") || xml.contains("John"));
        assert!(e.render(&"0.9.9".parse().unwrap()).unwrap().is_none());
    }

    #[test]
    fn every_constructor_answers_through_the_list_cache() {
        let xml = figure1().to_xml();
        let engines = [
            (
                "from_xml",
                XRefineEngine::from_xml(&xml, EngineConfig::default()).unwrap(),
            ),
            ("from_document", engine(Algorithm::Partition)),
            (
                "from_index",
                XRefineEngine::from_index(
                    Index::build(Arc::new(figure1())),
                    EngineConfig::default(),
                ),
            ),
        ];
        for (name, e) in engines {
            e.answer("database publication").unwrap();
            let stats = e.index().cache_stats();
            assert!(
                stats.is_some_and(|s| s.lists_decoded >= 1),
                "{name}: {stats:?}"
            );
        }
    }
}
