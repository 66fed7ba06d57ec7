//! Ablation: the *meaningful SLCA* notion (Definitions 3.3/3.4) and the
//! reduction factor `r` of Formula 1.
//!
//! Plain SLCA declares a query fine whenever *any* SLCA exists — even the
//! document root. Meaningful SLCA requires results under an inferred
//! search-for node. This experiment measures how often each notion
//! correctly decides "needs refinement" on the perturbed workload (where
//! ground truth is known by construction), and sweeps `r`.

use bench::{dblp, f3, Table};
use datagen::{generate_workload, PerturbKind, WorkloadConfig};
use invindex::{Index, IndexReader, KvBackedIndex, ListHandle};
use slca::{needs_refinement, slca_scan_eager, MeaningfulFilter, SearchForConfig};
use std::sync::Arc;
use xrefine::Query;

fn main() {
    let doc = dblp(0.25);
    let index = KvBackedIndex::from_built(Index::build(Arc::clone(&doc)));
    let workload = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 15,
            ..Default::default()
        },
    );

    // Ground truth: ExtraTerm queries are over-constrained (should be
    // flagged), None queries are fine (should not), keyword-breaking
    // perturbations always need refinement (their SLCA is empty anyway,
    // both notions agree) — so the interesting discriminator is
    // ExtraTerm-vs-None.
    let pool: Vec<_> = workload
        .iter()
        .filter(|q| matches!(q.kind, PerturbKind::None | PerturbKind::ExtraTerm))
        .collect();

    let mut t = Table::new(&[
        "detector",
        "flagged ExtraTerm (recall)",
        "flagged None (false alarms)",
    ]);

    // plain SLCA: needs refinement iff the SLCA set is empty
    let mut flagged_extra = 0;
    let mut flagged_none = 0;
    let (mut n_extra, mut n_none) = (0, 0);
    for wq in &pool {
        let q = Query::from_keywords(wq.keywords.iter().cloned());
        let lists: Vec<ListHandle> = q
            .keywords()
            .iter()
            .map(|k| index.list_handle(k).expect("an in-memory store reads"))
            .collect();
        let slcas = slca_scan_eager(&lists);
        let flagged = slcas.is_empty();
        match wq.kind {
            PerturbKind::ExtraTerm => {
                n_extra += 1;
                flagged_extra += usize::from(flagged);
            }
            _ => {
                n_none += 1;
                flagged_none += usize::from(flagged);
            }
        }
    }
    t.row(vec![
        "plain SLCA (no filter)".into(),
        format!("{flagged_extra}/{n_extra}"),
        format!("{flagged_none}/{n_none}"),
    ]);

    // meaningful SLCA across reduction factors
    for r in [0.5, 0.8, 0.95] {
        let config = SearchForConfig {
            reduction_factor: r,
            ..Default::default()
        };
        let mut flagged_extra = 0;
        let mut flagged_none = 0;
        for wq in &pool {
            let q = Query::from_keywords(wq.keywords.iter().cloned());
            let ids: Vec<_> = q
                .keywords()
                .iter()
                .filter_map(|k| index.vocabulary().get(k))
                .collect();
            let filter = MeaningfulFilter::infer(index.document(), index.stats(), &ids, &config);
            let lists: Vec<ListHandle> = q
                .keywords()
                .iter()
                .map(|k| index.list_handle(k).expect("an in-memory store reads"))
                .collect();
            let slcas = slca_scan_eager(&lists);
            let flagged = needs_refinement(&filter, &slcas);
            match wq.kind {
                PerturbKind::ExtraTerm => flagged_extra += usize::from(flagged),
                _ => flagged_none += usize::from(flagged),
            }
        }
        t.row(vec![
            format!("meaningful SLCA (r = {})", f3(r)),
            format!("{flagged_extra}/{n_extra}"),
            format!("{flagged_none}/{n_none}"),
        ]);
    }

    println!("== Ablation: meaningful SLCA vs plain SLCA as the refinement trigger ==\n");
    t.print();
    println!(
        "\nExtraTerm queries add an off-topic keyword (their joint cover is \
         usually the root); None queries are valid. Plain SLCA cannot flag \
         root-only covers at all."
    );
}
