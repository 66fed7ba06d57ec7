//! Figure 4: Top-1 refinement time per sample query, hot cache —
//! stack-refine vs SLE vs Partition, against the plain-SLCA baselines
//! stack-slca and scan-slca (which answer only the *original* query).
//!
//! Expected shape (paper §VIII-A): Partition <= SLE < stack-refine on
//! nearly all queries; Partition within ~1.3x of scan-slca; for queries
//! whose original SLCA degenerates to the root, Partition can even beat
//! the baselines.

use bench::{dblp, engine, f3, time_ms, time_ms_over, Table};
use datagen::{generate_workload, PerturbKind, WorkloadConfig};
use xrefine::{Algorithm, Query};

fn main() {
    let doc = dblp(1.0);
    let workload = generate_workload(
        &doc,
        &WorkloadConfig {
            per_kind: 2,
            ..Default::default()
        },
    );
    let mut e = engine(doc, Algorithm::Partition, 1);
    let reps = 3;
    // The overhead line divides the scan-slca and Partition averages, and
    // scan-slca answers in well under a microsecond: both are timed over
    // at least this long a query, so the ratio compares from run to run.
    let ratio_ms = 1.0;

    let mut t = Table::new(&[
        "query",
        "kind",
        "stack-slca",
        "scan-slca",
        "stack-refine",
        "SLE",
        "Partition",
        "results",
    ]);

    let mut totals = [0.0f64; 5];
    let mut n = 0usize;
    for wq in &workload {
        if wq.kind == PerturbKind::None && n % 2 == 1 {
            continue; // keep the variety queries but not all of them
        }
        let q = Query::from_keywords(wq.keywords.iter().cloned());

        let t_stack_slca = time_ms(
            || {
                std::hint::black_box(
                    e.baseline_slca(&q, slca::slca_stack)
                        .expect("slca computed"),
                );
            },
            reps,
        );
        let t_scan_slca = time_ms_over(
            || {
                std::hint::black_box(
                    e.baseline_slca(&q, slca::slca_scan_eager)
                        .expect("slca computed"),
                );
            },
            ratio_ms,
        );

        e.config_mut().algorithm = Algorithm::StackRefine;
        let t_stack_refine = time_ms(
            || {
                std::hint::black_box(e.answer_query(q.clone()).expect("query answered"));
            },
            reps,
        );
        e.config_mut().algorithm = Algorithm::ShortListEager;
        let t_sle = time_ms(
            || {
                std::hint::black_box(e.answer_query(q.clone()).expect("query answered"));
            },
            reps,
        );
        e.config_mut().algorithm = Algorithm::Partition;
        let t_partition = time_ms_over(
            || {
                std::hint::black_box(e.answer_query(q.clone()).expect("query answered"));
            },
            ratio_ms,
        );
        let out = e.answer_query(q.clone()).expect("query answered");
        let results: usize = out.refinements.iter().map(|r| r.slcas.len()).sum();

        for (acc, v) in totals.iter_mut().zip([
            t_stack_slca,
            t_scan_slca,
            t_stack_refine,
            t_sle,
            t_partition,
        ]) {
            *acc += v;
        }
        n += 1;

        t.row(vec![
            wq.keywords.join(","),
            format!("{:?}", wq.kind),
            f3(t_stack_slca),
            f3(t_scan_slca),
            f3(t_stack_refine),
            f3(t_sle),
            f3(t_partition),
            format!("{results}"),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        "-".into(),
        f3(totals[0] / n as f64),
        f3(totals[1] / n as f64),
        f3(totals[2] / n as f64),
        f3(totals[3] / n as f64),
        f3(totals[4] / n as f64),
        "-".into(),
    ]);
    t.print();

    println!(
        "\nall times in ms (hot cache; scan-slca and Partition the mean of runs \
         taking at least {ratio_ms} ms a query, the rest of {reps} runs)"
    );
    println!(
        "Partition / scan-slca average overhead: {:.2}x (paper reports ~1.3x)",
        (totals[4] / n as f64) / (totals[1] / n as f64)
    );
}
