//! Benchmark inputs: corpora, the query pool with its oracle, the
//! request cycle and the update fragments. Each is a pure function of
//! the seeds it is given.

use std::fmt::Write as _;
use std::path::Path;

use datagen::{generate_dblp, generate_workload, DblpConfig, WorkloadConfig, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmldom::Document;

use crate::consts::{CYCLE_SEED, POOL_SEED, ZIPF_S};

pub fn corpus(authors: usize, seed: u64) -> Document {
    generate_dblp(&DblpConfig {
        authors,
        seed,
        ..Default::default()
    })
}

/// One pool query and the body the server must answer it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolQuery {
    /// `PerturbKind` in lower case: `none` is a clean query, the other
    /// six are the paper's broken classes (Tables 3–6).
    pub kind: String,
    /// Keywords joined by one space: the `q` parameter before encoding.
    pub text: String,
    /// FNV-1a of the expected `200` body.
    pub body_hash: u64,
}

/// The query pool over `doc`, in popularity order (rank 0 is requested
/// most): `generate_workload` emits kind by kind, so the pool is
/// shuffled once, by the frozen pool seed, to spread the kinds over the
/// ranks. `body_hash` is left 0 for the oracle to fill.
pub fn pool(doc: &Document, per_kind: usize) -> Vec<PoolQuery> {
    let mut queries: Vec<PoolQuery> = generate_workload(
        doc,
        &WorkloadConfig {
            per_kind,
            seed: POOL_SEED,
            ..Default::default()
        },
    )
    .into_iter()
    .map(|q| PoolQuery {
        kind: format!("{:?}", q.kind).to_lowercase(),
        text: q.keywords.join(" "),
        body_hash: 0,
    })
    .collect();
    shuffle(&mut queries, &mut StdRng::seed_from_u64(POOL_SEED));
    queries
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The multiset of pool ranks one round requests: `cycle_len` draws from
/// Zipf(`ZIPF_S`) over the pool, drawn once with a frozen seed so that
/// every round of every run asks for the same queries the same number
/// of times. Only the order is the run's own.
pub fn cycle(pool_len: usize, cycle_len: usize) -> Vec<usize> {
    let zipf = Zipf::new(pool_len, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(CYCLE_SEED);
    (0..cycle_len).map(|_| zipf.sample(&mut rng)).collect()
}

/// The pool ranks a run can ask for, ascending: those of the cycle, and
/// the head of the pool that the parity pass and the live workloads'
/// end check use. The rest of the pool is never sent, so the oracle
/// does not answer it and the warm-up does not ask it.
pub fn asked_ranks(cycle: &[usize], pool_len: usize) -> Vec<usize> {
    let head = crate::consts::END_CHECK_QUERIES
        .max(crate::consts::PARITY_QUERIES)
        .min(pool_len);
    let mut ranks: Vec<usize> = cycle.iter().copied().chain(0..head).collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// Request order of every round of a run seeded `seed`. The rounds of a
/// run repeat one order, so that request `i` of each round is the same
/// query meeting the same list cache, and its times over the rounds are
/// repeated measurements of one quantity (`common::round_stats`).
pub fn run_order(cycle: &[usize], seed: u64) -> Vec<usize> {
    let mut order = cycle.to_vec();
    shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
    order
}

/// `<author>` subtrees for `op=add`, cut from a second corpus whose seed
/// is derived from the run's, so no fragment equals a stored record.
pub fn fragments(seed: u64, authors: usize) -> Vec<String> {
    let doc = corpus(authors, !seed);
    doc.node(doc.root())
        .children
        .iter()
        .map(|&child| doc.subtree_to_xml(child))
        .collect()
}

pub fn write_pool(path: &Path, pool: &[PoolQuery]) -> std::io::Result<()> {
    let mut out = String::new();
    for q in pool {
        let _ = writeln!(out, "{}\t{}\t{:016x}", q.kind, q.text, q.body_hash);
    }
    std::fs::write(path, out)
}

pub fn read_pool(path: &Path) -> Result<Vec<PoolQuery>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut cols = line.split('\t');
            match (cols.next(), cols.next(), cols.next()) {
                (Some(kind), Some(text), Some(hash)) => Ok(PoolQuery {
                    kind: kind.to_string(),
                    text: text.to_string(),
                    body_hash: u64::from_str_radix(hash, 16)
                        .map_err(|e| format!("{}: bad hash {hash:?}: {e}", path.display()))?,
                }),
                _ => Err(format!("{}: malformed line {line:?}", path.display())),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::SMOKE;

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        let doc = corpus(SMOKE.corpus_m_authors, 7);
        let pool_a = pool(&doc, SMOKE.pool_per_kind);
        assert_eq!(
            pool_a,
            pool(&corpus(SMOKE.corpus_m_authors, 7), SMOKE.pool_per_kind)
        );
        assert!(!pool_a.is_empty());
        let cycle_a = cycle(pool_a.len(), SMOKE.cycle_len);
        assert_eq!(cycle_a, cycle(pool_a.len(), SMOKE.cycle_len));
        assert_eq!(cycle_a.len(), SMOKE.cycle_len);

        let order = run_order(&cycle_a, 42);
        assert_eq!(order, run_order(&cycle_a, 42));
        assert_ne!(order, run_order(&cycle_a, 43), "seed must reach the order");
        // A run reorders the cycle; it never changes what is asked.
        let (mut sorted_order, mut sorted_cycle) = (order, cycle_a);
        sorted_order.sort_unstable();
        sorted_cycle.sort_unstable();
        assert_eq!(sorted_order, sorted_cycle);
    }

    #[test]
    fn update_fragments_are_a_pure_function_of_the_seed() {
        let a = fragments(5, SMOKE.fragment_authors);
        assert_eq!(a, fragments(5, SMOKE.fragment_authors));
        assert_ne!(a, fragments(6, SMOKE.fragment_authors));
        assert_eq!(a.len(), SMOKE.fragment_authors);
        assert!(
            a.iter().all(|f| f.starts_with("<author>")),
            "{:?}",
            a.first()
        );
    }

    #[test]
    fn pool_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("bench_e2e_pool_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("queries.tsv");
        let pool = vec![
            PoolQuery {
                kind: "none".into(),
                text: "xml search".into(),
                body_hash: 0xdead_beef,
            },
            PoolQuery {
                kind: "typo".into(),
                text: "databse".into(),
                body_hash: u64::MAX,
            },
        ];
        write_pool(&path, &pool).unwrap();
        assert_eq!(read_pool(&path).unwrap(), pool);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
