//! Synthetic DBLP-like bibliography generator.
//!
//! Reproduces the structural properties the paper's experiments depend
//! on: a shallow, wide `bib/author/...` tree whose partitions are author
//! subtrees, heterogeneous publication containers (`publications` vs
//! `proceedings`), Zipf-skewed title vocabulary, and years/venues as
//! separate leaf elements. Scale is a single knob (`authors`) so the
//! Figure 6 data-size sweep is a loop over fractions of it.

use crate::vocab;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmldom::{Document, DocumentBuilder};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of author subtrees (document partitions).
    pub authors: usize,
    /// Publications per author, inclusive range.
    pub pubs_min: usize,
    pub pubs_max: usize,
    /// Title length range (words).
    pub title_min: usize,
    pub title_max: usize,
    /// Zipf exponent for title terms.
    pub zipf_s: f64,
    /// RNG seed (all output is deterministic under it).
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            authors: 200,
            pubs_min: 1,
            pubs_max: 8,
            title_min: 3,
            title_max: 7,
            zipf_s: 1.05,
            seed: 0xD8B1,
        }
    }
}

impl DblpConfig {
    /// A copy scaled to `fraction` of the authors (Figure 6's 20%–100%).
    pub fn scaled(&self, fraction: f64) -> Self {
        let mut c = self.clone();
        c.authors = ((self.authors as f64) * fraction).round().max(1.0) as usize;
        c
    }
}

/// Generates the document; `generate_dblp(c).to_xml()` is its XML.
pub fn generate_dblp(config: &DblpConfig) -> Document {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(vocab::TITLE_TERMS.len(), config.zipf_s);
    let mut b = DocumentBuilder::new();
    b.open_element("bib");

    for a in 0..config.authors {
        b.open_element("author");
        let first = vocab::FIRST_NAMES[rng.random_range(0..vocab::FIRST_NAMES.len())];
        let last = vocab::LAST_NAMES[rng.random_range(0..vocab::LAST_NAMES.len())];
        b.leaf("name", &format!("{first} {last}"));
        if rng.random_bool(0.4) {
            let interest = vocab::INTERESTS[rng.random_range(0..vocab::INTERESTS.len())];
            b.leaf("interest", interest);
        }
        // Heterogeneous container tag, as in Figure 1 / Example 1.
        let container = if a % 7 == 3 {
            "proceedings"
        } else {
            "publications"
        };
        b.open_element(container);
        let n_pubs = rng.random_range(config.pubs_min..=config.pubs_max);
        for _ in 0..n_pubs {
            let is_article = rng.random_bool(0.3);
            b.open_element(if is_article {
                "article"
            } else {
                "inproceedings"
            });
            let len = rng.random_range(config.title_min..=config.title_max);
            let mut title = String::new();
            for w in 0..len {
                if w > 0 {
                    title.push(' ');
                }
                title.push_str(vocab::TITLE_TERMS[zipf.sample(&mut rng)]);
            }
            b.leaf("title", &title);
            b.leaf("year", &format!("{}", rng.random_range(1995..=2008)));
            if is_article {
                let j = vocab::JOURNALS[rng.random_range(0..vocab::JOURNALS.len())];
                b.leaf("journal", j);
            } else {
                let v = vocab::VENUES[rng.random_range(0..vocab::VENUES.len())];
                b.leaf("booktitle", v);
            }
            if rng.random_bool(0.2) {
                b.leaf(
                    "pages",
                    &format!(
                        "{}-{}",
                        rng.random_range(1..400),
                        rng.random_range(400..800)
                    ),
                );
            }
            b.close_element();
        }
        b.close_element(); // container
        if rng.random_bool(0.15) {
            b.leaf(
                "hobby",
                ["fishing", "chess", "hiking", "painting"][rng.random_range(0..4)],
            );
        }
        b.close_element(); // author
    }

    b.close_element();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::tokenize;

    #[test]
    fn deterministic_under_seed() {
        let c = DblpConfig {
            authors: 20,
            ..Default::default()
        };
        let a = generate_dblp(&c);
        let b = generate_dblp(&c);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.to_xml(), b.to_xml());
    }

    #[test]
    fn structure_is_bibliographic() {
        let doc = generate_dblp(&DblpConfig {
            authors: 30,
            ..Default::default()
        });
        let root = doc.root();
        assert_eq!(doc.tag_name(root), "bib");
        assert_eq!(doc.node(root).children.len(), 30);
        // every partition is an author
        for &c in &doc.node(root).children {
            assert_eq!(doc.tag_name(c), "author");
        }
        // heterogeneous containers exist
        let tags: std::collections::HashSet<&str> =
            doc.nodes().map(|(id, _)| doc.tag_name(id)).collect();
        assert!(tags.contains("publications"));
        assert!(tags.contains("proceedings"));
        assert!(tags.contains("inproceedings"));
        assert!(tags.contains("title"));
    }

    #[test]
    fn scaled_config_shrinks_authors() {
        let c = DblpConfig {
            authors: 100,
            ..Default::default()
        };
        assert_eq!(c.scaled(0.2).authors, 20);
        assert_eq!(c.scaled(1.0).authors, 100);
        assert_eq!(c.scaled(0.001).authors, 1); // never zero
    }

    #[test]
    fn titles_are_zipf_skewed() {
        let doc = generate_dblp(&DblpConfig {
            authors: 300,
            ..Default::default()
        });
        let mut counts = std::collections::HashMap::new();
        for (_, n) in doc.nodes() {
            for t in tokenize(&n.text) {
                *counts.entry(t).or_insert(0usize) += 1;
            }
        }
        // the head term must dwarf a mid-rank term
        let head = counts.get("data").copied().unwrap_or(0);
        let mid = counts.get("neighbor").copied().unwrap_or(0);
        assert!(head > mid.max(1) * 3, "head={head} mid={mid}");
    }

    #[test]
    fn parses_back_from_rendered_xml() {
        let doc = generate_dblp(&DblpConfig {
            authors: 5,
            ..Default::default()
        });
        let xml = doc.to_xml();
        let doc2 = xmldom::parse_document(&xml).unwrap();
        assert_eq!(doc.len(), doc2.len());
    }
}
