//! Keyword queries and refined-query candidates.

use std::fmt;
use xmldom::tokenize_query;

/// A keyword query: an ordered list of keywords (order matters for the
/// merge/split/acronym rules, which apply to *adjacent* terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    keywords: Vec<String>,
}

impl Query {
    /// Parses free text into a query with the same tokenizer the index
    /// uses.
    pub fn parse(text: &str) -> Self {
        Query {
            keywords: tokenize_query(text),
        }
    }

    pub fn from_keywords<I: IntoIterator<Item = S>, S: Into<String>>(words: I) -> Self {
        Query {
            keywords: words.into_iter().map(Into::into).collect(),
        }
    }

    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.keywords.join(", "))
    }
}

/// A refined-query candidate: the keyword set plus its dissimilarity
/// `dSim(Q, RQ)` (Definition 3.6).
#[derive(Debug, Clone, PartialEq)]
pub struct RqCandidate {
    /// Canonical (sorted, deduplicated) keyword set.
    pub keywords: Vec<String>,
    pub dissimilarity: f64,
}

impl RqCandidate {
    pub fn new(mut keywords: Vec<String>, dissimilarity: f64) -> Self {
        keywords.sort();
        keywords.dedup();
        RqCandidate {
            keywords,
            dissimilarity,
        }
    }
}

impl fmt::Display for RqCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}} (dSim={})",
            self.keywords.join(", "),
            self.dissimilarity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_matches_index_tokenizer() {
        let q = Query::parse("On-Line  DATA base!");
        assert_eq!(q.keywords(), ["on", "line", "data", "base"]);
        assert_eq!(q.to_string(), "{on, line, data, base}");
        assert!(Query::parse("  ").is_empty());
    }

    #[test]
    fn candidate_canonicalizes() {
        let a = RqCandidate::new(vec!["b".to_string(), "a".to_string(), "b".to_string()], 1.0);
        assert_eq!(a.keywords, ["a", "b"]);
        let b = RqCandidate::new(vec!["a".to_string(), "b".to_string()], 2.0);
        assert_eq!(a.keywords, b.keywords);
    }
}
