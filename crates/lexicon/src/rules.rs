//! Refinement rules (§III-B, Definition 3.5).
//!
//! A rule `S1 →op S2` rewrites the keyword sequence `S1` into `S2` under
//! one of the four refinement operations, carrying a dissimilarity score
//! `ds_r`. [`RuleSet`] indexes rules the way the dynamic program of §V
//! consumes them: by the *last* keyword of the left-hand side.

use std::collections::HashMap;
use std::fmt;

/// The four refinement operations of the paper (term deletion is the
/// implicit fifth: it needs no rule, only a cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefineOp {
    /// `on, line → online`
    Merge,
    /// `online → on, line`
    Split,
    /// spelling / synonym / acronym / stemming substitution
    Substitute,
}

impl fmt::Display for RefineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineOp::Merge => write!(f, "merge"),
            RefineOp::Split => write!(f, "split"),
            RefineOp::Substitute => write!(f, "substitute"),
        }
    }
}

/// Finer-grained provenance of a substitution rule (diagnostics and the
/// effectiveness experiments report these separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleSource {
    Merging,
    Splitting,
    Spelling,
    Synonym,
    Acronym,
    Stemming,
    Manual,
}

/// One refinement rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub lhs: Vec<String>,
    pub rhs: Vec<String>,
    pub op: RefineOp,
    pub source: RuleSource,
    /// `ds_r` of Definition 3.5.
    pub dissimilarity: f64,
}

impl Rule {
    pub fn new(
        lhs: &[&str],
        rhs: &[&str],
        op: RefineOp,
        source: RuleSource,
        dissimilarity: f64,
    ) -> Self {
        assert!(!lhs.is_empty() && !rhs.is_empty(), "rule sides non-empty");
        assert!(dissimilarity >= 0.0, "dissimilarity must be non-negative");
        Rule {
            lhs: lhs.iter().map(|s| s.to_string()).collect(),
            rhs: rhs.iter().map(|s| s.to_string()).collect(),
            op,
            source,
            dissimilarity,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -[{}]-> {} (ds={})",
            self.lhs.join(","),
            self.op,
            self.rhs.join(","),
            self.dissimilarity
        )
    }
}

/// Stable id of a rule within its [`RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleId(pub u32);

/// An indexed collection of refinement rules.
#[derive(Debug, Default, Clone)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// last LHS keyword -> rule ids (the DP's access pattern).
    by_lhs_last: HashMap<String, Vec<RuleId>>,
    /// Cost of deleting one term. The paper keeps this strictly greater
    /// than the other operations' scores (it changes meaning the most) and
    /// uses 2 in the experiments (§VIII).
    deletion_cost: f64,
}

impl RuleSet {
    pub fn new() -> Self {
        RuleSet {
            rules: Vec::new(),
            by_lhs_last: HashMap::new(),
            deletion_cost: 2.0,
        }
    }

    /// Sets the per-term deletion cost.
    pub fn with_deletion_cost(mut self, cost: f64) -> Self {
        assert!(cost > 0.0);
        self.deletion_cost = cost;
        self
    }

    pub fn deletion_cost(&self) -> f64 {
        self.deletion_cost
    }

    /// Adds a rule, deduplicating exact `(lhs, rhs)` pairs by keeping the
    /// cheaper score.
    pub fn add(&mut self, rule: Rule) -> RuleId {
        if let Some(&existing) = self
            .by_lhs_last
            .get(rule.lhs.last().expect("non-empty lhs"))
            .and_then(|ids| {
                ids.iter().find(|&&id| {
                    let r = &self.rules[id.0 as usize];
                    r.lhs == rule.lhs && r.rhs == rule.rhs
                })
            })
        {
            let r = &mut self.rules[existing.0 as usize];
            if rule.dissimilarity < r.dissimilarity {
                r.dissimilarity = rule.dissimilarity;
                r.op = rule.op;
                r.source = rule.source;
            }
            return existing;
        }
        let id = RuleId(self.rules.len() as u32);
        self.by_lhs_last
            .entry(rule.lhs.last().expect("non-empty lhs").clone())
            .or_default()
            .push(id);
        self.rules.push(rule);
        id
    }

    /// Keeps, for every keyword, the `cap` cheapest of the rules whose
    /// LHS ends with it — lowest dissimilarity first, ties broken by
    /// LHS and then RHS, so the choice never depends on the order the
    /// rules were added in — and drops the rest. The surviving rules keep
    /// their relative order; their ids are reassigned.
    pub(crate) fn cap_fan_out(&mut self, cap: usize) {
        let mut dropped = Vec::new();
        for ids in self.by_lhs_last.values().filter(|ids| ids.len() > cap) {
            let mut ranked = ids.clone();
            ranked.sort_by(|&a, &b| {
                let (a, b) = (self.get(a), self.get(b));
                a.dissimilarity
                    .total_cmp(&b.dissimilarity)
                    .then_with(|| a.lhs.cmp(&b.lhs))
                    .then_with(|| a.rhs.cmp(&b.rhs))
            });
            dropped.extend_from_slice(&ranked[cap..]);
        }
        if dropped.is_empty() {
            return;
        }
        let rules = std::mem::take(&mut self.rules);
        self.by_lhs_last.clear();
        for (i, rule) in rules.into_iter().enumerate() {
            if !dropped.contains(&RuleId(i as u32)) {
                self.add(rule);
            }
        }
    }

    pub fn get(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// Rules whose LHS ends with `keyword` — the lookup the recurrence of
    /// Formula 11 (option 3) performs at position `i`.
    pub fn rules_ending_with(&self, keyword: &str) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.by_lhs_last
            .get(keyword)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&id| (id, &self.rules[id.0 as usize]))
    }

    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| (RuleId(i as u32), r))
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Every keyword appearing on the right-hand side of any rule — the
    /// "new keywords" `getNewKeywords` adds to the key set `KS`
    /// (Algorithm 1 line 3).
    pub fn rhs_keywords(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .rules
            .iter()
            .flat_map(|r| r.rhs.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The sample rule set of the paper's Table II.
    pub fn table2() -> Self {
        let mut rs = RuleSet::new();
        rs.add(Rule::new(
            &["on", "line"],
            &["online"],
            RefineOp::Merge,
            RuleSource::Merging,
            1.0,
        ));
        rs.add(Rule::new(
            &["data", "base"],
            &["database"],
            RefineOp::Merge,
            RuleSource::Merging,
            1.0,
        ));
        rs.add(Rule::new(
            &["article"],
            &["inproceedings"],
            RefineOp::Substitute,
            RuleSource::Synonym,
            1.0,
        ));
        rs.add(Rule::new(
            &["learn", "ing"],
            &["learning"],
            RefineOp::Merge,
            RuleSource::Merging,
            1.0,
        ));
        rs.add(Rule::new(
            &["mecin"],
            &["machine"],
            RefineOp::Substitute,
            RuleSource::Spelling,
            2.0,
        ));
        rs.add(Rule::new(
            &["www"],
            &["world", "wide", "web"],
            RefineOp::Substitute,
            RuleSource::Acronym,
            1.0,
        ));
        rs.add(Rule::new(
            &["online"],
            &["on", "line"],
            RefineOp::Split,
            RuleSource::Splitting,
            1.0,
        ));
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_contents() {
        let rs = RuleSet::table2();
        assert_eq!(rs.len(), 7);
        assert_eq!(rs.deletion_cost(), 2.0);
        // deletion cost strictly greater than every merge/split score
        for (_, r) in rs.iter() {
            if r.op != RefineOp::Substitute {
                assert!(r.dissimilarity < rs.deletion_cost());
            }
        }
    }

    #[test]
    fn lookup_by_last_lhs_keyword() {
        let rs = RuleSet::table2();
        let hits: Vec<&Rule> = rs.rules_ending_with("line").map(|(_, r)| r).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rhs, vec!["online".to_string()]);
        assert_eq!(rs.rules_ending_with("nothing").count(), 0);
        // "base" ends the data,base merge rule
        assert_eq!(rs.rules_ending_with("base").count(), 1);
    }

    #[test]
    fn duplicate_rules_keep_cheapest() {
        let mut rs = RuleSet::new();
        rs.add(Rule::new(
            &["a"],
            &["b"],
            RefineOp::Substitute,
            RuleSource::Manual,
            3.0,
        ));
        let id = rs.add(Rule::new(
            &["a"],
            &["b"],
            RefineOp::Substitute,
            RuleSource::Spelling,
            1.0,
        ));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(id).dissimilarity, 1.0);
        assert_eq!(rs.get(id).source, RuleSource::Spelling);
    }

    #[test]
    fn rhs_keywords_are_deduped_and_sorted() {
        let rs = RuleSet::table2();
        let rhs = rs.rhs_keywords();
        assert!(rhs.contains(&"online".to_string()));
        assert!(rhs.contains(&"wide".to_string()));
        assert!(rhs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rule_side_panics() {
        Rule::new(&[], &["x"], RefineOp::Merge, RuleSource::Manual, 1.0);
    }
}
