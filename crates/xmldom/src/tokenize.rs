//! Keyword tokenization.
//!
//! A keyword in the paper matches either a *tag name* or a *value term* in
//! the XML data (§III). This module defines the single tokenization used
//! everywhere — index build, query parsing and rule mining — so that the
//! three always agree on what a keyword is: lowercase alphanumeric runs.

/// Splits text into lowercase keyword tokens.
///
/// Tokens are maximal runs of alphanumeric characters; everything else is a
/// separator. Case is folded so queries match regardless of capitalization.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut scratch = String::new();
    for_each_token(text, &mut scratch, |tok| out.push(tok.to_string()));
    out
}

/// Visits each token of `text` as a borrowed slice of the reused
/// `scratch` buffer — the exact tokens of [`tokenize`], in order,
/// without a `String` allocation per token. This is the hot-path
/// variant the streaming index builder uses; `scratch` is left cleared.
pub fn for_each_token(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    scratch.clear();
    for ch in text.chars() {
        if ch.is_ascii() {
            // Fast path: corpora are overwhelmingly ASCII.
            if ch.is_ascii_alphanumeric() {
                scratch.push(ch.to_ascii_lowercase());
                continue;
            }
        } else if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                scratch.push(lc);
            }
            continue;
        }
        if !scratch.is_empty() {
            f(scratch);
            scratch.clear();
        }
    }
    if !scratch.is_empty() {
        f(scratch);
        scratch.clear();
    }
}

/// Tokenizes a whole keyword query string into its keyword list, preserving
/// order and duplicates (`{on, line, data, base}` has four keywords).
pub fn tokenize_query(query: &str) -> Vec<String> {
    tokenize(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumerics_and_lowercases() {
        assert_eq!(
            tokenize("Online Database-Tuning, 2003!"),
            ["online", "database", "tuning", "2003"]
        );
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ,,, !!!").is_empty());
    }

    #[test]
    fn unicode_casefolding() {
        assert_eq!(tokenize("Über-Straße"), ["über", "straße"]);
    }

    #[test]
    fn digits_are_keywords() {
        assert_eq!(tokenize("year: 2003"), ["year", "2003"]);
    }

    #[test]
    fn query_tokenization_preserves_duplicates_and_order() {
        assert_eq!(
            tokenize_query("on line data base on"),
            ["on", "line", "data", "base", "on"]
        );
    }
}
