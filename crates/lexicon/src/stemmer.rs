//! The Porter stemming algorithm (Porter, 1980), implemented from the
//! original paper's rule tables. Used for the *word stemming* flavour of
//! term substitution (§III-B, e.g. `match ↔ matching`,
//! `publication ↔ publications`): two words are stem-equivalent when they
//! stem to the same string.

/// Stems an ASCII lowercase word. Non-ASCII or very short inputs are
/// returned unchanged (the standard Porter convention for words of length
/// <= 2).
pub fn porter_stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_string();
    }
    let mut w: Vec<u8> = word.bytes().collect();
    step1a(&mut w);
    step1b(&mut w);
    step1c(&mut w);
    step2(&mut w);
    step3(&mut w);
    step4(&mut w);
    step5a(&mut w);
    step5b(&mut w);
    String::from_utf8(w).expect("ascii in, ascii out")
}

fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_consonant(w, i - 1),
        _ => true,
    }
}

/// The *measure* m of the stem `w[..len]`: the number of VC sequences.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // skip initial consonants
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // skip vowels
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        m += 1;
        // skip consonants
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
    }
}

fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// *o: stem ends cvc where the last c is not w, x or y.
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

fn ends_double_consonant(w: &[u8]) -> bool {
    let n = w.len();
    n >= 2 && w[n - 1] == w[n - 2] && is_consonant(w, n - 1)
}

fn ends_with(w: &[u8], suffix: &[u8]) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix
}

/// If `w` ends with `suffix` and `measure(stem) > min_m`, replace the
/// suffix with `replacement` and return true.
fn replace_if_m(w: &mut Vec<u8>, suffix: &[u8], replacement: &[u8], min_m: usize) -> bool {
    if !ends_with(w, suffix) {
        return false;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w, stem_len) > min_m {
        w.truncate(stem_len);
        w.extend_from_slice(replacement);
        true
    } else {
        false
    }
}

fn step1a(w: &mut Vec<u8>) {
    if ends_with(w, b"sses") || ends_with(w, b"ies") {
        w.truncate(w.len() - 2);
    } else if ends_with(w, b"ss") {
        // unchanged
    } else if ends_with(w, b"s") {
        w.truncate(w.len() - 1);
    }
}

fn step1b(w: &mut Vec<u8>) {
    if ends_with(w, b"eed") {
        if measure(w, w.len() - 3) > 0 {
            w.truncate(w.len() - 1);
        }
        return;
    }
    let trimmed = if ends_with(w, b"ed") && has_vowel(w, w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else if ends_with(w, b"ing") && has_vowel(w, w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else {
        false
    };
    if trimmed {
        if ends_with(w, b"at") || ends_with(w, b"bl") || ends_with(w, b"iz") {
            w.push(b'e');
        } else if ends_double_consonant(w) && !matches!(w[w.len() - 1], b'l' | b's' | b'z') {
            w.truncate(w.len() - 1);
        } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
            w.push(b'e');
        }
    }
}

fn step1c(w: &mut [u8]) {
    if ends_with(w, b"y") && has_vowel(w, w.len() - 1) {
        let n = w.len();
        w[n - 1] = b'i';
    }
}

fn step2(w: &mut Vec<u8>) {
    const RULES: &[(&[u8], &[u8])] = &[
        (b"ational", b"ate"),
        (b"tional", b"tion"),
        (b"enci", b"ence"),
        (b"anci", b"ance"),
        (b"izer", b"ize"),
        (b"abli", b"able"),
        (b"alli", b"al"),
        (b"entli", b"ent"),
        (b"eli", b"e"),
        (b"ousli", b"ous"),
        (b"ization", b"ize"),
        (b"ation", b"ate"),
        (b"ator", b"ate"),
        (b"alism", b"al"),
        (b"iveness", b"ive"),
        (b"fulness", b"ful"),
        (b"ousness", b"ous"),
        (b"aliti", b"al"),
        (b"iviti", b"ive"),
        (b"biliti", b"ble"),
    ];
    for (suffix, repl) in RULES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, repl, 0);
            return;
        }
    }
}

fn step3(w: &mut Vec<u8>) {
    const RULES: &[(&[u8], &[u8])] = &[
        (b"icate", b"ic"),
        (b"ative", b""),
        (b"alize", b"al"),
        (b"iciti", b"ic"),
        (b"ical", b"ic"),
        (b"ful", b""),
        (b"ness", b""),
    ];
    for (suffix, repl) in RULES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, repl, 0);
            return;
        }
    }
}

fn step4(w: &mut Vec<u8>) {
    const SUFFIXES: &[&[u8]] = &[
        b"al", b"ance", b"ence", b"er", b"ic", b"able", b"ible", b"ant", b"ement", b"ment", b"ent",
        b"ou", b"ism", b"ate", b"iti", b"ous", b"ive", b"ize",
    ];
    // special case: (m>1) and ends sion/tion -> drop "ion"
    if ends_with(w, b"ion") {
        let stem_len = w.len() - 3;
        if stem_len > 0 && matches!(w[stem_len - 1], b's' | b't') && measure(w, stem_len) > 1 {
            w.truncate(stem_len);
        }
        return;
    }
    for suffix in SUFFIXES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, b"", 1);
            return;
        }
    }
}

fn step5a(w: &mut Vec<u8>) {
    if ends_with(w, b"e") {
        let stem_len = w.len() - 1;
        let m = measure(w, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w, stem_len)) {
            w.truncate(stem_len);
        }
    }
}

fn step5b(w: &mut Vec<u8>) {
    if measure(w, w.len()) > 1 && ends_double_consonant(w) && w[w.len() - 1] == b'l' {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_porter_examples() {
        // Examples from Porter's paper.
        assert_eq!(porter_stem("caresses"), "caress");
        assert_eq!(porter_stem("ponies"), "poni");
        assert_eq!(porter_stem("caress"), "caress");
        assert_eq!(porter_stem("cats"), "cat");
        assert_eq!(porter_stem("agreed"), "agre");
        assert_eq!(porter_stem("plastered"), "plaster");
        assert_eq!(porter_stem("motoring"), "motor");
        assert_eq!(porter_stem("sing"), "sing");
        assert_eq!(porter_stem("conflated"), "conflat");
        assert_eq!(porter_stem("troubled"), "troubl");
        assert_eq!(porter_stem("sized"), "size");
        assert_eq!(porter_stem("hopping"), "hop");
        assert_eq!(porter_stem("falling"), "fall");
        assert_eq!(porter_stem("hissing"), "hiss");
        assert_eq!(porter_stem("fizzed"), "fizz");
        assert_eq!(porter_stem("failing"), "fail");
        assert_eq!(porter_stem("filing"), "file");
        assert_eq!(porter_stem("happy"), "happi");
        assert_eq!(porter_stem("sky"), "sky");
        assert_eq!(porter_stem("relational"), "relat");
        assert_eq!(porter_stem("rational"), "ration");
        assert_eq!(porter_stem("digitizer"), "digit");
        assert_eq!(porter_stem("triplicate"), "triplic");
        assert_eq!(porter_stem("formative"), "form");
        assert_eq!(porter_stem("formalize"), "formal");
        assert_eq!(porter_stem("hopefulness"), "hope");
        assert_eq!(porter_stem("revival"), "reviv");
        assert_eq!(porter_stem("allowance"), "allow");
        assert_eq!(porter_stem("inference"), "infer");
        assert_eq!(porter_stem("adjustment"), "adjust");
        assert_eq!(porter_stem("probate"), "probat");
        assert_eq!(porter_stem("rate"), "rate");
        assert_eq!(porter_stem("cease"), "ceas");
        assert_eq!(porter_stem("controll"), "control");
        assert_eq!(porter_stem("roll"), "roll");
    }

    #[test]
    fn bibliographic_pairs_share_stems() {
        // The pairs the paper's refinement rules rely on.
        let same_stem = |a: &str, b: &str| porter_stem(a) == porter_stem(b);
        assert!(same_stem("publication", "publications"));
        assert!(same_stem("match", "matching"));
        assert!(same_stem("matching", "matches"));
        assert!(same_stem("query", "queries"));
        assert!(same_stem("index", "indexes"));
        assert!(!same_stem("database", "databank"));
    }

    #[test]
    fn short_and_non_ascii_words_pass_through() {
        assert_eq!(porter_stem("a"), "a");
        assert_eq!(porter_stem("is"), "is");
        assert_eq!(porter_stem("café"), "café");
        assert_eq!(porter_stem("XML"), "XML"); // uppercase untouched
        assert_eq!(porter_stem("2003"), "2003");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in [
            "database",
            "keyword",
            "search",
            "efficient",
            "skyline",
            "computation",
            "proceedings",
        ] {
            let once = porter_stem(w);
            let twice = porter_stem(&once);
            // Porter is not idempotent in general, but for this fixed word
            // list (used by the thesaurus) it must be stable.
            assert_eq!(twice, porter_stem(&twice), "{w}");
        }
    }
}
