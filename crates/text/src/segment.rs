//! Dictionary-based word segmentation by dynamic-programming max-matching.
//!
//! The paper (§7.2) generates distant-supervision training data by running a
//! "dynamic programming algorithm of max-matching" over unsegmented text with
//! the existing primitive-concept lexicon, keeping only sentences that match
//! *perfectly* (every word tagged by exactly one label). This module
//! implements that algorithm over character sequences; a perfect match is
//! a segmentation whose every segment is `in_lexicon`.

use alicoco_nn::util::FxHashSet;

/// A lexicon-driven segmenter.
///
/// Entries are strings; segmentation splits an unspaced character string into
/// lexicon entries, maximizing (a) characters covered by entries and
/// (b) preferring longer entries, via dynamic programming.
#[derive(Clone, Debug, Default)]
pub struct MaxMatchSegmenter {
    entries: FxHashSet<String>,
    max_len: usize,
}

/// One segment of a segmentation result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The surface text of the segment.
    pub text: String,
    /// Whether the segment is a lexicon entry (vs. an uncovered gap).
    pub in_lexicon: bool,
}

impl MaxMatchSegmenter {
    /// Create a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert.
    pub fn insert(&mut self, entry: &str) {
        if entry.is_empty() {
            return;
        }
        self.max_len = self.max_len.max(entry.chars().count());
        self.entries.insert(entry.to_string());
    }

    /// Contains.
    pub fn contains(&self, entry: &str) -> bool {
        self.entries.contains(entry)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Segment `text` (treated as a character sequence, no whitespace
    /// splitting) into lexicon entries and gap segments.
    ///
    /// DP objective: maximize covered characters; break ties toward fewer
    /// segments (i.e. prefer longer matches).
    pub fn segment(&self, text: &str) -> Vec<Segment> {
        let chars: Vec<char> = text.chars().collect();
        let n = chars.len();
        if n == 0 {
            return Vec::new();
        }
        // best[i]: (covered chars, -segments) achievable for prefix of len i.
        #[derive(Clone, Copy)]
        struct Cell {
            covered: usize,
            segs: usize,
            /// Back-pointer: (start, matched).
            back: (usize, bool),
        }
        let mut best: Vec<Option<Cell>> = vec![None; n + 1];
        best[0] = Some(Cell {
            covered: 0,
            segs: 0,
            back: (0, false),
        });
        let mut buf = String::new();
        for i in 0..n {
            let Some(cur) = best[i] else { continue };
            // Option 1: single uncovered char.
            let cand = Cell {
                covered: cur.covered,
                segs: cur.segs + 1,
                back: (i, false),
            };
            if better(&best[i + 1], &cand) {
                best[i + 1] = Some(cand);
            }
            // Option 2: lexicon entry starting at i.
            let max_j = (i + self.max_len).min(n);
            for j in (i + 1)..=max_j {
                buf.clear();
                buf.extend(&chars[i..j]);
                if self.entries.contains(buf.as_str()) {
                    let cand = Cell {
                        covered: cur.covered + (j - i),
                        segs: cur.segs + 1,
                        back: (i, true),
                    };
                    if better(&best[j], &cand) {
                        best[j] = Some(cand);
                    }
                }
            }
        }
        fn better(old: &Option<Cell>, new: &Cell) -> bool {
            match old {
                None => true,
                Some(o) => {
                    new.covered > o.covered || (new.covered == o.covered && new.segs < o.segs)
                }
            }
        }
        // Reconstruct.
        let mut out = Vec::new();
        let mut i = n;
        while i > 0 {
            let cell = best[i].expect("dp table hole");
            let (start, matched) = cell.back;
            let text: String = chars[start..i].iter().collect();
            out.push(Segment {
                text,
                in_lexicon: matched,
            });
            i = start;
        }
        out.reverse();
        // Merge adjacent gap segments into one.
        let mut merged: Vec<Segment> = Vec::with_capacity(out.len());
        for seg in out {
            match merged.last_mut() {
                Some(last) if !last.in_lexicon && !seg.in_lexicon => last.text.push_str(&seg.text),
                _ => merged.push(seg),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(entries: &[&str]) -> MaxMatchSegmenter {
        let mut s = MaxMatchSegmenter::new();
        for e in entries {
            s.insert(e);
        }
        s
    }

    #[test]
    fn empty_text_yields_nothing() {
        assert!(seg(&["a"]).segment("").is_empty());
    }

    #[test]
    fn prefers_longer_match() {
        let s = seg(&["out", "door", "outdoor"]);
        let r = s.segment("outdoor");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].text, "outdoor");
        assert!(r[0].in_lexicon);
    }

    #[test]
    fn maximizes_coverage_over_greedy() {
        // Greedy left-to-right would take "abc" then fail on "de"; DP finds
        // "ab" + "cde" covering everything.
        let s = seg(&["abc", "ab", "cde"]);
        let r = s.segment("abcde");
        let texts: Vec<&str> = r.iter().map(|x| x.text.as_str()).collect();
        assert_eq!(texts, vec!["ab", "cde"]);
    }

    #[test]
    fn gaps_are_merged() {
        let s = seg(&["warm", "hat"]);
        let r = s.segment("warmxxhat");
        assert_eq!(r.len(), 3);
        assert_eq!(r[1].text, "xx");
        assert!(!r[1].in_lexicon);
    }

    #[test]
    fn unicode_entries_segment_correctly() {
        let s = seg(&["牛仔裤", "红色"]);
        let r = s.segment("红色牛仔裤");
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].text, "红色");
        assert_eq!(r[1].text, "牛仔裤");
    }
}
