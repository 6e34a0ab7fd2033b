//! Deterministic JSON rendering for route responses.
//!
//! The AL005 discipline applied to the wire: object keys are emitted in
//! a fixed alphabetical order, all numbers go through one formatter, and
//! nothing iterates a hash map — so the same engine answer always
//! renders to the same bytes (the property suite asserts this). Numbers
//! are written straight into the body, never through a `String` of their
//! own, and so are strings: the engines' answers borrow names and titles
//! from the net, and each is escaped as it is written into one body
//! buffer reserved for the page up front.

use std::fmt::Write;

use alicoco::{AliCoCo, ItemId};
use alicoco_apps::qa::Answer;
use alicoco_apps::recommend::Recommendation;
use alicoco_apps::search::ConceptCard;
use alicoco_obs::json::{push_escaped, push_string};

/// One formatter for every float on the wire; non-finite becomes `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Bytes reserved per item pair, `[id,weight],`: a seven-digit id and a
/// widened `f32` weight fit. A reserve, not a bound — a longer body grows.
const ITEM_RESERVE: usize = 32;

/// `[[id,weight],…]`
fn push_items(o: &mut String, items: &[(ItemId, f32)]) {
    o.push('[');
    for (j, (item, w)) in items.iter().enumerate() {
        if j > 0 {
            o.push(',');
        }
        o.push('[');
        let _ = write!(o, "{}", item.index());
        o.push(',');
        push_f64(o, f64::from(*w));
        o.push(']');
    }
    o.push(']');
}

/// `tokens` space-joined as one quoted JSON string, escaped in place.
fn push_joined(o: &mut String, tokens: &[String]) {
    o.push('"');
    for (j, token) in tokens.iter().enumerate() {
        if j > 0 {
            o.push(' ');
        }
        push_escaped(o, token);
    }
    o.push('"');
}

/// `{"cards":[{"concept":…,"interpretation":[[domain,surface],…],
/// "items":[[id,weight],…],"name":…,"score":…},…]}` — names and
/// interpretation pairs are read from the net as they are written, into
/// a body sized for the page up front.
pub fn render_search(cards: &[ConceptCard]) -> String {
    let reserve: usize = cards
        .iter()
        .map(|c| 128 + c.name.len() + 64 * c.primitives.len() + ITEM_RESERVE * c.items.len())
        .sum();
    let mut o = String::with_capacity(16 + reserve);
    o.push_str("{\"cards\":[");
    for (i, card) in cards.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"concept\":");
        let _ = write!(o, "{}", card.concept.index());
        o.push_str(",\"interpretation\":[");
        for (j, (domain, surface)) in card.interpretation().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push('[');
            push_string(&mut o, domain);
            o.push(',');
            push_string(&mut o, surface);
            o.push(']');
        }
        o.push_str("],\"items\":");
        push_items(&mut o, &card.items);
        o.push_str(",\"name\":");
        push_string(&mut o, card.name);
        o.push_str(",\"score\":");
        push_f64(&mut o, card.score);
        o.push('}');
    }
    o.push_str("]}");
    o
}

/// `{"answer":null}` or `{"answer":{"checklist":[{"confidence":…,
/// "item":…,"title":…},…],"concept":…,"concept_name":…}}` — a title is
/// its tokens, joined while they are escaped.
pub fn render_qa(answer: Option<&Answer>) -> String {
    let Some(a) = answer else {
        return "{\"answer\":null}".to_string();
    };
    let titles: usize = a
        .checklist
        .iter()
        .flat_map(|e| e.title)
        .map(|t| t.len() + 1)
        .sum();
    let mut o = String::with_capacity(64 + a.concept_name.len() + 64 * a.checklist.len() + titles);
    o.push_str("{\"answer\":{\"checklist\":[");
    for (i, entry) in a.checklist.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"confidence\":");
        push_f64(&mut o, f64::from(entry.confidence));
        o.push_str(",\"item\":");
        let _ = write!(o, "{}", entry.item.index());
        o.push_str(",\"title\":");
        push_joined(&mut o, entry.title);
        o.push('}');
    }
    o.push_str("],\"concept\":");
    let _ = write!(o, "{}", a.concept.index());
    o.push_str(",\"concept_name\":");
    push_string(&mut o, a.concept_name);
    o.push_str("}}");
    o
}

/// `{"recommendations":[{"affinity":…,"concept":…,"items":[[id,w],…],
/// "name":…,"reason":…},…]}` — `reason` is the human explanation text,
/// escaped piece by piece as [`Reason::write_text`] hands it over.
///
/// [`Reason::write_text`]: alicoco_apps::recommend::Reason::write_text
pub fn render_recommend(kg: &AliCoCo, recs: &[Recommendation]) -> String {
    let reserve: usize = recs
        .iter()
        .map(|r| 256 + 2 * r.name.len() + ITEM_RESERVE * r.items.len())
        .sum();
    let mut o = String::with_capacity(32 + reserve);
    o.push_str("{\"recommendations\":[");
    for (i, rec) in recs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"affinity\":");
        push_f64(&mut o, rec.affinity);
        o.push_str(",\"concept\":");
        let _ = write!(o, "{}", rec.concept.index());
        o.push_str(",\"items\":");
        push_items(&mut o, &rec.items);
        o.push_str(",\"name\":");
        push_string(&mut o, rec.name);
        o.push_str(",\"reason\":\"");
        rec.reason
            .write_text(kg, rec.name, |piece| push_escaped(&mut o, piece));
        o.push_str("\"}");
    }
    o.push_str("]}");
    o
}

/// `{"hits":[{"item":…,"score":…,"title":…},…]}`
pub fn render_relevance(kg: &AliCoCo, hits: &[(ItemId, f64)]) -> String {
    let mut o = String::from("{\"hits\":[");
    for (i, (item, score)) in hits.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"item\":");
        let _ = write!(o, "{}", item.index());
        o.push_str(",\"score\":");
        push_f64(&mut o, *score);
        o.push_str(",\"title\":");
        push_joined(&mut o, kg.item(*item).title);
        o.push('}');
    }
    o.push_str("]}");
    o
}

/// `{"error":…,"status":…}` — the body of every non-2xx response.
pub fn render_error(status: u16, message: &str) -> String {
    let mut o = String::from("{\"error\":");
    push_string(&mut o, message);
    o.push_str(",\"status\":");
    let _ = write!(o, "{status}");
    o.push('}');
    o
}

/// `{"status":"ok"}`
pub fn render_health() -> String {
    "{\"status\":\"ok\"}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut o = String::new();
        push_string(&mut o, "a\"b\\c\nd\u{1}");
        assert_eq!(o, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = String::new();
        push_f64(&mut o, f64::NAN);
        assert_eq!(o, "null");
    }

    #[test]
    fn error_body_is_fixed_shape() {
        assert_eq!(
            render_error(503, "queue full"),
            "{\"error\":\"queue full\",\"status\":503}"
        );
    }

    #[test]
    fn empty_collections_render_stably() {
        assert_eq!(render_search(&[]), "{\"cards\":[]}");
        assert_eq!(render_qa(None), "{\"answer\":null}");
        assert_eq!(render_health(), "{\"status\":\"ok\"}");
    }
}
