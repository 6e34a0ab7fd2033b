//! Deterministic JSON rendering for route responses.
//!
//! The AL005 discipline applied to the wire: object keys are emitted in
//! a fixed alphabetical order, all numbers go through one formatter, and
//! nothing iterates a hash map — so the same engine answer always
//! renders to the same bytes (the property suite asserts this). Numbers
//! are written straight into the body, never through a `String` of their
//! own.

use std::fmt::Write;

use alicoco::AliCoCo;
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

/// `{"cards":[{"concept":…,"interpretation":[[domain,surface],…],
/// "items":[[id,weight],…],"name":…,"score":…},…]}`
pub fn render_search(cards: &[ConceptCard]) -> String {
    let mut o = String::from("{\"cards\":[");
    for (i, card) in cards.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"concept\":");
        let _ = write!(o, "{}", card.concept.index());
        o.push_str(",\"interpretation\":[");
        for (j, (domain, surface)) in card.interpretation.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push('[');
            push_string(&mut o, domain);
            o.push(',');
            push_string(&mut o, surface);
            o.push(']');
        }
        o.push_str("],\"items\":[");
        for (j, (item, w)) in card.items.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push('[');
            let _ = write!(o, "{}", item.index());
            o.push(',');
            push_f64(&mut o, f64::from(*w));
            o.push(']');
        }
        o.push_str("],\"name\":");
        push_string(&mut o, &card.name);
        o.push_str(",\"score\":");
        push_f64(&mut o, card.score);
        o.push('}');
    }
    o.push_str("]}");
    o
}

/// `{"answer":null}` or `{"answer":{"checklist":[{"confidence":…,
/// "item":…,"title":…},…],"concept":…,"concept_name":…}}`
pub fn render_qa(answer: Option<&Answer>) -> String {
    let mut o = String::from("{\"answer\":");
    match answer {
        None => o.push_str("null"),
        Some(a) => {
            o.push_str("{\"checklist\":[");
            for (i, entry) in a.checklist.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push_str("{\"confidence\":");
                push_f64(&mut o, f64::from(entry.confidence));
                o.push_str(",\"item\":");
                let _ = write!(o, "{}", entry.item.index());
                o.push_str(",\"title\":");
                push_string(&mut o, &entry.title);
                o.push('}');
            }
            o.push_str("],\"concept\":");
            let _ = write!(o, "{}", a.concept.index());
            o.push_str(",\"concept_name\":");
            push_string(&mut o, &a.concept_name);
            o.push('}');
        }
    }
    o.push('}');
    o
}

/// `{"recommendations":[{"affinity":…,"concept":…,"items":[[id,w],…],
/// "name":…,"reason":…},…]}` — `reason` is the human explanation text.
pub fn render_recommend(kg: &AliCoCo, recs: &[Recommendation]) -> String {
    let mut o = String::from("{\"recommendations\":[");
    for (i, rec) in recs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"affinity\":");
        push_f64(&mut o, rec.affinity);
        o.push_str(",\"concept\":");
        let _ = write!(o, "{}", rec.concept.index());
        o.push_str(",\"items\":[");
        for (j, (item, w)) in rec.items.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            o.push('[');
            let _ = write!(o, "{}", item.index());
            o.push(',');
            push_f64(&mut o, f64::from(*w));
            o.push(']');
        }
        o.push_str("],\"name\":");
        push_string(&mut o, &rec.name);
        o.push_str(",\"reason\":");
        push_string(&mut o, &rec.reason.text(kg, &rec.name));
        o.push('}');
    }
    o.push_str("]}");
    o
}

/// `{"hits":[{"item":…,"score":…,"title":…},…]}`
pub fn render_relevance(kg: &AliCoCo, hits: &[(alicoco::ItemId, f64)]) -> String {
    let mut o = String::from("{\"hits\":[");
    for (i, (item, score)) in hits.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"item\":");
        let _ = write!(o, "{}", item.index());
        o.push_str(",\"score\":");
        push_f64(&mut o, *score);
        o.push_str(",\"title\":\"");
        for (j, token) in kg.item(*item).title.iter().enumerate() {
            if j > 0 {
                o.push(' ');
            }
            push_escaped(&mut o, token);
        }
        o.push_str("\"}");
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
