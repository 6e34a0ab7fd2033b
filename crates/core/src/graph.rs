//! The AliCoCo concept net: four node layers and their relations (§2).
//!
//! - **Taxonomy**: a class hierarchy whose first level is the 20 domains,
//!   plus a relation schema between classes ("suitable_when" between
//!   `Category->Pants` and `Time->Season`).
//! - **Primitive concepts**: typed short phrases. Several primitives may
//!   share a surface form with different classes — this is how AliCoCo
//!   disambiguates raw text.
//! - **E-commerce concepts**: user-needs phrases, linked to the primitive
//!   concepts that interpret them and to suggested items.
//! - **Items**: linked to primitive concepts (properties) and e-commerce
//!   concepts (scenario needs), the latter with a probability weight
//!   (future-work item 2 of §10).

use std::borrow::Cow;
use std::cmp::Ordering;

use alicoco_nn::util::FxHashMap;

use crate::columns::{ConceptColumns, ItemColumns};
use crate::ids::{ClassId, ConceptId, ItemId, PrimitiveId};
use crate::rank::by_score_then_id;

/// A taxonomy class.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassNode {
    /// Class name (unique in the taxonomy).
    pub name: String,
    /// Parent.
    pub parent: Option<ClassId>,
    /// Children.
    pub children: Vec<ClassId>,
}

/// A primitive concept: a typed vocabulary entry.
#[derive(Clone, Debug, PartialEq)]
pub struct PrimitiveNode {
    /// Surface form of the primitive.
    pub name: String,
    /// Class.
    pub class: ClassId,
    /// Direct hypernyms *within* the primitive layer (isA, §4.2).
    pub hypernyms: Vec<PrimitiveId>,
    /// Hyponyms.
    pub hyponyms: Vec<PrimitiveId>,
}

/// An e-commerce concept: a conceptualized user need. A borrowed view
/// into the net's concept columns ([`AliCoCo::concept`]); the layer
/// itself stores no per-concept struct.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConceptRef<'a> {
    /// Surface form, tokens joined by spaces.
    pub name: &'a str,
    /// Interpreting primitive concepts (§5.3).
    pub primitives: &'a [PrimitiveId],
    /// isA edges between e-commerce concepts.
    pub hypernyms: &'a [ConceptId],
    /// Associated items with probability weights (§6; weights are
    /// future-work item 2 of §10).
    pub items: &'a [(ItemId, f32)],
}

/// An item. A borrowed view into the net's item columns
/// ([`AliCoCo::item`]): the title is owned per item, the two edge lists
/// live in shared buffers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ItemRef<'a> {
    /// Title tokens.
    pub title: &'a Vec<String>,
    /// Property links into the primitive layer.
    pub primitives: &'a [PrimitiveId],
    /// Reverse links to concepts that suggest this item.
    pub concepts: &'a [ConceptId],
}

/// A schema relation between two classes ("suitable_when" etc., §2).
#[derive(Clone, Debug, PartialEq)]
pub struct SchemaRelation {
    /// Relation name (e.g. "suitable_when").
    pub name: String,
    /// Source class.
    pub from: ClassId,
    /// Target class.
    pub to: ClassId,
}

/// An instance-level relation between two primitive concepts, conforming to
/// a schema relation ("cotton-padded trousers" suitable_when "winter").
#[derive(Clone, Debug, PartialEq)]
pub struct PrimitiveRelation {
    /// Relation name, conforming to a schema relation.
    pub name: String,
    /// Source primitive.
    pub from: PrimitiveId,
    /// Target primitive.
    pub to: PrimitiveId,
}

/// The assembled concept net.
///
/// Equality compares the full structure — node arenas, edge lists (in
/// order), relations, and the derived name indices — which is what the
/// snapshot round-trip tests mean by "the same net". The concept and item
/// layers are compared by content, not by how their columns happen to be
/// laid out.
#[derive(Debug, Default, PartialEq)]
pub struct AliCoCo {
    classes: Vec<ClassNode>,
    primitives: Vec<PrimitiveNode>,
    /// The e-commerce concept layer, with its name index.
    concepts: ConceptColumns,
    /// The item layer.
    items: ItemColumns,
    class_by_name: FxHashMap<String, ClassId>,
    /// Surface form -> all primitive senses (disambiguation).
    primitives_by_name: FxHashMap<String, Vec<PrimitiveId>>,
    schema: Vec<SchemaRelation>,
    primitive_relations: Vec<PrimitiveRelation>,
}

impl AliCoCo {
    /// Create a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble a net directly from decoded node arenas — the bulk path the
    /// binary snapshot codec uses instead of replaying `add_*` calls one
    /// record at a time. Incoming nodes carry only their *forward* state
    /// (parents, hypernyms, out-edges; items their titles and properties);
    /// all derived state — class children, primitive hyponyms, item→concept
    /// reverse links, and the class and primitive name indices — is rebuilt
    /// here in the same order the incremental builders produce it, so a net
    /// built this way compares equal to one built record by record. The
    /// concept name index is built on its first use, not here: serving never
    /// looks a concept up by name. Callers must have range-checked every id.
    pub(crate) fn from_parts(
        mut classes: Vec<ClassNode>,
        mut primitives: Vec<PrimitiveNode>,
        mut concepts: ConceptColumns,
        mut items: ItemColumns,
        schema: Vec<SchemaRelation>,
        primitive_relations: Vec<PrimitiveRelation>,
    ) -> Self {
        let parents: Vec<Option<ClassId>> = classes.iter().map(|c| c.parent).collect();
        for (i, parent) in parents.iter().enumerate() {
            if let Some(p) = *parent {
                classes[p.index()].children.push(ClassId::from_index(i));
            }
        }
        let mut class_by_name =
            FxHashMap::with_capacity_and_hasher(classes.len(), Default::default());
        for (i, c) in classes.iter().enumerate() {
            class_by_name.insert(c.name.clone(), ClassId::from_index(i));
        }
        let mut primitives_by_name: FxHashMap<String, Vec<PrimitiveId>> =
            FxHashMap::with_capacity_and_hasher(primitives.len(), Default::default());
        for (i, p) in primitives.iter().enumerate() {
            primitives_by_name
                .entry(p.name.clone())
                .or_default()
                .push(PrimitiveId::from_index(i));
        }
        let hyper_edges: Vec<(PrimitiveId, PrimitiveId)> = primitives
            .iter()
            .enumerate()
            .flat_map(|(i, p)| {
                p.hypernyms
                    .iter()
                    .map(move |&h| (h, PrimitiveId::from_index(i)))
            })
            .collect();
        for (hyper, hypo) in hyper_edges {
            primitives[hyper.index()].hyponyms.push(hypo);
        }
        concepts.finish_bulk();
        items.finish_bulk(&concepts);
        Self {
            classes,
            primitives,
            concepts,
            items,
            class_by_name,
            primitives_by_name,
            schema,
            primitive_relations,
        }
    }

    // ---- taxonomy --------------------------------------------------------

    /// Add a class. Names must be unique within the taxonomy.
    ///
    /// # Panics
    /// Panics if the name already exists or the parent id is invalid.
    pub fn add_class(&mut self, name: &str, parent: Option<ClassId>) -> ClassId {
        assert!(
            !self.class_by_name.contains_key(name),
            "duplicate class name {name:?}"
        );
        if let Some(p) = parent {
            assert!(p.index() < self.classes.len(), "invalid parent class");
        }
        let id = ClassId::from_index(self.classes.len());
        self.classes.push(ClassNode {
            name: name.to_string(),
            parent,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.classes[p.index()].children.push(id);
        }
        self.class_by_name.insert(name.to_string(), id);
        id
    }

    /// Class.
    pub fn class(&self, id: ClassId) -> &ClassNode {
        &self.classes[id.index()]
    }

    /// Class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The first-level domain of a class (its ancestor directly under the
    /// root), or itself if it is first-level.
    pub fn class_domain(&self, id: ClassId) -> ClassId {
        let mut cur = id;
        while let Some(p) = self.classes[cur.index()].parent {
            if self.classes[p.index()].parent.is_none() {
                return cur;
            }
            cur = p;
        }
        cur
    }

    /// Declare a schema relation between two classes.
    pub fn add_schema_relation(&mut self, name: &str, from: ClassId, to: ClassId) {
        self.schema.push(SchemaRelation {
            name: name.to_string(),
            from,
            to,
        });
    }

    /// Schema.
    pub fn schema(&self) -> &[SchemaRelation] {
        &self.schema
    }

    // ---- primitive concepts ----------------------------------------------

    /// Add a primitive concept. The same surface may be added under several
    /// classes (distinct senses get distinct ids); re-adding an existing
    /// `(name, class)` pair returns the existing id.
    pub fn add_primitive(&mut self, name: &str, class: ClassId) -> PrimitiveId {
        assert!(class.index() < self.classes.len(), "invalid class id");
        if let Some(ids) = self.primitives_by_name.get(name) {
            if let Some(&existing) = ids
                .iter()
                .find(|&&p| self.primitives[p.index()].class == class)
            {
                return existing;
            }
        }
        let id = PrimitiveId::from_index(self.primitives.len());
        self.primitives.push(PrimitiveNode {
            name: name.to_string(),
            class,
            hypernyms: Vec::new(),
            hyponyms: Vec::new(),
        });
        self.primitives_by_name
            .entry(name.to_string())
            .or_default()
            .push(id);
        id
    }

    /// Primitive.
    pub fn primitive(&self, id: PrimitiveId) -> &PrimitiveNode {
        &self.primitives[id.index()]
    }

    /// All senses of a surface form (the disambiguation entry point).
    pub fn primitives_by_name(&self, name: &str) -> &[PrimitiveId] {
        self.primitives_by_name
            .get(name)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The sense of `name` belonging to a given first-level domain, if any.
    pub fn primitive_in_domain(&self, name: &str, domain: ClassId) -> Option<PrimitiveId> {
        self.primitives_by_name(name)
            .iter()
            .copied()
            .find(|&p| self.class_domain(self.primitives[p.index()].class) == domain)
    }

    /// Number of primitives.
    pub fn num_primitives(&self) -> usize {
        self.primitives.len()
    }

    /// Record `hyponym isA hypernym` between primitives.
    ///
    /// # Panics
    /// Panics on self-loops.
    pub fn add_primitive_is_a(&mut self, hyponym: PrimitiveId, hypernym: PrimitiveId) {
        assert_ne!(hyponym, hypernym, "isA self-loop");
        if !self.primitives[hyponym.index()]
            .hypernyms
            .contains(&hypernym)
        {
            self.primitives[hyponym.index()].hypernyms.push(hypernym);
            self.primitives[hypernym.index()].hyponyms.push(hyponym);
        }
    }

    /// Record `hyponym isA hypernym` between primitives unless the edge
    /// would close a cycle (or is a self-loop); returns whether the edge
    /// is in the graph afterwards. Mining pipelines use this admission
    /// check so noisy pattern/model extractions cannot corrupt the DAG.
    pub fn try_add_primitive_is_a(&mut self, hyponym: PrimitiveId, hypernym: PrimitiveId) -> bool {
        if hyponym == hypernym || self.primitive_ancestors(hypernym).contains(&hyponym) {
            return false;
        }
        self.add_primitive_is_a(hyponym, hypernym);
        true
    }

    /// Transitive hypernym closure of a primitive (BFS order, no dups).
    pub fn primitive_ancestors(&self, id: PrimitiveId) -> Vec<PrimitiveId> {
        let mut seen = alicoco_nn::util::FxHashSet::default();
        let mut queue: Vec<PrimitiveId> = self.primitives[id.index()].hypernyms.clone();
        let mut out = Vec::new();
        while let Some(p) = queue.pop() {
            if seen.insert(p) {
                out.push(p);
                queue.extend(self.primitives[p.index()].hypernyms.iter().copied());
            }
        }
        out
    }

    /// Count of isA edges in the primitive layer.
    pub fn num_primitive_is_a(&self) -> usize {
        self.primitives.iter().map(|p| p.hypernyms.len()).sum()
    }

    /// Record an instance-level relation ("suitable_when").
    pub fn add_primitive_relation(&mut self, name: &str, from: PrimitiveId, to: PrimitiveId) {
        self.primitive_relations.push(PrimitiveRelation {
            name: name.to_string(),
            from,
            to,
        });
    }

    /// Primitive relations.
    pub fn primitive_relations(&self) -> &[PrimitiveRelation] {
        &self.primitive_relations
    }

    // ---- e-commerce concepts ----------------------------------------------

    /// Add an e-commerce concept (idempotent by surface form).
    pub fn add_concept(&mut self, name: &str) -> ConceptId {
        self.concepts.add(name)
    }

    /// Concept.
    pub fn concept(&self, id: ConceptId) -> ConceptRef<'_> {
        self.concepts.get(id)
    }

    /// Concept by name.
    pub fn concept_by_name(&self, name: &str) -> Option<ConceptId> {
        self.concepts.find(name)
    }

    /// Number of concepts.
    pub fn num_concepts(&self) -> usize {
        self.concepts.len()
    }

    /// The concept layer itself, for the snapshot codec.
    pub(crate) fn concept_layer(&self) -> &ConceptColumns {
        &self.concepts
    }

    /// Link a concept to an interpreting primitive (§5.3).
    pub fn link_concept_primitive(&mut self, concept: ConceptId, primitive: PrimitiveId) {
        self.concepts.link_primitive(concept, primitive);
    }

    /// Record `hyponym isA hypernym` between e-commerce concepts.
    pub fn add_concept_is_a(&mut self, hyponym: ConceptId, hypernym: ConceptId) {
        assert_ne!(hyponym, hypernym, "isA self-loop");
        self.concepts.add_hypernym(hyponym, hypernym);
    }

    /// Record `hyponym isA hypernym` between concepts unless the edge
    /// would close a cycle (or is a self-loop); returns whether the edge
    /// is in the graph afterwards. Construction pipelines use this
    /// admission check to keep the mined hierarchy a DAG.
    pub fn try_add_concept_is_a(&mut self, hyponym: ConceptId, hypernym: ConceptId) -> bool {
        if hyponym == hypernym || self.concept_ancestors(hypernym).contains(&hyponym) {
            return false;
        }
        self.add_concept_is_a(hyponym, hypernym);
        true
    }

    /// Transitive hypernym closure of a concept (BFS order, no dups).
    pub fn concept_ancestors(&self, id: ConceptId) -> Vec<ConceptId> {
        let mut seen = alicoco_nn::util::FxHashSet::default();
        let mut queue: Vec<ConceptId> = self.concept(id).hypernyms.to_vec();
        let mut out = Vec::new();
        while let Some(c) = queue.pop() {
            if seen.insert(c) {
                out.push(c);
                queue.extend_from_slice(self.concept(c).hypernyms);
            }
        }
        out
    }

    /// Number of concept is a.
    pub fn num_concept_is_a(&self) -> usize {
        self.concepts.num_hypernym_edges()
    }

    // ---- items -------------------------------------------------------------

    /// Add item.
    pub fn add_item(&mut self, title: &[String]) -> ItemId {
        self.items.add(title.to_vec())
    }

    /// Item.
    pub fn item(&self, id: ItemId) -> ItemRef<'_> {
        self.items.get(id)
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Link an item to a primitive-concept property.
    pub fn link_item_primitive(&mut self, item: ItemId, primitive: PrimitiveId) {
        self.items.link_primitive(item, primitive);
    }

    /// Associate an item with an e-commerce concept, with a confidence
    /// weight in `[0, 1]`.
    ///
    /// # Panics
    /// Panics if the weight is not a probability.
    pub fn link_concept_item(&mut self, concept: ConceptId, item: ItemId, weight: f32) {
        assert!(
            (0.0..=1.0).contains(&weight),
            "weight must be a probability"
        );
        // The item is checked first, so a bad id leaves the net as it was.
        assert!(item.index() < self.items.len(), "invalid item id");
        if self.concepts.link_item(concept, item, weight) {
            self.items.add_concept(item, concept);
        }
    }

    /// Items suggested for a concept, highest weight first.
    pub fn items_for_concept(&self, concept: ConceptId) -> Vec<(ItemId, f32)> {
        let mut v = self.concept(concept).items.to_vec();
        v.sort_by(by_score_then_id);
        v
    }

    /// The first `n` entries of [`items_for_concept`](Self::items_for_concept),
    /// in its order. A list stored best first is lent, cut to `n`, so an
    /// unstocked concept, `n == 0` and a one-item list allocate nothing.
    /// Any other list is never copied: each item is inserted into a sorted
    /// buffer of at most `n` or rejected against its last entry.
    /// `by_score_then_id` is a total order and a concept's items are
    /// distinct, so both paths give the full sort's prefix.
    pub fn top_items(&self, concept: ConceptId, n: usize) -> Cow<'_, [(ItemId, f32)]> {
        let all = self.concept(concept).items;
        if n == 0 || all.is_sorted_by(|a, b| by_score_then_id(a, b) == Ordering::Less) {
            return Cow::Borrowed(all.get(..n).unwrap_or(all));
        }
        let mut top: Vec<(ItemId, f32)> = Vec::with_capacity(n.min(all.len()));
        for entry in all {
            if top.len() == n {
                match top.last() {
                    Some(last) if by_score_then_id(entry, last) == Ordering::Less => top.pop(),
                    _ => continue,
                };
            }
            let at = top.partition_point(|kept| by_score_then_id(kept, entry) == Ordering::Less);
            top.insert(at, *entry);
        }
        Cow::Owned(top)
    }

    /// Concepts that suggest an item, in the order the edges were made.
    /// Snapshots do not store this order: a decoded net lists them
    /// ascending.
    pub fn concepts_for_item(&self, item: ItemId) -> &[ConceptId] {
        self.items.get(item).concepts
    }

    /// Total concept–item edges.
    pub fn num_concept_item_links(&self) -> usize {
        self.concepts.num_item_edges()
    }

    /// Total item–primitive edges.
    pub fn num_item_primitive_links(&self) -> usize {
        self.items.num_primitive_edges()
    }

    /// Total concept–primitive edges.
    pub fn num_concept_primitive_links(&self) -> usize {
        self.concepts.num_primitive_edges()
    }

    // ---- iteration ---------------------------------------------------------

    /// Class identifiers.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len()).map(ClassId::from_index)
    }

    /// Primitive identifiers.
    pub fn primitive_ids(&self) -> impl Iterator<Item = PrimitiveId> {
        (0..self.primitives.len()).map(PrimitiveId::from_index)
    }

    /// Concept identifiers.
    pub fn concept_ids(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.num_concepts()).map(ConceptId::from_index)
    }

    /// Item identifiers.
    pub fn item_ids(&self) -> impl Iterator<Item = ItemId> {
        (0..self.items.len()).map(ItemId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kg() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let category = kg.add_class("Category", Some(root));
        let time = kg.add_class("Time", Some(root));
        let clothing = kg.add_class("Clothing", Some(category));
        let pants = kg.add_class("Pants", Some(clothing));
        let season = kg.add_class("Season", Some(time));
        kg.add_schema_relation("suitable_when", pants, season);
        kg
    }

    #[test]
    fn class_hierarchy_and_domains() {
        let kg = tiny_kg();
        let pants = kg.class_by_name("Pants").unwrap();
        let category = kg.class_by_name("Category").unwrap();
        assert_eq!(kg.class_domain(pants), category);
        assert_eq!(kg.class_domain(category), category);
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn duplicate_class_rejected() {
        let mut kg = tiny_kg();
        kg.add_class("Pants", None);
    }

    #[test]
    fn primitive_disambiguation() {
        // "barbecue" as Event and as IP get different ids, same surface.
        let mut kg = AliCoCo::new();
        let root = kg.add_class("root", None);
        let event = kg.add_class("Event", Some(root));
        let ip = kg.add_class("IP", Some(root));
        let p1 = kg.add_primitive("barbecue", event);
        let p2 = kg.add_primitive("barbecue", ip);
        assert_ne!(p1, p2);
        assert_eq!(kg.primitives_by_name("barbecue").len(), 2);
        // Idempotent per (name, class).
        assert_eq!(kg.add_primitive("barbecue", event), p1);
        assert_eq!(kg.primitive_in_domain("barbecue", event), Some(p1));
        assert_eq!(kg.primitive_in_domain("barbecue", ip), Some(p2));
    }

    #[test]
    fn primitive_is_a_closure() {
        let mut kg = tiny_kg();
        let cat = kg.class_by_name("Category").unwrap();
        let a = kg.add_primitive("cargo-pants", cat);
        let b = kg.add_primitive("pants", cat);
        let c = kg.add_primitive("bottoms", cat);
        kg.add_primitive_is_a(a, b);
        kg.add_primitive_is_a(b, c);
        let anc = kg.primitive_ancestors(a);
        assert!(anc.contains(&b) && anc.contains(&c));
        assert_eq!(kg.num_primitive_is_a(), 2);
        // Duplicate edges are ignored.
        kg.add_primitive_is_a(a, b);
        assert_eq!(kg.num_primitive_is_a(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn is_a_self_loop_rejected() {
        let mut kg = tiny_kg();
        let cat = kg.class_by_name("Category").unwrap();
        let a = kg.add_primitive("pants", cat);
        kg.add_primitive_is_a(a, a);
    }

    #[test]
    fn concept_item_links_roundtrip() {
        let mut kg = tiny_kg();
        let c = kg.add_concept("outdoor barbecue");
        let i1 = kg.add_item(&["grill".to_string()]);
        let i2 = kg.add_item(&["charcoal".to_string()]);
        kg.link_concept_item(c, i1, 0.9);
        kg.link_concept_item(c, i2, 0.7);
        let items = kg.items_for_concept(c);
        assert_eq!(items[0], (i1, 0.9));
        assert_eq!(items[1], (i2, 0.7));
        assert_eq!(kg.concepts_for_item(i1), &[c]);
        // Re-linking updates the weight without duplicating the edge.
        kg.link_concept_item(c, i1, 0.5);
        assert_eq!(kg.num_concept_item_links(), 2);
        assert_eq!(kg.items_for_concept(c)[0], (i2, 0.7));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn weight_must_be_probability() {
        let mut kg = tiny_kg();
        let c = kg.add_concept("x");
        let i = kg.add_item(&[]);
        kg.link_concept_item(c, i, 1.5);
    }

    #[test]
    fn concept_primitive_links() {
        let mut kg = tiny_kg();
        let cat = kg.class_by_name("Pants").unwrap();
        let p = kg.add_primitive("pants", cat);
        let c = kg.add_concept("warm pants for hiking");
        kg.link_concept_primitive(c, p);
        kg.link_concept_primitive(c, p);
        assert_eq!(kg.concept(c).primitives, vec![p]);
        assert_eq!(kg.num_concept_primitive_links(), 1);
    }

    #[test]
    fn concept_is_a() {
        let mut kg = tiny_kg();
        let a = kg.add_concept("british-style winter coat");
        let b = kg.add_concept("winter coat");
        kg.add_concept_is_a(a, b);
        assert_eq!(kg.concept(a).hypernyms, vec![b]);
        assert_eq!(kg.num_concept_is_a(), 1);
    }

    #[test]
    fn schema_relations_recorded() {
        let kg = tiny_kg();
        assert_eq!(kg.schema().len(), 1);
        assert_eq!(kg.schema()[0].name, "suitable_when");
    }

    #[test]
    fn add_concept_is_idempotent() {
        let mut kg = tiny_kg();
        let a = kg.add_concept("outdoor barbecue");
        let b = kg.add_concept("outdoor barbecue");
        assert_eq!(a, b);
        assert_eq!(kg.num_concepts(), 1);
    }
}
