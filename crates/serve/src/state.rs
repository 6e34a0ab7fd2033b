//! The shared serving state: one immutable concept net plus every engine
//! built over it, bundled into a [`ServingPack`] behind a swappable
//! [`PackSlot`]. Workers clone the current `Arc` per request and hold no
//! lock while serving, so a snapshot swap never blocks in-flight traffic
//! — old requests finish on the old pack, which frees itself when the
//! last clone drops.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use alicoco::{par, AliCoCo};
use alicoco_ann::AnnBundle;
use alicoco_apps::qa::ScenarioQa;
use alicoco_apps::recommend::{CognitiveRecommender, RecommendConfig};
use alicoco_apps::relevance::{RelevanceScorer, TitleIndex};
use alicoco_apps::retrieve::Retriever;
use alicoco_apps::search::{SearchConfig, SemanticSearch};
use alicoco_obs::Registry;

/// Engine tunables for one pack.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Semantic-search tunables.
    pub search: SearchConfig,
    /// Recommender tunables.
    pub recommend: RecommendConfig,
}

/// An immutable net and the four serving engines over its one shared
/// [`Retriever`], which owns the net through an `Arc`.
pub struct ServingPack {
    search: SemanticSearch,
    qa: ScenarioQa,
    recommend: CognitiveRecommender,
    relevance: RelevanceScorer,
}

impl ServingPack {
    /// Build one retriever over `kg` — the pack's only `QueryIndex` —
    /// and the four engines that share it, registering their metrics in
    /// `metrics`. When the snapshot carried the `AVOC`/`ACON`/`AITM`
    /// trailer, pass its bundle as `ann` and every engine serves hybrid
    /// (lexical ∪ vector) candidates. Relevance's BM25 title index is
    /// built on a second thread while the retriever's index builds.
    pub fn build_with_ann(
        kg: Arc<AliCoCo>,
        ann: Option<Arc<AnnBundle>>,
        cfg: &EngineConfig,
        metrics: &Registry,
    ) -> Arc<Self> {
        let (retriever, titles) = par::join(
            || Retriever::new(Arc::clone(&kg), ann),
            || TitleIndex::build(&kg),
        );
        Arc::new(ServingPack {
            search: SemanticSearch::new(Arc::clone(&retriever), cfg.search, metrics),
            qa: ScenarioQa::new(Arc::clone(&retriever), metrics),
            recommend: CognitiveRecommender::new(Arc::clone(&retriever), cfg.recommend, metrics),
            relevance: RelevanceScorer::with_titles(retriever, titles, metrics),
        })
    }

    /// The net itself.
    pub fn graph(&self) -> &AliCoCo {
        self.search.retriever().kg()
    }

    /// Semantic-search engine.
    pub fn search(&self) -> &SemanticSearch {
        &self.search
    }

    /// Scenario question answering.
    pub fn qa(&self) -> &ScenarioQa {
        &self.qa
    }

    /// Cognitive recommender.
    pub fn recommender(&self) -> &CognitiveRecommender {
        &self.recommend
    }

    /// isA-expanded relevance scorer.
    pub fn relevance(&self) -> &RelevanceScorer {
        &self.relevance
    }
}

/// The server's one mutable cell: the current pack, swapped atomically
/// under a short-lived write lock.
pub struct PackSlot {
    current: RwLock<Arc<ServingPack>>,
}

impl PackSlot {
    /// Slot initially serving `pack`.
    pub fn new(pack: Arc<ServingPack>) -> Self {
        PackSlot {
            current: RwLock::new(pack),
        }
    }

    /// Clone the current pack handle. Cheap; callers hold no lock while
    /// they serve from the clone.
    pub fn get(&self) -> Arc<ServingPack> {
        let guard = read_lock(&self.current);
        Arc::clone(&guard)
    }

    /// Install a freshly built pack, returning the previous one.
    /// In-flight requests keep serving from the pack they cloned.
    pub fn swap(&self, pack: Arc<ServingPack>) -> Arc<ServingPack> {
        let mut guard = write_lock(&self.current);
        std::mem::replace(&mut *guard, pack)
    }
}

/// Read even if a writer panicked: the slot holds a plain pointer swap,
/// so a poisoned guard is still structurally sound.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack_of(kg: Arc<AliCoCo>, reg: &Registry) -> Arc<ServingPack> {
        ServingPack::build_with_ann(kg, None, &EngineConfig::default(), reg)
    }

    fn tiny_net() -> AliCoCo {
        let mut kg = AliCoCo::new();
        let root = kg.add_class("concept", None);
        let event = kg.add_class("Event", Some(root));
        let bbq = kg.add_primitive("barbecue", event);
        let c = kg.add_concept("outdoor barbecue");
        kg.link_concept_primitive(c, bbq);
        let item = kg.add_item(&["brand".into(), "grill".into()]);
        kg.link_concept_item(c, item, 0.9);
        kg
    }

    #[test]
    fn pack_serves_after_the_building_scope_ends() {
        let pack = {
            let kg = Arc::new(tiny_net());
            pack_of(kg, &Registry::new())
        };
        let cards = pack.search().search("barbecue");
        assert_eq!(cards.len(), 1);
        assert_eq!(pack.graph().num_items(), 1);
    }

    #[test]
    fn engines_share_one_index() {
        let kg = Arc::new(tiny_net());
        let pack = pack_of(Arc::clone(&kg), &Registry::new());
        let retriever = pack.search().retriever();
        assert!(Arc::ptr_eq(retriever, pack.qa().retriever()));
        assert!(Arc::ptr_eq(retriever, pack.recommender().retriever()));
        assert!(Arc::ptr_eq(retriever, pack.relevance().retriever()));
        assert!(std::ptr::eq(retriever.kg(), pack.graph()));
        // The pack holds the caller's net, not a copy of it.
        assert!(std::ptr::eq(pack.graph(), &*kg));
    }

    #[test]
    fn swap_leaves_old_clones_serving() {
        let reg = Registry::new();
        let slot = PackSlot::new(pack_of(Arc::new(tiny_net()), &reg));
        let old = slot.get();
        let empty = Arc::new(AliCoCo::new());
        let prev = slot.swap(pack_of(empty, &reg));
        // The old handle still answers even though the slot moved on.
        assert_eq!(old.search().search("barbecue").len(), 1);
        assert_eq!(prev.graph().num_items(), 1);
        assert!(slot.get().search().search("barbecue").is_empty());
    }

    #[test]
    fn packs_cross_threads() {
        let pack = pack_of(Arc::new(tiny_net()), &Registry::new());
        let p = Arc::clone(&pack);
        let n = std::thread::spawn(move || p.search().search("barbecue").len())
            .join()
            .unwrap();
        assert_eq!(n, 1);
    }
}
