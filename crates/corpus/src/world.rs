//! The synthetic e-commerce world: ground-truth compatibility model and
//! event profiles.
//!
//! This is the stand-in for Alibaba's reality. Every judgement the paper
//! obtains from human annotators or transaction data — is this concept
//! plausible? which items does a scenario need? which location suits which
//! event? — is defined here as explicit ground truth, so the construction
//! pipeline's precision and recall are exactly measurable.

use alicoco_nn::util::{FxHashMap, FxHashSet};
use rand::Rng;

use crate::lexicon::Lexicon;
use crate::taxonomy::CategoryTree;

/// Configuration for world generation. Defaults give a laptop-scale world
/// (a few thousand items) with the same *shape* as the paper's statistics.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// RNG seed driving all generation.
    pub seed: u64,
    /// Hyphen-compound leaves generated under each seed category leaf.
    pub compounds_per_leaf: usize,
    /// Brands.
    pub brands: usize,
    /// Ips.
    pub ips: usize,
    /// Orgs.
    pub orgs: usize,
    /// Number of items.
    pub num_items: usize,
    /// Number of queries.
    pub num_queries: usize,
    /// Number of reviews.
    pub num_reviews: usize,
    /// Number of guides.
    pub num_guides: usize,
    /// Target counts for generated ground-truth e-commerce concepts.
    pub num_good_concepts: usize,
    /// Number of bad concepts.
    pub num_bad_concepts: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            compounds_per_leaf: 5,
            brands: 60,
            ips: 40,
            orgs: 12,
            num_items: 3000,
            num_queries: 4000,
            num_reviews: 3000,
            num_guides: 900,
            num_good_concepts: 600,
            num_bad_concepts: 600,
        }
    }
}

impl WorldConfig {
    /// A reduced configuration for fast unit tests.
    pub fn tiny() -> Self {
        WorldConfig {
            seed: 7,
            compounds_per_leaf: 2,
            brands: 15,
            ips: 10,
            orgs: 5,
            num_items: 500,
            num_queries: 400,
            num_reviews: 300,
            num_guides: 150,
            num_good_concepts: 120,
            num_bad_concepts: 120,
        }
    }
}

/// Ground truth for one shopping scenario (Event).
#[derive(Clone, Debug)]
pub struct EventProfile {
    /// Event.
    pub event: &'static str,
    /// Locations where the event plausibly happens.
    pub locations: &'static [&'static str],
    /// Seasons / occasions when it plausibly happens.
    pub times: &'static [&'static str],
    /// Category leaf *names* the scenario needs (semantic drift lives here:
    /// "charcoal" is needed for "barbecue" but unrelated to "outdoor").
    pub needs: &'static [&'static str],
    /// Functions that make sense for gear used in this event.
    pub functions: &'static [&'static str],
    /// Whether wearables (clothing/footwear) are generally relevant.
    pub wearables: bool,
}

/// The fixed event catalogue. Grounded in taxonomy leaf names.
pub const EVENT_PROFILES: &[EventProfile] = &[
    EventProfile {
        event: "barbecue",
        locations: &["outdoor", "garden", "park", "beach"],
        times: &["summer", "weekend", "evening"],
        needs: &[
            "grill",
            "charcoal",
            "skewers",
            "butter",
            "cooler",
            "picnic mat",
        ],
        functions: &["portable", "non-stick", "foldable"],
        wearables: false,
    },
    EventProfile {
        event: "camping",
        locations: &["outdoor", "mountain", "forest"],
        times: &["summer", "autumn", "weekend"],
        needs: &[
            "tent",
            "sleeping bag",
            "backpack",
            "lantern",
            "camping stove",
            "cooler",
        ],
        functions: &[
            "waterproof",
            "portable",
            "foldable",
            "insulated",
            "windproof",
        ],
        wearables: true,
    },
    EventProfile {
        event: "hiking",
        locations: &["mountain", "outdoor", "forest"],
        times: &["spring", "autumn", "weekend"],
        needs: &["boots", "backpack", "pants", "hat"],
        functions: &[
            "waterproof",
            "breathable",
            "quick-dry",
            "anti-slip",
            "warm",
            "windproof",
        ],
        wearables: true,
    },
    EventProfile {
        event: "swimming",
        locations: &["pool", "beach", "seaside"],
        times: &["summer"],
        needs: &["swimsuit", "swim goggles"],
        functions: &["quick-dry", "waterproof"],
        wearables: false,
    },
    EventProfile {
        event: "baking",
        locations: &["home", "indoor"],
        times: &["weekend", "morning", "christmas"],
        needs: &[
            "whisk",
            "strainer",
            "mixer",
            "baking tray",
            "egg beater",
            "rolling pin",
            "butter",
        ],
        functions: &["non-stick"],
        wearables: false,
    },
    EventProfile {
        event: "wedding",
        locations: &["indoor", "garden", "seaside"],
        times: &["spring", "summer", "evening"],
        needs: &["gown", "perfume", "lipstick", "camera"],
        functions: &[],
        wearables: true,
    },
    EventProfile {
        event: "traveling",
        locations: &["european", "seaside", "mountain", "beach"],
        times: &["summer", "spring", "weekend"],
        needs: &["backpack", "power bank", "hat", "camera"],
        functions: &[
            "portable",
            "foldable",
            "warm",
            "sun-protective",
            "quick-dry",
        ],
        wearables: true,
    },
    EventProfile {
        event: "picnic",
        locations: &["outdoor", "park", "garden"],
        times: &["spring", "summer", "weekend"],
        needs: &["picnic mat", "cooler", "snacks", "plate", "cup"],
        functions: &["portable", "foldable"],
        wearables: false,
    },
    EventProfile {
        event: "fishing",
        locations: &["seaside", "outdoor", "forest"],
        times: &["weekend", "morning"],
        needs: &["cooler", "hat", "boots"],
        functions: &["waterproof", "portable"],
        wearables: true,
    },
    EventProfile {
        event: "skiing",
        locations: &["mountain"],
        times: &["winter"],
        needs: &["skis", "gloves", "hat", "jacket"],
        functions: &["warm", "windproof", "waterproof"],
        wearables: true,
    },
    EventProfile {
        event: "party",
        locations: &["indoor", "home"],
        times: &["evening", "weekend", "new-year", "christmas"],
        needs: &["snacks", "chocolate", "cup", "plate"],
        functions: &[],
        wearables: true,
    },
    EventProfile {
        event: "graduation",
        locations: &["classroom", "indoor"],
        times: &["summer"],
        needs: &["camera", "gown"],
        functions: &[],
        wearables: true,
    },
    EventProfile {
        event: "yoga",
        locations: &["gym", "home", "indoor"],
        times: &["morning", "evening"],
        needs: &["yoga mat", "leggings"],
        functions: &["anti-slip", "breathable", "quick-dry"],
        wearables: false,
    },
    EventProfile {
        event: "commuting",
        locations: &["office"],
        times: &["morning"],
        needs: &["backpack", "headphones", "laptop"],
        functions: &["noise-cancelling", "portable", "shockproof"],
        wearables: true,
    },
    EventProfile {
        event: "gardening",
        locations: &["garden"],
        times: &["spring", "weekend", "morning"],
        needs: &["gloves", "hat", "boots"],
        functions: &["waterproof", "anti-slip"],
        wearables: false,
    },
    EventProfile {
        event: "bathing",
        locations: &["home", "indoor"],
        times: &["evening"],
        needs: &["shampoo"],
        functions: &["moisturizing"],
        wearables: false,
    },
];

/// Gift-occasion times and who-gets-what ground truth (drives "christmas
/// gifts for grandpa" concepts).
pub const GIFT_OCCASIONS: &[&str] = &[
    "christmas",
    "new-year",
    "valentines-day",
    "mid-autumn-festival",
];

/// Gift needs.
pub const GIFT_NEEDS: &[(&str, &[&str])] = &[
    (
        "kids",
        &["plush toy", "blocks", "puzzle", "kite", "doll", "chocolate"],
    ),
    ("babies", &["plush toy", "blanket", "doll"]),
    ("toddlers", &["plush toy", "blocks", "doll"]),
    ("grandpa", &["tea", "scarf", "gloves", "moon cake"]),
    ("grandma", &["scarf", "tea", "blanket", "moon cake"]),
    ("elders", &["tea", "blanket", "moon cake", "scarf"]),
    ("men", &["belt", "headphones", "coffee"]),
    ("women", &["perfume", "lipstick", "scarf"]),
    ("teens", &["headphones", "sneakers", "puzzle"]),
    ("students", &["backpack", "headphones", "puzzle"]),
    ("couples", &["chocolate", "perfume", "cup"]),
    ("runners", &["sneakers", "socks", "swim goggles"]),
    ("middle-school-students", &["backpack", "puzzle", "blocks"]),
];

/// Traditional gifts per occasion (drives occasion glosses: the gloss of
/// "mid-autumn-festival" mentions "moon cake", which is what lets knowledge
/// bridge the Table 6 case-study pair).
pub const OCCASION_GIFTS: &[(&str, &[&str])] = &[
    ("christmas", &["plush toy", "chocolate", "scarf", "socks"]),
    ("new-year", &["tea", "snacks", "cup"]),
    ("valentines-day", &["chocolate", "perfume", "lipstick"]),
    ("mid-autumn-festival", &["moon cake", "tea"]),
];

/// Function → audiences it plausibly serves (beyond generic wearable
/// functions). Drives "`[Function] for [Audience]`" plausibility.
pub const FUNCTION_AUDIENCES: &[(&str, &[&str])] = &[
    ("health-care", &["elders", "grandpa", "grandma", "babies"]),
    ("anti-lost", &["kids", "toddlers", "elders", "babies"]),
    (
        "warm",
        &[
            "kids", "babies", "elders", "grandpa", "grandma", "men", "women", "teens",
        ],
    ),
    (
        "sun-protective",
        &["kids", "women", "men", "babies", "runners"],
    ),
    ("moisturizing", &["women", "men", "babies", "elders"]),
    ("breathable", &["runners", "kids", "men", "women"]),
    ("quick-dry", &["runners", "teens", "men", "women"]),
    ("noise-cancelling", &["students", "teens", "men", "women"]),
    ("anti-slip", &["elders", "kids", "grandpa", "grandma"]),
];

/// Categories that only suit cold seasons or warm seasons. Everything else
/// is season-neutral.
pub const COLD_WEAR: &[&str] = &[
    "jacket",
    "sweater",
    "hoodie",
    "trench coat",
    "boots",
    "gloves",
    "scarf",
    "skis",
    "blanket",
];
/// Warm wear.
pub const WARM_WEAR: &[&str] = &[
    "shorts",
    "sandals",
    "swimsuit",
    "sundress",
    "tee",
    "slip dress",
    "kite",
];
/// Cold times.
pub const COLD_TIMES: &[&str] = &["winter", "autumn", "christmas", "new-year"];
/// Warm times.
pub const WARM_TIMES: &[&str] = &["summer", "spring"];

/// Per top-branch compatibility: functions / materials / styles usable with
/// categories in that branch.
struct BranchCompat {
    branch: &'static str,
    functions: &'static [&'static str],
    materials: &'static [&'static str],
    styled: bool,
    colored: bool,
    audienced: bool,
}

const BRANCH_COMPAT: &[BranchCompat] = &[
    BranchCompat {
        branch: "clothing-and-accessory",
        functions: &[
            "warm",
            "breathable",
            "waterproof",
            "windproof",
            "sun-protective",
            "quick-dry",
        ],
        materials: &[
            "cotton", "wool", "silk", "denim", "linen", "cashmere", "velvet", "fleece", "nylon",
        ],
        styled: true,
        colored: true,
        audienced: true,
    },
    BranchCompat {
        branch: "footwear",
        functions: &["waterproof", "anti-slip", "breathable", "warm", "quick-dry"],
        materials: &["leather", "canvas", "nylon"],
        styled: true,
        colored: true,
        audienced: true,
    },
    BranchCompat {
        branch: "kitchen",
        functions: &["non-stick", "insulated", "portable"],
        materials: &["stainless-steel", "ceramic", "glass", "oak", "bamboo"],
        styled: false,
        colored: true,
        audienced: false,
    },
    BranchCompat {
        branch: "outdoor-gear",
        functions: &[
            "waterproof",
            "portable",
            "foldable",
            "insulated",
            "windproof",
        ],
        materials: &["canvas", "nylon"],
        styled: false,
        colored: true,
        audienced: false,
    },
    BranchCompat {
        branch: "electronics",
        functions: &["noise-cancelling", "shockproof", "portable", "waterproof"],
        materials: &["glass"],
        styled: false,
        colored: true,
        audienced: true,
    },
    BranchCompat {
        branch: "beauty",
        functions: &["moisturizing", "sun-protective"],
        materials: &[],
        styled: false,
        colored: false,
        audienced: true,
    },
    BranchCompat {
        branch: "food",
        functions: &[],
        materials: &[],
        styled: false,
        colored: false,
        audienced: false,
    },
    BranchCompat {
        branch: "toys",
        functions: &["shockproof"],
        materials: &["cotton", "oak", "bamboo"],
        styled: false,
        colored: true,
        audienced: true,
    },
    BranchCompat {
        branch: "sports",
        functions: &["quick-dry", "breathable", "anti-slip", "portable"],
        materials: &["nylon"],
        styled: true,
        colored: true,
        audienced: true,
    },
    BranchCompat {
        branch: "home",
        functions: &["warm", "foldable", "insulated"],
        materials: &["cotton", "linen", "velvet", "oak", "bamboo", "glass"],
        styled: true,
        colored: true,
        audienced: false,
    },
];

/// The assembled world: taxonomy + lexicon + the compatibility oracle data.
pub struct World {
    /// Config.
    pub config: WorldConfig,
    /// Tree.
    pub tree: CategoryTree,
    /// Lexicon.
    pub lexicon: Lexicon,
    /// event name -> profile index.
    event_index: FxHashMap<&'static str, usize>,
    /// category leaf name -> node id.
    name_to_node: FxHashMap<String, usize>,
    /// event -> set of needed node ids (leaf + its compound descendants).
    event_needs: Vec<FxHashSet<usize>>,
}

impl World {
    /// Build the world skeleton (taxonomy, lexicon, compatibility indices).
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = alicoco_nn::util::seeded_rng(config.seed);
        let tree = CategoryTree::generate(config.compounds_per_leaf, &mut rng);
        let lexicon = Lexicon::generate(config.brands, config.ips, config.orgs, &mut rng);
        let mut name_to_node = FxHashMap::default();
        for id in tree.ids() {
            name_to_node.insert(tree.name(id).to_string(), id);
        }
        let event_index = EVENT_PROFILES
            .iter()
            .enumerate()
            .map(|(i, p)| (p.event, i))
            .collect();
        let mut event_needs = Vec::with_capacity(EVENT_PROFILES.len());
        for p in EVENT_PROFILES {
            let mut set = FxHashSet::default();
            for need in p.needs {
                if let Some(&id) = name_to_node.get(*need) {
                    set.insert(id);
                    // Compound descendants inherit the need relation.
                    for c in &tree.node(id).children {
                        set.insert(*c);
                    }
                } else {
                    panic!("event {:?} needs unknown category {need:?}", p.event);
                }
            }
            event_needs.push(set);
        }
        World {
            config,
            tree,
            lexicon,
            event_index,
            name_to_node,
            event_needs,
        }
    }

    /// Events.
    pub fn events(&self) -> &'static [EventProfile] {
        EVENT_PROFILES
    }

    /// Event.
    pub fn event(&self, name: &str) -> Option<&'static EventProfile> {
        self.event_index.get(name).map(|&i| &EVENT_PROFILES[i])
    }

    /// Category node id for a name.
    pub fn category(&self, name: &str) -> Option<usize> {
        self.name_to_node.get(name).copied()
    }

    /// Is `cat` (a node id) needed by `event`? Includes compound
    /// descendants of needed leaves.
    pub fn event_needs(&self, event: &str, cat: usize) -> bool {
        match self.event_index.get(event) {
            Some(&i) => self.event_needs[i].contains(&cat),
            None => false,
        }
    }

    fn branch_compat(&self, cat: usize) -> Option<&'static BranchCompat> {
        let branch = self.tree.top_branch(cat)?;
        let name = self.tree.name(branch);
        BRANCH_COMPAT.iter().find(|b| b.branch == name)
    }

    /// Is a function plausible on a category?
    pub fn fn_cat_ok(&self, function: &str, cat: usize) -> bool {
        self.branch_compat(cat)
            .is_some_and(|b| b.functions.contains(&function))
    }

    /// Is a material plausible on a category?
    pub fn material_cat_ok(&self, material: &str, cat: usize) -> bool {
        self.branch_compat(cat)
            .is_some_and(|b| b.materials.contains(&material))
    }

    /// Does the branch take styles / colors / audiences?
    pub fn cat_styled(&self, cat: usize) -> bool {
        self.branch_compat(cat).is_some_and(|b| b.styled)
    }

    /// Cat colored.
    pub fn cat_colored(&self, cat: usize) -> bool {
        self.branch_compat(cat).is_some_and(|b| b.colored)
    }

    /// Cat audienced.
    pub fn cat_audienced(&self, cat: usize) -> bool {
        self.branch_compat(cat).is_some_and(|b| b.audienced)
    }

    /// Functions compatible with a category's branch.
    pub fn cat_functions(&self, cat: usize) -> &'static [&'static str] {
        self.branch_compat(cat).map(|b| b.functions).unwrap_or(&[])
    }

    /// Cat materials.
    pub fn cat_materials(&self, cat: usize) -> &'static [&'static str] {
        self.branch_compat(cat).map(|b| b.materials).unwrap_or(&[])
    }

    /// Is a category plausible at a time (season)?
    pub fn cat_time_ok(&self, cat: usize, time: &str) -> bool {
        let name = self.tree.name(cat);
        let head = name.rsplit('-').next().unwrap_or(name);
        // Compounds inherit their head's seasonality.
        let base = if self.name_to_node.contains_key(head) {
            head
        } else {
            name
        };
        if COLD_WEAR.contains(&base) {
            COLD_TIMES.contains(&time)
        } else if WARM_WEAR.contains(&base) {
            WARM_TIMES.contains(&time)
        } else {
            true
        }
    }

    /// Is a function plausible for an event's gear?
    pub fn fn_event_ok(&self, function: &str, event: &str) -> bool {
        self.event(event)
            .is_some_and(|p| p.functions.contains(&function))
    }

    /// Is a location plausible for an event?
    pub fn event_loc_ok(&self, event: &str, location: &str) -> bool {
        self.event(event)
            .is_some_and(|p| p.locations.contains(&location))
    }

    /// Is a time plausible for an event?
    pub fn event_time_ok(&self, event: &str, time: &str) -> bool {
        self.event(event).is_some_and(|p| p.times.contains(&time))
    }

    /// Is a category relevant to an event (needed gear, or wearable for a
    /// wearable-friendly event)?
    pub fn cat_event_ok(&self, cat: usize, event: &str) -> bool {
        if self.event_needs(event, cat) {
            return true;
        }
        let Some(p) = self.event(event) else {
            return false;
        };
        if !p.wearables {
            return false;
        }
        self.tree
            .top_branch(cat)
            .is_some_and(|b| matches!(self.tree.name(b), "clothing-and-accessory" | "footwear"))
    }

    /// Is a function plausible for an audience?
    pub fn fn_aud_ok(&self, function: &str, audience: &str) -> bool {
        FUNCTION_AUDIENCES
            .iter()
            .any(|(f, auds)| *f == function && auds.contains(&audience))
    }

    /// Gift categories (node ids) for an audience.
    pub fn gift_needs(&self, audience: &str) -> Vec<usize> {
        GIFT_NEEDS
            .iter()
            .find(|(a, _)| *a == audience)
            .map(|(_, cats)| cats.iter().filter_map(|c| self.category(c)).collect())
            .unwrap_or_default()
    }

    /// Sample a random category leaf id.
    pub fn random_leaf<R: Rng>(&self, rng: &mut R) -> usize {
        let leaves = self.tree.leaves();
        leaves[rng.gen_range(0..leaves.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn event_profiles_reference_real_categories() {
        // World::generate panics if any event need is unknown; constructing
        // it is the assertion.
        let w = world();
        assert_eq!(w.events().len(), EVENT_PROFILES.len());
    }

    #[test]
    fn semantic_drift_is_encoded() {
        // Charcoal is needed for barbecue...
        let w = world();
        let charcoal = w.category("charcoal").unwrap();
        assert!(w.event_needs("barbecue", charcoal));
        // ...but not for swimming.
        assert!(!w.event_needs("swimming", charcoal));
    }

    #[test]
    fn compound_leaves_inherit_needs() {
        let w = World::generate(WorldConfig {
            compounds_per_leaf: 3,
            ..WorldConfig::tiny()
        });
        let grill = w.category("grill").unwrap();
        let child = *w
            .tree
            .node(grill)
            .children
            .first()
            .expect("compound grill child");
        assert!(w.event_needs("barbecue", child));
    }

    #[test]
    fn paper_plausibility_examples_hold() {
        let w = world();
        let hat = w.category("hat").unwrap();
        let shoes = w.category("boots").unwrap();
        // "warm hat for traveling" — good.
        assert!(w.fn_cat_ok("warm", hat));
        assert!(w.fn_event_ok("warm", "traveling"));
        assert!(w.cat_event_ok(hat, "traveling"));
        // "warm shoes for swimming" — bad (warm incompatible with swimming).
        assert!(!w.fn_event_ok("warm", "swimming"));
        assert!(!w.cat_event_ok(shoes, "swimming"));
        // "bathing in the classroom" — bad location.
        assert!(!w.event_loc_ok("bathing", "classroom"));
        assert!(w.event_loc_ok("barbecue", "outdoor"));
        // "health care for olds" — good; for middle-school students — bad.
        assert!(w.fn_aud_ok("health-care", "elders"));
        assert!(!w.fn_aud_ok("waterproof", "middle-school-students"));
        // "casual summer coat" — bad (cold wear in summer).
        let coat = w.category("trench coat").unwrap();
        assert!(!w.cat_time_ok(coat, "summer"));
        assert!(w.cat_time_ok(coat, "winter"));
    }

    #[test]
    fn material_and_style_compat() {
        let w = world();
        let skirt = w.category("skirt").unwrap();
        let grill = w.category("grill").unwrap();
        assert!(w.material_cat_ok("cotton", skirt));
        assert!(!w.material_cat_ok("stainless-steel", skirt));
        assert!(w.material_cat_ok("stainless-steel", grill));
        assert!(w.cat_styled(skirt));
        assert!(!w.cat_styled(grill));
    }

    #[test]
    fn gift_needs_resolve_to_nodes() {
        let w = world();
        let gifts = w.gift_needs("grandpa");
        assert!(!gifts.is_empty());
        let tea = w.category("tea").unwrap();
        assert!(gifts.contains(&tea));
        assert!(w.gift_needs("nobody").is_empty());
    }

    #[test]
    fn compound_seasonality_inherited() {
        let w = World::generate(WorldConfig {
            compounds_per_leaf: 3,
            ..WorldConfig::tiny()
        });
        let jacket = w.category("jacket").unwrap();
        let compound = *w.tree.node(jacket).children.first().unwrap();
        assert!(!w.cat_time_ok(compound, "summer"));
        assert!(w.cat_time_ok(compound, "winter"));
    }
}
