//! The 20 first-level taxonomy classes ("domains") of AliCoCo (§3).

/// A first-level class of the AliCoCo taxonomy. The paper defines exactly
/// these 20 (Figure 3 / Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Category.
    Category,
    /// Brand.
    Brand,
    /// Color.
    Color,
    /// Design.
    Design,
    /// Function.
    Function,
    /// Material.
    Material,
    /// Pattern.
    Pattern,
    /// Shape.
    Shape,
    /// Smell.
    Smell,
    /// Taste.
    Taste,
    /// Style.
    Style,
    /// Time.
    Time,
    /// Location.
    Location,
    /// Intellectual Property: real-world entities (persons, movies, songs).
    Ip,
    /// Audience.
    Audience,
    /// Event.
    Event,
    /// Nature.
    Nature,
    /// Organization.
    Organization,
    /// Quantity.
    Quantity,
    /// Modifier.
    Modifier,
}

impl Domain {
    /// All 20 domains in a stable order.
    pub const ALL: [Domain; 20] = [
        Domain::Category,
        Domain::Brand,
        Domain::Color,
        Domain::Design,
        Domain::Function,
        Domain::Material,
        Domain::Pattern,
        Domain::Shape,
        Domain::Smell,
        Domain::Taste,
        Domain::Style,
        Domain::Time,
        Domain::Location,
        Domain::Ip,
        Domain::Audience,
        Domain::Event,
        Domain::Nature,
        Domain::Organization,
        Domain::Quantity,
        Domain::Modifier,
    ];

    /// Stable index in `0..20`.
    pub fn index(self) -> usize {
        Domain::ALL
            .iter()
            .position(|&d| d == self)
            .expect("domain in ALL")
    }

    /// Domain from its stable index.
    ///
    /// # Panics
    /// Panics if `i >= 20`.
    pub fn from_index(i: usize) -> Domain {
        Domain::ALL[i]
    }

    /// Human-readable name matching the paper's Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Category => "Category",
            Domain::Brand => "Brand",
            Domain::Color => "Color",
            Domain::Design => "Design",
            Domain::Function => "Function",
            Domain::Material => "Material",
            Domain::Pattern => "Pattern",
            Domain::Shape => "Shape",
            Domain::Smell => "Smell",
            Domain::Taste => "Taste",
            Domain::Style => "Style",
            Domain::Time => "Time",
            Domain::Location => "Location",
            Domain::Ip => "IP",
            Domain::Audience => "Audience",
            Domain::Event => "Event",
            Domain::Nature => "Nature",
            Domain::Organization => "Organization",
            Domain::Quantity => "Quantity",
            Domain::Modifier => "Modifier",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_domains() {
        assert_eq!(Domain::ALL.len(), 20);
    }

    #[test]
    fn index_roundtrip() {
        for (i, d) in Domain::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Domain::from_index(i), *d);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Domain::ALL.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }
}
