//! Request generation: a seeded PRNG, a Zipf(s = 1) sampler over the
//! world's 240-token vocabulary, and the three request mixes. Requests are
//! produced one at a time into a reusable buffer, so the load loop
//! allocates nothing per request, and the same `(seed, connection)` pair
//! always yields the same byte-identical stream.

use std::fmt::Write as _;

/// splitmix64: tiny, fast, and good enough to drive a workload.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Zipf with exponent 1 over ranks `0..n`: rank `r` has weight `1/(r+1)`.
/// Rank `r` is always vocabulary token `r`, whatever the seed, so seeds
/// change which requests are drawn but not which tokens are hot.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Which route a generated request exercises. The first four are the
/// engine routes, in the order per-route metrics are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Search,
    Qa,
    Recommend,
    Relevance,
    Healthz,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Search,
        Kind::Qa,
        Kind::Recommend,
        Kind::Relevance,
        Kind::Healthz,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Search => "search",
            Kind::Qa => "qa",
            Kind::Recommend => "recommend",
            Kind::Relevance => "relevance",
            Kind::Healthz => "healthz",
        }
    }
}

/// The scaffolding of every generated question; `ScenarioQa` strips all of
/// it, leaving the two drawn words as content words.
pub const QA_PREFIX: &str = "what do i need for ";

/// The traffic mix of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 100 % `/search?q=w1+w2&k=10`.
    Search,
    /// 50 % search, 20 % qa, 20 % relevance, 10 % recommend.
    Hybrid,
    /// Rotate `/healthz`, `/recommend` (empty history) and a `/search` for
    /// a token no concept has: the engines return at once.
    Thin,
}

/// One generated request: the HTTP target plus the structured fields the
/// per-layer probes need to call the engines directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    pub kind: Kind,
    /// Path and query string, percent-encoding-free by construction.
    pub target: String,
    /// The decoded `q=` value (empty when the route takes none).
    pub query: String,
    /// Item ordinals of `history=` (recommend only).
    pub history: Vec<usize>,
}

impl Req {
    pub fn empty() -> Self {
        Req {
            kind: Kind::Healthz,
            target: String::new(),
            query: String::new(),
            history: Vec::new(),
        }
    }
}

/// What a workload's requests are drawn from. Every connection's stream,
/// and nothing else, follows from these five values.
pub struct Traffic<'a> {
    pub seed: u64,
    pub mix: Mix,
    pub zipf: &'a Zipf,
    pub vocab: &'a [String],
    /// `/recommend` histories are drawn from item ordinals below this.
    pub n_items: usize,
}

impl Traffic<'_> {
    /// The request stream of connection `conn`.
    pub fn stream(&self, conn: u64) -> Generator<'_> {
        Generator {
            rng: Rng::new(self.seed, conn),
            zipf: self.zipf,
            vocab: self.vocab,
            n_items: self.n_items,
            mix: self.mix,
            turn: 0,
        }
    }
}

/// A per-connection request stream.
pub struct Generator<'a> {
    rng: Rng,
    zipf: &'a Zipf,
    vocab: &'a [String],
    n_items: usize,
    mix: Mix,
    turn: usize,
}

impl Generator<'_> {
    /// Append two Zipf-drawn words to the decoded query (space-separated)
    /// and to the target (`+`-separated).
    fn two_words(&mut self, req: &mut Req) {
        let (a, b) = (
            self.zipf.sample(&mut self.rng),
            self.zipf.sample(&mut self.rng),
        );
        let (a, b) = (&self.vocab[a], &self.vocab[b]);
        let _ = write!(req.query, "{a} {b}");
        let _ = write!(req.target, "{a}+{b}");
    }

    /// Overwrite `req` with the next request of the stream.
    pub fn next_into(&mut self, req: &mut Req) {
        req.target.clear();
        req.query.clear();
        req.history.clear();
        req.kind = match self.mix {
            Mix::Search => Kind::Search,
            Mix::Hybrid => match self.rng.below(10) {
                0..=4 => Kind::Search,
                5..=6 => Kind::Qa,
                7..=8 => Kind::Relevance,
                _ => Kind::Recommend,
            },
            Mix::Thin => {
                self.turn += 1;
                [Kind::Healthz, Kind::Recommend, Kind::Search][self.turn % 3]
            }
        };
        match (req.kind, self.mix) {
            (Kind::Healthz, _) => req.target.push_str("/healthz"),
            (Kind::Recommend, Mix::Thin) => req.target.push_str("/recommend"),
            (Kind::Search, Mix::Thin) => {
                // `x<rank>` is in no vocabulary: zero candidates.
                let _ = write!(req.query, "x{}", self.zipf.sample(&mut self.rng));
                let _ = write!(req.target, "/search?q={}&k=10", req.query);
            }
            (Kind::Search, _) => {
                req.target.push_str("/search?q=");
                self.two_words(req);
                req.target.push_str("&k=10");
            }
            (Kind::Qa, _) => {
                req.target.push_str("/qa?q=what+do+i+need+for+");
                req.query.push_str(QA_PREFIX);
                self.two_words(req);
            }
            (Kind::Relevance, _) => {
                req.target.push_str("/relevance?q=");
                self.two_words(req);
                req.target.push_str("&k=10");
            }
            (Kind::Recommend, _) => {
                req.target.push_str("/recommend?history=");
                for i in 0..3 {
                    let item = self.rng.below(self.n_items);
                    req.history.push(item);
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(req.target, "{sep}{item}");
                }
                req.target.push_str("&k=5");
            }
        }
    }

    /// The first `n` requests of the stream, materialised.
    pub fn take(mut self, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let mut req = Req::empty();
                self.next_into(&mut req);
                req
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vec<String> {
        (0..240).map(|i| format!("tok{i}")).collect()
    }

    fn stream(seed: u64, conn: u64, mix: Mix, n: usize) -> Vec<Req> {
        let (zipf, vocab) = (Zipf::new(240), vocab());
        let traffic = Traffic {
            seed,
            mix,
            zipf: &zipf,
            vocab: &vocab,
            n_items: 5000,
        };
        traffic.stream(conn).take(n)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_list() {
        for mix in [Mix::Search, Mix::Hybrid, Mix::Thin] {
            assert_eq!(stream(7, 0, mix, 2000), stream(7, 0, mix, 2000));
        }
    }

    #[test]
    fn another_seed_or_connection_gives_another_list() {
        let base = stream(7, 0, Mix::Hybrid, 2000);
        assert_ne!(base, stream(8, 0, Mix::Hybrid, 2000));
        assert_ne!(base, stream(7, 1, Mix::Hybrid, 2000));
    }

    #[test]
    fn zipf_head_is_hot_and_the_tail_is_reached() {
        let zipf = Zipf::new(240);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 240];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(240) ≈ 6.06, so rank 0 draws ≈ 16.5 % and rank 1 half of that.
        let share0 = counts[0] as f64 / 200_000.0;
        assert!((share0 - 0.165).abs() < 0.01, "rank 0 share {share0}");
        assert!((counts[0] as f64 / counts[1] as f64 - 2.0).abs() < 0.15);
        assert!(counts.iter().all(|&c| c > 0), "every rank is drawn");
    }

    #[test]
    fn hybrid_mix_has_the_stated_shares() {
        let reqs = stream(3, 0, Mix::Hybrid, 20_000);
        let share = |k: Kind| reqs.iter().filter(|r| r.kind == k).count() as f64 / 20_000.0;
        assert!((share(Kind::Search) - 0.5).abs() < 0.02);
        assert!((share(Kind::Qa) - 0.2).abs() < 0.02);
        assert!((share(Kind::Relevance) - 0.2).abs() < 0.02);
        assert!((share(Kind::Recommend) - 0.1).abs() < 0.02);
    }

    #[test]
    fn targets_match_their_structured_fields() {
        for req in stream(5, 2, Mix::Hybrid, 500) {
            match req.kind {
                Kind::Search => {
                    assert_eq!(
                        req.target,
                        format!("/search?q={}&k=10", req.query.replace(' ', "+"))
                    );
                }
                Kind::Recommend => {
                    assert_eq!(req.history.len(), 3);
                    assert!(req.history.iter().all(|&i| i < 5000));
                    assert!(req.target.starts_with("/recommend?history="));
                }
                Kind::Qa => assert!(req.query.starts_with("what do i need for tok")),
                Kind::Relevance => assert!(req.target.starts_with("/relevance?q=tok")),
                Kind::Healthz => panic!("hybrid mix has no healthz"),
            }
        }
        let thin = stream(5, 2, Mix::Thin, 6);
        let kinds: Vec<Kind> = thin.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Recommend,
                Kind::Search,
                Kind::Healthz,
                Kind::Recommend,
                Kind::Search,
                Kind::Healthz
            ]
        );
        assert!(thin[1].target.starts_with("/search?q=x"));
    }
}
