//! Generation of the synthetic Internet.
//!
//! [`Internet::generate`] builds, from an [`InternetConfig`] and a seed:
//! ASes with geography/type/organization, announced prefixes with
//! per-/24 ground-truth usage (dark vs active, assigned in contiguous
//! runs so dark space is spatially clustered like real allocations),
//! dedicated telescope ranges, per-day RIB snapshots with churn, and the
//! IXP vantage points with their visibility maps.
//!
//! Ground truth lives *outside* anything the inference pipeline can see:
//! the pipeline consumes only flow records and RIB snapshots; truth is
//! used by the traffic generators (active blocks emit, dark blocks do
//! not) and by the evaluation harness (precision/recall).

use crate::config::InternetConfig;
use crate::vantage::VantagePoint;
use mt_types::{
    geo, Asn, Block24, Block24Set, Continent, Country, Ipv4, NetworkType, OrgId, Prefix,
    PrefixTrie, RibIndex, Slot24Index, SpecialRegistry, NUM_BLOCKS,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One autonomous system of the synthetic Internet.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Operating organization (several ASes may share one).
    pub org: OrgId,
    /// Registered country.
    pub country: Country,
    /// Continent of the registered country.
    pub continent: Continent,
    /// Business category.
    pub network_type: NetworkType,
}

/// Ground-truth usage of a /24 block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Usage {
    /// Hosts users/servers; originates traffic.
    Active,
    /// Advertised but unused.
    Dark,
}

/// One BGP announcement.
#[derive(Debug, Clone)]
pub struct Announcement {
    /// The announced prefix (always /24 or shorter here).
    pub prefix: Prefix,
    /// Index into [`Internet::ases`] of the originating AS.
    pub as_idx: u32,
    /// Index of the telescope owning this announcement, if dedicated.
    pub telescope: Option<u8>,
    /// One bit per covered /24: 1 = dark.
    dark_bits: Vec<u64>,
}

impl Announcement {
    fn set_dark(&mut self, offset: u32) {
        self.dark_bits[(offset / 64) as usize] |= 1 << (offset % 64);
    }

    /// Whether the `offset`-th /24 of this announcement is dark.
    pub fn is_dark(&self, offset: u32) -> bool {
        self.dark_bits[(offset / 64) as usize] & (1 << (offset % 64)) != 0
    }
}

/// A dedicated telescope range.
#[derive(Debug, Clone)]
pub struct Telescope {
    /// Short code (`TUS1`, ...).
    pub code: String,
    /// Index of the hosting AS.
    pub as_idx: u32,
    /// First /24 of the contiguous range.
    pub first_block: Block24,
    /// Number of /24s.
    pub num_blocks: u32,
    /// Ports dropped by the ingress router.
    pub blocked_ports: Vec<u16>,
    /// Fraction of blocks dynamically handed to users per day.
    pub dynamic_active_fraction: f64,
}

impl Telescope {
    /// One past the last block index, clamped to the top of the address
    /// space. `first_block + num_blocks` is computed in `u64` and capped
    /// at [`NUM_BLOCKS`] so a range placed at the very top of IPv4 can
    /// never wrap into low /24 indexes.
    fn end_block(&self) -> u32 {
        (u64::from(self.first_block.0) + u64::from(self.num_blocks)).min(u64::from(NUM_BLOCKS))
            as u32
    }

    /// Iterates over the telescope's blocks.
    pub fn blocks(&self) -> impl Iterator<Item = Block24> {
        (self.first_block.0..self.end_block()).map(Block24)
    }

    /// Whether `block` belongs to the telescope.
    pub fn contains(&self, block: Block24) -> bool {
        (self.first_block.0..self.end_block()).contains(&block.0)
    }

    /// Blocks handed out to end users on `day` (and therefore *not* dark
    /// that day). Deterministic in `(block, day, seed)`.
    pub fn dynamic_active_on(&self, day: mt_types::Day, seed: u64) -> Block24Set {
        let mut set = Block24Set::new();
        if self.dynamic_active_fraction <= 0.0 {
            return set;
        }
        let threshold = (self.dynamic_active_fraction * u64::MAX as f64) as u64;
        for block in self.blocks() {
            if splitmix(seed ^ 0x7e1e_5c09, u64::from(block.0), u64::from(day.0)) < threshold {
                set.insert(block);
            }
        }
        set
    }

    /// Blocks that are dark on `day` (total minus dynamically active).
    pub fn dark_on(&self, day: mt_types::Day, seed: u64) -> Block24Set {
        let mut set: Block24Set = self.blocks().collect();
        set.difference_with(&self.dynamic_active_on(day, seed));
        set
    }
}

/// A fully generated synthetic Internet.
#[derive(Debug)]
pub struct Internet {
    /// The configuration it was generated from.
    pub config: InternetConfig,
    /// The generation seed.
    pub seed: u64,
    /// All ASes; indices into this vector are used everywhere.
    pub ases: Vec<AsInfo>,
    /// All announcements (non-overlapping by construction).
    pub announcements: Vec<Announcement>,
    /// The dedicated telescopes.
    pub telescopes: Vec<Telescope>,
    /// The IXP vantage points with visibility maps.
    pub vantage_points: Vec<VantagePoint>,
    /// Ground truth: dark /24s (static view; TEU1's dynamic churn is
    /// resolved per day via [`Telescope::dark_on`]).
    pub dark_truth: Block24Set,
    /// Ground truth: active /24s.
    pub active_truth: Block24Set,
    pfx2ann: PrefixTrie<u32>,
    /// Flat LPM view of `pfx2ann`, compiled once at generation.
    /// Announcements are all /24 or shorter, so the index stays
    /// /24-aligned and [`Internet::block_info`] resolves each block with
    /// a single `lookup24` probe — the hottest query of the traffic
    /// generator.
    pfx2ann_index: RibIndex<u32>,
}

/// Resolved ground truth for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Index of the originating AS.
    pub as_idx: u32,
    /// Index of the covering announcement.
    pub ann_idx: u32,
    /// Usage of the block.
    pub usage: Usage,
    /// Telescope index if inside a dedicated range.
    pub telescope: Option<u8>,
}

/// Keyed hash used for stable per-(entity, day) coin flips that must not
/// depend on RNG call order. Delegates to [`mt_types::mix::mix3`].
pub(crate) fn splitmix(a: u64, b: u64, c: u64) -> u64 {
    mt_types::mix::mix3(a, b, c)
}

/// Picks an index from a slice of non-negative weights.
fn weighted_pick<R: RngExt>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0);
    let mut x = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Cursor-based address allocator over the usable unicast space.
struct Allocator {
    /// Next candidate /24 index.
    cursor: u32,
    /// Octets that must never be allocated.
    forbidden: [bool; 256],
    special: SpecialRegistry,
}

impl Allocator {
    fn new(unrouted: &[u8]) -> Self {
        let mut forbidden = [false; 256];
        forbidden[0] = true; // "this network"
        forbidden[224..].fill(true); // multicast + reserved
        for &o in unrouted {
            forbidden[o as usize] = true;
        }
        Allocator {
            cursor: 1 << 16, // start at 1.0.0.0
            forbidden,
            special: SpecialRegistry::new(),
        }
    }

    /// Allocates `count` /24s aligned to `count` (a power of two),
    /// skipping forbidden octets and special-purpose space. Returns the
    /// prefix covering them.
    fn alloc(&mut self, count: u32) -> Option<Prefix> {
        debug_assert!(count.is_power_of_two() && count <= 1 << 16);
        loop {
            // Align up.
            let aligned = self.cursor.checked_add(count - 1)? & !(count - 1);
            if aligned >= 224 << 16 {
                return None; // out of unicast space
            }
            let octet = (aligned >> 16) as usize;
            if self.forbidden[octet] {
                // Skip to the next octet.
                self.cursor = ((octet as u32) + 1) << 16;
                continue;
            }
            // Ranges of 256+ blocks span whole octets; the per-octet
            // check above handles those. For smaller ranges also dodge
            // the sub-/8 special prefixes.
            let range_special = self.special.is_special_block(Block24(aligned))
                || self.special.is_special_block(Block24(aligned + count - 1));
            if range_special {
                self.cursor = aligned + count;
                continue;
            }
            self.cursor = aligned + count;
            let len = 24 - count.trailing_zeros() as u8;
            return Some(Prefix::containing(Block24(aligned).base(), len));
        }
    }

    /// Leaves a gap of `count` /24s unallocated.
    fn skip(&mut self, count: u32) {
        self.cursor = self.cursor.saturating_add(count);
    }
}

impl Internet {
    /// Generates the Internet for `(config, seed)`.
    pub fn generate(config: InternetConfig, seed: u64) -> Internet {
        let mut rng = StdRng::seed_from_u64(seed);
        let ases = Self::generate_ases(&config, &mut rng);
        let mut alloc = Allocator::new(&config.unrouted_octets);
        let mut announcements = Vec::new();
        let mut telescopes = Vec::new();

        // Dedicated telescope ranges first: they get clean, contiguous
        // space, which is what the Hilbert-map experiments look at.
        for (t_idx, tc) in config.telescopes.iter().enumerate() {
            let host_type = match t_idx {
                0 => NetworkType::Education,
                _ => NetworkType::Isp,
            };
            let as_idx = Self::pick_as(&ases, tc.region, host_type, &mut rng);
            // A telescope is one announcement of at most a /8; larger
            // values would overflow the allocator's span contract (and,
            // far before `u32::MAX`, `next_power_of_two` itself).
            assert!(
                tc.num_blocks >= 1 && tc.num_blocks <= 1 << 16,
                "telescope {} must cover between 1 and 65536 /24s, got {}",
                tc.code,
                tc.num_blocks
            );
            let span = tc.num_blocks.next_power_of_two();
            let prefix = alloc
                .alloc(span)
                // check: allow(no_panic, "world construction fails fast on an over-subscribed config; a clear panic at setup is the contract")
                .expect("address space exhausted placing telescope");
            let mut ann = Announcement {
                prefix,
                as_idx,
                telescope: Some(t_idx as u8),
                dark_bits: vec![0u64; (span as usize).div_ceil(64)],
            };
            // The telescope's blocks are dark; the remainder of the
            // covering power-of-two span belongs to the host and is
            // active.
            for offset in 0..tc.num_blocks {
                ann.set_dark(offset);
            }
            announcements.push(ann);
            telescopes.push(Telescope {
                code: tc.code.clone(),
                as_idx,
                first_block: Block24::containing(prefix.base()),
                num_blocks: tc.num_blocks,
                blocked_ports: tc.blocked_ports.clone(),
                dynamic_active_fraction: tc.dynamic_active_fraction,
            });
            // The host ISP's surrounding space: a mix of dark and active
            // /24s roughly 13× the telescope (mirroring the TUS1 host ISP
            // whose 26k /24s the classifier is calibrated on). Only the
            // first telescope (the calibration host) gets the full 13×.
            if t_idx == 0 {
                let extra_blocks = tc.num_blocks * 13;
                let mut remaining = extra_blocks;
                while remaining > 0 {
                    let span = remaining.min(256).next_power_of_two().min(256);
                    if let Some(prefix) = alloc.alloc(span) {
                        let mut ann = Announcement {
                            prefix,
                            as_idx,
                            telescope: None,
                            dark_bits: vec![0u64; (span as usize).div_ceil(64)],
                        };
                        Self::assign_dark_runs(
                            &mut ann,
                            span,
                            0.55,
                            config.dark_run_mean,
                            &mut rng,
                        );
                        announcements.push(ann);
                    }
                    remaining = remaining.saturating_sub(span);
                }
            }
        }

        // Legacy /8s for a sliver of NA education/enterprise ASes.
        if config.legacy_slash8_fraction > 0.0 {
            for (i, a) in ases.iter().enumerate() {
                let eligible = a.continent == Continent::NorthAmerica
                    && matches!(
                        a.network_type,
                        NetworkType::Education | NetworkType::Enterprise
                    );
                if eligible && rng.random::<f64>() < config.legacy_slash8_fraction * 3.3 {
                    // ×3.3 compensates for conditioning on NA+edu/ent
                    // (~30% of ASes) so the overall fraction matches.
                    if let Some(prefix) = alloc.alloc(1 << 16) {
                        let mut ann = Announcement {
                            prefix,
                            as_idx: i as u32,
                            telescope: None,
                            dark_bits: vec![0u64; (1usize << 16) / 64],
                        };
                        // Legacy space is mostly unused.
                        let dark_p = 0.85;
                        Self::assign_dark_runs(
                            &mut ann,
                            1 << 16,
                            dark_p,
                            config.dark_run_mean * 8.0,
                            &mut rng,
                        );
                        announcements.push(ann);
                    }
                }
            }
        }

        // Regular allocations for every AS.
        let len_weights: Vec<f64> = config.prefix_len_weights.iter().map(|&(_, w)| w).collect();
        for (i, a) in ases.iter().enumerate() {
            // 1 + Geometric-ish count with the configured mean.
            let extra = config.mean_prefixes_per_as - 1.0;
            let mut count = 1;
            while count < 6 && rng.random::<f64>() < extra / (extra + 1.0) {
                count += 1;
            }
            for _ in 0..count {
                let pick = weighted_pick(&mut rng, &len_weights);
                let len = config.prefix_len_weights[pick].0;
                let span = 1u32 << (24 - len);
                let Some(prefix) = alloc.alloc(span) else {
                    break;
                };
                let mut ann = Announcement {
                    prefix,
                    as_idx: i as u32,
                    telescope: None,
                    dark_bits: vec![0u64; (span as usize).div_ceil(64)],
                };
                let dark_p = Self::dark_probability(&config, a, len);
                Self::assign_dark_runs(&mut ann, span, dark_p, config.dark_run_mean, &mut rng);
                announcements.push(ann);
                // Occasional unannounced gap after an allocation.
                if rng.random::<f64>() < config.gap_probability {
                    alloc.skip(rng.random_range(1..span.max(2)));
                }
            }
        }

        // Index structures and truth sets.
        let mut pfx2ann = PrefixTrie::new();
        let mut dark_truth = Block24Set::new();
        let mut active_truth = Block24Set::new();
        for (idx, ann) in announcements.iter().enumerate() {
            pfx2ann.insert(ann.prefix, idx as u32);
            for (offset, block) in ann.prefix.blocks24().enumerate() {
                if ann.is_dark(offset as u32) {
                    dark_truth.insert(block);
                } else {
                    active_truth.insert(block);
                }
            }
        }

        let vantage_points = VantagePoint::generate_all(&config, &ases, &telescopes, seed);
        let pfx2ann_index = RibIndex::build(&pfx2ann);
        debug_assert!(pfx2ann_index.is_block_aligned(), "announcements are <= /24");

        Internet {
            config,
            seed,
            ases,
            announcements,
            telescopes,
            vantage_points,
            dark_truth,
            active_truth,
            pfx2ann,
            pfx2ann_index,
        }
    }

    fn generate_ases(config: &InternetConfig, rng: &mut StdRng) -> Vec<AsInfo> {
        let weights: Vec<f64> = config.continents.iter().map(|c| c.as_weight).collect();
        let mut ases = Vec::with_capacity(config.num_ases as usize);
        let mut next_org = 0u32;
        for n in 0..config.num_ases {
            let profile = &config.continents[weighted_pick(rng, &weights)];
            let countries = geo::COUNTRIES_BY_CONTINENT
                .iter()
                .find(|(c, _)| *c == profile.continent)
                .map(|(_, list)| *list)
                // check: allow(no_panic, "COUNTRIES_BY_CONTINENT covers every Continent variant; a gap is a static-table bug worth failing fast at setup")
                .expect("profile continents are in the static table");
            // The first country of each continent list is its largest
            // economy; weight it heavily (US-heavy NA, CN-heavy Asia...).
            let country = if rng.random::<f64>() < 0.45 {
                Country::new(countries[0])
            } else {
                Country::new(countries[rng.random_range(0..countries.len())])
            };
            let network_type = NetworkType::ALL[weighted_pick(rng, &profile.type_mix)];
            // ~12% of ASes share an organization with the previous AS.
            let org = if n > 0 && rng.random::<f64>() < 0.12 {
                OrgId(next_org - 1)
            } else {
                next_org += 1;
                OrgId(next_org - 1)
            };
            ases.push(AsInfo {
                asn: Asn(64_512 + n),
                org,
                country,
                continent: profile.continent,
                network_type,
            });
        }
        ases
    }

    fn pick_as(ases: &[AsInfo], region: Continent, ty: NetworkType, rng: &mut StdRng) -> u32 {
        let candidates: Vec<u32> = ases
            .iter()
            .enumerate()
            .filter(|(_, a)| a.continent == region && a.network_type == ty)
            .map(|(i, _)| i as u32)
            .collect();
        if candidates.is_empty() {
            // Fall back to any AS in the region, then to any AS at all.
            let regional: Vec<u32> = ases
                .iter()
                .enumerate()
                .filter(|(_, a)| a.continent == region)
                .map(|(i, _)| i as u32)
                .collect();
            if regional.is_empty() {
                rng.random_range(0..ases.len() as u32)
            } else {
                regional[rng.random_range(0..regional.len())]
            }
        } else {
            candidates[rng.random_range(0..candidates.len())]
        }
    }

    fn dark_probability(config: &InternetConfig, a: &AsInfo, prefix_len: u8) -> f64 {
        let base = config
            .continents
            .iter()
            .find(|c| c.continent == a.continent)
            .map(|c| c.base_dark_fraction)
            .unwrap_or(0.3);
        let type_factor = match a.network_type {
            NetworkType::Isp => 1.0,
            NetworkType::Enterprise => 1.1,
            NetworkType::Education => 1.3,
            // Data centers emerged under scarcity; little space idles
            // (paper Figure 16).
            NetworkType::DataCenter => 0.45,
        };
        // Bigger (older) allocations idle more.
        let size_factor = match prefix_len {
            0..=13 => 1.5,
            14..=16 => 1.2,
            _ => 0.95,
        };
        (base * type_factor * size_factor).clamp(0.02, 0.92)
    }

    /// Assigns dark/active in alternating geometric runs so dark space is
    /// spatially clustered (solid rectangles on Hilbert maps).
    fn assign_dark_runs(
        ann: &mut Announcement,
        span: u32,
        dark_p: f64,
        run_mean: f64,
        rng: &mut StdRng,
    ) {
        let mut offset = 0u32;
        while offset < span {
            let dark = rng.random::<f64>() < dark_p;
            // Geometric run length with the configured mean.
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let run = (1.0 + (-u.ln()) * (run_mean - 1.0)).round() as u32;
            let run = run.clamp(1, span - offset);
            if dark {
                for o in offset..offset + run {
                    ann.set_dark(o);
                }
            }
            offset += run;
        }
    }

    /// Resolves ground truth for a block, if it is announced.
    pub fn block_info(&self, block: Block24) -> Option<BlockInfo> {
        let (prefix, &ann_idx) = self.pfx2ann_index.lookup24(block)?;
        debug_assert!(prefix.len() <= 24);
        debug_assert_eq!(Some((prefix, &ann_idx)), self.pfx2ann.lookup(block.base()));
        let ann = &self.announcements[ann_idx as usize];
        let offset = block.0 - ann.prefix.base().block24_index();
        Some(BlockInfo {
            as_idx: ann.as_idx,
            ann_idx,
            usage: if ann.is_dark(offset) {
                Usage::Dark
            } else {
                Usage::Active
            },
            telescope: ann.telescope,
        })
    }

    /// The AS info for a block, if announced.
    pub fn as_of_block(&self, block: Block24) -> Option<&AsInfo> {
        self.block_info(block)
            .map(|b| &self.ases[b.as_idx as usize])
    }

    /// Total number of announced /24s.
    ///
    /// Returned as `u64`: the full-IPv4 profile announces on the order
    /// of 2^24 blocks, and downstream accounting multiplies this count
    /// (flows per block, octets per flow) where 32-bit intermediate
    /// products would overflow.
    pub fn announced_blocks(&self) -> u64 {
        self.dark_truth.len() as u64 + self.active_truth.len() as u64
    }

    /// Compiles the block ↔ slot mapping of the announced space, the
    /// index behind the columnar stats layout (`StatsLayout::Columnar`).
    ///
    /// Built from the *full* announcement set, not a day RIB: daily
    /// churn only withdraws announcements, so every day's routed space
    /// is a subset of these slots and one index serves a whole run.
    pub fn slot_index(&self) -> Slot24Index {
        Slot24Index::build(&self.pfx2ann_index)
    }

    /// The RIB snapshot for `day`: announcements minus churn. Withdrawal
    /// is deterministic in `(announcement, day, seed)` and never touches
    /// telescope announcements (their space must stay routed for traffic
    /// to arrive).
    pub fn rib(&self, day: mt_types::Day) -> PrefixTrie<Asn> {
        let threshold = (self.config.rib_churn * u64::MAX as f64) as u64;
        let mut trie = PrefixTrie::new();
        for (idx, ann) in self.announcements.iter().enumerate() {
            let withdrawn = ann.telescope.is_none()
                && splitmix(self.seed ^ 0x0000_b61b, idx as u64, u64::from(day.0)) < threshold;
            if !withdrawn {
                trie.insert(ann.prefix, self.ases[ann.as_idx as usize].asn);
            }
        }
        trie
    }

    /// Whether `block` lies inside a prefix announced on `day`.
    pub fn is_routed(&self, block: Block24, rib: &PrefixTrie<Asn>) -> bool {
        rib.contains_addr(block.base())
    }

    /// The dark blocks of `day`, accounting for telescope dynamic churn.
    pub fn dark_on(&self, day: mt_types::Day) -> Block24Set {
        let mut dark = self.dark_truth.clone();
        for t in &self.telescopes {
            dark.difference_with(&t.dynamic_active_on(day, self.seed));
        }
        dark
    }

    /// The active blocks of `day` (static actives plus telescope blocks
    /// dynamically handed to users).
    pub fn active_on(&self, day: mt_types::Day) -> Block24Set {
        let mut active = self.active_truth.clone();
        for t in &self.telescopes {
            active.union_with(&t.dynamic_active_on(day, self.seed));
        }
        active
    }

    /// First octets of the configured never-announced /8s.
    pub fn unrouted_octets(&self) -> &[u8] {
        &self.config.unrouted_octets
    }

    /// Whether an address falls inside configured unrouted space.
    pub fn is_unrouted_space(&self, addr: Ipv4) -> bool {
        self.config.unrouted_octets.contains(&addr.octets()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_types::Day;

    fn small() -> Internet {
        Internet::generate(InternetConfig::small(), 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.announcements.len(), b.announcements.len());
        assert_eq!(a.dark_truth.len(), b.dark_truth.len());
        assert_eq!(a.ases.len(), b.ases.len());
        for (x, y) in a.announcements.iter().zip(&b.announcements) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.dark_bits, y.dark_bits);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Internet::generate(InternetConfig::small(), 1);
        let b = Internet::generate(InternetConfig::small(), 2);
        assert_ne!(
            (a.dark_truth.len(), a.announcements.len()),
            (b.dark_truth.len(), b.announcements.len())
        );
    }

    #[test]
    fn announcements_do_not_overlap() {
        let net = small();
        let mut seen = Block24Set::new();
        for ann in &net.announcements {
            for block in ann.prefix.blocks24() {
                assert!(seen.insert(block), "block {block} covered twice");
            }
        }
    }

    #[test]
    fn no_special_or_unrouted_space_announced() {
        let net = small();
        let special = SpecialRegistry::new();
        for ann in &net.announcements {
            assert!(!special.is_special(ann.prefix.base()), "{}", ann.prefix);
            assert!(!special.is_special(ann.prefix.last()), "{}", ann.prefix);
            assert!(
                !net.is_unrouted_space(ann.prefix.base()),
                "{} is in unrouted space",
                ann.prefix
            );
        }
    }

    #[test]
    fn truth_sets_partition_announced_space() {
        let net = small();
        assert_eq!(net.dark_truth.intersection_len(&net.active_truth), 0);
        let total: usize = net
            .announcements
            .iter()
            .map(|a| a.prefix.num_blocks24() as usize)
            .sum();
        assert_eq!(net.dark_truth.len() + net.active_truth.len(), total);
        assert!(net.dark_truth.len() > 100, "expect meaningful dark space");
        assert!(
            net.active_truth.len() > 100,
            "expect meaningful active space"
        );
    }

    #[test]
    fn telescopes_are_dark_and_resolvable() {
        let net = small();
        assert_eq!(net.telescopes.len(), 3);
        for (i, t) in net.telescopes.iter().enumerate() {
            for block in t.blocks() {
                let info = net.block_info(block).expect("telescope space is announced");
                assert_eq!(info.usage, Usage::Dark);
                assert_eq!(info.telescope, Some(i as u8));
                assert!(net.dark_truth.contains(block));
            }
        }
    }

    #[test]
    fn block_info_matches_truth_sets() {
        let net = small();
        for block in net.dark_truth.iter().take(200) {
            assert_eq!(net.block_info(block).unwrap().usage, Usage::Dark);
        }
        for block in net.active_truth.iter().take(200) {
            assert_eq!(net.block_info(block).unwrap().usage, Usage::Active);
        }
        // Unannounced space resolves to nothing.
        assert_eq!(net.block_info(Block24(37 << 16)), None);
    }

    #[test]
    fn rib_churn_withdraws_a_little() {
        let net = small();
        let day0 = net.rib(Day(0));
        assert!(day0.len() <= net.announcements.len());
        assert!(
            day0.len() >= net.announcements.len() * 9 / 10,
            "churn should be small"
        );
        // Telescope space is never withdrawn.
        for day in Day(0).range(7) {
            let rib = net.rib(day);
            for t in &net.telescopes {
                assert!(net.is_routed(t.first_block, &rib));
            }
        }
    }

    #[test]
    fn dynamic_telescope_blocks_vary_by_day() {
        let net = small();
        let teu1 = &net.telescopes[1];
        let d0 = teu1.dynamic_active_on(Day(0), net.seed);
        let d1 = teu1.dynamic_active_on(Day(1), net.seed);
        assert!(!d0.is_empty(), "TEU1 has dynamic churn");
        assert!(d0 != d1, "different days differ");
        // Deterministic per day.
        assert_eq!(d0.len(), teu1.dynamic_active_on(Day(0), net.seed).len());
        // dark_on is the complement within the telescope.
        assert_eq!(
            teu1.dark_on(Day(0), net.seed).len() + d0.len(),
            teu1.num_blocks as usize
        );
    }

    #[test]
    fn as_attributes_are_plausible() {
        let net = small();
        assert_eq!(net.ases.len(), 80);
        let continents: std::collections::HashSet<Continent> =
            net.ases.iter().map(|a| a.continent).collect();
        assert!(continents.len() >= 4, "ASes spread across continents");
        for a in &net.ases {
            assert_eq!(mt_types::geo::continent_of(a.country), Some(a.continent));
        }
    }

    #[test]
    fn telescope_range_is_clamped_at_the_top_of_the_address_space() {
        let t = Telescope {
            code: "TTOP".to_owned(),
            as_idx: 0,
            first_block: Block24(NUM_BLOCKS - 4),
            num_blocks: 16,
            blocked_ports: vec![],
            dynamic_active_fraction: 0.0,
        };
        let blocks: Vec<Block24> = t.blocks().collect();
        assert_eq!(blocks.len(), 4, "range must stop at the last /24");
        assert!(blocks.iter().all(|b| b.0 < NUM_BLOCKS));
        assert!(t.contains(Block24(NUM_BLOCKS - 1)));
        assert!(!t.contains(Block24(0)), "the range must not wrap");
        assert!(!t.contains(Block24(NUM_BLOCKS - 5)));

        // A first block beyond the /24 space yields an empty range, and
        // first_block + num_blocks near u32::MAX must not wrap either.
        let t2 = Telescope {
            first_block: Block24(u32::MAX - 2),
            num_blocks: 1 << 16,
            ..t.clone()
        };
        assert_eq!(t2.blocks().count(), 0);
        assert!(!t2.contains(Block24(0)));
        assert!(t2.dark_on(Day(0), 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "must cover between 1 and 65536 /24s")]
    fn oversized_telescope_config_is_rejected() {
        let mut config = InternetConfig::small();
        config.telescopes[0].num_blocks = (1 << 16) + 1;
        Internet::generate(config, 7);
    }

    #[test]
    #[should_panic(expected = "must cover between 1 and 65536 /24s")]
    fn empty_telescope_config_is_rejected() {
        let mut config = InternetConfig::small();
        config.telescopes[1].num_blocks = 0;
        Internet::generate(config, 7);
    }

    #[test]
    fn slot_index_covers_exactly_the_announced_space() {
        let net = small();
        let slots = net.slot_index();
        assert_eq!(u64::from(slots.num_slots()), net.announced_blocks());
        for block in net.dark_truth.iter().take(100) {
            assert!(slots.slot_of(block).is_some());
        }
        for block in net.active_truth.iter().take(100) {
            assert!(slots.slot_of(block).is_some());
        }
        assert_eq!(slots.slot_of(Block24(37 << 16)), None, "unrouted /8");
    }

    #[test]
    fn full_profile_generates_at_ipv4_scale() {
        let net = Internet::generate(InternetConfig::full(), 3);
        let announced = net.announced_blocks();
        assert!(
            announced > 13_000_000,
            "full profile should announce most of the ~14.5M usable /24s, got {announced}"
        );
        assert!(u64::from(net.dark_truth.len() as u32) < announced);
        let slots = net.slot_index();
        assert_eq!(u64::from(slots.num_slots()), announced);
        // The never-announced /8s and reserved space stay unannounced.
        for &o in net.unrouted_octets() {
            assert_eq!(net.block_info(Block24((u32::from(o)) << 16)), None);
        }
        assert_eq!(net.block_info(Block24(0)), None);
        assert_eq!(net.block_info(Block24(NUM_BLOCKS - 1)), None);
    }

    #[test]
    fn unrouted_octets_never_routed() {
        let net = small();
        let rib = net.rib(Day(0));
        for &o in net.unrouted_octets() {
            for probe in [0u32, 100, 255] {
                let block = Block24(((o as u32) << 16) | probe);
                assert!(!net.is_routed(block, &rib));
            }
        }
    }
}
