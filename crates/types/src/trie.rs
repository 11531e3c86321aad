//! A binary (Patricia-style, path-per-bit) trie keyed by IPv4 prefixes.
//!
//! Used for the RIB ("is this /24 inside any announced prefix?" — pipeline
//! step 5), the prefix-to-AS mapping, and the special-purpose registry. The
//! hot operation is longest-prefix match of a single address; the trie also
//! supports exact lookup, covering-prefix enumeration, and in-order
//! traversal for the prefix-index analysis.
//!
//! The implementation is a straightforward node-per-bit binary trie. For
//! the RIB sizes we deal with (tens of thousands of prefixes, ≤ 32 levels)
//! this is fast, simple and robust — in line with this workspace's
//! smoltcp-inspired preference for obvious data structures over clever
//! ones.

use crate::ipv4::Ipv4;
use crate::prefix::Prefix;

#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

/// A map from [`Prefix`] to `V` supporting longest-prefix match.
///
/// ```
/// use mt_types::{Ipv4, Prefix, PrefixTrie};
/// let mut rib = PrefixTrie::new();
/// rib.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// rib.insert("10.1.0.0/16".parse().unwrap(), "specific");
/// let (prefix, value) = rib.lookup(Ipv4::new(10, 1, 2, 3)).unwrap();
/// assert_eq!((prefix.to_string().as_str(), *value), ("10.1.0.0/16", "specific"));
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Extracts bit `i` (0 = most significant) of an address.
#[inline]
fn bit(addr: Ipv4, i: u8) -> usize {
    ((addr.0 >> (31 - i)) & 1) as usize
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            root: Node::new(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a prefix, returning the previous value if it was present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.base(), i);
            node = node.children[b].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes a prefix, returning its value if it was present.
    ///
    /// Interior nodes left empty are not pruned; for our workloads tries
    /// are built once per RIB snapshot and discarded wholesale, so pruning
    /// would be wasted work.
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.base(), i);
            node = node.children[b].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.base(), i);
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, with its value.
    pub fn lookup(&self, addr: Ipv4) -> Option<(Prefix, &V)> {
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0, v));
        for i in 0..32u8 {
            let b = bit(addr, i);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Prefix::containing(addr, len), v))
    }

    /// Whether any stored prefix contains `addr`.
    pub fn contains_addr(&self, addr: Ipv4) -> bool {
        self.lookup(addr).is_some()
    }

    /// All stored prefixes containing `addr`, from least to most
    /// specific. Lazy: no allocation, and short-circuiting consumers
    /// (e.g. `.next()` for the least specific covering prefix) stop
    /// walking the trie early.
    pub fn covering(&self, addr: Ipv4) -> Covering<'_, V> {
        Covering {
            node: Some(&self.root),
            addr,
            depth: 0,
        }
    }

    /// In-order traversal of all `(prefix, value)` pairs (sorted by base
    /// address, then length — the same order as `Prefix`'s `Ord`).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        Self::walk(&self.root, 0, 0, &mut out);
        out.into_iter()
    }

    fn walk<'a>(node: &'a Node<V>, acc: u32, depth: u8, out: &mut Vec<(Prefix, &'a V)>) {
        if let Some(v) = node.value.as_ref() {
            let base = if depth == 0 { 0 } else { acc << (32 - depth) };
            out.push((Prefix::containing(Ipv4(base), depth), v));
        }
        for b in 0..2u32 {
            if let Some(child) = node.children[b as usize].as_deref() {
                Self::walk(child, (acc << 1) | b, depth + 1, out);
            }
        }
    }
}

/// Iterator over the stored prefixes containing one address, yielded
/// from least to most specific. Returned by [`PrefixTrie::covering`].
///
/// Walks the lookup path of the address one node per step; a value at
/// depth `d` is the stored prefix of length `d` covering the address
/// (depth 0 being the default route).
#[derive(Debug, Clone)]
pub struct Covering<'a, V> {
    node: Option<&'a Node<V>>,
    addr: Ipv4,
    depth: u8,
}

impl<'a, V> Iterator for Covering<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let node = self.node?;
            let depth = self.depth;
            self.node = if depth < 32 {
                node.children[bit(self.addr, depth)].as_deref()
            } else {
                None
            };
            self.depth = depth + 1;
            if let Some(v) = node.value.as_ref() {
                return Some((Prefix::containing(self.addr, depth), v));
            }
        }
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/9")), None);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        t.insert(p("10.1.2.0/24"), "twentyfour");
        assert_eq!(
            t.lookup(a("10.1.2.3")).unwrap(),
            (p("10.1.2.0/24"), &"twentyfour")
        );
        assert_eq!(
            t.lookup(a("10.1.9.9")).unwrap(),
            (p("10.1.0.0/16"), &"sixteen")
        );
        assert_eq!(
            t.lookup(a("10.200.0.1")).unwrap(),
            (p("10.0.0.0/8"), &"eight")
        );
        assert_eq!(t.lookup(a("11.0.0.1")), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT_ROUTE, 0);
        assert_eq!(t.lookup(a("1.2.3.4")).unwrap().0, Prefix::DEFAULT_ROUTE);
        assert_eq!(
            t.lookup(a("255.255.255.255")).unwrap().0,
            Prefix::DEFAULT_ROUTE
        );
    }

    #[test]
    fn covering_lists_all_supernets() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        let cov: Vec<(Prefix, &i32)> = t.covering(a("10.1.5.5")).collect();
        let lens: Vec<u8> = cov.iter().map(|(pre, _)| pre.len()).collect();
        assert_eq!(lens, vec![0, 8, 16]);
        assert_eq!(cov[0], (Prefix::DEFAULT_ROUTE, &0));
        assert_eq!(cov[2], (p("10.1.0.0/16"), &16));
        // Lazy: taking only the least specific match works too.
        assert_eq!(t.covering(a("10.1.5.5")).next().unwrap().1, &0);
        assert_eq!(t.covering(a("11.0.0.0")).next().unwrap().1, &0);
        assert!(PrefixTrie::<i32>::new()
            .covering(a("1.1.1.1"))
            .next()
            .is_none());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let prefixes = vec![
            p("9.0.0.0/8"),
            p("10.0.0.0/8"),
            p("10.0.0.0/24"),
            p("10.0.1.0/24"),
            p("192.168.0.0/16"),
        ];
        let t: PrefixTrie<()> = prefixes.iter().map(|&pre| (pre, ())).collect();
        let got: Vec<Prefix> = t.iter().map(|(pre, _)| pre).collect();
        assert_eq!(got, prefixes);
    }

    #[test]
    fn host_route_lookup() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), "host");
        assert_eq!(t.lookup(a("1.2.3.4")).unwrap(), (p("1.2.3.4/32"), &"host"));
        assert_eq!(t.lookup(a("1.2.3.5")), None);
    }
}
