//! The independent reference solver the benchmark checks the library
//! against.
//!
//! It shares no code with the library: it reads the constraint *text*
//! with its own parser, keeps its own name table, and computes the least
//! fixpoint of the original, unpreprocessed constraints (no offline
//! passes, no cycle collapse) with a plain worklist over dense bitsets and
//! difference propagation. Offsets follow the constraint format: a load
//! `a = *(p + k)` or store `*(p + k) = b` reaches slot `o + k` of every
//! `o` in `pts(p)` whose `fun` block declares more than `k` slots.
//!
//! Answers are given by *name*, so they compare with the library's however
//! either side numbers its variables.

use std::collections::{HashMap, HashSet, VecDeque};

/// The least fixpoint of one constraint program.
pub struct Reference {
    names: Vec<String>,
    /// Dense location index → variable id.
    loc_var: Vec<u32>,
    /// `pts` of variable `v` is `bits[v * words .. (v + 1) * words]`, one bit
    /// per dense location.
    bits: Vec<u64>,
    words: usize,
    by_name: HashMap<String, u32>,
}

enum Line {
    AddrOf(u32, u32),
    Copy(u32, u32),
    Load(u32, u32, u32),
    Store(u32, u32, u32),
}

struct Parsed {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
    limit: Vec<u32>,
    lines: Vec<Line>,
}

impl Parsed {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.limit.push(1);
        self.by_name.insert(name.to_owned(), v);
        v
    }
}

/// `*(v + k)`, `*v` or `v` → (name, dereferenced, offset).
fn side(s: &str) -> Result<(&str, bool, u32), String> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix("*(").and_then(|r| r.strip_suffix(')')) {
        let (name, off) = inner
            .split_once('+')
            .ok_or_else(|| format!("bad offset expression `{s}`"))?;
        let off = off
            .trim()
            .parse()
            .map_err(|_| format!("bad offset in `{s}`"))?;
        Ok((name.trim(), true, off))
    } else if let Some(name) = s.strip_prefix('*') {
        Ok((name.trim(), true, 0))
    } else {
        Ok((s, false, 0))
    }
}

fn parse(text: &str) -> Result<Parsed, String> {
    let mut p = Parsed {
        names: Vec::new(),
        by_name: HashMap::new(),
        limit: Vec::new(),
        lines: Vec::new(),
    };
    for raw in text.lines() {
        // `#` starts a comment only at the start of a token; slot names
        // (`f#2`) contain it.
        let line = match raw.find(" #") {
            Some(i) => &raw[..i],
            None if raw.trim_start().starts_with('#') => "",
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("fun ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(slots), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("bad function line `{line}`"));
            };
            let slots: u32 = slots
                .parse()
                .map_err(|_| format!("bad slot count in `{line}`"))?;
            if slots == 0 || p.by_name.contains_key(name) {
                return Err(format!("bad function declaration `{line}`"));
            }
            let f = p.intern(name);
            p.limit[f as usize] = slots;
            for k in 1..slots {
                let slot = format!("{name}#{k}");
                if p.by_name.contains_key(&slot) || p.intern(&slot) != f + k {
                    return Err(format!("function block `{name}` is not contiguous"));
                }
            }
            continue;
        }
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| format!("expected `lhs = rhs` in `{line}`"))?;
        let rhs = rhs.trim();
        if let Some(obj) = rhs.strip_prefix('&') {
            let (a, deref, _) = side(lhs)?;
            if deref {
                return Err(format!("bad address-of `{line}`"));
            }
            let (a, b) = (p.intern(a), p.intern(obj.trim()));
            p.lines.push(Line::AddrOf(a, b));
            continue;
        }
        let (l, lderef, loff) = side(lhs)?;
        let (r, rderef, roff) = side(rhs)?;
        let (l, r) = (p.intern(l), p.intern(r));
        p.lines.push(match (lderef, rderef) {
            (false, false) => Line::Copy(l, r),
            (false, true) => Line::Load(l, r, roff),
            (true, false) => Line::Store(l, loff, r),
            (true, true) => return Err(format!("two dereferences in `{line}`")),
        });
    }
    Ok(p)
}

struct Solver {
    words: usize,
    bits: Vec<u64>,
    delta: Vec<u64>,
    queued: Vec<bool>,
    queue: VecDeque<u32>,
    succ: Vec<Vec<u32>>,
    edges: HashSet<u64>,
}

impl Solver {
    /// `pts(t) ∪= src`; new bits also go to `delta(t)`, and `t` is queued.
    fn union_into(&mut self, t: u32, src: &[u64]) {
        let base = t as usize * self.words;
        let mut changed = false;
        for (i, &w) in src.iter().enumerate() {
            let new = w & !self.bits[base + i];
            if new != 0 {
                self.bits[base + i] |= new;
                self.delta[base + i] |= new;
                changed = true;
            }
        }
        if changed && !self.queued[t as usize] {
            self.queued[t as usize] = true;
            self.queue.push_back(t);
        }
    }

    /// Adds the copy edge `s → t`; a new edge carries all of `pts(s)`.
    fn add_edge(&mut self, s: u32, t: u32, scratch: &mut Vec<u64>) {
        if s == t || !self.edges.insert((s as u64) << 32 | t as u64) {
            return;
        }
        self.succ[s as usize].push(t);
        let base = s as usize * self.words;
        scratch.clear();
        scratch.extend_from_slice(&self.bits[base..base + self.words]);
        self.union_into(t, scratch);
    }
}

impl Reference {
    /// Parses constraint text and solves it to its least fixpoint.
    ///
    /// # Errors
    ///
    /// A description of the first line that is not in the constraint
    /// format.
    pub fn solve(text: &str) -> Result<Reference, String> {
        let p = parse(text)?;
        let n = p.names.len();
        let mut loc_of = vec![u32::MAX; n];
        let mut loc_var = Vec::new();
        for line in &p.lines {
            if let Line::AddrOf(_, b) = *line {
                if loc_of[b as usize] == u32::MAX {
                    loc_of[b as usize] = loc_var.len() as u32;
                    loc_var.push(b);
                }
            }
        }
        let words = loc_var.len().div_ceil(64).max(1);
        let mut s = Solver {
            words,
            bits: vec![0; n * words],
            delta: vec![0; n * words],
            queued: vec![false; n],
            queue: VecDeque::new(),
            succ: vec![Vec::new(); n],
            edges: HashSet::new(),
        };
        let mut loads: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut stores: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut copies = Vec::new();
        let mut one = vec![0u64; words];
        for line in &p.lines {
            match *line {
                Line::AddrOf(a, b) => {
                    let l = loc_of[b as usize] as usize;
                    one.iter_mut().for_each(|w| *w = 0);
                    one[l / 64] = 1 << (l % 64);
                    s.union_into(a, &one);
                }
                Line::Copy(a, b) => copies.push((b, a)),
                Line::Load(a, ptr, k) => loads[ptr as usize].push((a, k)),
                Line::Store(ptr, k, b) => stores[ptr as usize].push((b, k)),
            }
        }
        let mut scratch = Vec::with_capacity(words);
        for (from, to) in copies {
            s.add_edge(from, to, &mut scratch);
        }
        let mut d = vec![0u64; words];
        while let Some(v) = s.queue.pop_front() {
            s.queued[v as usize] = false;
            let base = v as usize * words;
            d.copy_from_slice(&s.delta[base..base + words]);
            s.delta[base..base + words].iter_mut().for_each(|w| *w = 0);
            if !loads[v as usize].is_empty() || !stores[v as usize].is_empty() {
                for (i, &w) in d.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        let o = loc_var[i * 64 + w.trailing_zeros() as usize];
                        w &= w - 1;
                        let lim = p.limit[o as usize];
                        for &(a, k) in &loads[v as usize] {
                            if k < lim {
                                s.add_edge(o + k, a, &mut scratch);
                            }
                        }
                        for &(b, k) in &stores[v as usize] {
                            if k < lim {
                                s.add_edge(b, o + k, &mut scratch);
                            }
                        }
                    }
                }
            }
            for j in 0..s.succ[v as usize].len() {
                let t = s.succ[v as usize][j];
                s.union_into(t, &d);
            }
        }
        Ok(Reference {
            names: p.names,
            loc_var,
            bits: s.bits,
            words,
            by_name: p.by_name,
        })
    }

    /// Every variable name, in this solver's own order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Location names in `pts(name)`, sorted; `None` for an unknown name.
    pub fn points_to(&self, name: &str) -> Option<Vec<&str>> {
        let v = *self.by_name.get(name)? as usize;
        let mut out: Vec<&str> = self
            .locs(v)
            .map(|o| self.names[o as usize].as_str())
            .collect();
        out.sort_unstable();
        Some(out)
    }

    fn locs(&self, v: usize) -> impl Iterator<Item = u32> + '_ {
        let row = &self.bits[v * self.words..(v + 1) * self.words];
        row.iter().enumerate().flat_map(move |(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    self.loc_var[i * 64 + b]
                })
            })
        })
    }

    /// The by-name digest of the whole solution (see [`Digest`]).
    pub fn digest(&self) -> Digest {
        let loc_hash: Vec<u64> = self
            .loc_var
            .iter()
            .map(|&o| name_hash(&self.names[o as usize]))
            .collect();
        let mut d = Digest::default();
        for (v, name) in self.names.iter().enumerate() {
            let row = &self.bits[v * self.words..(v + 1) * self.words];
            let mut set = SetHash::default();
            for (i, &w) in row.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    set.add(loc_hash[i * 64 + w.trailing_zeros() as usize]);
                    w &= w - 1;
                }
            }
            d.add(name, set);
        }
        d
    }
}

/// FNV-1a over the bytes of a name.
pub fn name_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A strong 64-bit mixer (splitmix64's finalizer).
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent hash of one points-to set, fed location-name hashes.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SetHash {
    sum: u64,
    len: u64,
}

impl SetHash {
    /// Adds one location, given its [`name_hash`].
    pub fn add(&mut self, loc_name_hash: u64) {
        self.sum = self.sum.wrapping_add(mix(loc_name_hash));
        self.len += 1;
    }
}

/// By-name digest of a solution: the wrapping sum, over every variable
/// with a non-empty set, of a hash of its name and its set's location
/// names, plus the tuple count. Independent of variable numbering and of
/// the order sets are visited in, so the library's and the reference's
/// solutions digest alike exactly when every variable's set agrees by
/// name (up to 64-bit collisions).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Digest {
    /// Wrapping sum of per-variable hashes.
    pub sum: u64,
    /// Total points-to tuples.
    pub tuples: u64,
}

impl Digest {
    /// Adds variable `name` with points-to set hash `set`.
    pub fn add(&mut self, name: &str, set: SetHash) {
        if set.len == 0 {
            return;
        }
        self.sum = self
            .sum
            .wrapping_add(mix(name_hash(name) ^ mix(set.sum ^ set.len.rotate_left(32))));
        self.tuples += set.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_reach_declared_slots_only() {
        let r = Reference::solve(
            "fun f 3\n\
             fp = &f\n\
             x = &o\n\
             *(fp + 2) = x\n\
             y = *(fp + 2)\n\
             z = *(fp + 5)\n\
             q = &o\n\
             w = *(q + 1)\n",
        )
        .unwrap();
        assert_eq!(r.points_to("f#2").unwrap(), ["o"]);
        assert_eq!(r.points_to("y").unwrap(), ["o"]);
        assert!(r.points_to("z").unwrap().is_empty());
        assert!(r.points_to("w").unwrap().is_empty());
    }

    #[test]
    fn loads_and_stores_through_cycles() {
        let r = Reference::solve(
            "p = &a\n\
             q = &b\n\
             a = q\n\
             b = p\n\
             r = *p # comment\n\
             *q = r\n\
             s = *r\n",
        )
        .unwrap();
        assert_eq!(r.points_to("a").unwrap(), ["b"]);
        assert_eq!(r.points_to("b").unwrap(), ["a", "b"]);
        assert_eq!(r.points_to("r").unwrap(), ["b"]);
        assert_eq!(r.points_to("s").unwrap(), ["a", "b"]);
        assert_eq!(r.digest().tuples, 8);
    }

    #[test]
    fn rejects_text_outside_the_format() {
        assert!(Reference::solve("*p = *q\n").is_err());
        assert!(Reference::solve("p q\n").is_err());
        assert!(Reference::solve("x = y\nfun x 2\n").is_err());
    }
}
