//! Release checks computed apart from the program.
//!
//! Nothing here calls into the `acpp` crates: the schema file, the input
//! CSV, update batches, releases, journals and the digest are all parsed
//! and recomputed by this module's own code, so a fault in the program's
//! parser, renderer or digest cannot hide itself from the check.

use std::collections::HashMap;

/// FNV-1a (64-bit) of `bytes`, the digest the program records for releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own seeded stream for sampling rows.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One attribute of a schema file: its name, role and labels in code order.
pub struct Attr {
    pub name: String,
    pub qi: bool,
    pub labels: Vec<String>,
    /// Label → code, as the input CSV spells labels.
    index: HashMap<String, u32>,
    /// Label → code, as a release spells labels (`,` rendered as `;`).
    release_index: HashMap<String, u32>,
}

/// A schema as `acpp generate` writes it (`Name: role kind a|b|c`).
pub struct Schema {
    pub attrs: Vec<Attr>,
    /// Column indices of the quasi-identifiers, in column order.
    pub qi: Vec<usize>,
    /// Column index of the sensitive attribute.
    pub sensitive: usize,
}

impl Schema {
    pub fn parse(text: &str) -> Result<Schema, String> {
        let mut attrs = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, rest) = line.split_once(':').ok_or("schema line without `:`")?;
            let mut words = rest.split_whitespace();
            let role = words.next().ok_or("schema line without a role")?;
            let _kind = words.next().ok_or("schema line without a kind")?;
            let labels: Vec<String> = words
                .collect::<Vec<_>>()
                .join(" ")
                .split('|')
                .map(str::to_string)
                .collect();
            if labels.is_empty() || labels.iter().any(String::is_empty) {
                return Err(format!("attribute `{name}` has an empty label"));
            }
            let index = labels
                .iter()
                .enumerate()
                .map(|(i, l)| (l.clone(), i as u32))
                .collect();
            let release_index = labels
                .iter()
                .enumerate()
                .map(|(i, l)| (l.replace(',', ";"), i as u32))
                .collect();
            let qi = match role {
                "qi" => true,
                "sensitive" => false,
                other => return Err(format!("unknown role `{other}`")),
            };
            attrs.push(Attr {
                name: name.trim().to_string(),
                qi,
                labels,
                index,
                release_index,
            });
        }
        let qi: Vec<usize> = (0..attrs.len()).filter(|&c| attrs[c].qi).collect();
        let sensitive: Vec<usize> = (0..attrs.len()).filter(|&c| !attrs[c].qi).collect();
        match sensitive[..] {
            [s] if !qi.is_empty() => Ok(Schema {
                attrs,
                qi,
                sensitive: s,
            }),
            _ => Err("schema needs quasi-identifiers and exactly one sensitive attribute".into()),
        }
    }

    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Size of the sensitive domain, |U^s|.
    pub fn us(&self) -> usize {
        self.attrs[self.sensitive].labels.len()
    }
}

/// Splits one CSV record, honouring double-quoted fields.
fn csv_fields(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            (true, '"') => quoted = false,
            (false, '"') if field.is_empty() => quoted = true,
            (false, ',') => out.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    out.push(field);
    out
}

/// Microdata as domain codes, row-major in schema column order.
#[derive(Clone)]
pub struct Table {
    pub arity: usize,
    pub owners: Vec<u32>,
    pub codes: Vec<u32>,
}

impl Table {
    /// Parses an owner-tagged input CSV (`__owner,<schema columns>`).
    pub fn parse_csv(schema: &Schema, text: &str) -> Result<Table, String> {
        let mut lines = text.lines();
        let header = csv_fields(lines.next().ok_or("empty input")?);
        let expect: Vec<&str> = std::iter::once("__owner")
            .chain(schema.attrs.iter().map(|a| a.name.as_str()))
            .collect();
        if header != expect {
            return Err(format!("input header {header:?} is not {expect:?}"));
        }
        let mut t = Table {
            arity: schema.arity(),
            owners: Vec::new(),
            codes: Vec::new(),
        };
        for (i, line) in lines.enumerate() {
            let fields = csv_fields(line);
            if fields.len() != t.arity + 1 {
                return Err(format!("input line {} has {} fields", i + 2, fields.len()));
            }
            let owner = fields[0]
                .parse()
                .map_err(|_| format!("bad owner on line {}", i + 2))?;
            t.owners.push(owner);
            for (c, f) in fields[1..].iter().enumerate() {
                let code = schema.attrs[c].index.get(f.as_str()).ok_or_else(|| {
                    format!(
                        "input line {}: `{f}` is not in {}",
                        i + 2,
                        schema.attrs[c].name
                    )
                })?;
                t.codes.push(*code);
            }
        }
        Ok(t)
    }

    pub fn len(&self) -> usize {
        self.owners.len()
    }

    pub fn row(&self, r: usize) -> &[u32] {
        &self.codes[r * self.arity..(r + 1) * self.arity]
    }

    /// Applies an update batch the way the series contract states it:
    /// survivors keep their order, inserts follow at the tail. Returns the
    /// next table and the deleted rows' codes.
    pub fn apply(&self, batch: &Batch) -> Result<(Table, Vec<Vec<u32>>), String> {
        let by_owner: HashMap<u32, usize> = self
            .owners
            .iter()
            .enumerate()
            .map(|(r, &o)| (o, r))
            .collect();
        let mut dead = vec![false; self.len()];
        let mut deleted = Vec::with_capacity(batch.deletes.len());
        for o in &batch.deletes {
            let r = *by_owner
                .get(o)
                .ok_or_else(|| format!("delete of absent owner {o}"))?;
            if std::mem::replace(&mut dead[r], true) {
                return Err(format!("owner {o} deleted twice"));
            }
            deleted.push(self.row(r).to_vec());
        }
        let mut next = Table {
            arity: self.arity,
            owners: Vec::new(),
            codes: Vec::new(),
        };
        for r in (0..self.len()).filter(|&r| !dead[r]) {
            next.owners.push(self.owners[r]);
            next.codes.extend_from_slice(self.row(r));
        }
        for (o, row) in &batch.inserts {
            if by_owner.get(o).is_some_and(|&r| !dead[r]) {
                return Err(format!("insert of present owner {o}"));
            }
            next.owners.push(*o);
            next.codes.extend_from_slice(row);
        }
        Ok((next, deleted))
    }
}

/// An update batch: `D,<owner>` and `I,<owner>,<codes...>` lines.
pub struct Batch {
    pub deletes: Vec<u32>,
    pub inserts: Vec<(u32, Vec<u32>)>,
}

impl Batch {
    pub fn parse(text: &str, arity: usize) -> Result<Batch, String> {
        let mut b = Batch {
            deletes: Vec::new(),
            inserts: Vec::new(),
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let nums = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| format!("bad batch field `{s}`"))
            };
            let mut f = line.split(',');
            match (f.next(), f.next()) {
                (Some("D"), Some(o)) => b.deletes.push(nums(o)?),
                (Some("I"), Some(o)) => {
                    let row = f.map(nums).collect::<Result<Vec<_>, _>>()?;
                    if row.len() != arity {
                        return Err(format!("insert with {} values", row.len()));
                    }
                    b.inserts.push((nums(o)?, row));
                }
                _ => return Err(format!("bad batch line `{line}`")),
            }
        }
        Ok(b)
    }
}

/// A parsed release: per tuple its QI box, sensitive code and `G`.
pub struct Release<'a> {
    pub lines: Vec<&'a str>,
    /// `[lo, hi]` per QI position, flattened: tuple `t`, position `d` at
    /// `2 * (t * q + d)`.
    pub boxes: Vec<u32>,
    pub sens: Vec<u32>,
    pub g: Vec<u64>,
    q: usize,
}

fn parse_qi_label(attr: &Attr, label: &str) -> Option<(u32, u32)> {
    let last = attr.labels.len() as u32 - 1;
    if label == "*" {
        return Some((0, last));
    }
    if let Some(&c) = attr.release_index.get(label) {
        return Some((c, c));
    }
    let inner = label.strip_prefix('[')?.strip_suffix(']')?;
    // A label may itself hold `..`; accept the one split whose both ends
    // are labels of the domain.
    inner.match_indices("..").find_map(|(i, _)| {
        let lo = *attr.release_index.get(&inner[..i])?;
        let hi = *attr.release_index.get(&inner[i + 2..])?;
        (lo < hi).then_some((lo, hi))
    })
}

impl<'a> Release<'a> {
    /// Parses a release and checks its header and that every value lies
    /// in its domain.
    pub fn parse(schema: &Schema, text: &'a str) -> Result<Release<'a>, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty release")?;
        let expect: Vec<String> = schema
            .qi
            .iter()
            .chain(std::iter::once(&schema.sensitive))
            .map(|&c| schema.attrs[c].name.clone())
            .chain(std::iter::once("G".to_string()))
            .collect();
        if header != expect.join(",") {
            return Err(format!(
                "release header `{header}` is not `{}`",
                expect.join(",")
            ));
        }
        let q = schema.qi.len();
        let mut r = Release {
            lines: Vec::new(),
            boxes: Vec::new(),
            sens: Vec::new(),
            g: Vec::new(),
            q,
        };
        for (i, line) in lines.enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != q + 2 {
                return Err(format!(
                    "release line {} has {} fields",
                    i + 2,
                    fields.len()
                ));
            }
            for (d, &c) in schema.qi.iter().enumerate() {
                let (lo, hi) = parse_qi_label(&schema.attrs[c], fields[d]).ok_or_else(|| {
                    format!(
                        "release line {}: `{}` outside {}",
                        i + 2,
                        fields[d],
                        schema.attrs[c].name
                    )
                })?;
                r.boxes.extend([lo, hi]);
            }
            let s = schema.attrs[schema.sensitive]
                .release_index
                .get(fields[q])
                .ok_or_else(|| {
                    format!(
                        "release line {}: sensitive `{}` outside its domain",
                        i + 2,
                        fields[q]
                    )
                })?;
            let g: u64 = fields[q + 1]
                .parse()
                .ok()
                .filter(|&g| g > 0)
                .ok_or_else(|| format!("release line {}: bad G `{}`", i + 2, fields[q + 1]))?;
            r.sens.push(*s);
            r.g.push(g);
            r.lines.push(line);
        }
        Ok(r)
    }

    pub fn len(&self) -> usize {
        self.g.len()
    }

    fn interval(&self, t: usize, d: usize) -> (u32, u32) {
        let i = 2 * (t * self.q + d);
        (self.boxes[i], self.boxes[i + 1])
    }

    /// The QI part of tuple `t`'s line: its box, as the release spells it.
    pub fn key(&self, t: usize) -> &'a str {
        let line = self.lines[t];
        let mut cut = line.rsplitn(3, ',');
        cut.next();
        cut.next();
        &line[..cut.next().map_or(0, str::len)]
    }
}

/// Point location over a release's boxes: one bitset of boxes per QI
/// position and domain value, so the boxes containing a row are the AND
/// of its QI values' bitsets — exact, and far cheaper than testing every
/// box.
pub struct BoxIndex {
    words: usize,
    bits: Vec<Vec<Vec<u64>>>,
    scratch: Vec<u64>,
}

impl BoxIndex {
    pub fn new(schema: &Schema, release: &Release<'_>) -> BoxIndex {
        let words = release.len().div_ceil(64).max(1);
        let mut bits: Vec<Vec<Vec<u64>>> = schema
            .qi
            .iter()
            .map(|&c| vec![vec![0u64; words]; schema.attrs[c].labels.len()])
            .collect();
        for t in 0..release.len() {
            for (d, dim) in bits.iter_mut().enumerate() {
                let (lo, hi) = release.interval(t, d);
                for v in lo..=hi {
                    dim[v as usize][t / 64] |= 1 << (t % 64);
                }
            }
        }
        BoxIndex {
            words,
            bits,
            scratch: vec![0; words],
        }
    }

    /// The boxes containing the QI vector `qi`, in tuple order.
    pub fn locate(&mut self, qi: &[u32]) -> Vec<usize> {
        self.scratch.copy_from_slice(&self.bits[0][qi[0] as usize]);
        for (d, &v) in qi.iter().enumerate().skip(1) {
            for (a, b) in self.scratch.iter_mut().zip(&self.bits[d][v as usize]) {
                *a &= b;
            }
        }
        let mut hits = Vec::new();
        for w in 0..self.words {
            let mut word = self.scratch[w];
            while word != 0 {
                hits.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        hits
    }
}

fn qi_of(schema: &Schema, row: &[u32]) -> Vec<u32> {
    schema.qi.iter().map(|&c| row[c]).collect()
}

/// Width of the unbiasedness band in standard deviations.
const Z: f64 = 5.0;

/// Input rows whose coverage is checked per release.
const COVERAGE_SAMPLE: usize = 2000;

/// What a release of a table must satisfy.
pub struct Expect {
    pub k: u64,
    pub p: f64,
    /// Seed of the coverage sample.
    pub sample_seed: u64,
}

/// Checks one release of `table`: header, domains, `G ≥ k`, `ΣG = n`,
/// `|D*| ≤ ⌊n/k⌋`, coverage of a seeded row sample, and randomized-response
/// unbiasedness of the G-weighted sensitive counts. Returns the tuple count.
pub fn check_release(
    schema: &Schema,
    table: &Table,
    text: &str,
    exp: &Expect,
) -> Result<usize, String> {
    let rel = Release::parse(schema, text)?;
    let n = table.len() as u64;
    if let Some(t) = (0..rel.len()).find(|&t| rel.g[t] < exp.k) {
        return Err(format!(
            "group of {} below k = {} on line {}",
            rel.g[t],
            exp.k,
            t + 2
        ));
    }
    let sum: u64 = rel.g.iter().sum();
    if sum != n {
        return Err(format!("sum of G is {sum}, the table has {n} rows"));
    }
    if rel.len() as u64 > n / exp.k {
        return Err(format!(
            "{} tuples exceed floor(n/k) = {}",
            rel.len(),
            n / exp.k
        ));
    }
    let mut index = BoxIndex::new(schema, &rel);
    for i in 0..COVERAGE_SAMPLE.min(table.len()) {
        let r = (splitmix64(exp.sample_seed ^ i as u64) % n) as usize;
        let hits = index.locate(&qi_of(schema, table.row(r)));
        if hits.len() != 1 {
            return Err(format!(
                "input row {r} lies in {} published boxes",
                hits.len()
            ));
        }
    }
    // E[Σ G · 1(s = v)] = Σ_rows P(perturbed = v) = p·count(v) + (1−p)·n/|U|.
    // Per group the term has variance G²·q(1−q) ≤ G·(G·q), so
    // σ² ≤ G_max · E — a bound that holds whatever the grouping.
    let us = schema.us();
    let mut input = vec![0u64; us];
    for r in 0..table.len() {
        input[table.row(r)[schema.sensitive] as usize] += 1;
    }
    let mut published = vec![0u64; us];
    for t in 0..rel.len() {
        published[rel.sens[t] as usize] += rel.g[t];
    }
    let g_max = rel.g.iter().copied().max().unwrap_or(1) as f64;
    for v in 0..us {
        let e = exp.p * input[v] as f64 + (1.0 - exp.p) * n as f64 / us as f64;
        let sigma = (g_max * e).sqrt().max(1.0);
        if (published[v] as f64 - e).abs() > Z * sigma {
            return Err(format!(
                "sensitive value {v}: G-weighted count {} is outside {e:.1} ± {:.1}",
                published[v],
                Z * sigma
            ));
        }
    }
    Ok(rel.len())
}

/// Series persistence between consecutive releases: every box present in
/// both that contains none of the batch's deleted or inserted rows must
/// carry a byte-identical line. Returns the number of such boxes.
pub fn check_persistence(
    schema: &Schema,
    prev: &str,
    next: &str,
    churned: &[Vec<u32>],
) -> Result<usize, String> {
    let prev = Release::parse(schema, prev)?;
    let next = Release::parse(schema, next)?;
    let mut touched = vec![false; next.len()];
    let mut index = BoxIndex::new(schema, &next);
    for row in churned {
        for t in index.locate(&qi_of(schema, row)) {
            touched[t] = true;
        }
    }
    let before: HashMap<&str, &str> = (0..prev.len())
        .map(|t| (prev.key(t), prev.lines[t]))
        .collect();
    let mut compared = 0;
    for t in (0..next.len()).filter(|&t| !touched[t]) {
        if let Some(&old) = before.get(next.key(t)) {
            if old != next.lines[t] {
                return Err(format!(
                    "untouched box changed: `{old}` became `{}`",
                    next.lines[t]
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

/// The release digest a journal's `staged <digest> <len>` record holds.
pub fn journal_staged_digest(journal: &str) -> Option<u64> {
    journal.lines().find_map(|line| {
        let body = line.rsplit_once('|')?.0;
        let hex = body.strip_prefix("staged ")?.split(' ').next()?;
        u64::from_str_radix(hex, 16).ok()
    })
}

/// `release file name → digest` from a series' bookkeeping file.
pub fn series_digests(state: &str) -> HashMap<String, u64> {
    state
        .lines()
        .filter_map(|l| {
            let (name, hex) = l.split_once('\t')?;
            Some((name.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}
