//! The checks must bite: each checker is fed a deliberately broken release
//! and must reject it, while correct releases at other seeds pass.

use crate::check::{self, Batch, Expect, Schema, Table};
use acpp_core::{publish_deterministic, publish_journaled, DegradationPolicy, PgConfig};
use acpp_data::sal::{self, SalConfig};
use acpp_data::{csv, Role};
use acpp_republish::{Republisher, Update};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const K: usize = 8;
const P: f64 = 0.3;

/// A SAL schema file in the format `acpp generate` writes.
fn schema_text() -> String {
    let mut out = String::new();
    for a in sal::schema().attributes() {
        let role = if a.role() == Role::Sensitive {
            "sensitive"
        } else {
            "qi"
        };
        let labels: Vec<&str> = a.domain().values().map(|v| a.domain().label(v)).collect();
        let _ = writeln!(out, "{}: {role} ordered {}", a.name(), labels.join("|"));
    }
    out
}

struct World {
    schema: Schema,
    table: Table,
    acpp_table: acpp_data::Table,
}

fn world(rows: usize, seed: u64) -> World {
    let acpp_table = sal::generate(SalConfig { rows, seed });
    let text = csv::to_string(&acpp_table, true).unwrap();
    let schema = Schema::parse(&schema_text()).unwrap();
    let table = Table::parse_csv(&schema, &text).unwrap();
    World {
        schema,
        table,
        acpp_table,
    }
}

fn release(w: &World, p: f64, seed: u64) -> String {
    let cfg = PgConfig::new(p, K).unwrap();
    let (dstar, _) = publish_deterministic(
        &w.acpp_table,
        &sal::qi_taxonomies(),
        cfg,
        DegradationPolicy::Abort,
        seed,
    )
    .unwrap();
    dstar.render(&sal::qi_taxonomies())
}

fn expect() -> Expect {
    Expect {
        k: K as u64,
        p: P,
        sample_seed: 5,
    }
}

fn check(w: &World, text: &str) -> Result<usize, String> {
    check::check_release(&w.schema, &w.table, text, &expect())
}

/// Rewrites the `G` of data line `i` (0-based) to `g`.
fn set_g(text: &str, i: usize, g: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let line = &mut lines[i + 1];
    let cut = line.rfind(',').unwrap();
    line.replace_range(cut + 1.., &g.to_string());
    lines.join("\n") + "\n"
}

fn g_of(text: &str, i: usize) -> u64 {
    text.lines()
        .nth(i + 1)
        .unwrap()
        .rsplit(',')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn correct_releases_at_other_seeds_pass() {
    let w = world(20_000, 3);
    for seed in [1, 2, 77] {
        let text = release(&w, P, seed);
        let tuples = check(&w, &text).unwrap();
        assert!(tuples > 0 && tuples <= 20_000 / K);
    }
}

#[test]
fn a_group_below_k_is_rejected() {
    let w = world(20_000, 3);
    let text = release(&w, P, 1);
    // Move rows from line 0 to line 1 so the sum of G still holds.
    let (g0, g1) = (g_of(&text, 0), g_of(&text, 1));
    let broken = set_g(&set_g(&text, 0, K as u64 - 1), 1, g1 + g0 - (K as u64 - 1));
    let err = check(&w, &broken).err().unwrap();
    assert!(err.contains("below k"), "{err}");
}

#[test]
fn a_dropped_row_is_rejected() {
    let w = world(20_000, 3);
    let text = release(&w, P, 1);
    let i = (0..).find(|&i| g_of(&text, i) > K as u64).unwrap();
    let broken = set_g(&text, i, g_of(&text, i) - 1);
    let err = check(&w, &broken).err().unwrap();
    assert!(err.contains("sum of G"), "{err}");
}

#[test]
fn an_unperturbed_sensitive_column_is_rejected() {
    let w = world(20_000, 3);
    // Retention 1 publishes every sampled value as it is in the microdata.
    let err = check(&w, &release(&w, 1.0, 1)).err().unwrap();
    assert!(err.contains("G-weighted count"), "{err}");
}

#[test]
fn an_uncovered_row_and_an_out_of_domain_value_are_rejected() {
    let w = world(20_000, 3);
    let text = release(&w, P, 1);
    let dropped: String = text
        .lines()
        .take(3)
        .chain(text.lines().skip(4))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(check(&w, &dropped).is_err());
    let alien = text.replacen("\n[", "\n[999..", 1);
    let err = check(&w, &alien).err().unwrap();
    assert!(err.contains("outside"), "{err}");
}

#[test]
fn an_altered_untouched_box_is_rejected() {
    let w = world(20_000, 3);
    let taxes = sal::qi_taxonomies();
    let cfg = PgConfig::new(P, K).unwrap();
    let mut rep = Republisher::new(cfg, w.acpp_table.schema().sensitive_domain_size()).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let first = rep
        .publish_next(&w.acpp_table, &taxes, &mut rng)
        .unwrap()
        .render(&taxes);
    let fresh = sal::generate(SalConfig {
        rows: 100,
        seed: 99,
    });
    let mut updates: Vec<Update> = (0..100)
        .map(|i| Update::Delete(w.acpp_table.owner(i * 200)))
        .collect();
    let mut batch = Batch {
        deletes: Vec::new(),
        inserts: Vec::new(),
    };
    for r in 0..100 {
        let row = fresh.row(r);
        batch
            .inserts
            .push((30_000 + r as u32, row.iter().map(|v| v.code()).collect()));
        updates.push(Update::Insert {
            owner: acpp_data::OwnerId(30_000 + r as u32),
            row,
        });
    }
    batch.deletes = (0..100)
        .map(|i| w.acpp_table.owner(i * 200).raw())
        .collect();
    let prepared = rep.prepare_delta(&updates, &taxes, &mut rng).unwrap();
    let second = rep.commit_prepared(prepared).render(&taxes);

    let (_, deleted) = w.table.apply(&batch).unwrap();
    let churned: Vec<Vec<u32>> = deleted
        .into_iter()
        .chain(batch.inserts.into_iter().map(|(_, r)| r))
        .collect();
    let compared = check::check_persistence(&w.schema, &first, &second, &churned).unwrap();
    assert!(compared > 1000, "only {compared} untouched boxes compared");

    // Alter the sensitive value of a line both releases carry verbatim.
    let kept: std::collections::HashSet<&str> = first.lines().collect();
    let line = second.lines().skip(1).find(|l| kept.contains(l)).unwrap();
    let mut fields: Vec<&str> = line.split(',').collect();
    let n = fields.len();
    fields[n - 2] = if fields[n - 2] == "[0;2000)" {
        "[2000;4000)"
    } else {
        "[0;2000)"
    };
    let altered = second.replacen(line, &fields.join(","), 1);
    let err = check::check_persistence(&w.schema, &first, &altered, &churned)
        .err()
        .unwrap();
    assert!(err.contains("untouched box changed"), "{err}");
}

#[test]
fn a_flipped_byte_fails_the_recorded_digest() {
    let w = world(2_000, 4);
    // The benchmark's own scratch directory, which `.gitignore` names.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../.bench_work/test-digest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("dstar.csv");
    let cfg = PgConfig::new(P, K).unwrap();
    publish_journaled(
        &w.acpp_table,
        &sal::qi_taxonomies(),
        cfg,
        DegradationPolicy::Abort,
        3,
        &dir,
        &out,
    )
    .unwrap();
    let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
    let mut bytes = std::fs::read(&out).unwrap();
    let recorded = check::journal_staged_digest(&journal);
    assert_eq!(recorded, Some(check::fnv1a(&bytes)));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    assert_ne!(recorded, Some(check::fnv1a(&bytes)));
    let _ = std::fs::remove_dir_all(&dir);
}
