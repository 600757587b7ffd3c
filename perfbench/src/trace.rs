//! Traced runs: each operation calls the layers' public functions in the
//! order the CLI calls them, with a span (an `Instant` pair) around each
//! call. Where a layer has no public entry of its own, the span the
//! program already emits is read from its telemetry. Layers that run
//! nested inside one of those calls (perturbation, partition, grouping,
//! batch application, the journal fingerprint) are timed by calling their
//! public function again on the operation's own data, outside the
//! operation's wall time.

use crate::Args;
use acpp_core::journal::{publish_journaled_observed, RunFingerprint};
use acpp_core::{publish_robust_observed, DegradationPolicy, PgConfig, Threads};
use acpp_data::atomic::CommitSet;
use acpp_data::digest::render_digest;
use acpp_data::{csv, fnv1a, sal, write_atomic, RetryPolicy, Table};
use acpp_generalize::mondrian::{partition_with_assignment, MondrianConfig};
use acpp_generalize::scheme::group_from_box_assignment_threaded;
use acpp_generalize::Recoding;
use acpp_obs::Telemetry;
use acpp_perturb::Channel;
use acpp_republish::durable::{release_file_name, STATE_FILE};
use acpp_republish::{apply_updates, parse_updates_csv, PreparedRelease, Republisher};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Runs `f` and returns its value with its wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = std::hint::black_box(f());
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Duration in milliseconds of the span `name` the program emitted.
fn span_ms(telemetry: &Telemetry, name: &str) -> f64 {
    telemetry
        .records()
        .iter()
        .filter(|r| r.name == name)
        .filter_map(|r| Some(r.end_us?.saturating_sub(r.start_us) as f64 / 1e3))
        .sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-operation samples of each named figure; reported as medians.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Adds the op's attribution: the sum of `parts` over its wall time.
    fn attribute(&mut self, wall_ms: f64, parts: &[f64]) {
        self.add("op_wall_ms", wall_ms);
        self.add("attributed_share", parts.iter().sum::<f64>() / wall_ms);
    }

    fn render(self, digests: &[u64]) -> String {
        let fields: Vec<String> = self
            .0
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{}", median(v)))
            .collect();
        let digests: Vec<String> = digests
            .iter()
            .map(|d| format!("\"{}\"", render_digest(*d)))
            .collect();
        format!(
            "{{\"ops\":{},\"digests\":[{}],\"layers\":{{{}}}}}",
            digests.len(),
            digests.join(","),
            fields.join(",")
        )
    }
}

fn config(args: &Args) -> Result<(PgConfig, u64, usize), String> {
    let cfg = PgConfig::new(args.num("p")?, args.num("k")?).map_err(|e| e.to_string())?;
    Ok((cfg, args.num("seed")?, args.num("threads")?))
}

fn read_parse(path: &str, samples: &mut Samples) -> Result<Table, String> {
    let (text, read_ms) = timed(|| fs::read_to_string(path));
    let text = text.map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // The CLI drops the text as it returns the table; so does this span.
    let (table, parse_ms) = timed(move || csv::from_str(&sal::schema(), &text));
    samples.add("data.read_ms", read_ms);
    samples.add("data.parse_ms", parse_ms);
    table.map_err(|e| e.to_string())
}

/// Times perturbation, partition and grouping through their public
/// functions on `table`, as `phase.perturb` and `phase.generalize` run them.
fn probe_pipeline_layers(
    table: &Table,
    cfg: PgConfig,
    seed: u64,
    threads: usize,
    s: &mut Samples,
) -> Result<(), String> {
    let channel = Channel::uniform(cfg.p, table.schema().sensitive_domain_size());
    let (_, perturb_ms) = timed(|| {
        acpp_core::par::perturb_codes_sharded(
            &channel,
            table.sensitive_column(),
            seed,
            threads,
            &Telemetry::disabled(),
        )
    });
    let mondrian = MondrianConfig::new(cfg.k).with_threads(threads);
    let (part, partition_ms) = timed(|| partition_with_assignment(table, table.schema(), mondrian));
    let (recoding, assignment, _) = part.map_err(|e| e.to_string())?;
    let boxes = match &recoding {
        Recoding::Boxes(part) => part.len(),
        _ => return Err("mondrian returned no boxes".into()),
    };
    let (_, group_ms) = timed(|| group_from_box_assignment_threaded(&assignment, boxes, threads));
    s.add("core.perturb_ms", perturb_ms);
    s.add("generalize.partition_ms", partition_ms);
    s.add("generalize.group_ms", group_ms);
    Ok(())
}

/// `trace-publish --input F --out-dir D --p P --k K --seed S --threads T
/// --ops N --journal 0|1`: `acpp publish [--journal]` as in-process calls.
pub fn publish(args: &Args) -> Result<String, String> {
    let (cfg, seed, threads) = config(args)?;
    let journal = args.num::<u8>("journal")? == 1;
    let (input, dir) = (args.str("input")?, args.str("out-dir")?);
    let taxes = sal::qi_taxonomies();
    let mut s = Samples::default();
    let mut digests = Vec::new();
    for op in 0..args.num::<usize>("ops")? {
        let out = format!("{dir}/traced-{op}.csv");
        let telemetry = Telemetry::enabled();
        let t0 = Instant::now();
        let table = read_parse(input, &mut s)?;
        let phases = [
            "phase.ingest",
            "phase.perturb",
            "phase.generalize",
            "phase.sample",
        ];
        if journal {
            let jdir = format!("{dir}/traced-journal-{op}");
            let run = publish_journaled_observed(
                &table,
                &taxes,
                cfg,
                DegradationPolicy::Abort,
                seed,
                Path::new(&jdir),
                Path::new(&out),
                Threads::Fixed(threads),
                &telemetry,
            )
            .map_err(|e| e.to_string())?;
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            digests.push(run.release_digest);
            // Fingerprint and render run unspanned inside the journaled
            // call; their public functions on the same data stand in.
            let (_, fp_ms) = timed(|| {
                RunFingerprint::compute(&table, &taxes, cfg, DegradationPolicy::Abort, seed)
            });
            let (_, render_ms) = timed(|| run.published.render(&taxes));
            let journal_ms = span_ms(&telemetry, "journal.commit");
            s.add("core.journal_fingerprint_ms", fp_ms);
            s.add("core.render_ms", render_ms);
            s.add("core.journal_ms", journal_ms);
            let mut parts = vec![
                s.0["data.read_ms"][op],
                s.0["data.parse_ms"][op],
                fp_ms,
                render_ms,
                journal_ms,
            ];
            parts.extend(phases.iter().map(|p| span_ms(&telemetry, p)));
            s.attribute(wall, &parts);
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dstar, _) = publish_robust_observed(
                &table,
                &taxes,
                cfg,
                DegradationPolicy::Abort,
                None,
                Threads::Fixed(threads),
                &mut rng,
                &telemetry,
            )
            .map_err(|e| e.to_string())?;
            let (text, render_ms) = timed(|| dstar.render(&taxes));
            let (written, commit_ms) =
                timed(|| write_atomic(Path::new(&out), text.as_bytes(), &RetryPolicy::default()));
            written.map_err(|e| e.to_string())?;
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            digests.push(fnv1a(text.as_bytes()));
            s.add("core.render_ms", render_ms);
            s.add("data.commit_ms", commit_ms);
            let mut parts = vec![
                s.0["data.read_ms"][op],
                s.0["data.parse_ms"][op],
                render_ms,
                commit_ms,
            ];
            parts.extend(phases.iter().map(|p| span_ms(&telemetry, p)));
            s.attribute(wall, &parts);
        }
        s.add("core.ingest_ms", span_ms(&telemetry, "phase.ingest"));
        s.add("core.sample_ms", span_ms(&telemetry, "phase.sample"));
        probe_pipeline_layers(&table, cfg, seed, threads, &mut s)?;
    }
    Ok(s.render(&digests))
}

/// `trace-series --input F --dir D --batches B1,... --p P --k K --seed S
/// --threads T`: `acpp republish --delta` as in-process calls. The full
/// release is set-up; each delta is one operation.
pub fn series(args: &Args) -> Result<String, String> {
    let (cfg, seed, threads) = config(args)?;
    let dir = args.str("dir")?;
    fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    let schema = sal::schema();
    let taxes = sal::qi_taxonomies();
    let mut s = Samples::default();
    let mut base = Samples::default();
    let mut current = read_parse(args.str("input")?, &mut base)?;
    let mut rep = Republisher::new(cfg, schema.sensitive_domain_size())
        .map_err(|e| e.to_string())?
        .with_threads(Threads::Fixed(threads));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed: Vec<(String, u64)> = Vec::new();
    let prepared = rep
        .prepare_next(&current, &taxes, &mut rng)
        .map_err(|e| e.to_string())?;
    // Render, then commit release and bookkeeping together, then advance
    // the series — the order `SeriesPublisher` commits a release in.
    let mut commit = |rep: &mut Republisher,
                      prepared: PreparedRelease,
                      s: &mut Samples|
     -> Result<(f64, f64), String> {
        let (bytes, render_ms) = timed(|| prepared.published().render(&taxes).into_bytes());
        let t0 = Instant::now();
        let name = release_file_name(committed.len() + 1);
        committed.push((name.clone(), fnv1a(&bytes)));
        let mut state = String::from("acpp-series v1\n");
        for (n, d) in &committed {
            state.push_str(&format!("{n}\t{}\n", render_digest(*d)));
        }
        let mut set = CommitSet::new(dir, RetryPolicy::default()).map_err(|e| e.to_string())?;
        set.stage(&name, &bytes).map_err(|e| e.to_string())?;
        set.stage(STATE_FILE, state.as_bytes())
            .map_err(|e| e.to_string())?;
        set.commit().map_err(|e| e.to_string())?;
        rep.commit_prepared(prepared);
        s.add("data.bytes_written", (bytes.len() + state.len()) as f64);
        Ok((render_ms, t0.elapsed().as_secs_f64() * 1e3))
    };
    commit(&mut rep, prepared, &mut base)?;
    for path in args.list("batches") {
        let t0 = Instant::now();
        let (updates, parse_ms) = timed(|| {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_updates_csv(&schema, &text).map_err(|e| e.to_string())
        });
        let updates = updates?;
        let (prepared, prepare_ms) = timed(|| rep.prepare_delta(&updates, &taxes, &mut rng));
        let prepared = prepared.map_err(|e| e.to_string())?;
        let stats = prepared
            .repair_stats()
            .ok_or("delta release without repair stats")?;
        let (render_ms, commit_ms) = commit(&mut rep, prepared, &mut s)?;
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        s.add("republish.parse_updates_ms", parse_ms);
        s.add("republish.prepare_delta_ms", prepare_ms);
        s.add("republish.dirty_leaves", stats.dirty_leaves as f64);
        s.add("republish.gathered_rows", stats.gathered_rows as f64);
        s.add("core.render_ms", render_ms);
        s.add("republish.commit_ms", commit_ms);
        s.attribute(wall, &[parse_ms, prepare_ms, render_ms, commit_ms]);
        // `prepare_delta` applies the batch internally; its public entry
        // on the same table times that step alone.
        let (next, apply_ms) = timed(|| apply_updates(&current, &updates));
        current = next.map_err(|e| e.to_string())?;
        s.add("republish.apply_updates_ms", apply_ms);
    }
    let digests: Vec<u64> = committed.iter().map(|&(_, d)| d).collect();
    Ok(s.render(&digests))
}

/// `trace-fingerprint --input F1,F2,... --p P --k K --seed S --reps N`:
/// `RunFingerprint::compute` over job-sized tables, as `acppd` runs it
/// before a job's journal begins.
pub fn fingerprint(args: &Args) -> Result<String, String> {
    let cfg = PgConfig::new(args.num("p")?, args.num("k")?).map_err(|e| e.to_string())?;
    let taxes = sal::qi_taxonomies();
    let mut s = Samples::default();
    for path in args.list("input") {
        let text = fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let table = csv::from_str(&sal::schema(), &text).map_err(|e| e.to_string())?;
        for rep in 0..args.num::<u64>("reps")? {
            let seed = args.num::<u64>("seed")? + rep;
            let (_, ms) = timed(|| {
                RunFingerprint::compute(&table, &taxes, cfg, DegradationPolicy::Abort, seed)
            });
            s.add("core.journal_fingerprint_ms", ms);
        }
    }
    Ok(s.render(&[]))
}
