//! `perfbench`: the compiled half of the end-to-end benchmark.
//!
//! `run.py` drives the program from outside; this binary does what is too
//! slow in Python or needs the library: building churn batches, checking
//! releases independently of the program (`check`, `check-series`), and
//! the traced per-layer runs (`trace-publish`, `trace-series`,
//! `trace-fingerprint`). Every subcommand prints one JSON object on stdout.

mod check;
mod trace;

use check::{Batch, Expect, Schema, Table};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

/// `--key value` arguments; a repeated key keeps every value.
struct Args(HashMap<String, Vec<String>>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.entry(key.to_string()).or_default().push(value.clone());
        }
        Ok(Args(map))
    }

    fn all(&self, key: &str) -> &[String] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.all(key)
            .last()
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse().map_err(|_| format!("bad --{key} `{raw}`"))
    }

    fn list(&self, key: &str) -> Vec<String> {
        self.all(key)
            .iter()
            .flat_map(|v| v.split(','))
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn load(args: &Args) -> Result<(Schema, Table), String> {
    let schema = Schema::parse(&read(args.str("schema")?)?)?;
    let table = Table::parse_csv(&schema, &read(args.str("input")?)?)?;
    Ok((schema, table))
}

fn expect(args: &Args) -> Result<Expect, String> {
    Ok(Expect {
        k: args.num("k")?,
        p: args.num("p")?,
        sample_seed: args.num("sample-seed")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn verdict(result: &Result<(), String>) -> String {
    match result {
        Ok(()) => "\"ok\":true,\"error\":null".to_string(),
        Err(e) => format!("\"ok\":false,\"error\":{}", json_str(e)),
    }
}

/// `churn --schema S --input T --batches N --churn F --insert-seed X
/// --offset-seed Y --out-dir D`: writes `D/batch-NN.csv`, each deleting
/// `F/2` of the current rows, spread evenly over the table, and inserting as
/// many rows of an independently seeded SAL table under fresh owner ids.
fn churn(args: &Args) -> Result<String, String> {
    use acpp_data::sal::{self, SalConfig};
    let (_, mut table) = load(args)?;
    let batches: usize = args.num("batches")?;
    let half = ((table.len() as f64 * args.num::<f64>("churn")?) / 2.0).round() as usize;
    let offset_seed: u64 = args.num("offset-seed")?;
    let out = args.str("out-dir")?;
    fs::create_dir_all(out).map_err(|e| format!("cannot create `{out}`: {e}"))?;
    let fresh = sal::generate(SalConfig {
        rows: batches * half,
        seed: args.num("insert-seed")?,
    });
    let mut next_owner = table.owners.iter().copied().max().map_or(0, |m| m + 1);
    let mut paths = Vec::new();
    for b in 0..batches {
        let stride = table.len() / half;
        let offset = (check::splitmix64(offset_seed ^ b as u64) % stride as u64) as usize;
        let mut text = String::new();
        let mut batch = Batch {
            deletes: Vec::new(),
            inserts: Vec::new(),
        };
        for j in 0..half {
            let owner = table.owners[offset + j * stride];
            let _ = writeln!(text, "D,{owner}");
            batch.deletes.push(owner);
        }
        for j in 0..half {
            let r = b * half + j;
            let row: Vec<u32> = (0..table.arity).map(|c| fresh.value(r, c).code()).collect();
            let fields: Vec<String> = row.iter().map(u32::to_string).collect();
            let _ = writeln!(text, "I,{next_owner},{}", fields.join(","));
            batch.inserts.push((next_owner, row));
            next_owner += 1;
        }
        table = table.apply(&batch)?.0;
        let path = format!("{out}/batch-{:02}.csv", b + 1);
        fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        paths.push(json_str(&path));
    }
    Ok(format!(
        "{{\"batches\":[{}],\"rows_after\":{}}}",
        paths.join(","),
        table.len()
    ))
}

/// `check --schema S --input T --k K --p P --sample-seed X
/// --release PATH[=JOURNAL_DIR] ...`: checks each release against `T`.
/// Releases with equal bytes share one full check; a journal directory, if
/// given, must record the release's own digest.
fn check_cmd(args: &Args) -> Result<String, String> {
    let (schema, table) = load(args)?;
    let exp = expect(args)?;
    let mut verdicts: HashMap<u64, Result<(), String>> = HashMap::new();
    let mut out = Vec::new();
    for spec in args.all("release") {
        let (path, journal) = match spec.split_once('=') {
            Some((p, j)) => (p, Some(j)),
            None => (spec.as_str(), None),
        };
        let text = read(path)?;
        let digest = check::fnv1a(text.as_bytes());
        let mut result = verdicts
            .entry(digest)
            .or_insert_with(|| check::check_release(&schema, &table, &text, &exp).map(|_| ()))
            .clone();
        if let (Ok(()), Some(dir)) = (&result, journal) {
            let recorded = check::journal_staged_digest(&read(&format!("{dir}/journal.log"))?);
            if recorded != Some(digest) {
                result = Err(format!(
                    "journal records {recorded:x?}, release digest is {digest:016x}"
                ));
            }
        }
        out.push(format!(
            "{{\"path\":{},\"digest\":\"{digest:016x}\",\"tuples\":{},{}}}",
            json_str(path),
            text.lines().count().saturating_sub(1),
            verdict(&result)
        ));
    }
    Ok(format!("{{\"releases\":[{}]}}", out.join(",")))
}

/// `check-series --schema S --input T --dir D --batches B1,B2,... --k K
/// --p P --sample-seed X`: checks release 1 against `T`, release `i+1`
/// against `T` with batches `1..=i` applied, persistence between
/// consecutive releases, and the bookkeeping's recorded digests.
fn check_series(args: &Args) -> Result<String, String> {
    let (schema, mut table) = load(args)?;
    let exp = expect(args)?;
    let dir = args.str("dir")?;
    let recorded = check::series_digests(&read(&format!("{dir}/series-state.tsv"))?);
    let batches = args.list("batches");
    let mut out = Vec::new();
    let mut prev: Option<String> = None;
    for i in 0..=batches.len() {
        let mut churned = Vec::new();
        if i > 0 {
            let batch = Batch::parse(&read(&batches[i - 1])?, schema.arity())?;
            let (next, deleted) = table.apply(&batch)?;
            churned = deleted;
            churned.extend(batch.inserts.into_iter().map(|(_, row)| row));
            table = next;
        }
        let name = format!("release-{:04}.csv", i + 1);
        let text = read(&format!("{dir}/{name}"))?;
        let digest = check::fnv1a(text.as_bytes());
        let mut persistent = 0;
        let result = check::check_release(&schema, &table, &text, &exp)
            .and_then(|_| match recorded.get(&name) {
                Some(&d) if d == digest => Ok(()),
                other => Err(format!(
                    "bookkeeping records {other:x?}, digest is {digest:016x}"
                )),
            })
            .and_then(|()| match &prev {
                Some(p) => {
                    check::check_persistence(&schema, p, &text, &churned).map(|n| persistent = n)
                }
                None => Ok(()),
            });
        out.push(format!(
            "{{\"release\":{},\"digest\":\"{digest:016x}\",\"rows\":{},\"persistent_boxes\":{persistent},{}}}",
            i + 1,
            table.len(),
            verdict(&result)
        ));
        prev = Some(text);
    }
    Ok(format!("{{\"releases\":[{}]}}", out.join(",")))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench <churn|check|check-series|trace-publish|trace-series|trace-fingerprint> --key value ...");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "churn" => churn(&args),
        "check" => check_cmd(&args),
        "check-series" => check_series(&args),
        "trace-publish" => trace::publish(&args),
        "trace-series" => trace::series(&args),
        "trace-fingerprint" => trace::fingerprint(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
