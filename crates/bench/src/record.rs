//! The bench-record schema: every BENCH file is a JSON array of flat
//! records, one per line, written by [`to_json`], read back by [`parse`]
//! and compared by [`gate`].
//!
//! ```text
//! [
//!   {"suite": "table1", "name": "2  r/w pipe, 1 byte [speedup]", "value": 21.138587845861814, "unit": "x", "better": "higher", "paper": 56, "tol": 0.05, "floor": 20},
//!   {"suite": "capacity", "name": "cpus=4 spawn_p99_us", "value": 182.375, "unit": "us", "better": "lower", "paper": null, "tol": 0.1, "floor": null}
//! ]
//! ```
//!
//! Values are written with Rust's shortest round-trip `{}` format, so a
//! file read back yields the exact `f64`s that were measured. The reader
//! accepts only this layout (the build is offline, so there is no serde):
//! fixed key order, one record per line.

use std::fmt::Write as _;

/// Which direction of a record's value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (speedups, throughput, hit rates).
    Higher,
    /// Smaller is better (latencies, cycles, bytes in use).
    Lower,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The table or report the value belongs to (`table1`, `capacity`, …).
    pub suite: String,
    /// The value's name, unique within its suite.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Unit label.
    pub unit: String,
    /// Improvement direction; `None` for parameters and neutral counts.
    pub better: Option<Better>,
    /// The paper's figure for the same quantity, where it has one.
    pub paper: Option<f64>,
    /// Relative regression tolerance against a baseline (0.05 = 5 %).
    pub tol: Option<f64>,
    /// Absolute bound the value must stay on the `better` side of.
    pub floor: Option<f64>,
}

impl Record {
    /// A record with no paper figure and no thresholds.
    #[must_use]
    pub fn new(
        suite: &str,
        name: impl Into<String>,
        value: f64,
        unit: &str,
        better: Option<Better>,
    ) -> Self {
        let (suite, name, unit) = (suite.into(), name.into(), unit.into());
        let (paper, tol, floor) = (None, None, None);
        Record {
            suite,
            name,
            value,
            unit,
            better,
            paper,
            tol,
            floor,
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if u32::from(c) < 0x20 => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

fn opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

/// Serialize records as a JSON array, one record per line.
#[must_use]
pub fn to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let better = match r.better {
            Some(Better::Higher) => "\"higher\"",
            Some(Better::Lower) => "\"lower\"",
            None => "null",
        };
        let _ = writeln!(
            out,
            "  {{\"suite\": {}, \"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {better}, \
             \"paper\": {}, \"tol\": {}, \"floor\": {}}}{}",
            quote(&r.suite),
            quote(&r.name),
            r.value,
            quote(&r.unit),
            opt(r.paper),
            opt(r.tol),
            opt(r.floor),
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    out + "]\n"
}

fn unquote(tok: &str) -> Result<String, String> {
    let body = tok.strip_prefix('"').and_then(|t| t.strip_suffix('"'));
    let mut chars = body
        .ok_or(format!("expected a string, got `{tok}`"))?
        .chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        out.push(match c {
            '"' => return Err(format!("unescaped quote in `{tok}`")),
            '\\' => match chars.next() {
                Some(c @ ('"' | '\\')) => c,
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                    c.ok_or("bad \\u escape")?
                }
                _ => return Err("bad escape".into()),
            },
            c => c,
        });
    }
    Ok(out)
}

/// A finite number, or `null` as `None`.
fn number(tok: &str) -> Result<Option<f64>, String> {
    match tok.parse::<f64>() {
        _ if tok == "null" => Ok(None),
        Ok(v) if v.is_finite() => Ok(Some(v)),
        _ => Err(format!("bad number `{tok}`")),
    }
}

/// One record line, without its indent and trailing comma. A `, "`
/// inside a string is always escaped (`, \"`), so it splits the fields.
fn parse_record(line: &str) -> Result<Record, String> {
    let body = line.strip_prefix("{\"").and_then(|l| l.strip_suffix('}'));
    let mut fields = body.ok_or("expected `{\"...}`")?.split(", \"");
    let mut next = |key: &str| {
        let field = fields.next().and_then(|f| f.strip_prefix(key));
        field
            .and_then(|f| f.strip_prefix("\": "))
            .ok_or(format!("expected `{key}`"))
    };
    let (suite, name) = (unquote(next("suite")?)?, unquote(next("name")?)?);
    let value = number(next("value")?)?.ok_or("value is null")?;
    let unit = unquote(next("unit")?)?;
    let better = match next("better")? {
        "null" => None,
        "\"higher\"" => Some(Better::Higher),
        "\"lower\"" => Some(Better::Lower),
        other => return Err(format!("bad direction `{other}`")),
    };
    let (paper, tol, floor) = (
        number(next("paper")?)?,
        number(next("tol")?)?,
        number(next("floor")?)?,
    );
    if let Some(extra) = fields.next() {
        return Err(format!("unexpected `{extra}`"));
    }
    Ok(Record {
        suite,
        name,
        value,
        unit,
        better,
        paper,
        tol,
        floor,
    })
}

/// Parse a BENCH file's text.
///
/// # Errors
///
/// `path:line: what` for a malformed record, a missing bracket or
/// comma, or a `(suite, name)` pair that occurs twice.
pub fn parse(text: &str, path: &str) -> Result<Vec<Record>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let at = |line: usize, what: &str| format!("{path}:{line}: {what}");
    if lines.first() != Some(&"[") {
        return Err(at(1, "expected `[`"));
    }
    if lines.len() < 2 || lines.last() != Some(&"]") {
        return Err(at(lines.len().max(1), "expected `]`"));
    }
    let body = &lines[1..lines.len() - 1];
    let mut records: Vec<Record> = Vec::with_capacity(body.len());
    for (i, line) in body.iter().enumerate() {
        let last = i + 1 == body.len();
        let r = (line.strip_prefix("  ").ok_or("expected indent"))
            .and_then(|l| {
                if last {
                    Ok(l)
                } else {
                    l.strip_suffix(',').ok_or("expected `,`")
                }
            })
            .map_err(String::from)
            .and_then(parse_record)
            .map_err(|e| at(i + 2, &e))?;
        if records
            .iter()
            .any(|o| o.suite == r.suite && o.name == r.name)
        {
            return Err(at(
                i + 2,
                &format!("duplicate record {}/{}", r.suite, r.name),
            ));
        }
        records.push(r);
    }
    Ok(records)
}

/// Read and parse a BENCH file.
///
/// # Errors
///
/// The I/O error or [`parse`]'s message, naming `path`.
pub fn read(path: &str) -> Result<Vec<Record>, String> {
    parse(
        &std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        path,
    )
}

/// Hold `new` against `base`. Every record of `base` must be present in
/// `new`. Where the baseline record has a `tol`, the new value may be
/// worse than the baseline value by at most that fraction of it; where
/// it has a `floor`, the new value may not be worse than the floor.
/// "Worse" follows `better`; with no direction, any move is worse.
/// Returns one message per failure; empty means the gate passed.
#[must_use]
pub fn gate(new: &[Record], base: &[Record]) -> Vec<String> {
    let mut failures = Vec::new();
    for b in base {
        let what = format!("{}/{}", b.suite, b.name);
        let Some(n) = new.iter().find(|n| n.suite == b.suite && n.name == b.name) else {
            failures.push(format!("{what}: missing"));
            continue;
        };
        let v = n.value;
        // How much worse `v` is than `x`; positive means worse.
        let worse = |x: f64| match b.better {
            Some(Better::Higher) => x - v,
            Some(Better::Lower) => v - x,
            None => (v - x).abs(),
        };
        if let Some(tol) = b.tol.filter(|tol| worse(b.value) > b.value.abs() * tol) {
            let (base, pct) = (b.value, tol * 100.0);
            failures.push(format!(
                "{what}: {v} {} vs baseline {base} ({pct}% tolerance)",
                b.unit
            ));
        }
        if let Some(floor) = b.floor.filter(|&floor| worse(floor) > 0.0) {
            failures.push(format!("{what}: {v} {} breaches floor {floor}", b.unit));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_8: &str = include_str!("../../../BENCH_8.json");
    const BENCH_9: &str = include_str!("../../../BENCH_9.json");

    fn bench(text: &str) -> Vec<Record> {
        parse(text, "BENCH").expect("checked-in BENCH file parses")
    }

    /// Multiply one record's value by `factor`.
    fn scale(records: &mut [Record], suite: &str, name: &str, factor: f64) {
        let r = records
            .iter_mut()
            .find(|r| r.suite == suite && r.name == name)
            .expect("record exists");
        r.value *= factor;
    }

    #[test]
    fn checked_in_baselines_pass_against_themselves() {
        for text in [BENCH_8, BENCH_9] {
            let r = bench(text);
            assert_eq!(gate(&r, &r), Vec::<String>::new());
        }
    }

    #[test]
    fn capacity_regression_at_four_cpus_fails() {
        let base = bench(BENCH_8);
        let mut new = base.clone();
        scale(&mut new, "capacity", "cpus=4 spawn_p99_us", 1.2);
        let failures = gate(&new, &base);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("capacity/cpus=4 spawn_p99_us"));
    }

    #[test]
    fn value_within_tolerance_passes() {
        let base = bench(BENCH_8);
        let mut new = base.clone();
        scale(&mut new, "capacity", "cpus=4 spawn_p99_us", 1.09);
        scale(&mut new, "capacity", "cpus=1 ops_per_ms", 0.91);
        assert!(gate(&new, &base).is_empty());
        scale(&mut new, "capacity", "cpus=1 ops_per_ms", 0.98);
        assert_eq!(gate(&new, &base).len(), 1);
    }

    #[test]
    fn missing_record_fails() {
        let base = bench(BENCH_9);
        let new: Vec<Record> = base
            .iter()
            .filter(|r| r.suite != "table3")
            .cloned()
            .collect();
        let failures = gate(&new, &base);
        assert_eq!(failures.len(), 6, "{failures:?}");
        assert!(failures.iter().all(|f| f.ends_with(": missing")));
    }

    #[test]
    fn floor_breach_fails() {
        let base = bench(BENCH_9);
        let mut row2 = base
            .iter()
            .find(|r| r.floor == Some(20.0))
            .expect("row 2 carries the 20x floor")
            .clone();
        // 19.9x is within 5 % of a 20.5x baseline: only the floor fails.
        row2.value = 20.5;
        let mut new = row2.clone();
        new.value = 19.9;
        let failures = gate(&[new], &[row2]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("breaches floor 20"));
    }

    #[test]
    fn write_then_read_is_bit_identical() {
        let mut records = vec![
            Record::new(
                "s",
                "tricky \"name\" \\ with\nnewline",
                0.1 + 0.2,
                "us",
                None,
            ),
            Record::new("s", "tiny", 1e-300, "x", Some(Better::Higher)),
            Record::new("s", "big", 2f64.powi(60), "bytes", Some(Better::Lower)),
            Record::new("t", "neg zero", -0.0, "count", None),
        ];
        records[0].paper = Some(56.0);
        records[0].tol = Some(0.05);
        records[0].floor = Some(8.0 / 3.0);
        let back = parse(&to_json(&records), "mem").expect("round trip");
        assert_eq!(back, records);
        for (a, b) in back.iter().zip(&records) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        assert_eq!(parse(&to_json(&[]), "mem"), Ok(vec![]));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        let good = to_json(&[
            Record::new("s", "a", 1.0, "us", None),
            Record::new("s", "b", 2.0, "us", None),
        ]);
        let cases = [
            ("", "f:1: expected `[`"),
            ("[\n", "f:1: expected `]`"),
            ("[\n  {\"suite\": \"s\"}\n]\n", "f:2: expected `name`"),
            (&good.replacen("1,", "x,", 1), "f:2: bad number `x`"),
            (&good.replacen("1,", "NaN,", 1), "f:2: bad number `NaN`"),
            (&good.replacen("},\n", "}\n", 1), "f:2: expected `,`"),
            (
                &good.replacen("\"b\"", "\"a\"", 1),
                "f:3: duplicate record s/a",
            ),
            (&good.replacen("\"us\"", "\"u\\q\"", 1), "f:2: bad escape"),
            (
                &good.replacen("\"a\"", "\"a\\u000\u{e9}\"", 1),
                "f:2: bad \\u escape",
            ),
            (
                &good.replacen("\"a\"", "\"a\"b\"", 1),
                "f:2: unescaped quote in `\"a\"b\"`",
            ),
            (
                &good.replacen("null", "\"up\"", 1),
                "f:2: bad direction `\"up\"`",
            ),
            (
                &good.replacen("null}", "null, \"x\": 1}", 1),
                "f:2: unexpected `x\": 1`",
            ),
            (&good.replace("}\n]", "} x\n]"), "f:3: expected `{\"...}`"),
            (&good.replace("\n]\n", "\n"), "f:3: expected `]`"),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text, "f"), Err(want.to_string()), "input: {text:?}");
        }
        // No truncation and no one-byte corruption of a valid file panics.
        for i in 0..good.len() {
            let _ = parse(&good[..i], "f");
            for c in ["\"", "\\", ",", "}", "\n", "x"] {
                let mut text = good.clone();
                text.replace_range(i..=i, c);
                let _ = parse(&text, "f");
            }
        }
    }
}
