//! EXPERIMENTS.md's measured cells for Tables 1–3 must agree with the
//! checked-in BENCH_9.json at the precision the doc prints them.

use synthesis_bench::record;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The bold cells of the markdown table under `heading`, in row order,
/// with any trailing `×`.
fn bold_cells<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    let start = doc.find(heading).expect("EXPERIMENTS.md has the heading");
    doc[start..]
        .lines()
        .skip(1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| {
            let (_, rest) = l.split_once("**")?;
            let (cell, _) = rest.split_once("**")?;
            Some(cell.trim_end_matches('×'))
        })
        .collect()
}

#[test]
fn experiments_tables_match_bench_9() {
    let doc = std::fs::read_to_string(format!("{ROOT}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let bench = record::read(&format!("{ROOT}/BENCH_9.json")).expect("BENCH_9.json parses");
    for (suite, heading) in [
        ("table1", "## Table 1 "),
        ("table2", "## Table 2 "),
        ("table3", "## Table 3 "),
    ] {
        let cells = bold_cells(&doc, heading);
        let rows: Vec<_> = bench
            .iter()
            .filter(|r| r.suite == suite && r.name != "iters")
            .collect();
        assert_eq!(cells.len(), rows.len(), "{suite}: one bold cell per record");
        for (cell, r) in cells.into_iter().zip(rows) {
            let shown: f64 = cell
                .parse()
                .unwrap_or_else(|_| panic!("{suite}/{}: cell {cell:?} is not a number", r.name));
            let decimals = cell.split_once('.').map_or(0, |(_, f)| f.len());
            let half_unit = 0.5 * 10f64.powi(-i32::try_from(decimals).expect("few decimals"));
            assert!(
                (r.value - shown).abs() <= half_unit + 1e-9,
                "{suite}/{}: EXPERIMENTS.md prints {cell}, BENCH_9.json has {}",
                r.name,
                r.value
            );
        }
    }
}
