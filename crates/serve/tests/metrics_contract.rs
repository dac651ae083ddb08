//! The serve exporter contract, pinned: `crates/serve/METRICS.txt` holds
//! the `# HELP`/`# TYPE` lines of a zeroed report's Prometheus rendering,
//! then, after one blank line, the ordered key list of its JSON rendering.
//! The benchmark reads these keys by string, so a renamed, dropped,
//! re-typed or reordered metric fails here and shows as a one-file diff in
//! review instead of a metric that silently goes missing.

use cumf_obs::Exporter;
use cumf_serve::ServeMetrics;

/// The contract text of one exporter: its Prometheus `# ` lines, a blank
/// line, then its JSON keys in order, one per line.
fn contract(e: &Exporter) -> String {
    let mut out = String::new();
    for line in e.to_prometheus().lines().filter(|l| l.starts_with("# ")) {
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    let json = e.to_json();
    for field in json[1..json.len() - 1].split(',') {
        out.push_str(field.split('"').nth(1).expect("every JSON key is quoted"));
        out.push('\n');
    }
    out
}

#[test]
fn serve_exporter_matches_the_checked_in_metrics_txt() {
    let got = contract(&ServeMetrics::new().report().exporter());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.txt");
    let want = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        got == want,
        "the serve exporter no longer matches {path}.  If the change is \
         intended, replace the file with this text:\n{got}"
    );
}
