//! The reproduction, pinned: `REPRO.txt` at the repository root is the
//! checked-in output of `repro all --quick` — every table and figure the
//! binary regenerates — and this test regenerates it and diffs the two.
//! A change that moves any of the paper's numbers shows up as a failing
//! line here and as a one-file diff in review.
//!
//! The output is deterministic: it is byte-identical under any
//! `RAYON_NUM_THREADS` and between debug and release builds, Figure 6's
//! NOMAD and libMF curves (its only baseline curves) included, so the
//! comparison has no tolerance.

use std::process::Command;

const UPDATE: &str = "cargo run --release --bin repro -- all --quick > REPRO.txt";

#[test]
fn repro_all_quick_matches_the_checked_in_repro_txt() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--quick"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro all --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.txt");
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path} ({e}); create it with `{UPDATE}`"));
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let first = (0..got_lines.len().max(want_lines.len()))
        .find(|&i| got_lines.get(i) != want_lines.get(i))
        .unwrap_or(0);
    panic!(
        "repro all --quick drifted from REPRO.txt at line {}:\n  REPRO.txt: {:?}\n  now:       {:?}\n\
         ({} lines now, {} checked in).  If the change is intended, update the file with `{UPDATE}`.",
        first + 1,
        want_lines.get(first).copied().unwrap_or("<end of file>"),
        got_lines.get(first).copied().unwrap_or("<end of output>"),
        got_lines.len(),
        want_lines.len(),
    );
}
