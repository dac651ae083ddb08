//! Every baseline's bits, pinned.  A fixed problem is trained for three
//! sweeps by each baseline from its own seeded start.  After each sweep the
//! test hashes the `to_bits` of `X` and of `Θ` (FNV-1a) and takes the f64
//! bits of the baseline's own `train_rmse`.  PALS's `replication_bytes` and
//! SparkALS's `last_shuffle` are pinned beside them.  Any change to a
//! baseline's numerics — summation order included — changes a pinned value.
//!
//! Two legs depend on the thread count, and each is checked only where it is
//! exact:
//!
//! * `train_rmse` sums its squared errors in one partial per worker thread,
//!   so its bits are pinned on one thread (`RAYON_NUM_THREADS=1`); on more
//!   threads only the re-association error of those partials is allowed.
//! * HOGWILD!'s lock-free epochs race on more than one thread, so its leg
//!   runs only on one.
//!
//! Every other leg is deterministic at any thread count: the ALS baselines
//! solve each row independently, libMF's blocks never share a row or a
//! column, and NOMAD runs one worker.
//!
//! A last test checks that every baseline's sweep costs 0 simulated
//! seconds: the baselines run core's engines without a simulated cluster.

use cumf_baselines::ccd::CcdConfig;
use cumf_baselines::hogwild::HogwildConfig;
use cumf_baselines::libmf::LibMfConfig;
use cumf_baselines::nomad::NomadConfig;
use cumf_baselines::pals::PalsConfig;
use cumf_baselines::spark_als::{ShuffleStats, SparkAlsConfig};
use cumf_baselines::{CcdPlusPlus, Engine, HogwildSgd, LibMfSgd, NomadSgd, Pals, SparkAlsStyle};
use cumf_core::sgd::{SgdConfig, SgdReference};
use cumf_data::synth::SyntheticConfig;
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;

const SWEEPS: usize = 3;

/// `[X hash, Θ hash, train_rmse bits]` after sweeps 1, 2 and 3.
type Pin = [[u64; 3]; SWEEPS];

fn ratings() -> Csr {
    SyntheticConfig {
        m: 160,
        n: 110,
        nnz: 5_000,
        rank: 4,
        seed: 3,
        ..Default::default()
    }
    .generate()
    .to_csr()
}

fn fnv1a(m: &FactorMatrix) -> u64 {
    m.data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn state(x: &FactorMatrix, theta: &FactorMatrix, rmse: f64) -> [u64; 3] {
    [fnv1a(x), fnv1a(theta), rmse.to_bits()]
}

fn trajectory(engine: &mut dyn Engine) -> Pin {
    std::array::from_fn(|_| {
        engine.train_sweep();
        state(engine.x(), engine.theta(), engine.train_rmse())
    })
}

fn pals(workers: usize, f: usize, r: &Csr) -> Pals {
    Pals::new(
        PalsConfig {
            f,
            workers,
            ..Default::default()
        },
        r,
    )
}

fn spark(partitions: usize, f: usize, r: &Csr) -> SparkAlsStyle {
    SparkAlsStyle::new(
        SparkAlsConfig {
            f,
            partitions,
            ..Default::default()
        },
        r,
    )
}

fn libmf(r: &Csr) -> LibMfSgd {
    LibMfSgd::new(
        LibMfConfig {
            f: 8,
            threads: 3,
            ..Default::default()
        },
        r,
    )
}

fn nomad(r: &Csr) -> NomadSgd {
    NomadSgd::new(
        NomadConfig {
            f: 8,
            workers: 1,
            ..Default::default()
        },
        r,
    )
}

fn ccd(r: &Csr) -> CcdPlusPlus {
    CcdPlusPlus::new(
        CcdConfig {
            f: 8,
            ..Default::default()
        },
        r,
    )
}

fn hogwild(r: &Csr) -> HogwildSgd {
    HogwildSgd::new(
        HogwildConfig {
            f: 8,
            ..Default::default()
        },
        r,
    )
}

/// Pins every leg given the trajectories; reports the whole table on a
/// mismatch, so an intended change can be re-pinned in one paste.
fn check(legs: &[(&str, Pin, Pin)]) {
    let exact_rmse = rayon::current_num_threads() == 1;
    let table: String = legs
        .iter()
        .map(|(name, _, got)| {
            let rows: Vec<String> = got
                .iter()
                .map(|[x, t, e]| format!("[{x:#018x}, {t:#018x}, {e:#018x}]"))
                .collect();
            format!("    // {name}\n    [{}],\n", rows.join(", "))
        })
        .collect();
    for (name, want, got) in legs {
        for (sweep, (w, g)) in want.iter().zip(got).enumerate() {
            let sweep = sweep + 1;
            assert_eq!(
                w[..2],
                g[..2],
                "{name}: factors moved at sweep {sweep}; the table now reads\n{table}"
            );
            let (w_rmse, g_rmse) = (f64::from_bits(w[2]), f64::from_bits(g[2]));
            if exact_rmse {
                assert_eq!(
                    w[2], g[2],
                    "{name}: train_rmse moved at sweep {sweep}; the table now reads\n{table}"
                );
            } else {
                assert!(
                    (w_rmse - g_rmse).abs() <= 1e-12 * w_rmse,
                    "{name}: train_rmse {g_rmse} at sweep {sweep} is not the pinned {w_rmse}"
                );
            }
        }
    }
}

#[rustfmt::skip]
const PINS: [Pin; 8] = [
    // PALS, 1 worker, f = 8
    [[0x62340d49ec4ae47c, 0xd1218c4cde47b8c2, 0x3fe647687b4b7cf5], [0x6ef150231c7f0930, 0x812b2dacb967b9bc, 0x3fcfbe8917bbfb27], [0xb5165ce43065187f, 0x32e43365564e6bd7, 0x3fc6667c5494be24]],
    // PALS, 3 workers, f = 13
    [[0xbe509abb8d681bbf, 0x544d6de567b999c7, 0x3fe3bce0a85f1a76], [0x8bc021944afef403, 0xf43138bf1218146c, 0x3fcb133eb55a94b4], [0x14c43e38bb1aef8d, 0xbd30c0c4a06facfa, 0x3fc64ef84b0de2ea]],
    // SparkALS, 2 partitions, f = 8
    [[0x62340d49ec4ae47c, 0xd1218c4cde47b8c2, 0x3fe647687b4b7cf5], [0x6ef150231c7f0930, 0x812b2dacb967b9bc, 0x3fcfbe8917bbfb27], [0xb5165ce43065187f, 0x32e43365564e6bd7, 0x3fc6667c5494be24]],
    // SparkALS, 5 partitions, f = 13
    [[0xbe509abb8d681bbf, 0x544d6de567b999c7, 0x3fe3bce0a85f1a76], [0x8bc021944afef403, 0xf43138bf1218146c, 0x3fcb133eb55a94b4], [0x14c43e38bb1aef8d, 0xbd30c0c4a06facfa, 0x3fc64ef84b0de2ea]],
    // libMF, 3 threads
    [[0xf2a253a89cc06b39, 0x59b74af77a3874c7, 0x3fef69ff290b8b1e], [0xd9e08a37dec721a1, 0xaaf343b37598711a, 0x3febc81d1c98fa0f], [0xfe1e0ce7298ae5fb, 0xb528d8428e909c32, 0x3fe6fc058a9579d2]],
    // NOMAD, 1 worker
    [[0x719864e5f290079a, 0x9c08d4164eb1fb8b, 0x3ff00acd25f09fc9], [0xe5c98524f0d85950, 0xd677caf172e51ff3, 0x3febd18e3cfd832a], [0x32cde541bbf95cca, 0x448b9a1bb366ec5f, 0x3fe64db9a6943e4b]],
    // CCD++
    [[0xc3c908f69bda0a4a, 0xbf8a2cb3f190cca2, 0x3feccebc42abc5d6], [0xe36e01d76baeb597, 0x01e1b0561ed11948, 0x3fe5434ab152c250], [0x0acf14ccbdfd8d10, 0x7a161f8da604822b, 0x3fdf884e86c2c27c]],
    // SgdReference
    [[0x598122f6ee9eb5cc, 0x589504f93a0fdca7, 0x3ffbbc8262b72363], [0x30e08a0b8bed0b46, 0x4b928751abf061c4, 0x3ff2df7c1db7911f], [0xfd8321a7702fb949, 0x62a1c51635966489, 0x3ff07a2603bba5d9]],
];

#[rustfmt::skip]
const HOGWILD_PIN: Pin = [[0x9522a74a836b186e, 0x2ee0e6cb206e6efa, 0x3fef9cac19cd490d], [0x4e14b0eb7f9b0070, 0x523b0812504d2765, 0x3fee5d8a8ecfe471], [0x6f9200a9739d3319, 0xf1126e7c405d1f9e, 0x3fed84c4c501a78f]];

/// PALS's `replication_bytes` for 1 and 3 workers.
const REPLICATION_BYTES: [u64; 2] = [8_640, 25_920];

/// SparkALS's `last_shuffle` for 2 and 5 partitions:
/// `[vectors_shipped, bytes_shipped, distinct_vectors]`.
const SHUFFLES: [[u64; 3]; 2] = [[539, 17_248, 270], [1_292, 41_344, 270]];

#[test]
fn every_baseline_reproduces_its_pinned_bits() {
    let r = ratings();
    let mut sgd = SgdReference::new(
        SgdConfig {
            f: 8,
            ..Default::default()
        },
        r.clone(),
    );
    let sgd_pin: Pin = std::array::from_fn(|epoch| {
        sgd.epoch(epoch);
        state(sgd.x(), sgd.theta(), sgd.train_rmse())
    });
    let got = [
        ("PALS, 1 worker, f = 8", trajectory(&mut pals(1, 8, &r))),
        ("PALS, 3 workers, f = 13", trajectory(&mut pals(3, 13, &r))),
        (
            "SparkALS, 2 partitions, f = 8",
            trajectory(&mut spark(2, 8, &r)),
        ),
        (
            "SparkALS, 5 partitions, f = 13",
            trajectory(&mut spark(5, 13, &r)),
        ),
        ("libMF, 3 threads", trajectory(&mut libmf(&r))),
        ("NOMAD, 1 worker", trajectory(&mut nomad(&r))),
        ("CCD++", trajectory(&mut ccd(&r))),
        ("SgdReference", sgd_pin),
    ];
    let legs: Vec<(&str, Pin, Pin)> = got
        .into_iter()
        .zip(PINS)
        .map(|((name, got), want)| (name, want, got))
        .collect();
    check(&legs);
}

#[test]
fn hogwild_on_one_thread_reproduces_its_pinned_bits() {
    if rayon::current_num_threads() != 1 {
        eprintln!("HOGWILD! races on more than one thread; run with RAYON_NUM_THREADS=1");
        return;
    }
    let got = trajectory(&mut hogwild(&ratings()));
    check(&[("HOGWILD!", HOGWILD_PIN, got)]);
}

#[test]
fn replication_accounting_is_pinned() {
    let r = ratings();
    let got = [1, 3].map(|workers| pals(workers, 8, &r).replication_bytes());
    assert_eq!(got, REPLICATION_BYTES, "PALS replication bytes moved");
    for (partitions, want) in [2, 5].into_iter().zip(SHUFFLES) {
        let mut spark = spark(partitions, 8, &r);
        assert_eq!(spark.last_shuffle(), ShuffleStats::default());
        for sweep in 1..=SWEEPS {
            spark.train_sweep();
            let s = spark.last_shuffle();
            assert_eq!(
                [s.vectors_shipped, s.bytes_shipped, s.distinct_vectors],
                want,
                "SparkALS, {partitions} partitions: shuffle moved at sweep {sweep}"
            );
        }
    }
}

/// The baselines run core's engines without a simulated cluster: a sweep of
/// any of them is host work only and is priced at 0 simulated seconds.
#[test]
fn every_baseline_sweeps_without_a_simulated_cluster() {
    let r = ratings();
    let mut baselines: Vec<Box<dyn Engine>> = vec![
        Box::new(pals(3, 8, &r)),
        Box::new(spark(2, 8, &r)),
        Box::new(libmf(&r)),
        Box::new(nomad(&r)),
        Box::new(ccd(&r)),
        Box::new(hogwild(&r)),
    ];
    for baseline in &mut baselines {
        for _ in 0..2 {
            assert_eq!(baseline.train_sweep(), 0.0, "{}", baseline.name());
        }
    }
}
