//! Cross-crate property tests: planted-parameter recovery, codec
//! round-trips through the whole storage stack, formula round-trips,
//! and approximate-vs-exact agreement under random laws.

use lawsdb::core::LawsDb;
use lawsdb::fit::FitOptions;
use lawsdb::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Grouped capture recovers planted power-law parameters for any
    /// reasonable (p, α) and answers the point query with them.
    #[test]
    fn capture_recovers_planted_power_law(
        p in 0.1f64..5.0,
        alpha in -1.5f64..-0.1,
    ) {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for i in 0..40usize {
            src.push(0i64);
            nu.push(freqs[i % 4]);
            intensity.push(p * freqs[i % 4].powf(alpha));
        }
        let mut b = TableBuilder::new("m");
        b.add_i64("s", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let mut db = LawsDb::new();
        db.quality.min_r2 = 0.0;
        db.register_table(b.build().unwrap()).unwrap();
        let model = db
            .capture_model(
                "m",
                "intensity ~ p * nu ^ alpha",
                Some("s"),
                &FitOptions::default().with_initial("alpha", -0.7),
            )
            .unwrap();
        let predicted = model.predict_scalar(Some(0), &[("nu", 0.14)]).unwrap();
        let truth = p * 0.14f64.powf(alpha);
        prop_assert!((predicted - truth).abs() < 1e-6 * truth.max(1.0),
            "predicted {predicted} vs {truth}");
    }

    /// The full storage stack (column encode → pages → device → decode)
    /// round-trips arbitrary float columns, including NaN and infinities.
    #[test]
    fn paged_storage_roundtrips_any_float_column(
        values in prop::collection::vec(
            prop_oneof![
                any::<f64>(),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
            1..300,
        ),
        page_size in 128usize..1024,
    ) {
        use lawsdb::storage::{wal::DurableStore, SimulatedDevice};
        let mut b = TableBuilder::new("t");
        b.add_f64("v", values.clone());
        let table = b.build().unwrap();
        let mut store = DurableStore::new(SimulatedDevice::new(page_size), 8);
        store.recover().unwrap();
        store.store_table(&table).unwrap();
        let back = store.read_table("t").unwrap();
        let col = back.column("v").unwrap().f64_data().unwrap();
        prop_assert_eq!(col.len(), values.len());
        for (a, b) in col.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The residual codec is bit-exact for arbitrary observation and
    /// prediction vectors.
    #[test]
    fn residual_codec_lossless_roundtrip(
        pairs in prop::collection::vec((any::<f64>(), -1e6f64..1e6), 0..200),
    ) {
        use lawsdb::storage::compress::residual;
        let observed: Vec<f64> = pairs.iter().map(|(o, _)| *o).collect();
        let predicted: Vec<f64> = pairs.iter().map(|(_, p)| *p).collect();
        let enc = residual::encode_lossless(&observed, &predicted).unwrap();
        let back = residual::decode_lossless(&enc, &predicted).unwrap();
        for (a, b) in back.iter().zip(&observed) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The generic LZSS+Huffman pipeline round-trips arbitrary bytes.
    #[test]
    fn generic_compression_roundtrips(data in prop::collection::vec(any::<u8>(), 0..5000)) {
        use lawsdb::storage::compress::{generic_compress, generic_decompress};
        let enc = generic_compress(&data);
        prop_assert_eq!(generic_decompress(&enc).unwrap(), data);
    }

    /// Formula display → parse round-trips and preserves evaluation.
    #[test]
    fn formula_display_roundtrip(
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
        x in 0.1f64..10.0,
    ) {
        use lawsdb::expr::{parse_expr, Bindings};
        let sources = [
            format!("{a} + {b} * x"),
            format!("{a} * x ^ 2 - {b} / (x + 1)"),
            format!("exp({b} * ln(x)) + {a}"),
            format!("max(x, {a}) + min(x, {b})"),
        ];
        for src in &sources {
            let e = parse_expr(src).unwrap();
            let reparsed = parse_expr(&e.to_string()).unwrap();
            let mut bind = Bindings::new();
            bind.set("x", x);
            let v1 = e.eval(&bind).unwrap();
            let v2 = reparsed.eval(&bind).unwrap();
            prop_assert!(
                (v1 - v2).abs() <= 1e-9 * (1.0 + v1.abs()) || (v1.is_nan() && v2.is_nan()),
                "{src}: {v1} vs {v2}"
            );
        }
    }

    /// SQL aggregate results over random tables match a straightforward
    /// reference computation.
    #[test]
    fn sql_aggregates_match_reference(
        values in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut b = TableBuilder::new("t");
        b.add_f64("v", values.clone());
        let db = LawsDb::new();
        db.register_table(b.build().unwrap()).unwrap();
        let r = db
            .query("SELECT COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM t")
            .unwrap();
        let row = r.table.row(0).unwrap();
        let sum: f64 = values.iter().sum();
        prop_assert_eq!(row[0].as_i64().unwrap(), values.len() as i64);
        prop_assert!((row[1].as_f64().unwrap() - sum).abs() < 1e-6 * (1.0 + sum.abs()));
        prop_assert!(
            (row[2].as_f64().unwrap() - sum / values.len() as f64).abs() < 1e-6
        );
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(row[3].as_f64().unwrap(), lo);
        prop_assert_eq!(row[4].as_f64().unwrap(), hi);
    }
}
