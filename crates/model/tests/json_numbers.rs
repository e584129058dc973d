//! `json::write_number` against the formatter it replaces, byte for byte.
//!
//! The writer takes an exact-decimal fast path for numbers such as the
//! store's dequantized coordinates (`q·0.01`) and timestamps (`q·0.001`),
//! and falls back to std's shortest round-trip form for the rest.  This
//! suite keeps a copy of the plain std implementation and requires the
//! same bytes on seeded random bit patterns, on `q·0.01` and `q·0.001`
//! over a wide range of `q`, on every coordinate a seeded store decodes,
//! and on hand-picked edges around the fast path's limits.  `write_u64`
//! is held to `u64`'s `Display` the same way.

use traj_data::rng::{Rng, SmallRng};
use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::DirectedSegment;
use traj_model::json::{write_number, write_u64};
use traj_model::{SimplifiedSegment, SimplifiedTrajectory};
use traj_store::ShardedStore;

/// The writer as it was before the fast path: integers below 2⁵³ through
/// `i64`'s `Display`, everything else through `f64`'s, with `.0` added
/// when that prints no decimal point.
fn reference(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v.fract() == 0.0 && v.abs() < (1u64 << 53) as f64 && (v != 0.0 || v.is_sign_positive()) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

/// Compares one value, reusing the two buffers.
struct Checker {
    got: String,
    want: String,
    checked: usize,
}

impl Checker {
    fn new() -> Self {
        Checker {
            got: String::new(),
            want: String::new(),
            checked: 0,
        }
    }

    fn check(&mut self, v: f64) {
        self.got.clear();
        self.want.clear();
        // Both append after what the buffer already holds.
        self.got.push('[');
        self.want.push('[');
        write_number(&mut self.got, v);
        reference(&mut self.want, v);
        assert_eq!(self.got, self.want, "{v:?} (bits {:#018x})", v.to_bits());
        self.checked += 1;
    }

    /// `v`, its negation and the doubles one ulp either side of both.
    fn check_around(&mut self, v: f64) {
        for w in [v, -v] {
            self.check(w);
            if w.is_finite() {
                self.check(f64::from_bits(w.to_bits().wrapping_add(1)));
                self.check(f64::from_bits(w.to_bits().wrapping_sub(1)));
            }
        }
    }
}

#[test]
fn random_bit_patterns_match_std() {
    let mut rng = SmallRng::seed_from_u64(0x7a50_4e00);
    let mut checker = Checker::new();
    for _ in 0..1_000_000 {
        checker.check(f64::from_bits(rng.next_u64()));
    }
    // Uniform bit patterns seldom land below 2^33 with a short decimal,
    // so also draw magnitudes across the fast path's whole range.
    for _ in 0..500_000 {
        let v = rng
            .gen_range(-34.0..34.0f64)
            .exp2()
            .copysign(rng.gen_range(-1.0..1.0));
        checker.check(v);
    }
    assert_eq!(checker.checked, 1_500_000);
}

#[test]
fn dequantized_values_match_std() {
    let mut rng = SmallRng::seed_from_u64(0x7a50_4e01);
    let mut checker = Checker::new();
    for _ in 0..500_000 {
        let q = rng.gen_range(-20_000_000_000i64..20_000_000_001);
        checker.check(q as f64 * 0.01);
        checker.check(q as f64 * 0.001);
        // Small quanta too, where a few digits decide the answer.
        let small = rng.gen_range(-100_000i64..100_001);
        checker.check(small as f64 * 0.01);
        checker.check(small as f64 * 0.001);
    }
    // Every millisecond of the first hundred seconds, both signs.
    for q in 0..100_000i64 {
        checker.check(q as f64 * 0.001);
        checker.check(-(q as f64) * 0.001);
        checker.check(q as f64 / 1000.0);
    }
    assert_eq!(checker.checked, 2_300_000);
}

#[test]
fn every_coordinate_a_seeded_store_decodes_matches_std() {
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, 7);
    let store = ShardedStore::with_default_config(4);
    let devices = 60u64;
    for device in 0..devices {
        let trajectory = generator.generate_trajectory(device as usize, 300);
        let points = trajectory.points();
        let segments: Vec<SimplifiedSegment> = points
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                SimplifiedSegment::new(DirectedSegment::new(pair[0], pair[1]), i, i + 1)
            })
            .collect();
        store
            .ingest(
                device,
                &SimplifiedTrajectory::new(segments, points.len()),
                5.0,
            )
            .expect("the seeded fleet ingests");
    }
    let mut checker = Checker::new();
    for device in 0..devices {
        let slice = store.time_slice(device, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(slice.segments.len(), 299, "device {device}");
        for s in &slice.segments {
            for p in [s.segment.start, s.segment.end] {
                checker.check(p.x);
                checker.check(p.y);
                checker.check(p.t);
            }
            checker.check(s.first_index as f64);
            checker.check(s.last_index as f64);
        }
    }
    assert_eq!(checker.checked, 60 * 299 * 8);
}

#[test]
fn edge_values_match_std() {
    let two_33 = (1u64 << 33) as f64;
    let two_53 = (1u64 << 53) as f64;
    let mut checker = Checker::new();
    for v in [
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        0.0005,
        0.001,
        0.0015,
        0.002,
        0.01,
        0.1,
        0.5,
        1.0,
        999.9995,
        999.999,
        1000.0,
        1000.001,
        123_456.789,
        two_33,
        two_33 - 0.001,
        two_33 - 1.0,
        two_53,
        two_53 - 1.0,
        two_53 + 2.0,
        1e21,
        0.1 + 0.2,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
    ] {
        checker.check_around(v);
    }
    checker.check(-0.0);
    checker.check(f64::NEG_INFINITY);
    assert_eq!(checker.checked, 25 * 6 + 2 * 2 + 2);
}

#[test]
fn integers_match_u64_display() {
    let mut rng = SmallRng::seed_from_u64(0x7a50_4e02);
    let mut values: Vec<u64> = vec![0, 1, 9, 10, 99, 100, u64::MAX, u64::MAX - 1];
    values.extend((0..64).flat_map(|b| [(1u64 << b) - 1, 1u64 << b, (1u64 << b) + 1]));
    values.extend((0..100_000).map(|_| rng.next_u64() >> rng.gen_range(0..64u32)));
    let mut out = String::new();
    for v in values {
        out.clear();
        out.push('[');
        write_u64(&mut out, v);
        assert_eq!(out[1..], v.to_string(), "{v}");
    }
}
