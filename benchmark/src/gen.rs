//! Seeded inputs: observation streams and query sequences.
//!
//! Everything here is plain data made from a splitmix64 stream, with no
//! type of the system under test in sight, so neither a change to
//! `stcam_bench::synthetic_stream` nor one to `vendor/rand` can alter a
//! workload. The golden checksums at the bottom pin the first rows and
//! queries of each seed.

/// Side of the square deployment extent, metres.
pub const EXTENT_M: f64 = 8000.0;
/// Cameras the stream cycles through.
pub const CAMERAS: u64 = 1000;
/// Observations per second of stream time. Row `seq` is stamped
/// `seq * 1000 / OBS_PER_STREAM_SEC` ms, so a stream is sorted by time and
/// index slices seal as it advances.
pub const OBS_PER_STREAM_SEC: u64 = 1000;
/// Positions are snapped to this many steps per metre (the wire codec's
/// fixed-point grid).
const STEPS_PER_M: f64 = 1024.0;
/// Length of every point-query window, stream milliseconds.
pub const WINDOW_MS: u64 = 60_000;
/// Heat-maps bucket the whole extent into this many cells per side.
pub const HEAT_CELLS: u32 = 64;

/// splitmix64: one `u64` of state, full period, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One generated observation. `seq` is its position in the stream and
/// fixes its time, camera and id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub seq: u64,
    pub x: f64,
    pub y: f64,
    pub class: u8,
    pub entity: u32,
}

impl Row {
    pub fn time_ms(&self) -> u64 {
        self.seq * 1000 / OBS_PER_STREAM_SEC
    }

    pub fn camera(&self) -> u32 {
        (self.seq % CAMERAS) as u32
    }

    /// The observation id the adapter composes: camera in the high bits,
    /// per-camera sequence in the low 40.
    pub fn id(&self) -> u64 {
        ((self.camera() as u64) << 40) | (self.seq / CAMERAS)
    }
}

/// `live_mixed`'s hotspot: half the rows Gaussian around one point.
const HOTSPOT: (f64, f64) = (3000.0, 5000.0);
const HOTSPOT_SIGMA_M: f64 = 600.0;

fn snap(v: f64) -> f64 {
    // Flooring keeps a value strictly inside the half-open extent inside.
    let max = EXTENT_M - 1.0 / STEPS_PER_M;
    ((v * STEPS_PER_M).floor() / STEPS_PER_M).clamp(0.0, max)
}

/// An endless time-sorted observation stream.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    next_seq: u64,
    skewed: bool,
}

impl Stream {
    /// Uniform positions over the extent.
    pub fn uniform(seed: u64) -> Self {
        Stream {
            rng: Rng::new(seed),
            next_seq: 0,
            skewed: false,
        }
    }

    /// Half of the rows drawn from the hotspot, the rest uniform.
    pub fn skewed(seed: u64) -> Self {
        Stream {
            skewed: true,
            ..Stream::uniform(seed)
        }
    }

    /// The next `n` rows.
    pub fn take(&mut self, n: usize) -> Vec<Row> {
        (0..n).map(|_| self.next_row()).collect()
    }

    fn next_row(&mut self) -> Row {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (mut x, mut y) = (self.rng.unit() * EXTENT_M, self.rng.unit() * EXTENT_M);
        let class = self.rng.below(4) as u8;
        let entity = self.rng.below(100_000) as u32;
        if self.skewed && self.rng.below(2) == 0 {
            // Box–Muller; 1 - unit() is in (0, 1], so the log is finite.
            let r = (-2.0 * (1.0 - self.rng.unit()).ln()).sqrt() * HOTSPOT_SIGMA_M;
            let a = std::f64::consts::TAU * self.rng.unit();
            x = HOTSPOT.0 + r * a.cos();
            y = HOTSPOT.1 + r * a.sin();
        }
        Row {
            seq,
            x: snap(x),
            y: snap(y),
            class,
            entity,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Range,
    Knn,
    Heatmap,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Range, Kind::Knn, Kind::Heatmap];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Range => "range",
            Kind::Knn => "knn",
            Kind::Heatmap => "heatmap",
        }
    }
}

/// One read. A range covers the box `(x ± half, y ± half)`; a kNN asks
/// for the `k` nearest to `(x, y)`; a heat-map ignores the point. All are
/// restricted to stream time `[t0_ms, t1_ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub kind: Kind,
    pub x: f64,
    pub y: f64,
    pub half: f64,
    pub k: usize,
    pub t0_ms: u64,
    pub t1_ms: u64,
}

/// Where a query's time window falls, given the stream written so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Windows {
    /// 60 s somewhere in the newest 120 s.
    Recent,
    /// 60 s anywhere in the stream so far.
    Anywhere,
    /// Everything so far.
    Full,
}

/// What a workload's reads look like.
#[derive(Debug, Clone, Copy)]
pub struct Reads {
    /// The kinds, in the order they are issued, over and over.
    pub mix: &'static [Kind],
    /// Half the side of a range query's box, metres.
    pub half: f64,
    pub windows: Windows,
}

/// A seeded query sequence cycling through the mix.
#[derive(Debug)]
pub struct Queries {
    rng: Rng,
    reads: Reads,
    issued: usize,
}

impl Queries {
    pub fn new(seed: u64, reads: Reads) -> Self {
        Queries {
            // Decorrelated from the stream of the same seed.
            rng: Rng::new(seed ^ 0x5157_4245_4e43_4821),
            reads,
            issued: 0,
        }
    }

    /// Reads in one pass through the mix.
    pub fn cycle(&self) -> usize {
        self.reads.mix.len()
    }

    /// The next query, against a stream whose newest acknowledged row is
    /// stamped `now_ms`. The draws depend on the seed alone; `now_ms` only anchors
    /// them, so the same seed asks the same questions of any run.
    pub fn next(&mut self, now_ms: u64) -> Query {
        let kind = self.reads.mix[self.issued % self.reads.mix.len()];
        self.issued += 1;
        let x = self.rng.unit() * EXTENT_M;
        let y = self.rng.unit() * EXTENT_M;
        let u = self.rng.unit();
        let slack = |span: u64| (u * span.saturating_sub(WINDOW_MS) as f64) as u64;
        // No window reaches past `now_ms`, so a row written while the
        // query runs cannot belong to its answer.
        let (t0_ms, t1_ms) = match self.reads.windows {
            Windows::Full => (0, now_ms),
            Windows::Recent => {
                let span = now_ms.min(2 * WINDOW_MS);
                let t0 = now_ms - span + slack(span);
                (t0, (t0 + WINDOW_MS).min(now_ms))
            }
            Windows::Anywhere => {
                let t0 = slack(now_ms);
                (t0, (t0 + WINDOW_MS).min(now_ms))
            }
        };
        Query {
            kind,
            x,
            y,
            half: self.reads.half,
            k: 16,
            t0_ms,
            t1_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(acc: u64, v: u64) -> u64 {
        (acc ^ v).wrapping_mul(0x0000_0100_0000_01B3)
    }

    fn rows_checksum(rows: &[Row]) -> u64 {
        rows.iter().fold(0xcbf2_9ce4_8422_2325, |acc, r| {
            let acc = fold(acc, r.id());
            let acc = fold(acc, r.time_ms());
            let acc = fold(acc, r.x.to_bits());
            let acc = fold(acc, r.y.to_bits());
            fold(acc, (r.class as u64) << 32 | r.entity as u64)
        })
    }

    fn queries_checksum(seed: u64, windows: Windows) -> u64 {
        let reads = Reads {
            mix: &[Kind::Range, Kind::Range, Kind::Knn, Kind::Heatmap],
            half: 100.0,
            windows,
        };
        let mut queries = Queries::new(seed, reads);
        (0..1000u64).fold(0xcbf2_9ce4_8422_2325, |acc, i| {
            let q = queries.next(200_000 + i * 500);
            let acc = fold(acc, q.kind as u64);
            let acc = fold(acc, q.x.to_bits());
            let acc = fold(acc, q.y.to_bits());
            fold(fold(acc, q.t0_ms), q.t1_ms)
        })
    }

    #[test]
    fn streams_match_their_golden_checksums() {
        for (seed, uniform, skewed) in [
            (7, 0x9943_68af_2081_64cd, 0x0e36_d47a_7663_1dc7),
            (11, 0x9160_270a_6fa2_d258, 0xae17_45fb_0073_c647),
        ] {
            assert_eq!(
                rows_checksum(&Stream::uniform(seed).take(10_000)),
                uniform,
                "uniform stream of seed {seed} changed"
            );
            assert_eq!(
                rows_checksum(&Stream::skewed(seed).take(10_000)),
                skewed,
                "skewed stream of seed {seed} changed"
            );
        }
    }

    #[test]
    fn queries_match_their_golden_checksums() {
        for (seed, recent, anywhere, full) in [
            (
                7,
                0x8aaa_a636_fae5_de5f,
                0xf276_7b85_8d48_9655,
                0xef3d_d903_2bab_af9d,
            ),
            (
                11,
                0xc276_fad2_862a_7113,
                0x0a99_35aa_7b56_1727,
                0x004d_90d0_2593_befb,
            ),
        ] {
            assert_eq!(
                queries_checksum(seed, Windows::Recent),
                recent,
                "seed {seed}"
            );
            assert_eq!(
                queries_checksum(seed, Windows::Anywhere),
                anywhere,
                "seed {seed}"
            );
            assert_eq!(queries_checksum(seed, Windows::Full), full, "seed {seed}");
        }
    }

    #[test]
    fn rows_stay_inside_the_extent_on_the_fixed_point_grid() {
        for row in Stream::skewed(3).take(50_000) {
            for v in [row.x, row.y] {
                assert!((0.0..EXTENT_M).contains(&v));
                assert_eq!(v * STEPS_PER_M, (v * STEPS_PER_M).floor());
            }
        }
    }

    #[test]
    fn windows_lie_within_the_stream_written_so_far() {
        for windows in [Windows::Recent, Windows::Anywhere] {
            let reads = Reads {
                mix: &[Kind::Range, Kind::Heatmap],
                half: 100.0,
                windows,
            };
            let mut queries = Queries::new(5, reads);
            for now_ms in (130_000..400_000).step_by(777) {
                let q = queries.next(now_ms);
                assert_eq!(q.t1_ms - q.t0_ms, WINDOW_MS);
                assert!(q.t1_ms <= now_ms);
                if windows == Windows::Recent {
                    assert!(q.t0_ms >= now_ms - 2 * WINDOW_MS);
                }
            }
        }
    }
}
