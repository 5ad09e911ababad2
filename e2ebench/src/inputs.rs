//! Seeded input generation. Inputs depend only on the benchmark seed,
//! the input's shape and the value domain of the program's input
//! profile; the programs under test receive nothing but these values.

use parsynt_lang::{Program, Ty, Value};
use parsynt_synth::examples::InputProfile;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }
}

/// The value domain and row shape of one input, taken from a
/// benchmark's input profile: values from `choices` (if any) or
/// `value_range`, and a fixed row width when the profile pins one
/// (pair benchmarks index `a[i][0]`, `a[i][1]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Domain {
    pub depth: usize,
    pub choices: Vec<i64>,
    pub range: (i64, i64),
    pub fixed_cols: Option<usize>,
}

impl Domain {
    /// The domain of `program`'s single (main) input under `profile`.
    pub fn of(program: &Program, profile: &InputProfile) -> Domain {
        let mut depth = 0;
        let mut ty = &program.inputs[0].ty;
        while let Ty::Seq(elem) = ty {
            depth += 1;
            ty = elem;
        }
        Domain {
            depth,
            choices: profile.choices.clone(),
            range: profile.value_range,
            fixed_cols: (profile.cols.0 == profile.cols.1).then_some(profile.cols.0),
        }
    }

    /// A salt that gives every (domain, size) its own input stream.
    pub fn salt(&self, leaves: usize) -> u64 {
        let mut h = (self.depth as u64) << 56 ^ leaves as u64;
        for v in [
            self.range.0,
            self.range.1,
            self.fixed_cols.unwrap_or(0) as i64,
        ]
        .into_iter()
        .chain(self.choices.iter().copied())
        {
            h = (h ^ v as u64).wrapping_mul(0x100_0000_01B3);
        }
        h
    }

    fn scalar(&self, rng: &mut Rng) -> Value {
        Value::Int(if self.choices.is_empty() {
            rng.range(self.range.0, self.range.1)
        } else {
            self.choices[rng.next_u64() as usize % self.choices.len()]
        })
    }

    /// A rectangular input of about `leaves` scalars. 2-D rows are 500
    /// wide (or the pinned width); 3-D planes are 50 × 100. Inputs of
    /// fewer than 20 000 leaves use 16-wide rows and 4 × 8 planes so
    /// that they still have many outer rows.
    pub fn generate(&self, leaves: usize, rng: &mut Rng) -> Value {
        let small = leaves < 20_000;
        let (cols, depth) = if small {
            (16, (4, 8))
        } else {
            (500, (50, 100))
        };
        let cols = self.fixed_cols.unwrap_or(cols);
        let row = |rng: &mut Rng, n: usize| Value::Seq((0..n).map(|_| self.scalar(rng)).collect());
        match self.depth {
            1 => row(rng, leaves),
            2 => Value::Seq(
                (0..(leaves / cols).max(2))
                    .map(|_| row(rng, cols))
                    .collect(),
            ),
            _ => {
                let planes = (leaves / (depth.0 * depth.1)).max(2);
                Value::Seq(
                    (0..planes)
                        .map(|_| Value::Seq((0..depth.0).map(|_| row(rng, depth.1)).collect()))
                        .collect(),
                )
            }
        }
    }
}

/// Number of scalar leaves of a value.
pub fn leaves(v: &Value) -> u64 {
    match v {
        Value::Seq(items) => items.iter().map(leaves).sum(),
        _ => 1,
    }
}
