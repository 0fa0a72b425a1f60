//! Output checks: a digest over everything a pass simulated, and the
//! invariant tally that turns a violated invariant into a failed operation.

/// FNV-1a over the bit patterns of simulated outputs. A speed-up of the
/// simulator alone must leave it unchanged, seed for seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in the exact bits of a float.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold in the exact bits of every float in `vs`.
    pub fn f64s(&mut self, vs: &[f64]) {
        vs.iter().for_each(|v| self.f64(*v));
    }

    /// Fold in the exact bits of every float in `vs`.
    pub fn f32s(&mut self, vs: &[f32]) {
        vs.iter().for_each(|v| self.bytes(&v.to_bits().to_le_bytes()));
    }

    /// Fold in a string (length-prefixed).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Operations attempted and the invariants they broke.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations (calls into a layer) whose result was checked.
    pub attempted: u64,
    /// Operations whose result broke at least one invariant.
    pub failed: u64,
    /// One line per failed operation, naming the invariants it broke.
    pub violations: Vec<String>,
}

impl Checks {
    /// Record one checked operation. `invariants` pairs each invariant's
    /// verdict (`true` = holds) with its description; the operation fails
    /// if any does not hold.
    pub fn op(&mut self, what: &str, invariants: &[(bool, &str)]) {
        self.attempted += 1;
        let broken: Vec<&str> = invariants.iter().filter(|(ok, _)| !ok).map(|(_, d)| *d).collect();
        if !broken.is_empty() {
            self.failed += 1;
            self.violations.push(format!("{what}: {}", broken.join("; ")));
        }
    }
}

/// Every value is finite.
pub fn all_finite(vs: impl IntoIterator<Item = f64>) -> bool {
    vs.into_iter().all(f64::is_finite)
}
