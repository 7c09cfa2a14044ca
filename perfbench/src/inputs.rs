//! Seeded input generation. Every input of a run — topology placement,
//! adversary placement, and each operator audit's validator and target —
//! derives from the `--seed` argument here, before the system under test
//! sees anything; the system only receives the generated values.

/// splitmix64 step: a fixed, well-mixed function of its input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own draws.
#[derive(Clone, Debug)]
pub struct InputRng(u64);

impl InputRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        InputRng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The independent seeds one run derives from its `--seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Node placement (`deployment_topology`).
    pub topology: u64,
    /// The protocol's own seed (payloads, target choice, PoP tie-breaks).
    pub protocol: u64,
    /// Which nodes are adversaries.
    pub adversaries: u64,
    /// Operator audit validators and targets.
    pub audits: u64,
    /// Which blocks the crypto replay re-solves.
    pub sample: u64,
}

impl Seeds {
    /// Derives every per-purpose seed from the run's seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = InputRng::new(splitmix64(seed ^ 0x7464_6167_6265_6e63));
        Seeds {
            topology: rng.next_u64(),
            protocol: rng.next_u64(),
            adversaries: rng.next_u64(),
            audits: rng.next_u64(),
            sample: rng.next_u64(),
        }
    }
}

/// The first seed of `seed`'s candidate stream that `accept` takes.
///
/// # Panics
///
/// When no candidate among the first 100 000 qualifies.
pub fn seed_matching(seed: u64, mut accept: impl FnMut(u64) -> bool) -> u64 {
    let mut rng = InputRng::new(seed);
    (0..100_000)
        .map(|_| rng.next_u64())
        .find(|&candidate| accept(candidate))
        .expect("no seeded input matches the workload's shape")
}

/// The statistics of a degree sequence that shape a workload's cost: the
/// mean (block size, gossip fan-out), the dispersion `E[d²]/E[d]²` (PoP
/// path choice scans neighbor sets), and the share of all degree held by
/// the first half of the node ids (the first of two contiguous shards).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeShape {
    /// Mean degree.
    pub mean: f64,
    /// `E[d²] / E[d]²` (1 for a regular graph).
    pub dispersion: f64,
    /// Degree share of ids `0 .. n/2`.
    pub head_share: f64,
}

impl DegreeShape {
    /// The shape of `degrees` (node-id order).
    pub fn of(degrees: &[usize]) -> Self {
        let n = degrees.len().max(1) as f64;
        let sum: f64 = degrees.iter().map(|&d| d as f64).sum();
        let mean = sum / n;
        let square: f64 = degrees.iter().map(|&d| (d * d) as f64).sum::<f64>() / n;
        let head: f64 = degrees[..degrees.len() / 2].iter().map(|&d| d as f64).sum();
        DegreeShape {
            mean,
            dispersion: if mean > 0.0 {
                square / (mean * mean)
            } else {
                0.0
            },
            head_share: if sum > 0.0 { head / sum } else { 0.0 },
        }
    }

    /// Whether every statistic is within the tolerances of `target`:
    /// 1% on the mean, ±0.02 on dispersion and on the head share.
    pub fn matches(&self, target: &DegreeShape) -> bool {
        (self.mean - target.mean).abs() <= target.mean / 100.0
            && (self.dispersion - target.dispersion).abs() <= 0.02
            && (self.head_share - target.head_share).abs() <= 0.02
    }
}

/// One operator audit: `validator` verifies block `seq` of `owner`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditPick {
    /// The auditing node (always honest).
    pub validator: u32,
    /// Owner of the audited block (any node but the validator).
    pub owner: u32,
    /// Sequence number of the audited block.
    pub seq: u32,
}

/// Draws `count` audits over a network of `nodes` chains that each hold
/// one block per slot for `slots` slots. The validator is a uniform honest
/// node (`honest[v]`); the target is a uniform block of another owner
/// generated at slot `≤ slots − min_age`, i.e. at least `min_age` slots old
/// when the audits run.
///
/// The owner draw is stratified: exactly the expected share of audits
/// (adversaries among the validator's `nodes − 1` others, rounded) target
/// an adversary's block, in seeded order, so the mix of audits that fail
/// at once on an unavailable block is the same on every seed.
///
/// # Panics
///
/// When no node is honest, when `min_age > slots`, or when a network of
/// fewer than two nodes leaves no other owner.
pub fn audit_picks(
    seed: u64,
    honest: &[bool],
    slots: u64,
    min_age: u64,
    count: usize,
) -> Vec<AuditPick> {
    let nodes = honest.len();
    assert!(nodes >= 2, "audits need another owner");
    assert!(
        min_age <= slots,
        "no block is {min_age} slots old after {slots} slots"
    );
    let validators: Vec<u32> = (0..nodes as u32).filter(|&v| honest[v as usize]).collect();
    let adversaries: Vec<u32> = (0..nodes as u32).filter(|&v| !honest[v as usize]).collect();
    assert!(validators.len() >= 2, "audits need two honest nodes");
    let eligible_seqs = (slots - min_age + 1) as usize;
    let mut rng = InputRng::new(seed);
    let adversarial =
        (count as f64 * adversaries.len() as f64 / (nodes - 1) as f64).round() as usize;
    let mut targets_adversary: Vec<bool> = (0..count).map(|i| i < adversarial).collect();
    for i in (1..count).rev() {
        targets_adversary.swap(i, rng.below(i + 1));
    }
    targets_adversary
        .into_iter()
        .map(|to_adversary| {
            let validator = validators[rng.below(validators.len())];
            let owner = if to_adversary {
                adversaries[rng.below(adversaries.len())]
            } else {
                // Honest owners other than the validator itself.
                let mut k = rng.below(validators.len() - 1);
                if validators[k] >= validator {
                    k += 1;
                }
                validators[k]
            };
            let seq = rng.below(eligible_seqs) as u32;
            AuditPick {
                validator,
                owner,
                seq,
            }
        })
        .collect()
}

/// A uniform sample of `count` distinct indices below `n` (all of them when
/// `count ≥ n`), in ascending order.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    if count >= n {
        return (0..n).collect();
    }
    // Partial Fisher–Yates over an index vector.
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = InputRng::new(seed);
    for i in 0..count {
        let j = i + rng.below(n - i);
        idx.swap(i, j);
    }
    let mut out = idx[..count].to_vec();
    out.sort_unstable();
    out
}
