//! The Table 2 catalogue: enumerable application kinds, the short/long
//! pools the experiments draw from, and expected kernel-call counts.

use crate::apps;
use crate::calib::Scale;
use crate::Workload;
use mtgpu_simtime::DetRng;
use serde::Serialize;

/// The thirteen benchmark programs of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AppKind {
    /// Back Propagation — 20 networks, 64K input nodes.
    Bp,
    /// Breadth-First Search — 1M-node graph.
    Bfs,
    /// HotSpot — 1M-cell thermal grid.
    Hs,
    /// Needleman-Wunsch — 2K sequence pairs.
    Nw,
    /// Scalar Product — 512 pairs of 1M-element vectors.
    Sp,
    /// Matrix Transpose — 384×384.
    Mt,
    /// Parallel Reduction — 4M elements.
    Pr,
    /// Scan — 260K-element prefix sum.
    Sc,
    /// Black-Scholes small — 4M options.
    BsS,
    /// Vector Addition — 100M elements.
    Va,
    /// Matrix Multiplication small — 200 × 2K×2K.
    MmS,
    /// Matrix Multiplication large — 10 × 10K×10K.
    MmL,
    /// Black-Scholes large — 40M options.
    BsL,
}

impl AppKind {
    /// Table 2 program name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Bp => "BP",
            AppKind::Bfs => "BFS",
            AppKind::Hs => "HS",
            AppKind::Nw => "NW",
            AppKind::Sp => "SP",
            AppKind::Mt => "MT",
            AppKind::Pr => "PR",
            AppKind::Sc => "SC",
            AppKind::BsS => "BS-S",
            AppKind::Va => "VA",
            AppKind::MmS => "MM-S",
            AppKind::MmL => "MM-L",
            AppKind::BsL => "BS-L",
        }
    }

    /// Kernel calls per Table 2 (at paper scale).
    pub fn kernel_calls(self) -> u64 {
        match self {
            AppKind::Bp => 40,
            AppKind::Bfs => 24,
            AppKind::Hs => 1,
            AppKind::Nw => 256,
            AppKind::Sp => 1,
            AppKind::Mt => 816,
            AppKind::Pr => 801,
            AppKind::Sc => 3_300,
            AppKind::BsS => 256,
            AppKind::Va => 1,
            AppKind::MmS => 200,
            AppKind::MmL => 10,
            AppKind::BsL => 256,
        }
    }

    /// Whether Table 2 classes the program as long-running.
    pub fn is_long_running(self) -> bool {
        matches!(self, AppKind::MmS | AppKind::MmL | AppKind::BsL)
    }

    /// Builds the workload at the given scale. Matrix-multiplication kinds
    /// take a CPU-work fraction (§5.3.3); other kinds ignore it.
    pub fn build_with(self, scale: Scale, cpu_fraction: f64) -> Box<dyn Workload> {
        match self {
            AppKind::Bp => Box::new(apps::BackProp::with_scale(scale)),
            AppKind::Bfs => Box::new(apps::Bfs::with_scale(scale)),
            AppKind::Hs => Box::new(apps::HotSpot::with_scale(scale)),
            AppKind::Nw => Box::new(apps::Needleman::with_scale(scale)),
            AppKind::Sp => Box::new(apps::ScalarProduct::with_scale(scale)),
            AppKind::Mt => Box::new(apps::Transpose::with_scale(scale)),
            AppKind::Pr => Box::new(apps::Reduction::with_scale(scale)),
            AppKind::Sc => Box::new(apps::Scan::with_scale(scale)),
            AppKind::BsS => Box::new(apps::BlackScholes::small().scaled(scale)),
            AppKind::Va => Box::new(apps::VecAdd::with_scale(scale)),
            AppKind::MmS => Box::new(apps::MatMul::small(cpu_fraction).scaled(scale)),
            AppKind::MmL => Box::new(apps::MatMul::large(cpu_fraction).scaled(scale)),
            AppKind::BsL => Box::new(apps::BlackScholes::large().scaled(scale)),
        }
    }

    /// Builds the workload at the given scale with no CPU phases.
    pub fn build(self, scale: Scale) -> Box<dyn Workload> {
        self.build_with(scale, 0.0)
    }

    /// All thirteen programs, Table 2 order.
    pub fn all() -> [AppKind; 13] {
        [
            AppKind::Bp,
            AppKind::Bfs,
            AppKind::Hs,
            AppKind::Nw,
            AppKind::Sp,
            AppKind::Mt,
            AppKind::Pr,
            AppKind::Sc,
            AppKind::BsS,
            AppKind::Va,
            AppKind::MmS,
            AppKind::MmL,
            AppKind::BsL,
        ]
    }
}

/// The short-running pool the paper draws random jobs from (§5.3.1).
pub fn short_pool() -> Vec<AppKind> {
    AppKind::all().into_iter().filter(|k| !k.is_long_running()).collect()
}

/// The long-running programs (§5.2).
pub fn long_pool() -> Vec<AppKind> {
    AppKind::all().into_iter().filter(|k| k.is_long_running()).collect()
}

/// Draws `n` kinds uniformly from `pool` through a deterministic
/// generator — the single code path for every "randomly drawn combination
/// of jobs" (§5.3.1), so a run's job mix is a pure function of the seed.
///
/// # Panics
/// Panics if `pool` is empty and `n > 0`.
pub fn draw_kinds(pool: &[AppKind], n: usize, rng: &mut DetRng) -> Vec<AppKind> {
    (0..n).map(|_| pool[rng.pick_index(pool.len())]).collect()
}

/// Seeded draw of `n` short-running kinds. Forks the `"workloads"` stream
/// off the root seed, so draws here never perturb scheduler or fault
/// randomness derived from the same seed.
pub fn draw_short_kinds(n: usize, seed: u64) -> Vec<AppKind> {
    let mut rng = DetRng::from_seed(seed).fork("workloads");
    draw_kinds(&short_pool(), n, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_partition_table2() {
        let short = short_pool();
        let long = long_pool();
        assert_eq!(short.len(), 10);
        assert_eq!(long.len(), 3);
        assert_eq!(short.len() + long.len(), AppKind::all().len());
        assert!(long.contains(&AppKind::MmL));
        assert!(!short.contains(&AppKind::BsL));
    }

    #[test]
    fn kernel_calls_match_table2() {
        assert_eq!(AppKind::Sc.kernel_calls(), 3_300);
        assert_eq!(AppKind::Mt.kernel_calls(), 816);
        assert_eq!(AppKind::MmL.kernel_calls(), 10);
        assert_eq!(AppKind::Hs.kernel_calls(), 1);
    }

    #[test]
    fn seeded_draws_replay() {
        let a = draw_short_kinds(16, 42);
        let b = draw_short_kinds(16, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|k| !k.is_long_running()));
        // A longer draw with the same seed starts with the same prefix.
        let c = draw_short_kinds(32, 42);
        assert_eq!(&c[..16], &a[..]);
    }

    #[test]
    fn build_produces_named_workloads() {
        for kind in AppKind::all() {
            let w = kind.build(Scale::TINY);
            assert_eq!(w.name(), kind.name());
            assert!(!w.kernels().is_empty());
        }
    }
}
