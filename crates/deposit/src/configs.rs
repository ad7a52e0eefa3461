//! Named kernel+sorting configurations matching the paper's evaluation
//! setup (section 5.2.1): the ablation set and the VPU-baseline
//! comparison set. One table says which of the paper's three kernels
//! each configuration runs, how it stages, the name its snapshots carry
//! and how it sorts.

use crate::common::PrepStyle;
use crate::kernel::{Depositor, SortStrategy};
use crate::shape::ShapeOrder;

/// Every configuration evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelConfig {
    /// The unmodified WarpX kernel (performance reference).
    Baseline,
    /// Baseline kernel + the incremental sorting algorithm.
    BaselineIncrSort,
    /// Compiler-vectorised rhocell (community-standard baseline).
    Rhocell,
    /// Rhocell + incremental sorting.
    RhocellIncrSort,
    /// Hand-tuned VPU rhocell + incremental sorting (strongest VPU
    /// competitor).
    RhocellIncrSortVpu,
    /// MPU-only kernel isolating raw MPU performance (scalar staging,
    /// no sorting).
    MatrixOnly,
    /// Hybrid MPU-VPU kernel without any sorting.
    HybridNoSort,
    /// Hybrid kernel with a full global sort every timestep.
    HybridGlobalSort,
    /// The complete MatrixPIC framework.
    FullOpt,
}

/// The paper's three deposition kernels, one typed body each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelFamily {
    /// WarpX direct scatter onto the grid ([`crate::scalar::deposit_tile`]).
    Scatter,
    /// The VPU rhocell kernel ([`crate::rhocell_vec::deposit_tile`]):
    /// auto-vectorised or hand-tuned, as its [`PrepStyle`] says.
    Rhocell,
    /// The hybrid VPU-MPU outer-product kernel
    /// ([`crate::matrix::deposit_tile`]) — the only one that batches by
    /// design: MPU tile registers stay resident for each same-cell run.
    Matrix,
}

impl KernelConfig {
    /// All configurations, in the paper's reporting order.
    pub const ALL: [KernelConfig; 9] = [
        KernelConfig::Baseline,
        KernelConfig::BaselineIncrSort,
        KernelConfig::Rhocell,
        KernelConfig::RhocellIncrSort,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::MatrixOnly,
        KernelConfig::HybridNoSort,
        KernelConfig::HybridGlobalSort,
        KernelConfig::FullOpt,
    ];

    /// The ablation-study subset (Figure 10).
    pub const ABLATION: [KernelConfig; 5] = [
        KernelConfig::Baseline,
        KernelConfig::MatrixOnly,
        KernelConfig::HybridNoSort,
        KernelConfig::HybridGlobalSort,
        KernelConfig::FullOpt,
    ];

    /// The VPU-comparison subset (Table 1).
    pub const VPU_COMPARISON: [KernelConfig; 6] = [
        KernelConfig::Baseline,
        KernelConfig::BaselineIncrSort,
        KernelConfig::Rhocell,
        KernelConfig::RhocellIncrSort,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::FullOpt,
    ];

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            KernelConfig::Baseline => "Baseline (WarpX)",
            KernelConfig::BaselineIncrSort => "Baseline+IncrSort",
            KernelConfig::Rhocell => "Rhocell (auto-vec)",
            KernelConfig::RhocellIncrSort => "Rhocell+IncrSort",
            KernelConfig::RhocellIncrSortVpu => "Rhocell+IncrSort (VPU)",
            KernelConfig::MatrixOnly => "Matrix-only",
            KernelConfig::HybridNoSort => "Hybrid-noSort",
            KernelConfig::HybridGlobalSort => "Hybrid-GlobalSort",
            KernelConfig::FullOpt => "MatrixPIC (FullOpt)",
        }
    }

    /// The configuration table: kernel family, staging style, kernel
    /// name and sorting strategy.
    fn spec(self) -> (KernelFamily, PrepStyle, &'static str, SortStrategy) {
        use KernelFamily::{Matrix, Rhocell, Scatter};
        use PrepStyle::{Autovec, Scalar, VpuIntrinsics};
        let unsorted = SortStrategy::None;
        let incr = SortStrategy::Incremental;
        match self {
            KernelConfig::Baseline => (Scatter, Autovec, "baseline", unsorted),
            KernelConfig::BaselineIncrSort => (Scatter, Autovec, "baseline", incr),
            KernelConfig::Rhocell => (Rhocell, Autovec, "rhocell_autovec", unsorted),
            KernelConfig::RhocellIncrSort => (Rhocell, Autovec, "rhocell_autovec", incr),
            KernelConfig::RhocellIncrSortVpu => (Rhocell, VpuIntrinsics, "rhocell_vpu", incr),
            KernelConfig::MatrixOnly => (Matrix, Scalar, "matrix_only", unsorted),
            KernelConfig::HybridNoSort => (Matrix, VpuIntrinsics, "matrixpic", unsorted),
            KernelConfig::HybridGlobalSort => (
                Matrix,
                VpuIntrinsics,
                "matrixpic",
                SortStrategy::GlobalEveryStep,
            ),
            KernelConfig::FullOpt => (Matrix, VpuIntrinsics, "matrixpic", incr),
        }
    }

    /// Which of the three deposition kernels runs.
    pub(crate) fn family(self) -> KernelFamily {
        self.spec().0
    }

    /// How the staging loop is executed.
    pub(crate) fn prep_style(self) -> PrepStyle {
        self.spec().1
    }

    /// Kernel name ([`Depositor::name`]): written to a snapshot's META
    /// section and compared on restore, so a snapshot only restores into
    /// the kernel that wrote it.
    pub(crate) fn name(self) -> &'static str {
        self.spec().2
    }

    /// The sorting strategy wrapped around the kernel.
    pub fn strategy(self) -> SortStrategy {
        self.spec().3
    }

    /// Builds the configured deposition driver.
    pub fn build(self, order: ShapeOrder) -> Depositor {
        Depositor::new(self, order)
    }

    /// Peak FP64 rate (FLOPs/cycle) used as the denominator of the
    /// paper's Table 3 efficiency percentages.
    ///
    /// All CPU configurations are measured against the core's
    /// *conventional* FP64 vector peak (the VPU MLA rate). This is the
    /// only reading under which the paper's own numbers are mutually
    /// consistent: MatrixPIC's 83.08% would be arithmetically impossible
    /// against the MPU peak (the CIC/QSP mappings use at most 50% of
    /// each tile), and the VPU configuration's 54.58% could never exceed
    /// 25% if the MPU's 4x rate were counted into the peak. The MPU's
    /// extra density is precisely what lets MatrixPIC approach (and in
    /// principle exceed) 100% of the conventional peak.
    pub fn unit_peak_flops_per_cycle(self, cfg: &mpic_machine::MachineConfig) -> f64 {
        cfg.vpu_peak_flops_per_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_build() {
        for cfg in KernelConfig::ALL {
            for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
                let d = cfg.build(order);
                assert_eq!(d.name(), cfg.name());
                assert_eq!(d.order(), order);
            }
        }
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(KernelConfig::FullOpt.label(), "MatrixPIC (FullOpt)");
        assert_eq!(KernelConfig::Baseline.label(), "Baseline (WarpX)");
    }

    #[test]
    fn kernel_table_pins_every_config() {
        // The names are snapshot bytes (META section, compared on
        // restore): changing one orphans every snapshot written before.
        use KernelFamily::{Matrix, Rhocell, Scatter};
        use PrepStyle::{Autovec, Scalar, VpuIntrinsics};
        use SortStrategy::{GlobalEveryStep, Incremental, None};
        let want = [
            (Scatter, Autovec, "baseline", None),
            (Scatter, Autovec, "baseline", Incremental),
            (Rhocell, Autovec, "rhocell_autovec", None),
            (Rhocell, Autovec, "rhocell_autovec", Incremental),
            (Rhocell, VpuIntrinsics, "rhocell_vpu", Incremental),
            (Matrix, Scalar, "matrix_only", None),
            (Matrix, VpuIntrinsics, "matrixpic", None),
            (Matrix, VpuIntrinsics, "matrixpic", GlobalEveryStep),
            (Matrix, VpuIntrinsics, "matrixpic", Incremental),
        ];
        for (cfg, (family, prep, name, strategy)) in KernelConfig::ALL.into_iter().zip(want) {
            assert_eq!(cfg.family(), family, "{cfg:?}");
            assert_eq!(cfg.prep_style(), prep, "{cfg:?}");
            assert_eq!(cfg.name(), name, "{cfg:?}");
            assert_eq!(cfg.strategy(), strategy, "{cfg:?}");
        }
    }

    #[test]
    fn efficiency_denominator_is_conventional_vpu_peak() {
        // Table 3 percentages are measured against the core's standard
        // FP64 vector peak for every configuration (see method docs).
        let mc = mpic_machine::MachineConfig::lx2();
        for cfg in KernelConfig::ALL {
            assert_eq!(
                cfg.unit_peak_flops_per_cycle(&mc),
                mc.vpu_peak_flops_per_cycle()
            );
        }
    }
}
