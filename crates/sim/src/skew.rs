//! Skew-grid experiment cells: the named ladders the skewed-workload tables
//! of `webmon-bench` and the CLI `sweep --param skew-alpha` walk.
//!
//! Two axes of skew degrade (or reshape) policy performance:
//!
//! * **Temporal burstiness** — [`burst_ladder`] shrinks the diurnal duty
//!   cycle at a fixed *epoch mean*, so the same number of updates bunches
//!   into ever-narrower on-phases. Candidate EIs collide on the budget and
//!   gained completeness falls monotonically as the duty shrinks — this is
//!   the headline degradation table of the bench.
//! * **Placement skew** — [`placement_grid`] varies *where* profile EIs
//!   land (uniform, Zipf head, freshest resources, hot sets, hot-key
//!   profile classes). Placement skew concentrates probes and typically
//!   *raises* completeness (cf. the Figure 14 reproduction), so this table
//!   is reported, not gated for monotonicity.

use webmon_streams::bursty::{DiurnalConfig, ParetoBurstConfig, UpdateModel};
use webmon_workload::{DistributionSpec, HotClassSpec};

/// One temporal-burstiness cell: an update model plus its display label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstCell {
    /// Display label, e.g. `"duty 0.25"`.
    pub label: &'static str,
    /// Fraction of each diurnal period carrying the traffic (`1.0` for the
    /// homogeneous baseline).
    pub duty: f64,
    /// The update model realizing the cell.
    pub model: UpdateModel,
}

/// The temporal-burstiness ladder: a homogeneous Poisson baseline followed
/// by diurnal cells with shrinking duty cycles (`0.5`, `0.25`, `0.125`) at
/// the same epoch mean. `rate_per_epoch` is the expected updates per
/// resource per epoch (Table I's λ), `period` the diurnal cycle length.
///
/// Every cell delivers the same expected update volume; only its temporal
/// concentration changes, so completeness differences are attributable to
/// burstiness alone.
pub fn burst_ladder(rate_per_epoch: f64, period: u32) -> Vec<BurstCell> {
    let diurnal = |label, duty| BurstCell {
        label,
        duty,
        model: UpdateModel::Diurnal(DiurnalConfig {
            rate_per_epoch,
            period,
            duty,
            night_level: 0.0,
        }),
    };
    vec![
        BurstCell {
            label: "poisson",
            duty: 1.0,
            model: UpdateModel::Poisson {
                lambda: rate_per_epoch,
            },
        },
        diurnal("duty 0.500", 0.5),
        diurnal("duty 0.250", 0.25),
        diurnal("duty 0.125", 0.125),
    ]
}

/// A heavy-tailed companion cell for the burst ladder: Pareto interarrivals
/// at the same epoch mean, with `shape` near 1 for maximal burstiness.
pub fn pareto_cell(rate_per_epoch: f64, shape: f64) -> BurstCell {
    BurstCell {
        label: "pareto",
        duty: 1.0,
        model: UpdateModel::ParetoBurst(ParetoBurstConfig {
            rate_per_epoch,
            shape,
        }),
    }
}

/// One placement-skew cell: a base distribution plus an optional hot-key
/// profile class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementCell {
    /// Display label, e.g. `"zipf 1.37"`.
    pub label: &'static str,
    /// Base placement distribution for every profile.
    pub placement: DistributionSpec,
    /// Optional hot-key class overriding `placement` for a profile
    /// fraction.
    pub hot: Option<HotClassSpec>,
}

/// The placement-skew grid: uniform, the Table-I baseline Zipf, the paper's
/// estimated Web-feed Zipf (`α = 1.37`), freshest-first ("latest"), a hot
/// set holding 80% of the mass on `n/20` resources, and a hot-key profile
/// class (30% of profiles on the `α = 1.37` head over a uniform base).
pub fn placement_grid(n_resources: u32) -> Vec<PlacementCell> {
    let head = (n_resources / 20).max(1);
    vec![
        PlacementCell {
            label: "uniform",
            placement: DistributionSpec::Uniform,
            hot: None,
        },
        PlacementCell {
            label: "zipf 0.30",
            placement: DistributionSpec::Zipfian { alpha: 0.3 },
            hot: None,
        },
        PlacementCell {
            label: "zipf 1.37",
            placement: DistributionSpec::Zipfian { alpha: 1.37 },
            hot: None,
        },
        PlacementCell {
            label: "latest 1.37",
            placement: DistributionSpec::Latest { alpha: 1.37 },
            hot: None,
        },
        PlacementCell {
            label: "hotset 80/5%",
            placement: DistributionSpec::HotSet { n: head, mass: 0.8 },
            hot: None,
        },
        PlacementCell {
            label: "hot class 30%",
            placement: DistributionSpec::Uniform,
            hot: Some(HotClassSpec {
                fraction: 0.3,
                placement: DistributionSpec::Zipfian { alpha: 1.37 },
            }),
        },
    ]
}

/// The Zipf-exponent ladder the CLI `sweep --param skew-alpha` walks — from
/// uniform through the Table-I baseline to the paper's Web-feed estimate.
pub fn alpha_ladder() -> Vec<f64> {
    vec![0.0, 0.3, 0.7, 1.0, 1.37]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_ladder_preserves_the_epoch_mean_and_shrinks_duty() {
        let ladder = burst_ladder(20.0, 50);
        assert_eq!(ladder.len(), 4);
        for cell in &ladder {
            assert!((cell.model.rate_per_epoch() - 20.0).abs() < 1e-12);
            cell.model.validate().unwrap();
        }
        for pair in ladder.windows(2) {
            assert!(pair[1].duty < pair[0].duty, "{pair:?}");
        }
    }

    #[test]
    fn pareto_cell_matches_the_mean_too() {
        let cell = pareto_cell(20.0, 1.1);
        assert!((cell.model.rate_per_epoch() - 20.0).abs() < 1e-12);
        cell.model.validate().unwrap();
    }

    #[test]
    fn placement_grid_cells_all_validate() {
        for n in [20, 60, 1000] {
            for cell in placement_grid(n) {
                cell.placement
                    .validate(n)
                    .unwrap_or_else(|e| panic!("cell {} invalid at n={n}: {e}", cell.label));
                if let Some(hot) = &cell.hot {
                    hot.placement.validate(n).unwrap();
                    assert!((0.0..=1.0).contains(&hot.fraction));
                }
            }
        }
    }

    #[test]
    fn placement_grid_survives_tiny_resource_counts() {
        // n/20 rounds to zero below 20 resources; the head must clamp to 1.
        for cell in placement_grid(5) {
            cell.placement.validate(5).unwrap();
        }
    }

    #[test]
    fn alpha_ladder_is_strictly_increasing_from_uniform() {
        let l = alpha_ladder();
        assert_eq!(l[0], 0.0);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }
}
