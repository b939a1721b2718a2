//! Dynamic voltage/frequency scaling model (Figure 21).
//!
//! Hermes slows down under-loaded retrieval nodes: in *baseline* DVFS each
//! node stretches its search to the latency of the slowest node in the
//! batch; in *enhanced* DVFS every node stretches to the (pipelined)
//! inference latency, since finishing retrieval earlier than the GPU buys
//! nothing. Power follows `P(f) = P_max · (s + (1-s) · f^2.7)` with a
//! static floor `s`.

use crate::calibration as cal;

/// Frequency/power scaling for one CPU node.
///
/// # Examples
///
/// ```
/// use hermes_perfmodel::DvfsModel;
/// let dvfs = DvfsModel::default();
/// // Stretching a 0.8 s search into a 1.0 s budget saves energy.
/// let full = dvfs.energy(200.0, 0.8, 0.8);
/// let slowed = dvfs.energy(200.0, 0.8, 1.0);
/// assert!(slowed < full);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsModel {
    /// Static (frequency-independent) fraction of peak power.
    pub static_fraction: f64,
    /// Exponent of the dynamic power term.
    pub power_exponent: f64,
    /// Lowest usable frequency fraction.
    pub min_freq_fraction: f64,
}

impl DvfsModel {
    /// Model with the calibrated defaults. The minimum frequency is the
    /// energy-optimal point of `P(f)/f` (below it, the static floor makes
    /// further stretching *cost* energy): `f* = (s / ((e-1)(1-s)))^(1/e)`
    /// ≈ 0.6 for the calibrated curve.
    pub fn new() -> Self {
        let s = cal::CPU_STATIC_FRACTION;
        let e = cal::DVFS_POWER_EXPONENT;
        let f_star = (s / ((e - 1.0) * (1.0 - s))).powf(1.0 / e);
        DvfsModel {
            static_fraction: s,
            power_exponent: e,
            min_freq_fraction: f_star.clamp(0.3, 0.9),
        }
    }

    /// Power at frequency fraction `f` given peak power, watts.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not in `(0, 1]`.
    pub fn power_at(&self, peak_watts: f64, f: f64) -> f64 {
        assert!(f > 0.0 && f <= 1.0, "frequency fraction out of range: {f}");
        peak_watts
            * (self.static_fraction + (1.0 - self.static_fraction) * f.powf(self.power_exponent))
    }

    /// The frequency fraction that stretches `work_s` (at full frequency)
    /// into `budget_s`, clamped to the usable range.
    pub fn frequency_for_budget(&self, work_s: f64, budget_s: f64) -> f64 {
        if budget_s <= 0.0 || work_s <= 0.0 {
            return 1.0;
        }
        (work_s / budget_s).clamp(self.min_freq_fraction, 1.0)
    }

    /// Joules to complete `work_s` of full-frequency work within
    /// `budget_s` (stretching when the budget allows).
    pub fn energy(&self, peak_watts: f64, work_s: f64, budget_s: f64) -> f64 {
        let f = self.frequency_for_budget(work_s, budget_s);
        let elapsed = work_s / f;
        self.power_at(peak_watts, f) * elapsed
    }
}

impl Default for DvfsModel {
    fn default() -> Self {
        DvfsModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_monotone_in_frequency() {
        let d = DvfsModel::default();
        let mut prev = 0.0;
        for i in 1..=10 {
            let p = d.power_at(200.0, i as f64 / 10.0);
            assert!(p > prev);
            prev = p;
        }
        assert_eq!(d.power_at(200.0, 1.0), 200.0);
    }

    #[test]
    fn no_budget_means_full_frequency() {
        let d = DvfsModel::default();
        assert_eq!(d.frequency_for_budget(1.0, 0.5), 1.0);
        assert_eq!(d.frequency_for_budget(1.0, 1.0), 1.0);
    }

    #[test]
    fn generous_budget_clamps_to_min_frequency() {
        let d = DvfsModel::default();
        assert_eq!(d.frequency_for_budget(0.1, 100.0), d.min_freq_fraction);
    }

    #[test]
    fn bigger_budgets_never_cost_more_energy() {
        let d = DvfsModel::default();
        let mut prev = f64::INFINITY;
        for budget in [1.0, 1.2, 1.5, 2.0, 3.0] {
            let e = d.energy(200.0, 1.0, budget);
            assert!(e <= prev + 1e-9, "budget {budget}: {e} > {prev}");
            prev = e;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_frequency_rejected() {
        DvfsModel::default().power_at(100.0, 0.0);
    }
}
