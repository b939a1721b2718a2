//! Energy and throughput accounting.
//!
//! The paper measures CPU power with Intel RAPL and GPU power with pynvml,
//! then multiplies by stage latency to report joules per query/batch. The
//! reproduction's device models emit `(power_watts, duration_s)` samples
//! into an [`EnergyMeter`], which plays the role of those counters.

/// Accumulated energy for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageEnergy {
    /// Total joules consumed.
    pub joules: f64,
    /// Total busy seconds.
    pub seconds: f64,
}

/// RAPL-style accumulating energy meter with named stages.
///
/// # Examples
///
/// ```
/// use hermes_metrics::EnergyMeter;
/// let mut meter = EnergyMeter::new();
/// meter.record("retrieval", 250.0, 0.4); // 250 W for 0.4 s
/// meter.record("prefill", 300.0, 0.1);
/// assert_eq!(meter.total_joules(), 250.0 * 0.4 + 300.0 * 0.1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    stages: Vec<(String, StageEnergy)>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Records `watts` drawn for `seconds` under the stage label.
    ///
    /// # Panics
    ///
    /// Panics if `watts` or `seconds` is negative.
    pub fn record(&mut self, stage: &str, watts: f64, seconds: f64) {
        assert!(watts >= 0.0, "negative power");
        assert!(seconds >= 0.0, "negative duration");
        let entry = match self.stages.iter_mut().find(|(name, _)| name == stage) {
            Some((_, e)) => e,
            None => {
                self.stages
                    .push((stage.to_string(), StageEnergy::default()));
                &mut self.stages.last_mut().expect("just pushed").1
            }
        };
        entry.joules += watts * seconds;
        entry.seconds += seconds;
    }

    /// Adds a raw joule count without a duration (e.g. fixed per-op cost).
    pub fn record_joules(&mut self, stage: &str, joules: f64) {
        assert!(joules >= 0.0, "negative energy");
        let entry = match self.stages.iter_mut().find(|(name, _)| name == stage) {
            Some((_, e)) => e,
            None => {
                self.stages
                    .push((stage.to_string(), StageEnergy::default()));
                &mut self.stages.last_mut().expect("just pushed").1
            }
        };
        entry.joules += joules;
    }

    /// Energy of one stage (`None` if the stage never recorded).
    pub fn stage(&self, stage: &str) -> Option<StageEnergy> {
        self.stages
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, e)| *e)
    }

    /// Sum of joules across all stages.
    pub fn total_joules(&self) -> f64 {
        self.stages.iter().map(|(_, e)| e.joules).sum()
    }

    /// Merges another meter's stages into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        for (name, e) in &other.stages {
            self.record(name, 0.0, 0.0);
            let entry = self
                .stages
                .iter_mut()
                .find(|(n, _)| n == name)
                .map(|(_, e)| e)
                .expect("just ensured");
            entry.joules += e.joules;
            entry.seconds += e.seconds;
        }
    }
}

/// Queries per second given a batch size and per-batch latency.
///
/// # Panics
///
/// Panics if `batch_latency_s` is not positive.
pub fn qps(batch_size: usize, batch_latency_s: f64) -> f64 {
    assert!(batch_latency_s > 0.0, "latency must be positive");
    batch_size as f64 / batch_latency_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_power_times_time() {
        let mut m = EnergyMeter::new();
        m.record("x", 100.0, 2.0);
        assert_eq!(m.total_joules(), 200.0);
        assert_eq!(m.stage("x").unwrap().seconds, 2.0);
    }

    #[test]
    fn stages_accumulate_independently() {
        let mut m = EnergyMeter::new();
        m.record("a", 10.0, 1.0);
        m.record("b", 20.0, 1.0);
        m.record("a", 10.0, 1.0);
        assert_eq!(m.stage("a").unwrap().joules, 20.0);
        assert_eq!(m.stage("b").unwrap().joules, 20.0);
    }

    #[test]
    fn record_joules_skips_duration() {
        let mut m = EnergyMeter::new();
        m.record_joules("fixed", 5.5);
        let s = m.stage("fixed").unwrap();
        assert_eq!(s.joules, 5.5);
        assert_eq!(s.seconds, 0.0);
    }

    #[test]
    fn merge_combines_meters() {
        let mut a = EnergyMeter::new();
        a.record("r", 10.0, 1.0);
        let mut b = EnergyMeter::new();
        b.record("r", 10.0, 3.0);
        b.record("s", 1.0, 1.0);
        a.merge(&b);
        assert_eq!(a.stage("r").unwrap().joules, 40.0);
        assert_eq!(a.stage("s").unwrap().joules, 1.0);
    }

    #[test]
    fn qps_matches_paper_arithmetic() {
        // Figure 4: 128-query batch in 0.97 s ≈ 131 QPS.
        let v = qps(128, 0.97);
        assert!((v - 131.0).abs() < 1.0, "{v}");
    }

    #[test]
    #[should_panic(expected = "negative power")]
    fn negative_power_rejected() {
        EnergyMeter::new().record("x", -1.0, 1.0);
    }
}
