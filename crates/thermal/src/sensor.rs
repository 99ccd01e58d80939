//! On-die thermal sensor models.
//!
//! The DAC'14 controller never sees the true die temperature: it samples
//! on-board sensors, which on the paper's Intel platform report whole-degree
//! values with a little noise. [`ThermalSensor`] reproduces that measurement
//! path (offset, noise, quantisation, saturation); [`SensorBank`] holds one
//! sensor per core.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a thermal sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorParams {
    /// Quantisation step in °C (Intel digital thermal sensors report 1 °C).
    pub quantisation: f64,
    /// Half-width of the uniform measurement noise (°C).
    pub noise_amplitude: f64,
    /// Static per-sensor offset (°C), e.g. calibration error.
    pub offset: f64,
    /// Lowest reportable temperature (°C).
    pub min_reading: f64,
    /// Highest reportable temperature (°C); DTS sensors saturate at Tjmax.
    pub max_reading: f64,
}

impl Default for SensorParams {
    fn default() -> Self {
        SensorParams {
            quantisation: 1.0,
            noise_amplitude: 0.5,
            offset: 0.0,
            min_reading: 0.0,
            max_reading: 100.0,
        }
    }
}

impl SensorParams {
    /// An ideal sensor: no quantisation, noise, offset or saturation.
    /// Useful in tests that need to observe the exact model temperature.
    pub fn ideal() -> Self {
        SensorParams {
            quantisation: 0.0,
            noise_amplitude: 0.0,
            offset: 0.0,
            min_reading: f64::NEG_INFINITY,
            max_reading: f64::INFINITY,
        }
    }
}

/// A single quantised, noisy thermal sensor.
///
/// # Example
///
/// ```
/// use thermorl_thermal::{SensorParams, ThermalSensor};
///
/// let mut s = ThermalSensor::new(SensorParams::default(), 42);
/// let reading = s.read(54.37);
/// assert!((reading - 54.37).abs() <= 1.5); // within noise + quantisation
/// assert_eq!(reading, reading.round());    // whole degrees
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSensor {
    params: SensorParams,
    rng: StdRng,
}

impl ThermalSensor {
    /// Creates a sensor with its own deterministic noise stream.
    pub fn new(params: SensorParams, seed: u64) -> Self {
        ThermalSensor {
            params,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The sensor's configuration.
    pub fn params(&self) -> &SensorParams {
        &self.params
    }

    /// Raw state of the noise RNG, for checkpointing a live sensor.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Resumes the noise stream from a [`ThermalSensor::rng_state`]
    /// value, so subsequent readings match the checkpointed sensor's.
    pub fn restore_rng_state(&mut self, state: u64) {
        self.rng = StdRng::from_state(state);
    }

    /// Produces a reading for true temperature `actual_c` (°C).
    pub fn read(&mut self, actual_c: f64) -> f64 {
        let noise = if self.params.noise_amplitude > 0.0 {
            self.rng
                .gen_range(-self.params.noise_amplitude..=self.params.noise_amplitude)
        } else {
            0.0
        };
        let raw = actual_c + self.params.offset + noise;
        let quantised = if self.params.quantisation > 0.0 {
            (raw / self.params.quantisation).round() * self.params.quantisation
        } else {
            raw
        };
        quantised.clamp(self.params.min_reading, self.params.max_reading)
    }
}

/// One sensor per core, with independent noise streams.
#[derive(Debug, Clone)]
pub struct SensorBank {
    sensors: Vec<ThermalSensor>,
}

impl SensorBank {
    /// Creates `n` sensors sharing `params`, seeded from `seed`.
    pub fn new(n: usize, params: SensorParams, seed: u64) -> Self {
        SensorBank {
            sensors: (0..n)
                .map(|i| ThermalSensor::new(params, seed.wrapping_add(i as u64 * 0x9E37_79B9)))
                .collect(),
        }
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// Raw noise-RNG states of every sensor, for checkpointing.
    pub fn rng_states(&self) -> Vec<u64> {
        self.sensors.iter().map(ThermalSensor::rng_state).collect()
    }

    /// Resumes every sensor's noise stream from
    /// [`SensorBank::rng_states`] output. States beyond the bank's size
    /// are ignored; missing states leave those sensors untouched.
    pub fn restore_rng_states(&mut self, states: &[u64]) {
        for (sensor, &state) in self.sensors.iter_mut().zip(states) {
            sensor.restore_rng_state(state);
        }
    }

    /// Reads all sensors against the provided true temperatures.
    ///
    /// # Panics
    ///
    /// Panics if `actual.len() != self.len()`.
    pub fn read_all(&mut self, actual: &[f64]) -> Vec<f64> {
        assert_eq!(actual.len(), self.sensors.len());
        self.sensors
            .iter_mut()
            .zip(actual)
            .map(|(s, &t)| s.read(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensor_is_exact() {
        let mut s = ThermalSensor::new(SensorParams::ideal(), 1);
        assert_eq!(s.read(53.217), 53.217);
    }

    #[test]
    fn default_sensor_quantises_to_whole_degrees() {
        let mut s = ThermalSensor::new(SensorParams::default(), 7);
        for t in [30.2, 45.7, 61.123] {
            let r = s.read(t);
            assert_eq!(r, r.round());
        }
    }

    #[test]
    fn reading_stays_within_error_bound() {
        let mut s = ThermalSensor::new(SensorParams::default(), 99);
        for i in 0..1000 {
            let t = 30.0 + (i as f64) * 0.05;
            let r = s.read(t);
            // noise 0.5 + quantisation 0.5 rounding error
            assert!((r - t).abs() <= 1.0 + 1e-9, "reading {r} for {t}");
        }
    }

    #[test]
    fn sensor_saturates_at_limits() {
        let mut s = ThermalSensor::new(SensorParams::default(), 3);
        assert_eq!(s.read(250.0), 100.0);
        assert_eq!(s.read(-40.0), 0.0);
    }

    #[test]
    fn offset_shifts_readings() {
        let params = SensorParams {
            offset: 3.0,
            noise_amplitude: 0.0,
            quantisation: 0.0,
            ..SensorParams::default()
        };
        let mut s = ThermalSensor::new(params, 0);
        assert!((s.read(50.0) - 53.0).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_readings() {
        let mut a = ThermalSensor::new(SensorParams::default(), 1234);
        let mut b = ThermalSensor::new(SensorParams::default(), 1234);
        for i in 0..100 {
            let t = 40.0 + i as f64 * 0.3;
            assert_eq!(a.read(t), b.read(t));
        }
    }

    #[test]
    fn bank_sensors_have_independent_noise() {
        let mut bank = SensorBank::new(4, SensorParams::default(), 5);
        // Across enough samples the four streams cannot be identical.
        let mut all_identical = true;
        for i in 0..50 {
            let t = 47.3 + (i as f64) * 0.11;
            let r = bank.read_all(&[t, t, t, t]);
            if r.windows(2).any(|w| w[0] != w[1]) {
                all_identical = false;
            }
        }
        assert!(!all_identical, "sensor noise streams are correlated");
    }

    #[test]
    fn rng_state_round_trip_resumes_noise_stream() {
        let mut donor = SensorBank::new(4, SensorParams::default(), 77);
        let _ = donor.read_all(&[45.0; 4]);
        let _ = donor.read_all(&[46.0; 4]);
        let states = donor.rng_states();

        // A bank built from a different seed, restored mid-stream.
        let mut twin = SensorBank::new(4, SensorParams::default(), 0);
        twin.restore_rng_states(&states);
        for i in 0..50 {
            let t = 44.0 + i as f64 * 0.2;
            assert_eq!(donor.read_all(&[t; 4]), twin.read_all(&[t; 4]));
        }
    }

    #[test]
    fn bank_len_and_empty() {
        let bank = SensorBank::new(4, SensorParams::ideal(), 0);
        assert_eq!(bank.len(), 4);
        assert!(!bank.is_empty());
        assert!(SensorBank::new(0, SensorParams::ideal(), 0).is_empty());
    }
}
