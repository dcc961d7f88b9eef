//! Link budget: SNR/SINR and achievable rate.
//!
//! The interference-free quantities ([`LinkBudget::snr`],
//! [`LinkBudget::rate_bps`], [`LinkBudget::transmit_time`]) are thin
//! wrappers over the SINR forms at zero interference power — and the
//! zero-interference path is **bit-identical** to the historical SNR
//! formulas (`x / (1.0 + 0.0) == x` in IEEE 754), so environments that
//! never inject interference reproduce pre-SINR numbers byte for byte.

use crate::pathloss::PathLoss;
use crate::units::{Bytes, Dbm, Hertz, Meters, Seconds};
use crate::{Result, WirelessError};
use serde::{Deserialize, Serialize};

/// Static link-budget parameters shared by all links in one direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Transmit power.
    pub tx_power: Dbm,
    /// Noise power spectral density (dBm per Hz); thermal floor is
    /// −174 dBm/Hz.
    pub noise_dbm_per_hz: f64,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// Large-scale path loss model.
    pub pathloss: PathLoss,
}

impl LinkBudget {
    /// Uplink defaults: 23 dBm handset, urban path loss, 7 dB noise figure.
    pub fn uplink_default() -> Self {
        LinkBudget {
            tx_power: Dbm::new(23.0),
            noise_dbm_per_hz: -174.0,
            noise_figure_db: 7.0,
            pathloss: PathLoss::urban_default(),
        }
    }

    /// Downlink defaults: 30 dBm AP, urban path loss, 7 dB noise figure.
    pub fn downlink_default() -> Self {
        LinkBudget {
            tx_power: Dbm::new(30.0),
            ..LinkBudget::uplink_default()
        }
    }

    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] on invalid path loss parameters.
    pub fn validate(&self) -> Result<()> {
        self.pathloss.validate()
    }

    /// Received signal power in dBm at `distance` with the given fading
    /// power gain (`fading_power_gain` = |h|², 1.0 for no fading): the
    /// path-loss and gain logarithms every rate at this link shares. A
    /// round snapshot stores it once per client and direction.
    pub fn rx_dbm(&self, distance: Meters, fading_power_gain: f64) -> f64 {
        self.tx_power
            .minus_db(self.pathloss.loss_db(distance))
            .as_dbm()
            + 10.0 * fading_power_gain.max(f64::MIN_POSITIVE).log10()
    }

    /// Thermal-plus-figure noise power in dBm over `bandwidth`.
    fn noise_dbm(&self, bandwidth: Hertz) -> f64 {
        self.noise_dbm_per_hz + 10.0 * bandwidth.as_hz().max(1.0).log10() + self.noise_figure_db
    }

    /// Linear SNR at `distance` over `bandwidth` with an extra fading gain
    /// (`fading_power_gain` = |h|², 1.0 for no fading).
    pub fn snr(&self, distance: Meters, bandwidth: Hertz, fading_power_gain: f64) -> f64 {
        let rx_dbm = self.rx_dbm(distance, fading_power_gain);
        10f64.powf((rx_dbm - self.noise_dbm(bandwidth)) / 10.0)
    }

    /// Received signal power in linear milliwatts at `distance` with the
    /// given fading power gain — the quantity one transmitter contributes
    /// as co-channel interference at a receiver it is not addressing.
    pub fn rx_power_mw(&self, distance: Meters, fading_power_gain: f64) -> f64 {
        10f64.powf(self.rx_dbm(distance, fading_power_gain) / 10.0)
    }

    /// Thermal-plus-figure noise power in linear milliwatts over
    /// `bandwidth`.
    pub fn noise_power_mw(&self, bandwidth: Hertz) -> f64 {
        10f64.powf(self.noise_dbm(bandwidth) / 10.0)
    }

    /// Linear SINR: SNR degraded by `interference_mw` of co-channel
    /// interference power (milliwatts, already scaled by any reuse
    /// factor).
    ///
    /// Computed as `snr / (1 + I/N)` so `interference_mw == 0.0`
    /// reproduces [`LinkBudget::snr`] bit for bit.
    pub fn sinr(
        &self,
        distance: Meters,
        bandwidth: Hertz,
        fading_power_gain: f64,
        interference_mw: f64,
    ) -> f64 {
        self.snr(distance, bandwidth, fading_power_gain)
            / (1.0 + interference_mw / self.noise_power_mw(bandwidth))
    }

    /// Shannon-capacity achievable rate in bits/s.
    pub fn rate_bps(&self, distance: Meters, bandwidth: Hertz, fading_power_gain: f64) -> f64 {
        self.rate_bps_sinr(distance, bandwidth, fading_power_gain, 0.0)
    }

    /// Shannon-capacity achievable rate in bits/s under co-channel
    /// interference.
    pub fn rate_bps_sinr(
        &self,
        distance: Meters,
        bandwidth: Hertz,
        fading_power_gain: f64,
        interference_mw: f64,
    ) -> f64 {
        self.rate_bps_at(
            self.rx_dbm(distance, fading_power_gain),
            bandwidth,
            interference_mw,
        )
    }

    /// Shannon-capacity rate in bits/s over `bandwidth` for a signal
    /// received at `rx_dbm` (see [`LinkBudget::rx_dbm`]) under
    /// `interference_mw` of co-channel interference. Bit-identical to
    /// [`LinkBudget::rate_bps_sinr`] at the distance and gain `rx_dbm`
    /// was computed from; zero interference skips the noise-power term
    /// (`x / (1.0 + 0.0) == x`).
    pub fn rate_bps_at(&self, rx_dbm: f64, bandwidth: Hertz, interference_mw: f64) -> f64 {
        let noise_dbm = self.noise_dbm(bandwidth);
        let mut sinr = 10f64.powf((rx_dbm - noise_dbm) / 10.0);
        if interference_mw != 0.0 {
            sinr /= 1.0 + interference_mw / 10f64.powf(noise_dbm / 10.0);
        }
        bandwidth.as_hz() * (1.0 + sinr).log2()
    }

    /// Time to transmit `payload` at the achievable rate.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] when the rate underflows to zero
    /// (zero bandwidth).
    pub fn transmit_time(
        &self,
        payload: Bytes,
        distance: Meters,
        bandwidth: Hertz,
        fading_power_gain: f64,
    ) -> Result<Seconds> {
        self.transmit_time_sinr(payload, distance, bandwidth, fading_power_gain, 0.0)
    }

    /// Time to transmit `payload` at the achievable rate under co-channel
    /// interference.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] when the rate underflows to zero
    /// (zero bandwidth).
    pub fn transmit_time_sinr(
        &self,
        payload: Bytes,
        distance: Meters,
        bandwidth: Hertz,
        fading_power_gain: f64,
        interference_mw: f64,
    ) -> Result<Seconds> {
        if payload == Bytes::ZERO {
            return Ok(Seconds::ZERO);
        }
        let rate = self.rate_bps_sinr(distance, bandwidth, fading_power_gain, interference_mw);
        if rate <= 0.0 {
            return Err(WirelessError::Config(format!(
                "link rate is zero (bandwidth {bandwidth}, distance {distance})"
            )));
        }
        Ok(Seconds::new(payload.as_bits() as f64 / rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snr_decreases_with_distance() {
        let lb = LinkBudget::uplink_default();
        let bw = Hertz::from_mhz(1.0);
        let near = lb.snr(Meters::new(20.0), bw, 1.0);
        let far = lb.snr(Meters::new(200.0), bw, 1.0);
        assert!(near > far);
        assert!(near > 0.0 && far > 0.0);
    }

    #[test]
    fn rate_increases_with_bandwidth_sublinearly_in_snr_region() {
        let lb = LinkBudget::uplink_default();
        let d = Meters::new(50.0);
        let r1 = lb.rate_bps(d, Hertz::from_mhz(1.0), 1.0);
        let r2 = lb.rate_bps(d, Hertz::from_mhz(2.0), 1.0);
        assert!(r2 > r1);
        // Doubling bandwidth less than doubles SNR-limited rate... but can
        // exceed 2× only if SNR grows, which it does not. So r2 < 2·r1.
        assert!(r2 < 2.0 * r1 + 1.0);
    }

    #[test]
    fn fading_gain_monotone_in_rate() {
        let lb = LinkBudget::uplink_default();
        let d = Meters::new(80.0);
        let bw = Hertz::from_mhz(1.0);
        assert!(lb.rate_bps(d, bw, 2.0) > lb.rate_bps(d, bw, 0.5));
    }

    #[test]
    fn transmit_time_scales_with_payload() {
        let lb = LinkBudget::uplink_default();
        let d = Meters::new(50.0);
        let bw = Hertz::from_mhz(1.0);
        let t1 = lb
            .transmit_time(Bytes::new(1000), d, bw, 1.0)
            .unwrap()
            .as_secs_f64();
        let t2 = lb
            .transmit_time(Bytes::new(2000), d, bw, 1.0)
            .unwrap()
            .as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert_eq!(
            lb.transmit_time(Bytes::ZERO, d, bw, 1.0).unwrap(),
            Seconds::ZERO
        );
    }

    #[test]
    fn realistic_rate_magnitude() {
        // 5 MHz at 50 m with a 23 dBm handset should land in the
        // tens-of-Mbps range — sanity against the Shannon formula.
        let lb = LinkBudget::uplink_default();
        let rate = lb.rate_bps(Meters::new(50.0), Hertz::from_mhz(5.0), 1.0);
        assert!(rate > 5e6, "rate {rate}");
        assert!(rate < 500e6, "rate {rate}");
    }

    #[test]
    fn zero_interference_sinr_is_bitwise_snr() {
        let lb = LinkBudget::uplink_default();
        let bw = Hertz::from_mhz(2.0);
        for d in [5.0f64, 50.0, 180.0] {
            for g in [0.3f64, 1.0, 2.5] {
                let d = Meters::new(d);
                assert_eq!(lb.sinr(d, bw, g, 0.0), lb.snr(d, bw, g));
                assert_eq!(lb.rate_bps_sinr(d, bw, g, 0.0), lb.rate_bps(d, bw, g));
            }
        }
    }

    #[test]
    fn rate_from_received_power_is_bitwise_the_sinr_formula() {
        let lb = LinkBudget::uplink_default();
        for bw in [Hertz::from_mhz(0.3), Hertz::from_mhz(2.0)] {
            for d in [5.0f64, 50.0, 180.0] {
                for g in [0.01f64, 1.0, 2.5] {
                    for i_mw in [0.0f64, 1e-12, 3e-9] {
                        let d = Meters::new(d);
                        let formula = bw.as_hz() * (1.0 + lb.sinr(d, bw, g, i_mw)).log2();
                        assert_eq!(
                            lb.rate_bps_at(lb.rx_dbm(d, g), bw, i_mw).to_bits(),
                            formula.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interference_strictly_degrades_rate() {
        let lb = LinkBudget::uplink_default();
        let d = Meters::new(60.0);
        let bw = Hertz::from_mhz(1.0);
        // One 23 dBm interferer at 100 m.
        let i_mw = lb.rx_power_mw(Meters::new(100.0), 1.0);
        let clean = lb.rate_bps(d, bw, 1.0);
        let dirty = lb.rate_bps_sinr(d, bw, 1.0, i_mw);
        assert!(dirty < clean, "{dirty} !< {clean}");
        // More interference is never faster.
        let dirtier = lb.rate_bps_sinr(d, bw, 1.0, 2.0 * i_mw);
        assert!(dirtier < dirty);
    }

    #[test]
    fn rx_power_consistent_with_snr() {
        // SNR == rx_power / noise_power, by definition.
        let lb = LinkBudget::uplink_default();
        let d = Meters::new(75.0);
        let bw = Hertz::from_mhz(3.0);
        let ratio = lb.rx_power_mw(d, 1.3) / lb.noise_power_mw(bw);
        let snr = lb.snr(d, bw, 1.3);
        assert!((ratio / snr - 1.0).abs() < 1e-9, "{ratio} vs {snr}");
    }

    #[test]
    fn zero_bandwidth_rejected() {
        let lb = LinkBudget::uplink_default();
        assert!(lb
            .transmit_time(Bytes::new(10), Meters::new(10.0), Hertz::new(0.0), 1.0)
            .is_err());
    }
}
