//! The composed latency model.
//!
//! [`LatencyModel`] ties topology, link budgets, fading, device profiles
//! and the edge server into one experiment's network: each client's
//! placement distance, device and per-round fading gains (block-constant
//! per round), the two link budgets, the total bandwidth and the server.
//! The environments in [`crate::environment`] price rounds from these
//! through a per-round snapshot.

use crate::device::{DeviceHeterogeneity, DeviceProfile};
use crate::energy::PowerProfile;
use crate::fading::BlockFading;
use crate::link::LinkBudget;
use crate::server::EdgeServer;
use crate::topology::Topology;
use crate::units::{Hertz, Meters, Seconds};
use crate::{Result, WirelessError};

/// Composed wireless + compute latency model for one experiment.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    topology: Topology,
    devices: Vec<DeviceProfile>,
    uplink: LinkBudget,
    downlink: LinkBudget,
    fading: BlockFading,
    total_bandwidth: Hertz,
    server: EdgeServer,
    power: PowerProfile,
}

/// Builder for [`LatencyModel`] (see [`LatencyModel::builder`]).
#[derive(Debug, Clone)]
pub struct LatencyModelBuilder {
    clients: usize,
    seed: u64,
    total_bandwidth: Hertz,
    uplink: LinkBudget,
    downlink: LinkBudget,
    heterogeneity: DeviceHeterogeneity,
    server: EdgeServer,
    fading_enabled: bool,
    min_radius: Meters,
    max_radius: Meters,
    fixed_distances: Option<Vec<Meters>>,
    fixed_devices: Option<Vec<DeviceProfile>>,
    power: PowerProfile,
}

impl LatencyModel {
    /// Starts a builder with paper-scale defaults: 5 MHz total bandwidth,
    /// urban path loss, Rayleigh block fading, heterogeneous 0.5–2 GFLOP/s
    /// devices in a 20–200 m annulus, and a 4-slot edge server.
    pub fn builder() -> LatencyModelBuilder {
        LatencyModelBuilder {
            clients: 1,
            seed: 0,
            total_bandwidth: Hertz::from_mhz(5.0),
            uplink: LinkBudget::uplink_default(),
            downlink: LinkBudget::downlink_default(),
            heterogeneity: DeviceHeterogeneity::default(),
            server: EdgeServer::edge_default(),
            fading_enabled: true,
            min_radius: Meters::new(20.0),
            max_radius: Meters::new(200.0),
            fixed_distances: None,
            fixed_devices: None,
            power: PowerProfile::default(),
        }
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.devices.len()
    }

    /// The total system bandwidth.
    pub fn total_bandwidth(&self) -> Hertz {
        self.total_bandwidth
    }

    /// The edge-server profile.
    pub fn server(&self) -> &EdgeServer {
        &self.server
    }

    /// The client power-draw profile used for energy accounting.
    pub fn power(&self) -> &PowerProfile {
        &self.power
    }

    /// The device profile of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    pub fn device(&self, client: usize) -> Result<&DeviceProfile> {
        self.devices
            .get(client)
            .ok_or(WirelessError::UnknownClient {
                client,
                clients: self.devices.len(),
            })
    }

    /// The client's distance from the AP.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::UnknownClient`] for bad indices.
    pub fn distance(&self, client: usize) -> Result<Meters> {
        self.topology.distance(client)
    }

    /// The uplink link budget (shared by all clients).
    pub fn uplink_budget(&self) -> &LinkBudget {
        &self.uplink
    }

    /// The downlink link budget (shared by all clients).
    pub fn downlink_budget(&self) -> &LinkBudget {
        &self.downlink
    }

    /// Compute time of one edge-server slot.
    pub fn server_compute(&self, flops: u64) -> Seconds {
        self.server.compute_time(flops)
    }

    /// The uplink fading power gain of `client` in `round`.
    pub fn uplink_gain(&self, client: usize, round: u64) -> f64 {
        self.fading.power_gain(self.uplink_link_id(client), round)
    }

    /// The downlink fading power gain of `client` in `round`.
    pub fn downlink_gain(&self, client: usize, round: u64) -> f64 {
        self.fading.power_gain(self.downlink_link_id(client), round)
    }

    // Distinct fading streams for the two directions of each client link.
    fn uplink_link_id(&self, client: usize) -> usize {
        client * 2
    }

    fn downlink_link_id(&self, client: usize) -> usize {
        client * 2 + 1
    }
}

impl LatencyModelBuilder {
    /// Sets the number of clients.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Sets the experiment seed (drives topology, devices, fading).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the total system bandwidth.
    pub fn bandwidth(mut self, bw: Hertz) -> Self {
        self.total_bandwidth = bw;
        self
    }

    /// Overrides the uplink budget.
    pub fn uplink(mut self, lb: LinkBudget) -> Self {
        self.uplink = lb;
        self
    }

    /// Overrides the downlink budget.
    pub fn downlink(mut self, lb: LinkBudget) -> Self {
        self.downlink = lb;
        self
    }

    /// Overrides the device heterogeneity range.
    pub fn heterogeneity(mut self, h: DeviceHeterogeneity) -> Self {
        self.heterogeneity = h;
        self
    }

    /// Overrides the edge server.
    pub fn server(mut self, server: EdgeServer) -> Self {
        self.server = server;
        self
    }

    /// Enables or disables Rayleigh block fading (disable for analytic
    /// cross-checks).
    pub fn fading(mut self, enabled: bool) -> Self {
        self.fading_enabled = enabled;
        self
    }

    /// Sets the client placement annulus.
    pub fn annulus(mut self, min: Meters, max: Meters) -> Self {
        self.min_radius = min;
        self.max_radius = max;
        self
    }

    /// Uses explicit distances instead of random placement (count must
    /// match `clients`).
    pub fn fixed_distances(mut self, distances: Vec<Meters>) -> Self {
        self.fixed_distances = Some(distances);
        self
    }

    /// Uses explicit device profiles instead of sampling (count must match
    /// `clients`).
    pub fn fixed_devices(mut self, devices: Vec<DeviceProfile>) -> Self {
        self.fixed_devices = Some(devices);
        self
    }

    /// Overrides the client power-draw profile.
    pub fn power(mut self, power: PowerProfile) -> Self {
        self.power = power;
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::Config`] for zero clients, invalid budgets,
    /// a non-positive or non-finite bandwidth, or mismatched fixed
    /// distances/devices.
    pub fn build(&self) -> Result<LatencyModel> {
        if self.clients == 0 {
            return Err(WirelessError::Config("need at least one client".into()));
        }
        self.uplink.validate()?;
        self.downlink.validate()?;
        let bw = self.total_bandwidth.as_hz();
        if !(bw.is_finite() && bw > 0.0) {
            return Err(WirelessError::Config(format!(
                "bandwidth must be finite and > 0, got {bw} Hz"
            )));
        }
        let topology = match &self.fixed_distances {
            Some(d) => {
                if d.len() != self.clients {
                    return Err(WirelessError::Config(format!(
                        "{} fixed distances for {} clients",
                        d.len(),
                        self.clients
                    )));
                }
                Topology::fixed(d.clone())
            }
            None => {
                Topology::random_annulus(self.clients, self.min_radius, self.max_radius, self.seed)?
            }
        };
        let devices = match &self.fixed_devices {
            Some(d) => {
                if d.len() != self.clients {
                    return Err(WirelessError::Config(format!(
                        "{} fixed devices for {} clients",
                        d.len(),
                        self.clients
                    )));
                }
                d.clone()
            }
            None => self.heterogeneity.sample(self.clients, self.seed)?,
        };
        let fading = if self.fading_enabled {
            BlockFading::rayleigh(self.seed)
        } else {
            BlockFading::none()
        };
        Ok(LatencyModel {
            topology,
            devices,
            uplink: self.uplink,
            downlink: self.downlink,
            fading,
            total_bandwidth: self.total_bandwidth,
            server: self.server,
            power: self.power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Bytes, FlopsRate};

    fn model() -> LatencyModel {
        LatencyModel::builder().clients(4).seed(3).build().unwrap()
    }

    /// `client`'s uplink time for `payload` over `share` in `round`,
    /// priced from the link budget at its distance and fading gain.
    fn uplink(m: &LatencyModel, client: usize, payload: u64, round: u64, share: Hertz) -> Seconds {
        m.uplink_budget()
            .transmit_time(
                Bytes::new(payload),
                m.distance(client).unwrap(),
                share,
                m.uplink_gain(client, round),
            )
            .unwrap()
    }

    #[test]
    fn uplink_time_positive_and_deterministic() {
        let m = model();
        let bw = m.total_bandwidth();
        let t1 = uplink(&m, 0, 100_000, 2, bw);
        let t2 = uplink(&m, 0, 100_000, 2, bw);
        assert_eq!(t1, t2);
        assert!(t1.as_secs_f64() > 0.0);
    }

    #[test]
    fn fading_varies_per_round() {
        let m = model();
        assert_ne!(m.uplink_gain(0, 0), m.uplink_gain(0, 1));
        assert_ne!(m.uplink_gain(0, 0), m.downlink_gain(0, 0));
        let bw = m.total_bandwidth();
        assert_ne!(uplink(&m, 0, 100_000, 0, bw), uplink(&m, 0, 100_000, 1, bw));
    }

    #[test]
    fn no_fading_gives_round_invariant_times() {
        let m = LatencyModel::builder()
            .clients(2)
            .fading(false)
            .build()
            .unwrap();
        let bw = m.total_bandwidth();
        assert_eq!(uplink(&m, 0, 1000, 0, bw), uplink(&m, 0, 1000, 99, bw));
    }

    #[test]
    fn smaller_share_is_slower() {
        let m = LatencyModel::builder()
            .clients(1)
            .fading(false)
            .build()
            .unwrap();
        let full = uplink(&m, 0, 1 << 20, 0, Hertz::from_mhz(5.0));
        let fifth = uplink(&m, 0, 1 << 20, 0, Hertz::from_mhz(1.0));
        assert!(fifth.as_secs_f64() > full.as_secs_f64());
    }

    #[test]
    fn downlink_faster_than_uplink_at_same_distance() {
        // 30 dBm AP vs 23 dBm handset.
        let m = LatencyModel::builder()
            .clients(1)
            .fading(false)
            .fixed_distances(vec![Meters::new(100.0)])
            .build()
            .unwrap();
        let bw = m.total_bandwidth();
        let up = uplink(&m, 0, 1 << 20, 0, bw);
        let down = m
            .downlink_budget()
            .transmit_time(
                Bytes::new(1 << 20),
                Meters::new(100.0),
                bw,
                m.downlink_gain(0, 0),
            )
            .unwrap();
        assert!(down.as_secs_f64() < up.as_secs_f64());
    }

    #[test]
    fn compute_times() {
        let m = LatencyModel::builder()
            .clients(1)
            .fixed_devices(vec![
                DeviceProfile::new(FlopsRate::from_gflops(1.0)).unwrap()
            ])
            .build()
            .unwrap();
        let t = m.device(0).unwrap().compute_time(1_000_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!(m.server_compute(1_000_000_000).as_secs_f64() < 1.0); // server faster
    }

    #[test]
    fn unknown_client_errors() {
        let m = model();
        assert!(m.distance(9).is_err());
        assert!(m.device(9).is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(LatencyModel::builder().clients(0).build().is_err());
        assert!(LatencyModel::builder()
            .clients(2)
            .fixed_distances(vec![Meters::new(5.0)])
            .build()
            .is_err());
        for hz in [0.0, f64::NAN, f64::INFINITY] {
            assert!(LatencyModel::builder()
                .clients(1)
                .bandwidth(Hertz::new(hz))
                .build()
                .is_err());
        }
    }
}
