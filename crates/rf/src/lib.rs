//! RF propagation and link-budget substrate.
//!
//! The TS-SDN "modeled the 3-D geometry and RF propagation of the
//! physical world" (§2.3). For each candidate transceiver pair the
//! Link Evaluator computed "the attenuation along the transmission
//! vector ... based on an evaluation of free space loss, atmospheric
//! absorption, and moisture attenuation according to ITU-R models"
//! and from antenna gain patterns derived "the maximum bitrate with
//! acceptable link margin ... or the expected link margin for minimal
//! bitrate" (§3.1).
//!
//! This crate provides that whole pipeline:
//!
//! * [`fspl`] — free-space path loss.
//! * [`atmosphere`] — gaseous (ITU-R P.676-shaped) and cloud/fog
//!   (P.840-shaped) specific attenuation with altitude scale heights,
//!   integrated along slant paths.
//! * [`rain`] — rain specific attenuation (P.838-shaped power law).
//! * [`antenna`] — parabolic-antenna gain patterns with an explicit
//!   first side lobe (the −14 dB bump in Figure 10 comes from radios
//!   locking onto side lobes).
//! * [`weather`] — 4-D weather truth/forecast/gauge models: moving
//!   rain cells, a gridded interpolated field (the paper's cached
//!   "volumes of the atmosphere ... assembled using 4-D linear
//!   interpolation"), forecast views with injected error, and the
//!   ITU-style regional-seasonal fallback.
//! * [`link_budget`] — end-to-end candidate-link evaluation producing
//!   the link-margin / bitrate reports the Solver consumes, including
//!   the "marginal" annotation for links just below acceptable margin.
//!
//! All power quantities are dB / dBm; frequencies are GHz; rain rates
//! are mm/h; distances meters unless suffixed otherwise.

pub mod antenna;
pub mod atmosphere;
pub mod fspl;
pub mod link_budget;
pub mod rain;
pub mod weather;

pub use antenna::AntennaPattern;
pub use fspl::free_space_path_loss_db;
pub use link_budget::{
    capacity_mbps, evaluate_link, path_attenuation_db, AttenuationBreakdown, BandConsts,
    LinkBudgetReport, LinkQuality, PathIntegrator, RadioParams, BITRATE_TABLE, MCS_CAPACITY_TABLE,
};
pub use weather::{
    ClearSky, ForecastView, ItuSeasonal, RainCell, RainGauge, SyntheticWeather, WeatherField,
    WeatherGrid, WeatherSample,
};

/// Thermal noise floor for a receiver: `kTB` plus noise figure, dBm.
#[inline]
pub fn noise_floor_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    -174.0 + 10.0 * bandwidth_hz.log10() + noise_figure_db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_floor_for_e_band_receiver() {
        // 1 GHz bandwidth, 6 dB NF → −78 dBm.
        let n = noise_floor_dbm(1e9, 6.0);
        assert!((n - (-78.0)).abs() < 1e-9, "got {n}");
    }
}
