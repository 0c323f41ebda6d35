//! Vivaldi network coordinates (wire v9): decentralized RTT prediction.
//!
//! Every site maintains a point in a 3-D Euclidean space plus a
//! non-Euclidean *height* modelling its access-link delay, exactly as in
//! Dabek et al.'s Vivaldi. Each measured RTT to a peer whose coordinate
//! is known moves this site's point a little along the spring between
//! the two points; after a handful of samples the pairwise distances
//! predict RTTs well enough to *rank* peers by proximity, which is all
//! the routing layers need (help targets, probe victims, replica
//! placement). No extra probe traffic is ever sent: samples come from
//! request/response pairs that already flow (help requests, direct
//! probes), and coordinates travel piggybacked on heartbeats and probe
//! acks. The simulator runs this same rule on its virtual-time help
//! round trips.
//!
//! The update rule per sample (rtt in milliseconds, peer coordinate
//! `xj` with confidence `ej`):
//!
//! ```text
//! w      = ei / (ei + ej)                  // sample weight
//! dist   = |xi - xj| + hi + hj             // predicted rtt
//! es     = |dist - rtt| / rtt              // relative sample error
//! ei     = es*CE*w + ei*(1 - CE*w)         // confidence EWMA
//! delta  = CC * w
//! xi    += delta * (rtt - dist) * u(xi-xj) // spring displacement
//! ```
//!
//! `CE = CC = 0.25` (the paper's recommended constants). Convergence in
//! practice: with CC = 0.25 each sample removes ~25% of the prediction
//! error along one spring, so the relative fit error falls below 0.5
//! within ~10 samples and below ~0.25 within a few tens — the
//! [`VivaldiState::converged`] gate reflects exactly that bound, and
//! routing falls back to uniform selection until it holds.

/// Confidence EWMA gain (Vivaldi's `ce`).
const CE: f64 = 0.25;
/// Displacement gain (Vivaldi's `cc`).
const CC: f64 = 0.25;
/// Fraction of each measured RTT attributed to the access link (height).
const HEIGHT_FRACTION: f64 = 0.1;
/// Samples required before the coordinate may be trusted for routing.
const MIN_SAMPLES: u64 = 10;
/// Relative fit error below which the coordinate counts as converged.
const CONVERGED_ERR: f64 = 0.5;
/// Gain for the absolute-error EWMA exported as `sdvm_coord_error_ms`.
const ABS_ERR_GAIN: f64 = 0.1;

/// A Vivaldi network coordinate: a point in a 3-D Euclidean space plus
/// a non-Euclidean *height* modelling the access-link delay. Sites
/// gossip their coordinate on heartbeat and probe traffic; any receiver
/// can then predict the RTT to a site it never measured as
/// `|xa - xb| + ha + hb` (milliseconds). `err` is the sender's own
/// confidence (relative fit error, 0 = perfect, starts at 1) so
/// receivers can weigh how much to trust the prediction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Coord {
    /// Euclidean component, milliseconds.
    pub x: f64,
    /// Euclidean component, milliseconds.
    pub y: f64,
    /// Euclidean component, milliseconds.
    pub z: f64,
    /// Height (access-link delay), milliseconds, always >= 0.
    pub h: f64,
    /// Relative fit error in [0, 1+]; 1.0 = no confidence yet.
    pub err: f64,
}

impl Coord {
    /// The origin with no confidence: every site starts here.
    pub fn origin() -> Self {
        Coord {
            x: 0.0,
            y: 0.0,
            z: 0.0,
            h: 0.0,
            err: 1.0,
        }
    }

    /// Predicted RTT between two coordinates, in milliseconds:
    /// Euclidean distance plus both heights.
    pub fn predicted_rtt_ms(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt() + self.h + other.h
    }
}

/// This site's Vivaldi coordinate plus the bookkeeping the update rule
/// and the telemetry gauge need. Cheap to copy under a lock.
#[derive(Clone, Debug)]
pub struct VivaldiState {
    /// Current coordinate (what gets gossiped).
    pub coord: Coord,
    /// RTT samples absorbed so far.
    pub samples: u64,
    /// EWMA of the absolute prediction error, milliseconds (telemetry).
    pub abs_error_ms: f64,
}

impl Default for VivaldiState {
    fn default() -> Self {
        VivaldiState {
            coord: Coord::origin(),
            samples: 0,
            abs_error_ms: 0.0,
        }
    }
}

impl VivaldiState {
    /// Absorb one RTT measurement (milliseconds) against a peer at
    /// `peer` coordinate. RTTs that are zero, negative, NaN or absurd
    /// are dropped — a poisoned sample must not fling the coordinate.
    pub fn observe(&mut self, peer: &Coord, rtt_ms: f64) {
        if !rtt_ms.is_finite() || rtt_ms <= 0.0 || rtt_ms > 120_000.0 {
            return;
        }
        let ei = self.coord.err.clamp(0.0, 1.0).max(1e-6);
        let ej = peer.err.clamp(0.0, 1.0).max(1e-6);
        let w = ei / (ei + ej);

        let dx = self.coord.x - peer.x;
        let dy = self.coord.y - peer.y;
        let dz = self.coord.z - peer.z;
        let euclid = (dx * dx + dy * dy + dz * dz).sqrt();
        let dist = euclid + self.coord.h + peer.h;

        let es = (dist - rtt_ms).abs() / rtt_ms;
        self.coord.err = (es * CE * w + self.coord.err * (1.0 - CE * w)).clamp(0.0, 10.0);
        self.abs_error_ms += ABS_ERR_GAIN * ((dist - rtt_ms).abs() - self.abs_error_ms);

        // Unit vector away from the peer; when the points coincide
        // (every site starts at the origin) pick a deterministic
        // pseudo-random direction seeded by the sample count so the
        // cluster unfolds instead of oscillating along one axis.
        let (ux, uy, uz) = if euclid > 1e-9 {
            (dx / euclid, dy / euclid, dz / euclid)
        } else {
            unit_from_seed(self.samples)
        };

        let delta = CC * w;
        let disp = delta * (rtt_ms - dist);
        // Split the displacement between the Euclidean part and the
        // height: most of it moves the point, a fixed fraction grows or
        // shrinks the access-link delay (heights must stay >= 0).
        self.coord.x += disp * ux * (1.0 - HEIGHT_FRACTION);
        self.coord.y += disp * uy * (1.0 - HEIGHT_FRACTION);
        self.coord.z += disp * uz * (1.0 - HEIGHT_FRACTION);
        self.coord.h = (self.coord.h + disp * HEIGHT_FRACTION).max(0.0);
        self.samples += 1;
    }

    /// Whether the coordinate is trustworthy enough to drive routing.
    /// Until this holds every consumer must fall back to its uniform
    /// (pre-v9) selection behavior.
    pub fn converged(&self) -> bool {
        self.samples >= MIN_SAMPLES && self.coord.err < CONVERGED_ERR
    }

    /// Predicted RTT (ms) from this site to a peer coordinate.
    pub fn predict_ms(&self, peer: &Coord) -> f64 {
        self.coord.predicted_rtt_ms(peer)
    }
}

/// Deterministic unit vector on the sphere from a counter: splitmix64
/// into two angles. No RNG dependency, identical across runs.
fn unit_from_seed(seed: u64) -> (f64, f64, f64) {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let a = (z & 0xffff_ffff) as f64 / 4294967296.0 * std::f64::consts::TAU;
    let c = ((z >> 32) as f64 / 4294967296.0) * 2.0 - 1.0; // cos(polar)
    let s = (1.0 - c * c).sqrt();
    (s * a.cos(), s * a.sin(), c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_rtt_is_distance_plus_heights() {
        let a = Coord {
            x: 3.0,
            y: 0.0,
            z: 4.0,
            h: 0.5,
            err: 0.2,
        };
        let b = Coord {
            h: 0.25,
            ..Coord::origin()
        };
        // |(3,0,4)| = 5, plus both heights.
        assert!((a.predicted_rtt_ms(&b) - 5.75).abs() < 1e-12);
        assert!((b.predicted_rtt_ms(&a) - 5.75).abs() < 1e-12);
    }

    /// Two sites repeatedly measuring a stable RTT must converge to
    /// coordinates whose predicted distance matches it.
    #[test]
    fn two_sites_converge_to_measured_rtt() {
        let mut a = VivaldiState::default();
        let mut b = VivaldiState::default();
        for _ in 0..200 {
            let ca = a.coord;
            let cb = b.coord;
            a.observe(&cb, 20.0);
            b.observe(&ca, 20.0);
        }
        assert!(a.converged(), "a not converged: {a:?}");
        assert!(b.converged(), "b not converged: {b:?}");
        let predicted = a.predict_ms(&b.coord);
        assert!(
            (predicted - 20.0).abs() < 4.0,
            "predicted {predicted} vs measured 20"
        );
    }

    /// A clustered topology (two LAN islands joined by a WAN link) must
    /// rank same-island peers closer than cross-island peers.
    #[test]
    fn islands_are_ranked_correctly() {
        let n = 8;
        let mut states: Vec<VivaldiState> = (0..n).map(|_| VivaldiState::default()).collect();
        let rtt = |i: usize, j: usize| -> f64 {
            if (i < n / 2) == (j < n / 2) {
                2.0 // same island
            } else {
                60.0 // cross-island
            }
        };
        // Deterministic all-pairs gossip rounds.
        for _round in 0..60 {
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let cj = states[j].coord;
                    states[i].observe(&cj, rtt(i, j));
                }
            }
        }
        // Site 0 must predict every same-island peer closer than every
        // cross-island peer.
        let near_max = (1..n / 2)
            .map(|j| states[0].predict_ms(&states[j].coord))
            .fold(0.0f64, f64::max);
        let far_min = (n / 2..n)
            .map(|j| states[0].predict_ms(&states[j].coord))
            .fold(f64::INFINITY, f64::min);
        assert!(
            near_max < far_min,
            "island ranking violated: near max {near_max} >= far min {far_min}"
        );
    }

    /// Convergence gate: fresh state is not converged, and garbage
    /// samples (zero, NaN, absurd) never move the coordinate.
    #[test]
    fn garbage_samples_are_dropped() {
        let mut s = VivaldiState::default();
        assert!(!s.converged());
        let before = s.coord;
        s.observe(&Coord::origin(), 0.0);
        s.observe(&Coord::origin(), -5.0);
        s.observe(&Coord::origin(), f64::NAN);
        s.observe(&Coord::origin(), 1e9);
        assert_eq!(s.samples, 0);
        assert_eq!(s.coord, before);
    }

    /// Heights never go negative regardless of sample order.
    #[test]
    fn height_stays_non_negative() {
        let mut s = VivaldiState::default();
        for i in 0..100 {
            let peer = Coord {
                x: (i % 7) as f64,
                ..Coord::origin()
            };
            s.observe(&peer, if i % 2 == 0 { 0.1 } else { 50.0 });
            assert!(s.coord.h >= 0.0, "height went negative at sample {i}");
        }
    }
}
