//! Pass-transistor interconnect array (Section 4).
//!
//! Every crosspoint of the array connects a horizontal and a vertical wire
//! through an ambipolar CNFET used as a pass transistor. All control gates
//! are tied to the same high level, so conduction is decided purely by the
//! programmed PG charge:
//!
//! * PG = `V+` → n-type, CG high → **conducting**: the wires are connected;
//! * PG = `V0` → always off → **disconnected**;
//! * PG = `V−` → p-type, CG high → also off (unused by the paper's
//!   protocol, but decoded as disconnected here for robustness).
//!
//! Interleaving these arrays with GNOR PLAs (Fig. 3) yields cascades of NOR
//! planes that realize any logic function.

use cnfet::{AmbipolarCnfet, PgLevel, ProgrammingMatrix};
use std::error::Error;
use std::fmt;

/// Programmed state of one crosspoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrosspointState {
    /// PG = `V+`: pass transistor conducting, wires connected.
    Connected,
    /// PG = `V0` (or `V−`): pass transistor off, wires isolated.
    #[default]
    Disconnected,
}

impl CrosspointState {
    /// The PG level programming this state.
    pub fn pg_level(self) -> PgLevel {
        match self {
            CrosspointState::Connected => PgLevel::VPlus,
            CrosspointState::Disconnected => PgLevel::VZero,
        }
    }

    /// Decode a PG level under the CG-high convention: only an n-type
    /// device conducts.
    pub fn from_pg_level(level: PgLevel) -> CrosspointState {
        let device = AmbipolarCnfet::new(level);
        if device.conduction(true).is_on() {
            CrosspointState::Connected
        } else {
            CrosspointState::Disconnected
        }
    }
}

/// Error routing signals through a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Two or more horizontal wires drive the same vertical wire — an
    /// electrical short through the pass transistors.
    MultipleDrivers {
        /// The contested vertical wire.
        vertical: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::MultipleDrivers { vertical } => {
                write!(f, "vertical wire {vertical} has multiple drivers")
            }
        }
    }
}

impl Error for RouteError {}

/// A programmable `horizontals × verticals` pass-transistor crossbar.
///
/// # Example
///
/// ```
/// use ambipla_core::Crossbar;
///
/// let mut xbar = Crossbar::new(2, 3);
/// xbar.connect(0, 2);
/// xbar.connect(1, 0);
/// let out = xbar.route(&[true, false])?;
/// assert_eq!(out, vec![Some(false), None, Some(true)]);
/// # Ok::<(), ambipla_core::crossbar::RouteError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crossbar {
    horizontals: usize,
    verticals: usize,
    states: Vec<CrosspointState>,
}

impl Crossbar {
    /// A fully disconnected crossbar.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(horizontals: usize, verticals: usize) -> Crossbar {
        assert!(
            horizontals > 0 && verticals > 0,
            "crossbar dimensions must be non-zero"
        );
        Crossbar {
            horizontals,
            verticals,
            states: vec![CrosspointState::Disconnected; horizontals * verticals],
        }
    }

    /// Number of horizontal wires.
    pub fn horizontals(&self) -> usize {
        self.horizontals
    }

    /// Number of vertical wires.
    pub fn verticals(&self) -> usize {
        self.verticals
    }

    /// The state of crosspoint `(h, v)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn state(&self, h: usize, v: usize) -> CrosspointState {
        self.states[self.index(h, v)]
    }

    /// Connect horizontal `h` to vertical `v`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn connect(&mut self, h: usize, v: usize) {
        let i = self.index(h, v);
        self.states[i] = CrosspointState::Connected;
    }

    /// Disconnect crosspoint `(h, v)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn disconnect(&mut self, h: usize, v: usize) {
        let i = self.index(h, v);
        self.states[i] = CrosspointState::Disconnected;
    }

    /// Number of conducting crosspoints.
    pub fn connection_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, CrosspointState::Connected))
            .count()
    }

    /// The horizontal wire driving each vertical wire, or `None` for a
    /// floating vertical — the electrical structure [`route`](Crossbar::route)
    /// copies values along.
    ///
    /// # Errors
    ///
    /// [`RouteError::MultipleDrivers`] if a vertical wire is connected to
    /// more than one horizontal.
    pub fn driver_map(&self) -> Result<Vec<Option<usize>>, RouteError> {
        let mut drivers = vec![None; self.verticals];
        for (v, slot) in drivers.iter_mut().enumerate() {
            for h in 0..self.horizontals {
                if matches!(self.state(h, v), CrosspointState::Connected) {
                    if slot.is_some() {
                        return Err(RouteError::MultipleDrivers { vertical: v });
                    }
                    *slot = Some(h);
                }
            }
        }
        Ok(drivers)
    }

    /// Drive the horizontal wires with `values` and read the vertical
    /// wires. Unconnected verticals float (`None`).
    ///
    /// # Errors
    ///
    /// [`RouteError::MultipleDrivers`] if a vertical wire is connected to
    /// more than one horizontal.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != horizontals()`.
    pub fn route(&self, values: &[bool]) -> Result<Vec<Option<bool>>, RouteError> {
        assert_eq!(values.len(), self.horizontals, "driver arity mismatch");
        Ok(self
            .driver_map()?
            .into_iter()
            .map(|d| d.map(|h| values[h]))
            .collect())
    }

    /// The PG-level map (horizontal-major) the configuration protocol
    /// writes.
    pub fn pg_map(&self) -> Vec<Vec<PgLevel>> {
        (0..self.horizontals)
            .map(|h| {
                (0..self.verticals)
                    .map(|v| self.state(h, v).pg_level())
                    .collect()
            })
            .collect()
    }

    /// Rebuild a crossbar from a PG map (array readback).
    ///
    /// # Panics
    ///
    /// Panics if the map is empty or ragged.
    pub fn from_pg_map(map: &[Vec<PgLevel>]) -> Crossbar {
        assert!(!map.is_empty(), "crossbar needs at least one horizontal");
        let verticals = map[0].len();
        assert!(map.iter().all(|r| r.len() == verticals), "ragged PG map");
        let states = map
            .iter()
            .flat_map(|r| r.iter().map(|&l| CrosspointState::from_pg_level(l)))
            .collect();
        Crossbar {
            horizontals: map.len(),
            verticals,
            states,
        }
    }

    /// Program this crossbar into a charge matrix via the Fig. 3 protocol.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match.
    pub fn program_into(&self, matrix: &mut ProgrammingMatrix) {
        assert_eq!(matrix.rows(), self.horizontals, "matrix rows mismatch");
        assert_eq!(matrix.cols(), self.verticals, "matrix cols mismatch");
        matrix.program_map(&self.pg_map());
    }

    /// Read a crossbar back from a programmed matrix.
    pub fn from_programmed(matrix: &ProgrammingMatrix) -> Crossbar {
        Crossbar::from_pg_map(&matrix.read_map())
    }

    fn index(&self, h: usize, v: usize) -> usize {
        assert!(
            h < self.horizontals && v < self.verticals,
            "crosspoint ({h}, {v}) out of bounds"
        );
        h * self.verticals + v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_crossbar_floats_everything() {
        let xbar = Crossbar::new(2, 2);
        assert_eq!(xbar.route(&[true, false]).unwrap(), vec![None, None]);
        assert_eq!(xbar.connection_count(), 0);
    }

    #[test]
    fn permutation_routing() {
        let mut xbar = Crossbar::new(3, 3);
        xbar.connect(0, 2);
        xbar.connect(1, 0);
        xbar.connect(2, 1);
        let out = xbar.route(&[true, false, true]).unwrap();
        assert_eq!(out, vec![Some(false), Some(true), Some(true)]);
    }

    #[test]
    fn fanout_is_allowed() {
        // One horizontal may drive several verticals.
        let mut xbar = Crossbar::new(1, 3);
        xbar.connect(0, 0);
        xbar.connect(0, 2);
        let out = xbar.route(&[true]).unwrap();
        assert_eq!(out, vec![Some(true), None, Some(true)]);
    }

    #[test]
    fn short_circuit_detected() {
        let mut xbar = Crossbar::new(2, 1);
        xbar.connect(0, 0);
        xbar.connect(1, 0);
        assert_eq!(
            xbar.route(&[true, false]),
            Err(RouteError::MultipleDrivers { vertical: 0 })
        );
    }

    #[test]
    fn disconnect_undoes_connect() {
        let mut xbar = Crossbar::new(1, 1);
        xbar.connect(0, 0);
        assert_eq!(xbar.state(0, 0), CrosspointState::Connected);
        xbar.disconnect(0, 0);
        assert_eq!(xbar.route(&[true]).unwrap(), vec![None]);
    }

    #[test]
    fn vminus_decodes_as_disconnected() {
        // A p-type device with CG tied high does not conduct.
        assert_eq!(
            CrosspointState::from_pg_level(PgLevel::VMinus),
            CrosspointState::Disconnected
        );
        assert_eq!(
            CrosspointState::from_pg_level(PgLevel::VPlus),
            CrosspointState::Connected
        );
    }

    #[test]
    fn programming_roundtrip() {
        let mut xbar = Crossbar::new(2, 3);
        xbar.connect(0, 1);
        xbar.connect(1, 2);
        let mut m = ProgrammingMatrix::new(2, 3, 1.0);
        xbar.program_into(&mut m);
        let back = Crossbar::from_programmed(&m);
        assert_eq!(back, xbar);
    }

    #[test]
    fn leaked_crossbar_disconnects() {
        let mut xbar = Crossbar::new(2, 2);
        xbar.connect(0, 0);
        xbar.connect(1, 1);
        let mut m = ProgrammingMatrix::new(2, 2, 1e-9);
        xbar.program_into(&mut m);
        m.advance(1.0);
        let back = Crossbar::from_programmed(&m);
        assert_eq!(back.connection_count(), 0, "decay fails safe to open");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_connect_panics() {
        Crossbar::new(1, 1).connect(1, 0);
    }
}
