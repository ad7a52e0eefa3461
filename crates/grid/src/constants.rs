//! Physical constants (SI units) used throughout the simulation stack.

/// Speed of light in vacuum, m/s.
pub const C: f64 = 299_792_458.0;

/// Vacuum permittivity, F/m.
pub const EPS0: f64 = 8.854_187_812_8e-12;

/// Vacuum permeability, H/m.
pub const MU0: f64 = 1.256_637_062_12e-6;

/// Elementary charge, C.
pub const Q_E: f64 = 1.602_176_634e-19;

/// Electron mass, kg.
pub const M_E: f64 = 9.109_383_701_5e-31;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_squared_matches_1_over_eps0_mu0() {
        let c2 = 1.0 / (EPS0 * MU0);
        assert!((c2 / (C * C) - 1.0).abs() < 1e-9);
    }
}
