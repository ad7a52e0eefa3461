//! Relativistic Boris pusher.
//!
//! Operates on normalised momentum `u = gamma v / c`. The scheme is the
//! classic half-acceleration / rotation / half-acceleration splitting,
//! which conserves energy exactly in a pure magnetic field.

use mpic_grid::constants::C;
use mpic_machine::{Lanes, Machine, Phase, VLANES};

/// Precomputed per-species, per-step push coefficients.
#[derive(Debug, Clone, Copy)]
pub struct BorisCoeffs {
    /// `q dt / (2 m c)` — E-field half kick in normalised momentum.
    pub e_fac: f64,
    /// `q dt / (2 m)` — B rotation prefactor (divided by gamma inside).
    pub b_fac: f64,
    /// Timestep (s).
    pub dt: f64,
}

impl BorisCoeffs {
    /// Builds coefficients for a species of charge `q` (C), mass `m` (kg)
    /// and timestep `dt` (s).
    pub fn new(q: f64, m: f64, dt: f64) -> Self {
        Self {
            e_fac: q * dt / (2.0 * m * C),
            b_fac: q * dt / (2.0 * m),
            dt,
        }
    }
}

/// Advances one particle's normalised momentum and position in place.
///
/// Returns the particle's Lorentz factor after the update (for
/// diagnostics).
pub fn boris_push(
    c: &BorisCoeffs,
    e: [f64; 3],
    b: [f64; 3],
    ux: &mut f64,
    uy: &mut f64,
    uz: &mut f64,
    x: &mut f64,
    y: &mut f64,
    z: &mut f64,
) -> f64 {
    // Half electric kick.
    let mut umx = *ux + c.e_fac * e[0];
    let mut umy = *uy + c.e_fac * e[1];
    let mut umz = *uz + c.e_fac * e[2];

    // Magnetic rotation.
    let gamma_m = (1.0 + umx * umx + umy * umy + umz * umz).sqrt();
    let tx = c.b_fac * b[0] / gamma_m;
    let ty = c.b_fac * b[1] / gamma_m;
    let tz = c.b_fac * b[2] / gamma_m;
    let upx = umx + (umy * tz - umz * ty);
    let upy = umy + (umz * tx - umx * tz);
    let upz = umz + (umx * ty - umy * tx);
    let s = 2.0 / (1.0 + tx * tx + ty * ty + tz * tz);
    umx += s * (upy * tz - upz * ty);
    umy += s * (upz * tx - upx * tz);
    umz += s * (upx * ty - upy * tx);

    // Second half electric kick.
    *ux = umx + c.e_fac * e[0];
    *uy = umy + c.e_fac * e[1];
    *uz = umz + c.e_fac * e[2];

    // Position update with the new momentum.
    let gamma = (1.0 + *ux * *ux + *uy * *uy + *uz * *uz).sqrt();
    let f = C * c.dt / gamma;
    *x += *ux * f;
    *y += *uy * f;
    *z += *uz * f;
    gamma
}

/// Lane-parallel Boris push: advances up to [`mpic_machine::vect::W`]
/// particles at once, one per lane. `e`/`b` hold the gathered field
/// components as lane packs (component-major: `e[d]` is component `d`
/// of every lane's E field), `u` the normalised momenta and `pos` the
/// positions, updated in place.
///
/// Every lane replays [`boris_push`]'s operation sequence exactly —
/// the multiply-then-add splits are unfused ([`Lanes::mul_acc`]), and
/// the per-lane `sqrt`/division are IEEE correctly rounded — so each
/// lane's momentum and position are bitwise the scalar push of that
/// particle. Inactive tail lanes may simply carry zeros: every
/// intermediate stays finite (`gamma = 1`), and masked writeback
/// discards them.
///
/// Cost-model note: this routine charges nothing, exactly like the
/// scalar [`boris_push`]; every execution mode prices the push through
/// [`charge_push`], which is how `Push` cycles stay bitwise identical
/// across modes.
pub fn boris_push_lanes(
    c: &BorisCoeffs,
    e: &[Lanes; 3],
    b: &[Lanes; 3],
    u: &mut [Lanes; 3],
    pos: &mut [Lanes; 3],
) {
    let e_fac = Lanes::splat(c.e_fac);
    let one = Lanes::splat(1.0);

    // Half electric kick.
    let um = [
        u[0].mul_acc(e_fac, e[0]),
        u[1].mul_acc(e_fac, e[1]),
        u[2].mul_acc(e_fac, e[2]),
    ];

    // Magnetic rotation.
    let gamma_m = one
        .mul_acc(um[0], um[0])
        .mul_acc(um[1], um[1])
        .mul_acc(um[2], um[2])
        .sqrt();
    let b_fac = Lanes::splat(c.b_fac);
    let t = [
        (b_fac * b[0]) / gamma_m,
        (b_fac * b[1]) / gamma_m,
        (b_fac * b[2]) / gamma_m,
    ];
    let up = [
        um[0] + (um[1] * t[2] - um[2] * t[1]),
        um[1] + (um[2] * t[0] - um[0] * t[2]),
        um[2] + (um[0] * t[1] - um[1] * t[0]),
    ];
    let s = Lanes::splat(2.0)
        / one
            .mul_acc(t[0], t[0])
            .mul_acc(t[1], t[1])
            .mul_acc(t[2], t[2]);
    let um = [
        um[0].mul_acc(s, up[1] * t[2] - up[2] * t[1]),
        um[1].mul_acc(s, up[2] * t[0] - up[0] * t[2]),
        um[2].mul_acc(s, up[0] * t[1] - up[1] * t[0]),
    ];

    // Second half electric kick.
    u[0] = um[0].mul_acc(e_fac, e[0]);
    u[1] = um[1].mul_acc(e_fac, e[1]);
    u[2] = um[2].mul_acc(e_fac, e[2]);

    // Position update with the new momentum.
    let gamma = one
        .mul_acc(u[0], u[0])
        .mul_acc(u[1], u[1])
        .mul_acc(u[2], u[2])
        .sqrt();
    let f = Lanes::splat(C * c.dt) / gamma;
    pos[0] = pos[0].mul_acc(u[0], f);
    pos[1] = pos[1].mul_acc(u[1], f);
    pos[2] = pos[2].mul_acc(u[2], f);
}

/// Charges the push cost of `n` particles (vectorised sweep: loads of
/// 6 gathered fields + 6 phase-space attributes, ~45 FLOPs/particle,
/// stores back).
pub fn charge_push(m: &mut Machine, n: usize) {
    m.in_phase(Phase::Push, |m| {
        let chunks = n.div_ceil(VLANES);
        // 12 loads + 6 stores + ~24 arithmetic vector ops per chunk.
        m.v_ops(chunks * 42);
        m.record_flops((n * 45) as f64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpic_grid::constants::{M_E, Q_E};

    #[test]
    fn pure_b_field_conserves_energy() {
        let dt = 1e-12;
        let c = BorisCoeffs::new(-Q_E, M_E, dt);
        let (mut ux, mut uy, mut uz) = (0.3, 0.1, -0.2);
        let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
        let u0 = f64::sqrt(ux * ux + uy * uy + uz * uz);
        for _ in 0..1000 {
            boris_push(
                &c,
                [0.0; 3],
                [0.0, 0.0, 0.5],
                &mut ux,
                &mut uy,
                &mut uz,
                &mut x,
                &mut y,
                &mut z,
            );
        }
        let u1 = (ux * ux + uy * uy + uz * uz).sqrt();
        assert!(((u1 - u0) / u0).abs() < 1e-12, "|u| drifted: {u0} -> {u1}");
    }

    #[test]
    fn e_field_accelerates_linearly_nonrelativistic() {
        // du/dt = qE/(mc): after N steps u = N dt qE/(mc).
        let dt = 1e-15;
        let e_field = 1e6;
        let c = BorisCoeffs::new(-Q_E, M_E, dt);
        let (mut ux, mut uy, mut uz) = (0.0, 0.0, 0.0);
        let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
        let n = 100;
        for _ in 0..n {
            boris_push(
                &c,
                [e_field, 0.0, 0.0],
                [0.0; 3],
                &mut ux,
                &mut uy,
                &mut uz,
                &mut x,
                &mut y,
                &mut z,
            );
        }
        let expect = -Q_E * e_field * (n as f64) * dt / (M_E * C);
        assert!(
            ((ux - expect) / expect).abs() < 1e-9,
            "u {ux} expect {expect}"
        );
        assert!(uy.abs() < 1e-300 && uz.abs() < 1e-300);
    }

    #[test]
    fn gyration_preserves_plane() {
        // Motion in B = z-hat stays in the xy plane.
        let c = BorisCoeffs::new(-Q_E, M_E, 1e-13);
        let (mut ux, mut uy, mut uz) = (0.1, 0.0, 0.0);
        let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
        for _ in 0..500 {
            boris_push(
                &c,
                [0.0; 3],
                [0.0, 0.0, 1.0],
                &mut ux,
                &mut uy,
                &mut uz,
                &mut x,
                &mut y,
                &mut z,
            );
        }
        assert_eq!(uz, 0.0);
        assert_eq!(z, 0.0);
        assert!(ux.abs() <= 0.1 + 1e-12 && uy.abs() <= 0.1 + 1e-12);
    }

    #[test]
    fn position_advance_uses_c_over_gamma() {
        let c = BorisCoeffs::new(0.0, M_E, 1e-9); // Neutral: pure drift.
        let (mut ux, mut uy, mut uz) = (1.0, 0.0, 0.0);
        let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
        let gamma = boris_push(
            &c, [0.0; 3], [0.0; 3], &mut ux, &mut uy, &mut uz, &mut x, &mut y, &mut z,
        );
        assert!((gamma - 2.0_f64.sqrt()).abs() < 1e-12);
        let expect = C * 1e-9 / 2.0_f64.sqrt();
        assert!((x - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn conf_lane_boris_push_matches_scalar_bitwise() {
        use mpic_machine::vect::W;

        let c = BorisCoeffs::new(-Q_E, M_E, 1.3e-13);
        // Distinct, irregular per-lane phase-space and field values so a
        // cross-lane mixup or regrouped operation cannot cancel out.
        let mut e = [Lanes::zero(); 3];
        let mut b = [Lanes::zero(); 3];
        let mut u = [Lanes::zero(); 3];
        let mut pos = [Lanes::zero(); 3];
        let mut su = [[0.0f64; W]; 3];
        let mut sp = [[0.0f64; W]; 3];
        let mut se = [[0.0f64; W]; 3];
        let mut sb = [[0.0f64; W]; 3];
        for l in 0..W {
            for d in 0..3 {
                let x = (l * 3 + d) as f64;
                se[d][l] = (x * 0.713).sin() * 2.0e5;
                sb[d][l] = (x * 1.117).cos() * 0.4;
                su[d][l] = (x * 0.391).sin() * 0.8;
                sp[d][l] = (x * 0.157).cos() * 1.0e-6;
                e[d].0[l] = se[d][l];
                b[d].0[l] = sb[d][l];
                u[d].0[l] = su[d][l];
                pos[d].0[l] = sp[d][l];
            }
        }
        boris_push_lanes(&c, &e, &b, &mut u, &mut pos);
        for l in 0..W {
            let (mut ux, mut uy, mut uz) = (su[0][l], su[1][l], su[2][l]);
            let (mut x, mut y, mut z) = (sp[0][l], sp[1][l], sp[2][l]);
            boris_push(
                &c,
                [se[0][l], se[1][l], se[2][l]],
                [sb[0][l], sb[1][l], sb[2][l]],
                &mut ux,
                &mut uy,
                &mut uz,
                &mut x,
                &mut y,
                &mut z,
            );
            let want = [ux, uy, uz, x, y, z];
            let got = [
                u[0].lane(l),
                u[1].lane(l),
                u[2].lane(l),
                pos[0].lane(l),
                pos[1].lane(l),
                pos[2].lane(l),
            ];
            for (d, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "lane {l} component {d}");
            }
        }
    }

    #[test]
    fn lane_push_zero_lanes_stay_finite() {
        // Tail lanes carry zeros; the lane push must keep them finite
        // (gamma = 1, no division blowup) so masked writeback can
        // simply ignore them.
        let c = BorisCoeffs::new(-Q_E, M_E, 1e-13);
        let e = [Lanes::zero(); 3];
        let b = [Lanes::zero(); 3];
        let mut u = [Lanes::zero(); 3];
        let mut pos = [Lanes::zero(); 3];
        boris_push_lanes(&c, &e, &b, &mut u, &mut pos);
        for d in 0..3 {
            for l in 0..mpic_machine::vect::W {
                assert!(u[d].lane(l).is_finite() && pos[d].lane(l).is_finite());
                assert_eq!(u[d].lane(l), 0.0);
                assert_eq!(pos[d].lane(l), 0.0);
            }
        }
    }

    #[test]
    fn charge_push_fills_push_phase() {
        let mut m = Machine::new(mpic_machine::MachineConfig::lx2());
        charge_push(&mut m, 100);
        assert!(m.counters().cycles(Phase::Push) > 0.0);
    }
}
