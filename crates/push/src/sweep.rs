//! The two tile push sweeps: one tile's gather + Boris push + position
//! boundaries, charged on the worker machine `Exec::run_counted` hands
//! them, whose cache it has flushed for the tile.
//!
//! All mutation is tile-local and the field state is read-only, so both
//! sweeps are pure functions of the tile: iteration order, removals and
//! every charge depend only on tile state, which is what keeps
//! positions, momenta and emulated cycles bit-identical for any worker
//! count.

use mpic_deposit::ShapeOrder;
use mpic_grid::{FieldArrays, GridGeometry};
use mpic_machine::{vect::W, Lanes, LineCarry, Machine, Phase, Pricing, VAddr};
use mpic_particles::{ParticleTile, PendingMove};

use crate::boris::{boris_push, boris_push_lanes, charge_push, BorisCoeffs};
use crate::gather::{
    charge_gather, charge_gather_run, gather_fields_with_cell, gather_from_block_lanes_masked,
    load_node_block, GatherCost, NodeBlock,
};
use crate::scratch::PushScratch;

/// What every tile push of one step shares.
pub struct PushCtx<'a> {
    /// Grid geometry.
    pub geom: &'a GridGeometry,
    /// Gather shape order.
    pub order: ShapeOrder,
    /// The field state being gathered (read-only during the push).
    pub fields: &'a FieldArrays,
    /// Virtual bases of the six field arrays, for the cache model.
    pub field_addrs: [VAddr; 6],
    /// Push coefficients of the species.
    pub boris: BorisCoeffs,
    /// Absorbing z boundaries: a particle leaving `[lo, hi)` in z is
    /// removed instead of wrapped. `None` is fully periodic.
    pub absorb_z: Option<[f64; 2]>,
}

impl PushCtx<'_> {
    /// Pushes one tile in the step's execution mode
    /// (`Depositor::mode`): [`Pricing::Walk`] runs the per-particle
    /// sweep, [`Pricing::Stream`] the run sweep.
    pub fn push_tile(
        &self,
        wm: &mut Machine,
        mode: Pricing,
        tile: &mut ParticleTile,
        scratch: &mut PushScratch,
    ) {
        match mode {
            Pricing::Walk => self.push_tile_per_particle(wm, tile, scratch),
            Pricing::Stream => self.push_tile_runs(wm, tile, scratch),
        }
    }

    /// The per-particle reference sweep: raw live-slot order, one full
    /// stencil gather per particle, the gather charged from each
    /// particle's sampled first node so the cache walk tracks the real
    /// (for unsorted input: scattered) address stream.
    fn push_tile_per_particle(
        &self,
        wm: &mut Machine,
        tile: &mut ParticleTile,
        scratch: &mut PushScratch,
    ) {
        scratch.clear();
        scratch.live.extend(tile.soa.live_indices());
        if scratch.live.is_empty() {
            return;
        }
        let (geom, fields) = (self.geom, self.fields);
        for &p in &scratch.live {
            let (mut x, mut y, mut z) = (tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
            let (e, b, cw) = gather_fields_with_cell(geom, self.order, fields, x, y, z);
            scratch.sample_idx.push(fields.ex.idx(
                cw[0] + geom.guard,
                cw[1] + geom.guard,
                cw[2] + geom.guard,
            ));
            let (mut ux, mut uy, mut uz) = (tile.soa.ux[p], tile.soa.uy[p], tile.soa.uz[p]);
            boris_push(
                &self.boris,
                e,
                b,
                &mut ux,
                &mut uy,
                &mut uz,
                &mut x,
                &mut y,
                &mut z,
            );
            self.finish_push(tile, p, [x, y, z], [ux, uy, uz], &mut scratch.removed);
        }
        tile.remove(&scratch.removed);
        charge_gather(
            wm,
            GatherCost::default(),
            scratch.live.len(),
            self.order.nodes_3d(),
            &self.field_addrs,
            &scratch.sample_idx,
        );
        charge_push(wm, scratch.live.len());
    }

    /// The cell-run sweep: particles are visited in GPMA-sorted order
    /// (same-bin particles are adjacent), each same-cell run loads its
    /// stencil node block once, and the run's particles are interpolated
    /// AND Boris-pushed from it in lane-width packs when the run closes
    /// ([`PushCtx::flush_run`]).
    ///
    /// Run boundaries come from each particle's **actual located
    /// cell**, not from its GPMA bin: the moving-window shift
    /// translates positions after the last maintenance pass, so bins can
    /// be one cell stale at push time — the located cell never is, and
    /// it is computed anyway for the interpolation weights. A uniformly
    /// stale order still groups perfectly, so the amortisation is
    /// unaffected.
    ///
    /// Value-exact versus the per-particle sweep: same node values, same
    /// weights, same accumulation order per lane (gathers are read-only,
    /// so the cached block cannot go stale within a run; each particle's
    /// writeback touches only its own SoA slots, so deferring the push
    /// to run close lets no buffered particle observe another's).
    /// Removals are collected in GPMA order rather than raw slot order.
    ///
    /// The cost model charges one run-scoped block gather per field
    /// array instead of a per-particle node sweep: the previous run's
    /// block stays in lane registers across the run boundary, so only
    /// the cache lines the new stencil adds are charged (sorted-cell
    /// order makes consecutive stencils overlap heavily), at a flat
    /// bandwidth price with a roofline crossover on the field-array
    /// footprint. The reuse state is tile-local — reset at tile start
    /// and advanced in run order — so the charge stream is the same for
    /// every worker count.
    fn push_tile_runs(&self, wm: &mut Machine, tile: &mut ParticleTile, scratch: &mut PushScratch) {
        scratch.clear();
        scratch.live.extend(tile.gpma.sorted_particles());
        if scratch.live.is_empty() {
            return;
        }
        let geom = self.geom;
        let mut block = NodeBlock::new();
        // Roofline footprint of one guarded field array: the whole array
        // is swept by a tile's run sequence, so this is the operand span
        // the streaming price compares against L1 capacity.
        let dims = geom.dims_with_guard();
        let footprint = (dims[0] * dims[1] * dims[2] * 8) as u64;
        // Register-reuse state: the lines of the last flushed run's block.
        let mut carry = LineCarry::new();
        let locate = |tile: &ParticleTile, p: usize| {
            geom.locate(tile.soa.x[p], tile.soa.y[p], tile.soa.z[p])
        };
        let live = &scratch.live;
        let mut head = locate(tile, live[0]);
        let mut i = 0;
        // One Gather scope for the tile: each run's charge is issued on
        // its meter as the run closes.
        wm.in_phase(Phase::Gather, |m| {
            while i < live.len() {
                // Buffer the run: this particle and every following one
                // that locates to the same cell.
                let cell = head.0;
                load_node_block(geom, self.order, self.fields, cell, &mut block);
                scratch.run_slots.clear();
                scratch.run_frac.clear();
                while head.0 == cell {
                    scratch.run_slots.push(live[i]);
                    scratch.run_frac.push(head.1);
                    i += 1;
                    if i == live.len() {
                        break;
                    }
                    head = locate(tile, live[i]);
                }
                // Close it: one block gather charge, then the lane packs.
                charge_gather_run(
                    m,
                    GatherCost::default(),
                    scratch.run_slots.len(),
                    &self.field_addrs,
                    &block.stencil,
                    &mut carry,
                    footprint,
                );
                self.flush_run(
                    tile,
                    &block,
                    &scratch.run_slots,
                    &scratch.run_frac,
                    &mut scratch.removed,
                );
            }
        });
        tile.remove(&scratch.removed);
        charge_push(wm, scratch.live.len());
    }

    /// Interpolates and Boris-pushes one buffered same-cell run in
    /// lane-width packs: the masked lane gather hands `(E, B)` to the
    /// lane-parallel push still in lane registers. The final ragged pack
    /// — every run length that is not a multiple of [`W`] — runs the
    /// same lane kernels under a prefix mask: inactive tail lanes carry
    /// zeros through the gather and push (all operations stay finite on
    /// zeros) and are simply never written back. Each lane holds one
    /// particle end to end and every lane operation is the correctly
    /// rounded per-lane twin of its scalar counterpart, so active lanes
    /// are bit-identical to the per-particle sweep; particles retire in
    /// buffer (= GPMA) order, absorbed ones onto `removed`.
    fn flush_run(
        &self,
        tile: &mut ParticleTile,
        block: &NodeBlock,
        slots: &[usize],
        fracs: &[[f64; 3]],
        removed: &mut Vec<PendingMove>,
    ) {
        for (pack, fracs) in slots.chunks(W).zip(fracs.chunks(W)) {
            let (e, b) = gather_from_block_lanes_masked(self.order, block, fracs);
            // Transpose the pack's phase space into lane registers; tail
            // lanes beyond the pack stay zero.
            let mut u = [Lanes::zero(); 3];
            let mut pos = [Lanes::zero(); 3];
            for (l, &p) in pack.iter().enumerate() {
                pos[0].0[l] = tile.soa.x[p];
                pos[1].0[l] = tile.soa.y[p];
                pos[2].0[l] = tile.soa.z[p];
                u[0].0[l] = tile.soa.ux[p];
                u[1].0[l] = tile.soa.uy[p];
                u[2].0[l] = tile.soa.uz[p];
            }
            boris_push_lanes(&self.boris, &e, &b, &mut u, &mut pos);
            for (l, &p) in pack.iter().enumerate() {
                self.finish_push(
                    tile,
                    p,
                    [pos[0].lane(l), pos[1].lane(l), pos[2].lane(l)],
                    [u[0].lane(l), u[1].lane(l), u[2].lane(l)],
                    removed,
                );
            }
        }
    }

    /// Boundary handling + SoA writeback of one already-pushed particle
    /// (post-push position `pos` and momentum `u`) — the scalar epilogue
    /// every particle of either sweep retires through: periodic wrap in
    /// x/y, and in z either the wrap or, with absorbing boundaries, a
    /// removal appended to `removed` once the particle left the z extent.
    fn finish_push(
        &self,
        tile: &mut ParticleTile,
        p: usize,
        pos: [f64; 3],
        u: [f64; 3],
        removed: &mut Vec<PendingMove>,
    ) {
        let wrapped = self.geom.wrap_position(pos);
        let mut z = pos[2];
        match self.absorb_z {
            Some([zlo, zhi]) => {
                if z < zlo || z >= zhi {
                    removed.push(tile.removal(p));
                }
            }
            None => z = wrapped[2],
        }
        tile.soa.x[p] = wrapped[0];
        tile.soa.y[p] = wrapped[1];
        tile.soa.z[p] = z;
        tile.soa.ux[p] = u[0];
        tile.soa.uy[p] = u[1];
        tile.soa.uz[p] = u[2];
    }
}
