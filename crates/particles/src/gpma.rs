//! The Gapped Packed Memory Array (GPMA) of paper section 4.3.
//!
//! A GPMA keeps a tile's particles logically sorted by cell by maintaining
//! an index array (`local_index`) partitioned into per-cell *bin regions*
//! with interspersed gaps (`INVALID_PARTICLE_ID` slots). Because particles
//! rarely cross a cell boundary in one CFL-limited step, the per-timestep
//! maintenance touches only moved particles:
//!
//! * **deletion** marks the slot invalid and pushes it on the bin's
//!   empty-slot stack — O(1);
//! * **insertion** pops an empty slot in the target bin — O(1); if the bin
//!   is full it *borrows* a slot from a neighbouring bin by relocating one
//!   boundary particle per intervening bin (particles within a bin share
//!   the sort key, so relocation does not disturb the sorted order);
//! * when borrowing fails or gaps run dry, a **local rebuild** reallocates
//!   the tile's index with fresh, uniformly distributed gaps — O(N_tile),
//!   amortised away by the gap headroom.
//!
//! The structure never moves particle *data*; it permutes indices only.
//! Actual data movement is deferred to the global re-sort
//! ([`crate::sort::counting_sort_keys`] driven by [`crate::policy`]).
//!
//! Delete, insert (with its borrow chain) and rebuild each exist once,
//! as private primitives; two drivers run a maintenance cycle over them,
//! both with the same shape — every delete, then every insert, then one
//! rebuild check:
//!
//! * [`Gpma::sweep`] — the per-step cycle. It walks `local_index` in
//!   sorted order, compares each particle's freshly located bin with the
//!   bin under the cursor and deletes movers *in place at the cursor
//!   slot*, so no slot is looked up twice;
//! * [`Gpma::apply_moves`] — the cycle over a batch of *named*
//!   particles: an injection or a cross-tile arrival (a one-entry
//!   batch), boundary and window removals, external users, tests. Its
//!   deletes find their slot through the `slot_of` reverse map.
//!
//! All operations tally [`MoveStats`] so kernel drivers can charge the
//! emulated machine for the work performed.

/// Marker stored in empty `local_index` slots.
pub const INVALID_PARTICLE_ID: usize = usize::MAX;

/// Rebuild fires when the free-slot ratio drops below this (paper
/// section 4.3.2's maintenance trigger).
const MIN_EMPTY_RATIO: f64 = 0.02;

/// Words of [`Gpma::sweep`]'s `new_bin` at or above this mark a particle
/// that leaves the tile; the low bits are the caller's payload.
pub const LEAVES_TILE: usize = !(usize::MAX >> 1);

/// Ceiling of `count * ratio` as a slot count — the one sanctioned
/// float→integer crossing in this crate. A raw `(x).ceil() as usize`
/// saturates silently on overflow and truncates NaN to zero, which is
/// why mpic-lint rule L5 bans the cast in expression position in
/// result-bearing code; this helper pins the domain with a debug
/// assertion before the conversion so a violated precondition fails a
/// debug build instead of silently clamping a release one.
#[inline]
fn gap_slots(count: usize, ratio: f64) -> usize {
    let slots = (count as f64 * ratio).ceil();
    debug_assert!(
        slots.is_finite() && (0.0..=u32::MAX as f64).contains(&slots),
        "gap slot count {slots} outside the convertible domain"
    );
    slots as usize
}

/// Operation counts of one maintenance cycle ([`Gpma::apply_moves`],
/// [`Gpma::sweep`]).
///
/// The driver multiplies these by per-operation cycle costs; keeping them
/// here keeps the data structure independent of the machine model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct MoveStats {
    /// Moves processed.
    pub moves_applied: usize,
    /// Slots invalidated (move-outs and departures).
    pub deletions: usize,
    /// Particles placed into bins.
    pub insertions: usize,
    /// Insertions satisfied by an O(1) stack pop in the target bin.
    pub o1_inserts: usize,
    /// Boundary relocations performed while borrowing from neighbours.
    pub borrow_shifts: usize,
    /// Bins scanned while searching for a free slot.
    pub bins_scanned: usize,
    /// Local rebuilds triggered.
    pub rebuilds: usize,
    /// Particles re-laid-out by rebuilds.
    pub rebuild_particles: usize,
}

impl MoveStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, o: &MoveStats) {
        self.moves_applied += o.moves_applied;
        self.deletions += o.deletions;
        self.insertions += o.insertions;
        self.o1_inserts += o.o1_inserts;
        self.borrow_shifts += o.borrow_shifts;
        self.bins_scanned += o.bins_scanned;
        self.rebuilds += o.rebuilds;
        self.rebuild_particles += o.rebuild_particles;
    }
}

/// One relocation of a named particle, an entry of the batch
/// [`Gpma::apply_moves`] takes (the paper's `m_pending_moves` entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMove {
    /// Particle index into the tile's SoA.
    pub particle: usize,
    /// Bin the particle currently occupies; `None` for newly added
    /// particles.
    pub old_bin: Option<usize>,
    /// Destination bin; `None` when the particle leaves the tile.
    pub new_bin: Option<usize>,
}

/// The independent state of a [`Gpma`]: everything its future depends
/// on that cannot be derived from the rest. The other fields are what
/// makes each update O(1), and they follow from these: the bin lengths
/// and stack lengths from the gaps in each region, the reverse map
/// `slot_of` from the index, and the counts from both. Produced by
/// [`Gpma::export_state`]; consumed — with full validation — by
/// [`Gpma::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpmaState {
    /// The index array (particle ids or `INVALID_PARTICLE_ID` gaps).
    pub local_index: Vec<usize>,
    /// Region start per bin, plus the trailing capacity entry.
    pub bin_offsets: Vec<usize>,
    /// Every bin's empty-slot stack, bottom first, concatenated in bin
    /// order: bin `c` owns the next `region - live` entries.
    pub free_stacks: Vec<usize>,
    /// Fractional gap headroom per bin.
    pub gap_ratio: f64,
    /// Cumulative local rebuilds since the last counter reset.
    pub rebuild_count: u64,
}

/// The gapped packed-memory index of one particle tile.
#[derive(Debug, Clone)]
pub struct Gpma {
    /// The index array: particle indices or `INVALID_PARTICLE_ID` gaps.
    local_index: Vec<usize>,
    /// Region start per bin; `bin_offsets[n_bins]` == capacity.
    bin_offsets: Vec<usize>,
    /// Valid particles per bin (the paper's `m_bin_lengths`).
    bin_lengths: Vec<usize>,
    /// Per-bin stacks of empty slot indices (the paper's
    /// `m_empty_slots_stack`, kept per bin so an O(1) pop lands in the
    /// correct region), stored flat: bin `c`'s stack is
    /// `free_slots[bin_offsets[c]..bin_offsets[c + 1] - bin_lengths[c]]`,
    /// bottom first. A bin has as many free slots as its region has
    /// slots it does not fill, so each stack lives in the shadow of its
    /// own region — one array per tile instead of one heap buffer per
    /// bin, and no length to keep.
    free_slots: Vec<usize>,
    /// Reverse map: particle index -> slot (O(1) deletion of a *named*
    /// particle; the per-step sweep knows the slot from its cursor).
    slot_of: Vec<usize>,
    num_particles: usize,
    num_empty_slots: usize,
    gap_ratio: f64,
    /// Cumulative local rebuilds since the last counter reset (feeds the
    /// global sort policy trigger 3).
    rebuild_count: u64,
}

impl Gpma {
    /// Builds a GPMA from per-particle bin assignments.
    ///
    /// `cells[p]` is the bin of particle `p`; `n_bins` the number of cells
    /// in the tile; `gap_ratio` the fractional gap headroom per bin (the
    /// paper's uniformly distributed gaps).
    ///
    /// # Panics
    ///
    /// Panics if any bin id is out of range or `gap_ratio < 0`.
    pub fn build(cells: &[usize], n_bins: usize, gap_ratio: f64) -> Self {
        assert!(gap_ratio >= 0.0);
        let mut g = Self {
            local_index: Vec::new(),
            bin_offsets: vec![0; n_bins + 1],
            bin_lengths: vec![0; n_bins],
            free_slots: Vec::new(),
            slot_of: Vec::new(),
            num_particles: 0,
            num_empty_slots: 0,
            gap_ratio,
            rebuild_count: 0,
        };
        g.layout(cells, &mut MoveStats::default());
        g
    }

    /// Lays the index out from scratch for the given assignments.
    fn layout(&mut self, cells: &[usize], stats: &mut MoveStats) {
        let n_bins = self.bin_lengths.len();
        let mut counts = vec![0usize; n_bins];
        let mut live = 0usize;
        for &c in cells {
            if c == INVALID_PARTICLE_ID {
                continue; // Dead SoA slot.
            }
            assert!(c < n_bins, "bin {c} out of range ({n_bins} bins)");
            counts[c] += 1;
            live += 1;
        }
        // Region per bin: count + gaps (at least one gap per bin so an
        // arriving particle has an O(1) home).
        let mut offsets = vec![0usize; n_bins + 1];
        for c in 0..n_bins {
            let gap = gap_slots(counts[c], self.gap_ratio).max(1);
            offsets[c + 1] = offsets[c] + counts[c] + gap;
        }
        let capacity = offsets[n_bins];
        let mut index = vec![INVALID_PARTICLE_ID; capacity];
        let mut cursor = offsets[..n_bins].to_vec();
        let mut slot_of = vec![INVALID_PARTICLE_ID; cells.len()];
        for (p, &c) in cells.iter().enumerate() {
            if c == INVALID_PARTICLE_ID {
                continue;
            }
            index[cursor[c]] = p;
            slot_of[p] = cursor[c];
            cursor[c] += 1;
        }
        let mut free = vec![INVALID_PARTICLE_ID; capacity];
        for c in 0..n_bins {
            // Push high slots first so pops fill the region front-to-back.
            for (k, s) in (cursor[c]..offsets[c + 1]).rev().enumerate() {
                free[offsets[c] + k] = s;
            }
        }
        self.num_empty_slots = capacity - live;
        self.local_index = index;
        self.bin_offsets = offsets;
        self.bin_lengths = counts;
        self.free_slots = free;
        self.slot_of = slot_of;
        self.num_particles = live;
        stats.rebuild_particles += live;
    }

    /// Number of live particles indexed.
    pub fn num_particles(&self) -> usize {
        self.num_particles
    }

    /// Total slots (the paper's `m_capacity`).
    pub fn capacity(&self) -> usize {
        self.local_index.len()
    }

    /// Current free-slot count (the paper's `m_num_empty_slots`).
    pub fn num_empty_slots(&self) -> usize {
        self.num_empty_slots
    }

    /// Free-slot fraction of capacity, the policy's empty-ratio metric.
    pub fn empty_ratio(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.num_empty_slots as f64 / self.capacity() as f64
        }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bin_lengths.len()
    }

    /// Valid particles in bin `c`.
    pub fn bin_len(&self, c: usize) -> usize {
        self.bin_lengths[c]
    }

    /// One past the top of bin `c`'s free stack in `free_slots`.
    fn stack_end(&self, c: usize) -> usize {
        self.bin_offsets[c + 1] - self.bin_lengths[c]
    }

    /// Bin `c`'s stack of free slots, bottom first.
    pub fn free_stack(&self, c: usize) -> &[usize] {
        &self.free_slots[self.bin_offsets[c]..self.stack_end(c)]
    }

    /// Every bin's free stack, concatenated in bin order
    /// ([`GpmaState::free_stacks`]).
    pub fn free_stacks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_bins()).flat_map(|c| self.free_stack(c).iter().copied())
    }

    /// The index array: particle ids and `INVALID_PARTICLE_ID` gaps.
    pub fn local_index(&self) -> &[usize] {
        &self.local_index
    }

    /// Region start per bin, plus the trailing capacity entry.
    pub fn bin_offsets(&self) -> &[usize] {
        &self.bin_offsets
    }

    /// The reverse map: particle index -> slot (`INVALID_PARTICLE_ID`
    /// for a particle not indexed).
    pub fn slot_of(&self) -> &[usize] {
        &self.slot_of
    }

    /// Fractional gap headroom per bin.
    pub fn gap_ratio(&self) -> f64 {
        self.gap_ratio
    }

    /// Raw slot view of bin `c` including `INVALID_PARTICLE_ID` gaps —
    /// exactly what the VPU sweep of Algorithm 1 iterates.
    pub fn bin_slots(&self, c: usize) -> &[usize] {
        &self.local_index[self.bin_offsets[c]..self.bin_offsets[c + 1]]
    }

    /// Iterator over valid particle indices in bin `c`.
    pub fn iter_bin(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.bin_slots(c)
            .iter()
            .copied()
            .filter(|&p| p != INVALID_PARTICLE_ID)
    }

    /// All valid particle indices in sorted order (the traversal the push
    /// and deposition kernels rely on). Bin regions tile `local_index`
    /// contiguously, so sorted order is one linear pass over it.
    pub fn sorted_particles(&self) -> impl Iterator<Item = usize> + '_ {
        self.local_index
            .iter()
            .copied()
            .filter(|&p| p != INVALID_PARTICLE_ID)
    }

    /// [`Gpma::sorted_particles`] as `(bin, particle)` pairs: the same
    /// walk, cut at the `bin_offsets` windows.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_bins()).flat_map(move |c| self.iter_bin(c).map(move |p| (c, p)))
    }

    /// Cumulative local rebuilds since the last reset.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuild_count
    }

    /// Resets the rebuild counter (after a global sort).
    pub fn reset_counters(&mut self) {
        self.rebuild_count = 0;
    }

    /// Applies a batch of moves of named particles as one maintenance
    /// cycle (the paper's `ApplyPendingMoves`): every delete in batch
    /// order, then every insert in batch order, then the rebuild check.
    /// A particle appears in at most one move of a batch.
    ///
    /// `cells[p]` must give the *current* (post-move) bin of every live
    /// particle `p`; it is consulted only when a rebuild re-lays-out the
    /// whole tile. Entries for dead SoA slots must be
    /// `INVALID_PARTICLE_ID`.
    pub fn apply_moves(&mut self, moves: &[PendingMove], cells: &[usize]) -> MoveStats {
        let mut stats = MoveStats {
            moves_applied: moves.len(),
            ..MoveStats::default()
        };
        // Deletions free slots before insertions consume them.
        for mv in moves {
            if let Some(old) = mv.old_bin {
                let slot = self.slot_of[mv.particle];
                assert_ne!(
                    slot, INVALID_PARTICLE_ID,
                    "particle {} not indexed",
                    mv.particle
                );
                self.delete(slot, mv.particle, old, &mut stats);
            }
        }
        let mut overflowed = false;
        for mv in moves {
            if let Some(new) = mv.new_bin {
                overflowed |= !self.insert(mv.particle, new, &mut stats);
            }
        }
        self.settle(overflowed, cells, &mut stats);
        stats
    }

    /// The per-step maintenance cycle, driven from the sorted walk
    /// instead of a batch of named moves (Algorithm 1's sweep fused with its
    /// `ApplyPendingMoves`).
    ///
    /// `new_bin[p]` is the freshly located bin of every live particle
    /// `p`, or a word `>=` [`LEAVES_TILE`] if it left the tile. The walk
    /// visits particles in sorted order; one whose word differs from the
    /// bin under the cursor is deleted in place at the cursor slot, and
    /// then either gets `cells[p]` updated and `(p, new bin)` appended to
    /// `inserts` (cleared first), or `cells[p]` invalidated and
    /// `on_leave(p, word)` called — the caller extracts it there. The
    /// collected inserts then run in walk order, followed by the rebuild
    /// check: the state and the [`MoveStats`] are exactly those of
    /// [`Gpma::apply_moves`] over every mover in walk order.
    pub fn sweep(
        &mut self,
        new_bin: &[usize],
        cells: &mut [usize],
        inserts: &mut Vec<(usize, usize)>,
        mut on_leave: impl FnMut(usize, usize),
    ) -> MoveStats {
        let mut stats = MoveStats::default();
        inserts.clear();
        for bin in 0..self.num_bins() {
            for slot in self.bin_offsets[bin]..self.bin_offsets[bin + 1] {
                let p = self.local_index[slot];
                if p == INVALID_PARTICLE_ID || new_bin[p] == bin {
                    continue;
                }
                self.delete(slot, p, bin, &mut stats);
                let to = new_bin[p];
                if to < LEAVES_TILE {
                    cells[p] = to;
                    inserts.push((p, to));
                } else {
                    cells[p] = INVALID_PARTICLE_ID;
                    on_leave(p, to);
                }
            }
        }
        stats.moves_applied = stats.deletions;
        let mut overflowed = false;
        for &(p, to) in inserts.iter() {
            overflowed |= !self.insert(p, to, &mut stats);
        }
        self.settle(overflowed, cells, &mut stats);
        stats
    }

    /// End of a maintenance cycle — the rebuild triggers of section
    /// 4.3.2: mandatory when overflow particles exist, optional when free
    /// slots are critically low.
    fn settle(&mut self, overflowed: bool, cells: &[usize], stats: &mut MoveStats) {
        if overflowed || self.empty_ratio() < MIN_EMPTY_RATIO {
            self.rebuild(cells, stats);
        }
    }

    fn grow_slot_map(&mut self, particle: usize) {
        if particle >= self.slot_of.len() {
            self.slot_of.resize(particle + 1, INVALID_PARTICLE_ID);
        }
    }

    /// Frees `slot`, which holds `particle` and lies in `old_bin`.
    fn delete(&mut self, slot: usize, particle: usize, old_bin: usize, stats: &mut MoveStats) {
        debug_assert_eq!(self.local_index[slot], particle);
        debug_assert!(
            slot >= self.bin_offsets[old_bin] && slot < self.bin_offsets[old_bin + 1],
            "slot {slot} outside bin {old_bin}"
        );
        self.local_index[slot] = INVALID_PARTICLE_ID;
        self.slot_of[particle] = INVALID_PARTICLE_ID;
        // Push: the shrinking bin length is what grows the stack.
        let end = self.stack_end(old_bin);
        self.free_slots[end] = slot;
        self.bin_lengths[old_bin] -= 1;
        self.num_particles -= 1;
        self.num_empty_slots += 1;
        stats.deletions += 1;
    }

    /// Places `particle` into `new_bin`; returns false if no slot could be
    /// found anywhere (tile full) so the caller rebuilds.
    fn insert(&mut self, particle: usize, new_bin: usize, stats: &mut MoveStats) -> bool {
        self.grow_slot_map(particle);
        stats.insertions += 1;
        // Fast path: a gap inside the target bin.
        if let Some(&slot) = self.free_stack(new_bin).last() {
            self.place(particle, new_bin, slot);
            stats.o1_inserts += 1;
            return true;
        }
        // Borrow: the nearest bin (right, then left) with a free slot
        // gives up the end slot of its region that faces `new_bin`, and
        // every bin in between hands it on by moving its boundary one
        // slot — relocating at most one particle per bin (in-bin order is
        // irrelevant: all particles in a bin share the sort key). The
        // bins in between have no free slot of their own, or one of them
        // would be the donor, so the slot travels past their empty
        // stacks and ends up as `new_bin`'s only free slot.
        let n = self.num_bins();
        let slot = if let Some(donor) = (new_bin + 1..n).find(|&b| self.has_free(b)) {
            stats.bins_scanned += donor - new_bin;
            let mut slot = self.bin_offsets[donor];
            let top = self.vacate(donor, slot, stats);
            // The donor's region, and with it its stack storage, starts
            // one slot later now (a handful of words at most: cheaper
            // moved here than by a call).
            for k in (slot..top).rev() {
                self.free_slots[k + 1] = self.free_slots[k];
            }
            self.bin_offsets[donor] += 1;
            for b in (new_bin + 1..donor).rev() {
                let boundary = self.bin_offsets[b];
                self.evict(boundary, slot, stats);
                self.bin_offsets[b] += 1;
                slot = boundary;
            }
            slot
        } else {
            stats.bins_scanned += n - new_bin - 1;
            let Some(donor) = (0..new_bin).rev().find(|&b| self.has_free(b)) else {
                stats.bins_scanned += new_bin;
                return false;
            };
            stats.bins_scanned += new_bin - donor;
            let mut slot = self.bin_offsets[donor + 1] - 1;
            self.vacate(donor, slot, stats);
            self.bin_offsets[donor + 1] -= 1;
            for b in donor + 1..new_bin {
                let boundary = self.bin_offsets[b + 1] - 1;
                self.evict(boundary, slot, stats);
                self.bin_offsets[b + 1] -= 1;
                slot = boundary;
            }
            slot
        };
        self.place(particle, new_bin, slot);
        true
    }

    /// Whether bin `b` has a free slot.
    fn has_free(&self, b: usize) -> bool {
        self.stack_end(b) > self.bin_offsets[b]
    }

    /// Puts `particle` into `slot`, the top of `bin`'s free stack; the
    /// growing bin length is what pops it.
    fn place(&mut self, particle: usize, bin: usize, slot: usize) {
        debug_assert_eq!(self.local_index[slot], INVALID_PARTICLE_ID);
        self.local_index[slot] = particle;
        self.slot_of[particle] = slot;
        self.bin_lengths[bin] += 1;
        self.num_particles += 1;
        self.num_empty_slots -= 1;
    }

    /// Takes `boundary`, an end slot of the donor bin `b`'s region, off
    /// `b`'s stack: an occupant moves into the top free slot, an empty
    /// boundary is swapped out. Returns the index of the vacated stack
    /// top in `free_slots`; the slots `b` keeps stay below it, and the
    /// caller moves the boundary, which is what shortens the stack.
    fn vacate(&mut self, b: usize, boundary: usize, stats: &mut MoveStats) -> usize {
        let lo = self.bin_offsets[b];
        let end = self.stack_end(b);
        assert!(lo < end, "a donor has a free slot");
        let top = end - 1;
        if !self.evict(boundary, self.free_slots[top], stats) {
            let pos = self.free_slots[lo..end]
                .iter()
                .position(|&s| s == boundary)
                .expect("free boundary slot must be on the stack");
            self.free_slots[lo + pos] = self.free_slots[top];
        }
        top
    }

    /// Empties the slot `boundary` by moving its occupant to the free
    /// slot `dst`; returns false if it was empty already.
    fn evict(&mut self, boundary: usize, dst: usize, stats: &mut MoveStats) -> bool {
        let occupant = self.local_index[boundary];
        if occupant == INVALID_PARTICLE_ID {
            stats.bins_scanned += 1;
            return false;
        }
        debug_assert_ne!(dst, boundary);
        self.local_index[dst] = occupant;
        self.slot_of[occupant] = dst;
        self.local_index[boundary] = INVALID_PARTICLE_ID;
        stats.borrow_shifts += 1;
        true
    }

    /// Local rebuild: re-lays-out the whole tile with fresh gaps
    /// (the paper's `GPMA Local Rebuild`, complexity O(N_tile)).
    fn rebuild(&mut self, cells: &[usize], stats: &mut MoveStats) {
        self.layout(cells, stats);
        stats.rebuilds += 1;
        self.rebuild_count += 1;
    }

    /// Exports the independent state for checkpointing. The GPMA is pure
    /// index bookkeeping (it owns no particle data), so the exported
    /// state plus the tile's slot count fully determines every future
    /// operation bit-for-bit.
    pub fn export_state(&self) -> GpmaState {
        GpmaState {
            local_index: self.local_index.clone(),
            bin_offsets: self.bin_offsets.clone(),
            free_stacks: self.free_stacks().collect(),
            gap_ratio: self.gap_ratio,
            rebuild_count: self.rebuild_count,
        }
    }

    /// Rebuilds a GPMA over a tile of `slots` SoA slots from its
    /// independent state, and derives the tile's bin map: each indexed
    /// particle's region. Returns the index and the bin map.
    ///
    /// Validates instead of trusting the input, so a corrupt snapshot
    /// surfaces as an error here, never as a panic in a later
    /// maintenance cycle: the offsets tile the index; every index entry
    /// names a distinct particle below `slots`; and each bin's stack
    /// holds exactly the gaps of its region.
    pub fn from_state(s: GpmaState, slots: usize) -> Result<(Self, Vec<usize>), &'static str> {
        let offsets_ok = s.bin_offsets.first() == Some(&0)
            && s.bin_offsets.windows(2).all(|w| w[0] <= w[1])
            && s.bin_offsets.last() == Some(&s.local_index.len());
        if !offsets_ok {
            return Err("gpma: bin offsets malformed");
        }
        if !(s.gap_ratio.is_finite() && s.gap_ratio >= 0.0) {
            return Err("gpma: gap ratio out of range");
        }
        let n_bins = s.bin_offsets.len() - 1;
        let capacity = s.local_index.len();
        let mut cells = vec![INVALID_PARTICLE_ID; slots];
        let mut slot_of = vec![INVALID_PARTICLE_ID; slots];
        let mut bin_lengths = vec![0usize; n_bins];
        for c in 0..n_bins {
            for slot in s.bin_offsets[c]..s.bin_offsets[c + 1] {
                let p = s.local_index[slot];
                if p == INVALID_PARTICLE_ID {
                    continue;
                }
                let Some(at) = slot_of.get_mut(p) else {
                    return Err("gpma: index names a particle past the SoA");
                };
                if *at != INVALID_PARTICLE_ID {
                    return Err("gpma: index names a particle twice");
                }
                *at = slot;
                cells[p] = c;
                bin_lengths[c] += 1;
            }
        }
        let live: usize = bin_lengths.iter().sum();
        if s.free_stacks.len() != capacity - live {
            return Err("gpma: free stacks disagree with the gap count");
        }
        // Each stack is as long as its region has gaps, so holding only
        // distinct gaps of the region makes it exactly the gap set.
        let mut free_slots = vec![INVALID_PARTICLE_ID; capacity];
        let mut on_stack = vec![false; capacity];
        let mut next = s.free_stacks.iter();
        for c in 0..n_bins {
            let (lo, hi) = (s.bin_offsets[c], s.bin_offsets[c + 1]);
            for k in lo..hi - bin_lengths[c] {
                let f = *next.next().expect("stack lengths sum to the gap count");
                if !(lo..hi).contains(&f) || s.local_index[f] != INVALID_PARTICLE_ID || on_stack[f]
                {
                    return Err("gpma: free stack entry is not a gap of its bin");
                }
                on_stack[f] = true;
                free_slots[k] = f;
            }
        }
        let gpma = Self {
            local_index: s.local_index,
            bin_offsets: s.bin_offsets,
            bin_lengths,
            free_slots,
            slot_of,
            num_particles: live,
            num_empty_slots: capacity - live,
            gap_ratio: s.gap_ratio,
            rebuild_count: s.rebuild_count,
        };
        Ok((gpma, cells))
    }

    /// Checks the index against the authoritative per-particle bins
    /// `cells` in one linear pass: every particle `cells` names is
    /// indexed exactly once, in that bin, with `slot_of` pointing back
    /// and nothing else indexed; every gap is on its bin's free stack
    /// exactly once; and the counts agree.
    pub fn validate(&self, cells: &[usize]) -> Result<(), &'static str> {
        // Plain bitmaps, not hash sets: the determinism lint (L3) bans
        // hash collections in result-bearing crates outright.
        let mut on_stack = vec![false; self.capacity()];
        let mut indexed = 0;
        for c in 0..self.num_bins() {
            let (lo, hi) = (self.bin_offsets[c], self.bin_offsets[c + 1]);
            let mut valid = 0;
            for (slot, &p) in (lo..hi).zip(&self.local_index[lo..hi]) {
                if p == INVALID_PARTICLE_ID {
                    continue;
                }
                if p >= cells.len() {
                    return Err("gpma: index names a particle out of range");
                }
                if cells[p] != c {
                    return Err("gpma: index holds a particle outside its bin");
                }
                // `slot_of` names one slot per particle: a particle
                // indexed twice fails here at one of them.
                if self.slot_of.get(p) != Some(&slot) {
                    return Err("gpma: slot map inconsistent with index");
                }
                valid += 1;
            }
            if valid != self.bin_lengths[c] {
                return Err("gpma: bin length mismatch");
            }
            // The stack is as long as the bin has gaps, so holding only
            // distinct gaps of the bin makes it exactly the gap set.
            for &s in self.free_stack(c) {
                if s < lo || s >= hi || self.local_index[s] != INVALID_PARTICLE_ID || on_stack[s] {
                    return Err("gpma: free stack entry invalid");
                }
                on_stack[s] = true;
            }
            indexed += valid;
        }
        // Every indexed particle is one `cells` names, so equal counts
        // mean every particle `cells` names is indexed.
        let named = cells.iter().filter(|&&c| c != INVALID_PARTICLE_ID).count();
        if indexed != self.num_particles || named != indexed {
            return Err("gpma: particle count mismatch");
        }
        if self.capacity() - indexed != self.num_empty_slots {
            return Err("gpma: empty slot count mismatch");
        }
        let stale = self
            .slot_of
            .iter()
            .enumerate()
            .any(|(p, &s)| s != INVALID_PARTICLE_ID && self.local_index.get(s) != Some(&p));
        if stale {
            return Err("gpma: slot map names a slot the particle is not in");
        }
        Ok(())
    }

    /// [`Gpma::validate`] as an assertion. Test/debug helper.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    pub fn check_invariants(&self, cells: &[usize]) {
        self.validate(cells).expect("GPMA invariant violated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch entry: `particle` leaves bin `from` (none: it arrives)
    /// for bin `to` (none: it leaves the tile).
    fn mv(particle: usize, from: Option<usize>, to: Option<usize>) -> PendingMove {
        PendingMove {
            particle,
            old_bin: from,
            new_bin: to,
        }
    }

    #[test]
    fn build_bins_particles() {
        let cells = vec![2, 0, 1, 0, 2];
        let g = Gpma::build(&cells, 3, 0.5);
        g.check_invariants(&cells);
        assert_eq!(g.bin_len(0), 2);
        assert_eq!(g.bin_len(1), 1);
        assert_eq!(g.bin_len(2), 2);
        let b0: Vec<usize> = g.iter_bin(0).collect();
        assert_eq!(b0, vec![1, 3]);
    }

    #[test]
    fn o1_move_uses_gap() {
        let mut cells = vec![0, 0, 1, 1];
        let mut g = Gpma::build(&cells, 2, 1.0);
        cells[0] = 1;
        let stats = g.apply_moves(&[mv(0, Some(0), Some(1))], &cells);
        g.check_invariants(&cells);
        assert_eq!(stats.o1_inserts, 1);
        assert_eq!(stats.rebuilds, 0);
        assert_eq!(g.bin_len(0), 1);
        assert_eq!(g.bin_len(1), 3);
    }

    #[test]
    fn removal_shrinks_bin() {
        let cells = vec![0, 0, 1];
        let mut g = Gpma::build(&cells, 2, 0.5);
        // Particle 1 is gone: its cells entry becomes INVALID.
        let after = vec![0, INVALID_PARTICLE_ID, 1];
        let _ = g.apply_moves(&[mv(1, Some(0), None)], &after);
        g.check_invariants(&after);
        assert_eq!(g.bin_len(0), 1);
        assert_eq!(g.num_particles(), 2);
    }

    #[test]
    fn insertion_of_new_particle() {
        let cells = vec![0, 1];
        let g = Gpma::build(&cells, 2, 0.5);
        let extended = vec![0, 1, 1];
        let mut g2 = g.clone();
        let _ = g2.apply_moves(&[mv(2, None, Some(1))], &extended);
        g2.check_invariants(&extended);
        assert_eq!(g2.bin_len(1), 2);
        // Original untouched.
        g.check_invariants(&cells);
    }

    #[test]
    fn borrow_from_right_neighbour() {
        // Bin 0 packed solid (gap_ratio small => 1 gap), fill it, then
        // force another insert so it must borrow from bin 1.
        let cells = vec![0, 0, 0, 1];
        let mut g = Gpma::build(&cells, 3, 0.0); // 1 gap per bin.
                                                 // Two inserts into bin 0: first takes its gap, second borrows.
        let extended = vec![0, 0, 0, 1, 0, 0];
        let stats = g.apply_moves(&[mv(4, None, Some(0)), mv(5, None, Some(0))], &extended);
        g.check_invariants(&extended);
        assert_eq!(g.bin_len(0), 5);
        assert!(
            stats.o1_inserts >= 1,
            "first insert must be O(1): {stats:?}"
        );
        assert_eq!(stats.rebuilds, 0, "borrowing should avoid rebuild");
    }

    #[test]
    fn borrow_from_left_neighbour() {
        // Rightmost bin full; donor must be found to the left.
        let cells = vec![0, 2];
        let mut g = Gpma::build(&cells, 3, 0.0);
        let extended = vec![0, 2, 2, 2];
        let stats = g.apply_moves(&[mv(2, None, Some(2)), mv(3, None, Some(2))], &extended);
        g.check_invariants(&extended);
        assert_eq!(g.bin_len(2), 3);
        assert_eq!(stats.rebuilds, 0);
    }

    #[test]
    fn rebuild_when_tile_exhausted() {
        let cells = vec![0];
        let mut g = Gpma::build(&cells, 1, 0.0); // Capacity 2 (1 + 1 gap).
        let extended = vec![0, 0, 0, 0];
        let arrivals: Vec<PendingMove> = (1..4).map(|p| mv(p, None, Some(0))).collect();
        let stats = g.apply_moves(&arrivals, &extended);
        g.check_invariants(&extended);
        assert!(stats.rebuilds >= 1);
        assert_eq!(g.rebuild_count(), stats.rebuilds as u64);
        assert_eq!(g.num_particles(), 4);
    }

    #[test]
    fn iter_sorted_visits_bin_order() {
        let cells = vec![2, 0, 1];
        let g = Gpma::build(&cells, 3, 0.5);
        let order: Vec<(usize, usize)> = g.iter_sorted().collect();
        assert_eq!(order, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn empty_ratio_reflects_gaps() {
        let cells = vec![0, 0];
        let g = Gpma::build(&cells, 1, 1.0); // 2 particles + 2 gaps.
        assert!((g.empty_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_counters_clears_rebuilds() {
        let cells = vec![0];
        let mut g = Gpma::build(&cells, 1, 0.0);
        let extended = vec![0, 0, 0];
        let _ = g.apply_moves(&[mv(1, None, Some(0)), mv(2, None, Some(0))], &extended);
        assert!(g.rebuild_count() > 0);
        g.reset_counters();
        assert_eq!(g.rebuild_count(), 0);
    }

    #[test]
    fn state_round_trip_preserves_behaviour() {
        let mut cells = vec![0, 0, 1, 2, 2];
        let mut g = Gpma::build(&cells, 3, 0.5);
        cells[0] = 1;
        let _ = g.apply_moves(&[mv(0, Some(0), Some(1))], &cells);
        let (mut twin, derived) = Gpma::from_state(g.export_state(), cells.len()).unwrap();
        assert_eq!(derived, cells, "the bin map follows from the index");
        twin.check_invariants(&cells);
        assert_eq!(twin.export_state(), g.export_state());
        assert_eq!(twin.slot_of(), g.slot_of());
        assert_eq!(
            (twin.num_particles(), twin.num_empty_slots()),
            (g.num_particles(), g.num_empty_slots())
        );
        // Identical future operations must produce identical stats and
        // layout.
        let mut cells2 = cells.clone();
        cells2.push(1);
        let arrival = [mv(5, None, Some(1))];
        let (a, b) = (
            g.apply_moves(&arrival, &cells2),
            twin.apply_moves(&arrival, &cells2),
        );
        assert_eq!(a, b);
        assert_eq!(twin.export_state(), g.export_state());
    }

    #[test]
    fn from_state_rejects_corrupt_state() {
        let cells = vec![0, 1, 1];
        let g = Gpma::build(&cells, 2, 0.5);
        let good = g.export_state();
        let slots = cells.len();
        assert!(Gpma::from_state(good.clone(), slots).is_ok());
        let rejects = |bad: GpmaState, slots: usize| Gpma::from_state(bad, slots).is_err();

        let mut bad = good.clone();
        bad.bin_offsets.pop();
        assert!(rejects(bad, slots), "offset table");

        assert!(rejects(good.clone(), 2), "index names a slot past the SoA");

        let mut bad = good.clone();
        let gap = bad.free_stacks[0];
        bad.local_index[gap] = 1;
        assert!(rejects(bad, slots), "particle indexed twice");

        let mut bad = good.clone();
        bad.free_stacks[1] = bad.free_stacks[0];
        assert!(rejects(bad, slots), "stack entry outside its bin");

        let mut bad = Gpma::build(&[0, 0], 1, 1.0).export_state();
        assert_eq!(bad.free_stacks.len(), 2);
        bad.free_stacks[1] = bad.free_stacks[0];
        assert!(rejects(bad, 2), "duplicate free slot");

        let mut bad = good.clone();
        bad.free_stacks[0] = bad.bin_offsets[0];
        assert!(rejects(bad, slots), "stack entry naming an occupied slot");

        let mut bad = good.clone();
        bad.free_stacks.pop();
        assert!(rejects(bad, slots), "stack shorter than the gaps");

        let mut bad = good;
        bad.gap_ratio = f64::NAN;
        assert!(rejects(bad, slots), "NaN gap ratio");
    }

    #[test]
    fn validate_ties_the_index_to_the_bin_map() {
        let cells = vec![0, 1, 1, 2];
        let g = Gpma::build(&cells, 3, 0.5);
        assert_eq!(g.validate(&cells), Ok(()));
        assert!(g.validate(&cells[..3]).is_err(), "bin map one short");
        assert!(g.validate(&[0, 2, 1, 2]).is_err(), "bin map disagrees");
        let dead = [0, INVALID_PARTICLE_ID, 1, 2];
        assert!(g.validate(&dead).is_err(), "index names a dead slot");
        assert!(
            g.validate(&[0, 1, 1, 2, 1]).is_err(),
            "bin map names an unindexed particle"
        );
    }

    #[test]
    fn free_stack_order_is_pinned_through_borrow_chains_and_rebuilds() {
        // Constants recorded from the `Vec<Vec<usize>>` free stacks this
        // layout replaced: LIFO pops, `swap_remove` of a free boundary slot.
        let n_bins = 6;
        let mut cells: Vec<usize> = (0..24).map(|p| p % n_bins).collect();
        let mut g = Gpma::build(&cells, n_bins, 0.5);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 33) as usize % n
        };
        let (mut hash, mut shifts, mut scanned, mut rebuilds) = (0xcbf2_9ce4_8422_2325u64, 0, 0, 0);
        for cycle in 0..60 {
            // Pile into one end bin (alternating), drain the others.
            let sink = if cycle % 2 == 0 { 0 } else { n_bins - 1 };
            let mut touched = vec![false; cells.len() + 8];
            let mut batch = Vec::new();
            for _ in 0..8 {
                let p = next(cells.len() + 2);
                if touched[p] {
                    continue;
                }
                touched[p] = true;
                if p >= cells.len() {
                    cells.resize(p + 1, INVALID_PARTICLE_ID);
                }
                let to = if next(3) == 0 { next(n_bins) } else { sink };
                match cells[p] {
                    INVALID_PARTICLE_ID => batch.push(mv(p, None, Some(to))),
                    from if next(4) == 0 => {
                        batch.push(mv(p, Some(from), None));
                        cells[p] = INVALID_PARTICLE_ID;
                        continue;
                    }
                    from if from == to => continue,
                    from => batch.push(mv(p, Some(from), Some(to))),
                }
                cells[p] = to;
            }
            let stats = g.apply_moves(&batch, &cells);
            g.check_invariants(&cells);
            shifts += stats.borrow_shifts;
            scanned += stats.bins_scanned;
            rebuilds += stats.rebuilds;
            let s = g.export_state();
            for w in s
                .free_stacks
                .iter()
                .chain(&s.bin_offsets)
                .chain(&s.local_index)
            {
                hash = (hash ^ *w as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!((shifts, scanned, rebuilds), (63, 134, 1));
        assert_eq!(hash, 0x0cce_a80b_d19f_4dc8, "a free stack left LIFO order");
        let expected: [&[usize]; 6] = [
            &[19, 1, 16],
            &[22, 21, 20],
            &[27],
            &[],
            &[32, 33, 30],
            &[55, 41],
        ];
        let stacks: Vec<&[usize]> = (0..n_bins).map(|c| g.free_stack(c)).collect();
        assert_eq!(stacks, expected);
    }

    #[test]
    fn chain_borrow_across_multiple_bins() {
        // Only the far-right bin has a free slot; inserting into bin 0
        // must chain the boundary shift across bins 1..3.
        let cells = vec![0, 1, 2, 3];
        let mut g = Gpma::build(&cells, 4, 0.0);
        // Fill every gap first.
        let mid = vec![0, 1, 2, 3, 0, 1, 2];
        let fill = [4, 5, 6].map(|p| mv(p, None, Some(p - 4)));
        let s1 = g.apply_moves(&fill, &mid);
        assert_eq!(s1.rebuilds, 0);
        g.check_invariants(&mid);
        // Now only bin 3's gap remains; insert into bin 0.
        let fin = vec![0, 1, 2, 3, 0, 1, 2, 0];
        let s2 = g.apply_moves(&[mv(7, None, Some(0))], &fin);
        g.check_invariants(&fin);
        // The insertion itself must be satisfied by chained borrowing (a
        // maintenance rebuild may still fire afterwards because the tile
        // ends up completely full — that is the empty-ratio trigger).
        assert_eq!(s2.borrow_shifts, 3, "one relocation per bin: {s2:?}");
        assert!(s2.bins_scanned > 0);
        assert_eq!(g.bin_len(0), 3);
    }
}
