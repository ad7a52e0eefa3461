//! Distinct cache lines of an index set — what every gather and the
//! fused reduce price. `lane_lines` serves a lane vector's arbitrary
//! indices; [`LineCarry`] serves a sweep of [`TensorBlock`]s, deriving
//! each block's lines from its rows and carrying them to the next call
//! as the lines still resident.
//!
//! All line ids here are **relative**: the id of the line holding the
//! base address is 0, so a set depends on the base only through its byte
//! offset within a line, and every base congruent modulo the line size
//! replays the same set displaced by its own line id. [`Machine::new`]
//! guarantees a line holds at least one f64, so a run of consecutive
//! elements touches every line between its first and its last.

use crate::machine::Machine;
use crate::mem::VAddr;
use crate::vreg::VLANES;

/// Sorts `a` ascending: an odd-even transposition network — branch-free,
/// the same compare-exchanges whatever order the values arrive in, and
/// unrolled for the widths it serves (a block axis, a lane vector).
#[inline(always)]
fn sort_network<const N: usize>(a: &mut [u64; N]) {
    for pass in 0..N {
        for i in (pass % 2..N - 1).step_by(2) {
            let (lo, hi) = (a[i].min(a[i + 1]), a[i].max(a[i + 1]));
            (a[i], a[i + 1]) = (lo, hi);
        }
    }
}

/// Drops the repeats from ascending `lines` in place, returning the
/// distinct count.
fn dedup(lines: &mut [u64]) -> usize {
    let mut len = 0;
    for i in 0..lines.len() {
        if len == 0 || lines[len - 1] != lines[i] {
            lines[len] = lines[i];
            len += 1;
        }
    }
    len
}

/// Sorts `lines` ascending in place and drops the repeats, returning the
/// distinct count: by insertion, for the short and mostly ordered list a
/// block no grid produces leaves behind.
#[cold]
fn sort_distinct(lines: &mut [u64]) -> usize {
    for i in 1..lines.len() {
        let l = lines[i];
        let mut at = i;
        while at > 0 && lines[at - 1] > l {
            lines[at] = lines[at - 1];
            at -= 1;
        }
        lines[at] = l;
    }
    dedup(lines)
}

/// Writes the ascending distinct lines of `base[idx]`, for a base
/// `offset` bytes into its line, to the front of `out` and returns their
/// count. Sorted lanes (sorted particles) skip the network. Panics if
/// `idx` is longer than [`VLANES`].
pub(crate) fn lane_lines(out: &mut [u64; VLANES], offset: u64, idx: &[usize], shift: u32) -> usize {
    *out = [u64::MAX; VLANES];
    let (mut sorted, mut last) = (true, 0);
    for (slot, &i) in out.iter_mut().zip(idx) {
        let l = (offset + 8 * i as u64) >> shift;
        sorted &= l >= last;
        last = l;
        *slot = l;
    }
    if !sorted {
        sort_network(out);
    }
    dedup(&mut out[..idx.len()])
}

/// A run-scoped block by its tensor structure: node `(a, b, c)` — `a`
/// fastest, the order a stencil is traversed in — is element
/// `axis(0)[a] + axis(1)[b] + axis(2)[c]` of whichever array a touch
/// applies it to. A stencil's `S^3` node list is `3 S` words this way,
/// and its cache lines follow from `S^2` rows instead of `S^3` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorBlock {
    off: [[usize; Machine::RUN_AXIS_MAX]; 3],
    support: usize,
}

impl TensorBlock {
    /// The block of no nodes.
    pub const EMPTY: Self = Self {
        off: [[0; Machine::RUN_AXIS_MAX]; 3],
        support: 0,
    };

    /// The block of `support^3` nodes whose offset `a` along axis `d`
    /// is `off[d][a]`; offsets past `support` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `support` exceeds [`Machine::RUN_AXIS_MAX`].
    #[inline]
    pub fn new(support: usize, off: [[usize; Machine::RUN_AXIS_MAX]; 3]) -> Self {
        assert!(
            support <= Machine::RUN_AXIS_MAX,
            "block exceeds RUN_BLOCK_MAX: at most RUN_AXIS_MAX nodes per axis"
        );
        Self { off, support }
    }

    /// [`TensorBlock::new`] with `off(d, a)` for `off[d][a]`, called for
    /// `a < support` only.
    pub fn from_fn(support: usize, mut off: impl FnMut(usize, usize) -> usize) -> Self {
        let mut block = Self::new(support, Self::EMPTY.off);
        for (d, axis) in block.off.iter_mut().enumerate() {
            for (a, slot) in axis[..support].iter_mut().enumerate() {
                *slot = off(d, a);
            }
        }
        block
    }

    /// Nodes in the block (`support^3`).
    pub fn len(&self) -> usize {
        self.support * self.support * self.support
    }

    /// Whether the block has no nodes.
    pub fn is_empty(&self) -> bool {
        self.support == 0
    }

    /// The element offsets along axis `d`, in node order.
    pub fn axis(&self, d: usize) -> &[usize] {
        &self.off[d][..self.support]
    }

    /// Calls `f(node, element)` for every node, in node order.
    #[inline]
    pub fn for_each_node(&self, mut f: impl FnMut(usize, usize)) {
        let mut node = 0;
        for &c in self.axis(2) {
            for &b in self.axis(1) {
                for &a in self.axis(0) {
                    f(node, a + b + c);
                    node += 1;
                }
            }
        }
    }

    /// Writes the ascending distinct lines of the block, for a base
    /// `offset` bytes into its line, to the front of `out` and returns
    /// their count.
    ///
    /// Row by row: with every axis put in ascending order (a stencil's
    /// is, unless it straddles a periodic wrap) the rows of a grid
    /// stencil come out in address order, each row is its runs of
    /// consecutive x offsets (one, or two across an x wrap), and each
    /// run spans the lines from its first element's to its last's — so
    /// the list is born sorted, and distinct once a run's first line is
    /// dropped where it repeats the line written last. Offsets no grid
    /// produces (rows that overlap or repeat) may still come out of
    /// order; those lists take an insertion sort. A run of `k` elements
    /// writes at most `k` lines, so `out` cannot overflow.
    fn lines(&self, offset: u64, shift: u32, out: &mut [u64; Machine::RUN_BLOCK_MAX]) -> usize {
        // One arm per support: as a const it makes the axis networks,
        // the rows and the runs fixed-trip loops (a CIC block's lines
        // cost a third of what one body for every support charged).
        const _: () = assert!(Machine::RUN_AXIS_MAX == 4);
        match self.support {
            0 => 0,
            1 => self.lines_of::<1>(offset, shift, out),
            2 => self.lines_of::<2>(offset, shift, out),
            3 => self.lines_of::<3>(offset, shift, out),
            _ => self.lines_of::<{ Machine::RUN_AXIS_MAX }>(offset, shift, out),
        }
    }

    /// [`TensorBlock::lines`] for `self.support == S`.
    #[inline(always)]
    fn lines_of<const S: usize>(
        &self,
        offset: u64,
        shift: u32,
        out: &mut [u64; Machine::RUN_BLOCK_MAX],
    ) -> usize {
        // Per axis: byte offsets in ascending order.
        let mut axes = [[0u64; S]; 3];
        for (bytes, off) in axes.iter_mut().zip(&self.off) {
            for (byte, &o) in bytes.iter_mut().zip(off) {
                *byte = 8 * o as u64;
            }
            sort_network(bytes);
        }
        let [xs, ys, zs] = axes;
        // The x runs, as (first, last) byte within the row.
        let mut runs = [(0u64, 0u64); S];
        let mut n_runs = 0;
        for x in xs {
            let x = x + offset;
            if n_runs > 0 && x <= runs[n_runs - 1].1 + 8 {
                runs[n_runs - 1].1 = x;
            } else {
                runs[n_runs] = (x, x);
                n_runs += 1;
            }
        }
        let (mut n, mut last, mut ascending) = (0, 0, true);
        for z in zs {
            for y in ys {
                let row = z + y;
                for &(first, end) in &runs[..n_runs] {
                    let (mut l, end) = ((row + first) >> shift, (row + end) >> shift);
                    ascending &= l >= last;
                    out[n] = l;
                    n += (n == 0 || l != last) as usize;
                    while l < end {
                        l += 1;
                        out[n] = l;
                        n += 1;
                    }
                    last = end;
                }
            }
        }
        if !ascending {
            n = sort_distinct(&mut out[..n]);
        }
        n
    }
}

/// How many of `cur` are not in `prev`, both ascending and distinct: one
/// merge pass. (Consecutive blocks of a sweep share most lines in a
/// regular pattern, which the branch predictor learns; a branch-free
/// merge measured half as fast, its two cursors one dependent chain.)
fn count_new(cur: &[u64], prev: &[u64]) -> usize {
    let (mut p, mut new) = (0, 0);
    for &l in cur {
        while p < prev.len() && prev[p] < l {
            p += 1;
        }
        new += !(p < prev.len() && prev[p] == l) as usize;
    }
    new
}

/// The reuse state of one sweep of block touches
/// ([`crate::Meter::v_touch_gather_block`],
/// [`crate::Meter::v_touch_reduce_block_reuse`]): the lines of the block
/// touched last — what the kernel still holds in lane registers, or in
/// the store buffer — kept as they were derived, so the next call pays
/// for its own block's lines only and subtracts these.
///
/// Owned by the sweep's scope: one carry per tile, [`LineCarry::reset`]
/// wherever the modelled kernel would start cold. Two halves, swapped
/// per call, hold the current block and its predecessor — the blocks
/// themselves beside their lines, because a base that is not congruent
/// to the lines in hand modulo the line size needs both re-derived
/// (line-aligned allocations never do).
#[derive(Debug, Clone)]
pub struct LineCarry {
    blocks: [TensorBlock; 2],
    lines: [[u64; Machine::RUN_BLOCK_MAX]; 2],
    len: [usize; 2],
    /// The half holding the current block.
    front: usize,
    /// What both line lists were derived for: the base's byte offset
    /// into its line, and the line size as a shift.
    class: (u64, u32),
}

impl Default for LineCarry {
    fn default() -> Self {
        Self::new()
    }
}

impl LineCarry {
    /// A carry with nothing resident.
    pub fn new() -> Self {
        Self {
            blocks: [TensorBlock::EMPTY; 2],
            lines: [[0; Machine::RUN_BLOCK_MAX]; 2],
            len: [0; 2],
            front: 0,
            class: (0, 0),
        }
    }

    /// Forgets the block touched last: the next one finds nothing
    /// resident.
    #[inline]
    pub fn reset(&mut self) {
        self.blocks[self.front] = TensorBlock::EMPTY;
        self.len[self.front] = 0;
    }

    /// Makes `block` the current block, its lines derived for `base`
    /// under lines of `1 << shift` bytes, and returns how many of them
    /// the previous block did not cover.
    #[inline]
    pub fn advance(&mut self, block: &TensorBlock, base: VAddr, shift: u32) -> usize {
        self.front ^= 1;
        self.blocks[self.front] = *block;
        self.rebase(base, shift)
    }

    /// Whether the lines in hand serve `base` (displaced by its line id).
    #[inline]
    pub(crate) fn serves(&self, base: VAddr, shift: u32) -> bool {
        (base.0 & ((1 << shift) - 1), shift) == self.class
    }

    /// Derives the current block's lines for `base` — and, if the
    /// previous block's are for a base not congruent to it, those again
    /// too — and returns how many the previous block did not cover.
    pub(crate) fn rebase(&mut self, base: VAddr, shift: u32) -> usize {
        let (front, back) = (self.front, self.front ^ 1);
        let offset = base.0 & ((1 << shift) - 1);
        if (offset, shift) != self.class {
            self.class = (offset, shift);
            self.len[back] = self.blocks[back].lines(offset, shift, &mut self.lines[back]);
        }
        self.len[front] = self.blocks[front].lines(offset, shift, &mut self.lines[front]);
        count_new(self.lines(), &self.lines[back][..self.len[back]])
    }

    /// The current block's ascending distinct lines, relative to the
    /// line of the base they were derived for.
    #[inline]
    pub fn lines(&self) -> &[u64] {
        &self.lines[self.front][..self.len[self.front]]
    }
}
