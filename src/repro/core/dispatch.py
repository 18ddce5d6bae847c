"""Per-level adaptive kernel dispatch (``algorithm="adaptive"``).

The paper picks ONE SpMV kernel per run from the graph-level ``scf``
metric, but frontier shape changes drastically across BFS levels: the
sparse early/late frontiers favour the thread-per-edge strategy, the dense
middle levels favour the column kernels, and a single undiscovered hub
column can stall scCSC's critical path by milliseconds while leaving the
other kernels untouched.  :class:`AdaptiveDispatcher` therefore re-picks
the kernel *every level*, for both stages, from cheap frontier statistics
(:class:`LevelStats`): the frontier's nnz and degree mass, the degree mass,
line/strip counts and maximum degree of the columns the kernels process,
and the active tiles of the cached tile directory.  All of these are
single O(n + tiles) reductions -- on real hardware one tiny kernel per
level, negligible next to the SpMM itself.

The dispatcher holds no cost formula of its own.  It fills one shared
*expected* :class:`~repro.spmv.Profile` per level -- threads are the
processed columns, scanning their entries -- which each candidate kernel's
``expected`` maps onto its own fields (beside its exact ``profile``), and
prices each with that kernel's cost formula (for the level's gather, or a
digraph's backward scatter) and the device roofline
(:func:`~repro.gpusim.device.model_launch`) -- the functions the launch
runs on its exact profile -- then launches the argmin.  An estimate misses
the measured time only where an expected count misses the exact one, and
this module keeps only the expectation terms:

* contributing entries from degree mass: an allowed entry's source is in
  the frontier with probability ``e_active / m``, and the longest atomic
  chain is the largest processed column's share;
* a column of degree ``d`` has a frontier neighbour with probability
  ``1 - (1 - p)^d`` (``p`` the frontier density), which gives the
  expected written rows (pull's geometric first-hit probes, the same
  density's ``~1 / p``, sit beside its exact count in
  :mod:`repro.spmv.pullcsc`);
* the divergence inflation: a warp retires at its slowest lane, so the
  thread-per-index kernels' warp sums run :data:`DIVERGENCE` times the
  mean; the critical thread is the largest processed degree;
* every processed index is charged the level's mean lanes per index,
  and the index-dependent gathers and atomics their entry share of the
  matrix's cached full-pass transaction counts (which carry its locality).

Decisions are recorded as :class:`DispatchDecision` rows and annotated on
the per-level ``obs`` spans, so a trace shows exactly which kernel served
every level and why.

The kernel strategies dispatch over the *single stored CSC format* (the
paper's ``7n + m`` discipline): ``sccooc`` here means the thread-per-edge
strategy of :mod:`repro.spmv.edgecsc`, which recovers each entry's column
with a binary search on ``CP_A``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim import warp as W
from repro.gpusim.device import DeviceSpec, model_launch
from repro.spmv import Profile, any_lane, edgecsc, pullcsc, sccsc, tcspmm, veccsc
from repro.spmv.tcspmm import stripe_any, tile_stats

#: Kernel strategies the dispatcher switches between, each with its kernel
#: module over the stored CSC (``sccooc`` is the thread-per-edge strategy):
#: the module's exact ``profile`` fill and its one ``cost`` formula.
STRATEGY_KERNELS = {"sccooc": edgecsc, "sccsc": sccsc, "veccsc": veccsc,
                    "pullcsc": pullcsc, "tcspmm": tcspmm}
STRATEGIES = tuple(STRATEGY_KERNELS)

#: Traversal direction of each strategy: the warp kernels iterate from the
#: frontier side gathering values (push); ``pullcsc`` probes the frontier
#: bitmap from the unvisited side, and the blocked tensor-core kernel prunes
#: tiles against the same bitmap, so both are pull-shaped.
DIRECTION = {
    "sccooc": "push",
    "sccsc": "push",
    "veccsc": "push",
    "pullcsc": "pull",
    "tcspmm": "pull",
}

#: Valid values of the ``direction`` override on the dispatcher / driver.
DIRECTIONS = ("auto", "push", "pull")

#: Expected ratio of a warp's slowest-lane work to its mean lane work for
#: the thread-per-index kernels: a warp retires at its slowest lane, so the
#: aggregate runs above the mean even on near-uniform degrees.
DIVERGENCE = 2.0


@dataclass(frozen=True)
class LevelStats:
    """The reductions one decision takes over a level's frontier (the
    multi-GPU scheduler fills them from per-component signals).  The
    processed columns are a gather's allowed ones (all when unmasked) and a
    scatter's positive-lane ones, every entry of which contributes."""

    scatter: bool
    masked: bool
    batch: int
    dtype: np.dtype
    nnz_x: int       # frontier indices with a positive lane
    e_active: int    # stored entries whose frontier index is positive
    n_proc: int      # processed columns
    slots: int       # their (column, lane) slots: allowed, or positive lanes
    s_proc: int      # their stored entries
    lines: int       # their sum of ceil(degree / 8): row_A line fills
    strips: int      # their sum of ceil(degree / 32): warp strips
    dmax: int        # their largest degree
    tiles: dict = field(default_factory=dict)  # tcspmm.tile_stats fields


@dataclass(frozen=True)
class DispatchDecision:
    """One per-level kernel choice with the statistics that drove it."""

    stage: str                 # "forward" | "backward"
    depth: int
    kernel: str                # one of STRATEGIES
    nnz_frontier: int
    frontier_frac: float
    avg_deg_active: float
    max_deg_allowed: int
    batch: int = 1
    #: Traversal direction of the chosen kernel (``DIRECTION[kernel]``): the
    #: per-level push<->pull decision this row records.
    direction: str = "push"
    #: Unvisited-side density ``n_allowed / n``: the pull kernels scan the
    #: *undiscovered* columns, so their cost tracks this, not the frontier
    #: nnz (which is what the push cost tracks).
    unvisited_frac: float = 1.0
    est_us: dict = field(default_factory=dict)   # strategy -> estimated µs
    #: Measured modeled time per strategy, in µs.  The chosen kernel's entry
    #: is filled on every adaptive launch; the others only under
    #: ``RunTelemetry(audit_dispatch=True)``, which prices their exact
    #: profiles from the launch's product (obs/audit.py turns the gap into a
    #: regret report).  Mutable by design -- the decision identity is the
    #: frozen statistics above.
    measured_us: dict = field(default_factory=dict, compare=False)

    def span_attrs(self) -> dict:
        """Attributes recorded on the level span for this decision."""
        return {
            # The run phase this level belongs to -- the memory profiler's
            # phase derivation reads it when the span *names* alone don't
            # identify the stage (DESIGN.md §13).
            "phase": self.stage,
            f"{self.stage}_kernel": self.kernel,
            f"{self.stage}_direction": self.direction,
            "nnz_frontier": self.nnz_frontier,
            "frontier_frac": round(self.frontier_frac, 6),
            "unvisited_frac": round(self.unvisited_frac, 6),
            "avg_deg_active": round(self.avg_deg_active, 3),
            "max_deg_allowed": self.max_deg_allowed,
        }


class AdaptiveDispatcher:
    """Chooses a kernel strategy per SpMM launch from frontier stats.

    ``scatter_backward`` says the backward stage runs the scatter product
    (digraphs), so its candidates are priced by their scatter costs.
    """

    def __init__(self, csc: CSCMatrix, spec: DeviceSpec, *, direction: str = "auto",
                 scatter_backward: bool = False):
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; expected one of {DIRECTIONS}"
            )
        self.csc = csc
        self.spec = spec
        self.direction = direction
        self.scatter_backward = scatter_backward
        self.n = csc.n_cols
        self.m = csc.nnz
        self.deg = csc.column_counts()
        self.all_columns = self._column_sums(self.deg)
        self.rowdeg = csc.row_counts()
        self.rowdeg_max = int(self.rowdeg.max()) if self.rowdeg.size else 0
        self.decisions: list[DispatchDecision] = []
        self.last: DispatchDecision | None = None

    # -- level statistics and pricing ------------------------------------------

    @staticmethod
    def _column_sums(deg: np.ndarray) -> tuple:
        """``(entries, line fills, strips, largest degree)`` of columns with
        degrees ``deg`` (zero for the columns not processed): line fills are
        ``ceil(d / 8)``, warp strips ``ceil(d / 32)``."""
        if not deg.size:
            return 0, 0, 0, 0
        return (int(deg.sum()), int(((deg + 7) >> 3).sum()),
                int(((deg + 31) >> 5).sum()), int(deg.max()))

    def level_stats(self, X: np.ndarray, allowed: np.ndarray | None = None, *,
                    scatter: bool = False) -> LevelStats:
        """The O(n + tiles) reductions of one level: ``X`` the frontier,
        ``allowed`` a gather's per-(column, lane) mask."""
        positive = X > 0
        active = any_lane(positive)
        nnz_x = int(np.count_nonzero(active))
        proc = active if scatter else None if allowed is None else any_lane(allowed)
        if proc is None:
            n_proc, (s_proc, lines, strips, dmax) = self.n, self.all_columns
        else:
            n_proc = int(np.count_nonzero(proc))
            s_proc, lines, strips, dmax = self._column_sums(self.deg * proc)
        B = X.shape[1]
        slots = (n_proc * B if B == 1 or proc is None
                 else int(np.count_nonzero(positive if scatter else allowed)))
        n_stripes = -(-self.n // W.MMA_TILE)
        if scatter:
            e_active = s_proc
            tiles = tile_stats(self.csc, np.ones(n_stripes, dtype=bool),
                               stripe_any(active), "row")
        else:
            e_active = int(self.rowdeg[active].sum()) if nnz_x else 0
            col_ok = np.ones(n_stripes, dtype=bool) if proc is None else stripe_any(proc)
            tiles = tile_stats(self.csc, stripe_any(active), col_ok, "col")
        return LevelStats(
            scatter=scatter, masked=allowed is not None, batch=B, dtype=X.dtype,
            nnz_x=nnz_x, e_active=e_active, n_proc=n_proc, slots=slots,
            s_proc=s_proc, lines=lines, strips=strips, dmax=dmax, tiles=tiles,
        )

    def expected_profiles(self, lv: LevelStats) -> dict[str, Profile]:
        """One expected :class:`~repro.spmv.Profile` per candidate strategy:
        the shared fill of the module docstring's expectation terms, mapped
        by each kernel's ``expected``."""
        n, m, B, t, s, dmax = self.n, self.m, lv.batch, lv.n_proc, lv.s_proc, lv.dmax
        L = lv.slots / max(t, 1)  # mean lanes per processed index
        l2, item = self.spec.l2_bytes, lv.dtype.itemsize
        p = min(lv.nnz_x / max(n, 1), 1.0 - 1e-12)  # frontier density

        def reached(n_idx, deg):
            """Expected indices of degree ``deg`` with a frontier neighbour."""
            return n_idx * -np.expm1(deg * np.log1p(-p))

        if lv.scatter:
            # every entry of an active column contributes to its row
            contrib, written, chain = s, reached(n, m / max(n, 1)), self.rowdeg_max * p
        else:
            contrib = min(lv.e_active, s, s * lv.e_active / max(m, 1) + 1)
            written, chain = reached(t, s / max(t, 1)), dmax * p

        def share(count, columns=False):
            """Transactions of ``count`` entries' B-wide accesses at their
            rows (or columns): their share of the cached full pass."""
            return self.csc.full_gather_transactions(
                item, lanes=B, columns=columns, l2_bytes=l2) * count / max(m, 1)

        # the shared fill: threads are the processed columns scanning their
        # entries; each kernel's ``expected`` maps it onto its own fields
        base = Profile(
            n_cols=n, n_rows=n, nnz=m, B=B, dtype=lv.dtype, out_dtype=lv.dtype,
            scatter=lv.scatter, masked=lv.masked, scanned=s, lines=lv.lines,
            active_threads=t,
            lanes=lv.slots, frontier_slots=lv.nnz_x * B, lane_entries=s * L,
            contrib=contrib, lane_hits=contrib * L, written=written, chain=chain,
            warp_entries=DIVERGENCE * s / W.WARP_SIZE,
            warp_lane_entries=DIVERGENCE * s * L / W.WARP_SIZE,
            crit_entries=dmax, crit_lane_entries=dmax * L,
            gather_txn=share(s),
            store_txn=share(contrib, columns=not lv.scatter),
            # a gather's atomics run along one column's contributing entries
            conflicts=0 if lv.scatter
            else 2 * W.warp_count(contrib) * min(m / max(n, 1) * p, 31.0),
            **lv.tiles,
        )
        return {k: mod.expected(self.csc, base, lv, divergence=DIVERGENCE, l2_bytes=l2)
                for k, mod in STRATEGY_KERNELS.items()
                if self.direction == "auto" or DIRECTION[k] == self.direction}

    def price(self, lv: LevelStats) -> dict[str, float]:
        """Estimated in-kernel seconds per candidate at a level."""
        return self.price_profiles(self.expected_profiles(lv))

    def price_profiles(self, profiles: dict) -> dict[str, float]:
        """In-kernel seconds of ``{strategy: profile}``: each strategy's own
        cost formula and the device roofline -- for an exact profile, the
        ``exec_time_s`` its launch reports."""
        return {
            k: model_launch(STRATEGY_KERNELS[k].cost(q, self.spec),
                            self.spec).exec_time_s
            for k, q in profiles.items()
        }

    def _decide(self, stage: str, lv: LevelStats) -> DispatchDecision:
        est = self.price(lv)
        kernel = min(est, key=est.get)
        decision = DispatchDecision(
            stage=stage,
            depth=self._next_depth(stage),
            kernel=kernel,
            nnz_frontier=lv.nnz_x,
            frontier_frac=lv.nnz_x / max(self.n, 1),
            avg_deg_active=lv.e_active / max(lv.nnz_x, 1),
            max_deg_allowed=lv.dmax,
            batch=lv.batch,
            direction=DIRECTION[kernel],
            unvisited_frac=1.0 if lv.scatter else lv.n_proc / max(self.n, 1),
            est_us={k: round(v * 1e6, 3) for k, v in est.items()},
        )
        self.decisions.append(decision)
        self.last = decision
        return decision

    # -- per-launch choices (called by TurboBCContext) -----------------------

    def choose_forward_batch(self, X: np.ndarray, allowed: np.ndarray) -> str:
        """Kernel for a forward-stage masked gather ``Ft = A^T F``."""
        return self._decide("forward", self.level_stats(X, allowed)).kernel

    def choose_backward_batch(self, X: np.ndarray) -> str:
        """Kernel for a backward-stage unmasked product (gather or scatter)."""
        return self._decide(
            "backward", self.level_stats(X, scatter=self.scatter_backward)
        ).kernel

    # The benchmark's traced run wraps these two names (perfbench/spans.py);
    # they are the B = 1 spelling of the choices above.
    choose_forward = choose_forward_batch
    choose_backward = choose_backward_batch

    def record_measured(self, kernel: str, launch) -> None:
        """Attach the measured modeled time of ``kernel`` to the last decision.

        In-kernel time only (``exec_time_s``): the estimates being audited
        exclude launch overhead too, and overhead is identical across
        strategies so regret comparisons are unaffected.
        """
        if self.last is not None:
            self.last.measured_us[kernel] = round(launch.exec_time_s * 1e6, 3)

    def _next_depth(self, stage: str) -> int:
        """Sequential launch index within the current stage run (for the
        decision log; the level spans carry the authoritative depth)."""
        if self.last is not None and self.last.stage == stage:
            return self.last.depth + 1
        return 1

    # -- summaries -----------------------------------------------------------

    def kernel_mix(self) -> dict[str, int]:
        """Decision counts per strategy (telemetry/benchmark summary)."""
        mix: dict[str, int] = {}
        for d in self.decisions:
            mix[d.kernel] = mix.get(d.kernel, 0) + 1
        return mix

    def direction_mix(self) -> dict[str, int]:
        """Decision counts per traversal direction (push vs pull)."""
        mix: dict[str, int] = {}
        for d in self.decisions:
            mix[d.direction] = mix.get(d.direction, 0) + 1
        return mix
