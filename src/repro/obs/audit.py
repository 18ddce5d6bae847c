"""Model audit: dispatch regret and profile-estimation drift.

The :class:`~repro.core.dispatch.AdaptiveDispatcher` picks a kernel per
level by pricing an *expected* profile of each candidate with that
kernel's own cost formula and the device roofline; the launch prices the
*exact* profile of the product it computed with the same two functions.
An estimate and a measurement can therefore differ only where an expected
count differs from the exact one, and this module measures both effects:

* **drift** -- the estimate for the *chosen* kernel disagrees with its
  measured modeled time, ``measured / estimated``.  It isolates
  profile-estimation error: a kernel drifting 3x hot has an expectation
  term (contributing entries, first-hit probes, divergence, ...) that
  misreads its frontiers, even if the argmin still lands right;
* **regret** -- the chosen kernel was not the measured-fastest strategy on
  that level.  Per level, regret is ``measured(chosen) -
  min(measured(any))`` -- the time the run paid for trusting the estimate.

Measured times for the chosen kernel come free with every adaptive run
(``record_measured``); the unchosen strategies need
``RunTelemetry(audit_dispatch=True)``, which fills their exact profiles
from the product the chosen launch already computed and times them on the
device's model without recording a launch -- no numerics are re-run, and
the main run's launches, times and results stay untouched.  Without the
audit flag the regret section degrades to estimate-only comparison and
says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CalibrationRow:
    """Estimator accuracy of one strategy, aggregated over its decisions."""

    kernel: str
    decisions: int
    est_total_us: float
    measured_total_us: float

    @property
    def drift(self) -> float:
        """measured / estimated; 1.0 is a perfectly calibrated cost model."""
        if self.est_total_us <= 0.0:
            return 1.0 if self.measured_total_us <= 0.0 else float("inf")
        return self.measured_total_us / self.est_total_us


@dataclass(frozen=True)
class RegretRow:
    """One level where the argmin of the estimates was not measured-fastest."""

    stage: str
    depth: int
    chosen: str
    fastest: str
    chosen_us: float
    fastest_us: float
    nnz_frontier: int

    @property
    def regret_us(self) -> float:
        return self.chosen_us - self.fastest_us


@dataclass
class DispatchAudit:
    """Regret + calibration over one run's :class:`DispatchDecision` list."""

    decisions: list
    #: True when every decision carries all strategies' measured times
    #: (i.e. the run had ``audit_dispatch=True``).
    measured_complete: bool = False
    calibration: dict = field(default_factory=dict)  # kernel -> CalibrationRow
    regrets: list = field(default_factory=list)  # RegretRow, worst first
    total_chosen_us: float = 0.0
    total_regret_us: float = 0.0
    level_mix: dict = field(default_factory=dict)  # stage -> {kernel: count}
    #: stage -> {direction: count} -- how often the dispatcher traversed
    #: top-down (push) vs bottom-up (pull) per stage (DESIGN.md §12).
    direction_mix: dict = field(default_factory=dict)
    #: (stage, depth) -> {direction: count} across sources, for the
    #: per-level direction-mix table of ``repro perf-report``.
    depth_direction: dict = field(default_factory=dict)

    @property
    def regret_frac(self) -> float:
        """Fraction of decisions where the argmin missed."""
        return len(self.regrets) / len(self.decisions) if self.decisions else 0.0

    def to_dict(self) -> dict:
        return {
            "decisions": len(self.decisions),
            "measured_complete": self.measured_complete,
            "level_mix": {s: dict(m) for s, m in self.level_mix.items()},
            "direction_mix": {s: dict(m) for s, m in self.direction_mix.items()},
            "depth_direction": [
                {"stage": s, "depth": d, **dict(m)}
                for (s, d), m in sorted(self.depth_direction.items())
            ],
            "calibration": {
                k: {
                    "decisions": c.decisions,
                    "est_total_us": round(c.est_total_us, 3),
                    "measured_total_us": round(c.measured_total_us, 3),
                    "drift": round(c.drift, 4),
                }
                for k, c in sorted(self.calibration.items())
            },
            "regret": {
                "count": len(self.regrets),
                "frac": round(self.regret_frac, 4),
                "total_us": round(self.total_regret_us, 3),
                "of_chosen_us": round(self.total_chosen_us, 3),
                "worst": [
                    {
                        "stage": r.stage,
                        "depth": r.depth,
                        "chosen": r.chosen,
                        "fastest": r.fastest,
                        "regret_us": round(r.regret_us, 3),
                        "nnz_frontier": r.nnz_frontier,
                    }
                    for r in self.regrets[:10]
                ],
            },
        }


def audit_dispatch(decisions) -> DispatchAudit:
    """Build the regret/calibration audit from recorded dispatch decisions.

    Decisions without measured times (non-adaptive runs never produce any)
    yield an empty audit; decisions with only the chosen kernel measured
    yield calibration but estimate-only regret (``measured_complete`` False).
    """
    audit = DispatchAudit(decisions=list(decisions))
    if not audit.decisions:
        return audit

    cal: dict[str, list] = {}  # kernel -> [count, est_us, measured_us]
    audit.measured_complete = all(
        len(d.measured_us) == len(d.est_us) for d in audit.decisions
    )
    for d in audit.decisions:
        mix = audit.level_mix.setdefault(d.stage, {})
        mix[d.kernel] = mix.get(d.kernel, 0) + 1
        direction = d.direction
        dmix = audit.direction_mix.setdefault(d.stage, {})
        dmix[direction] = dmix.get(direction, 0) + 1
        level = audit.depth_direction.setdefault((d.stage, d.depth), {})
        level[direction] = level.get(direction, 0) + 1

        measured_chosen = d.measured_us.get(d.kernel)
        if measured_chosen is not None:
            acc = cal.setdefault(d.kernel, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += d.est_us.get(d.kernel, 0.0)
            acc[2] += measured_chosen
            audit.total_chosen_us += measured_chosen

        # Regret against measured times when the audit replayed every
        # strategy, else against the estimates (which have no regret by
        # construction: the chosen kernel IS their argmin).
        times = d.measured_us if len(d.measured_us) == len(d.est_us) else d.est_us
        if not times:
            continue
        fastest = min(times, key=times.get)
        if fastest != d.kernel and times[d.kernel] > times[fastest]:
            audit.regrets.append(
                RegretRow(
                    stage=d.stage,
                    depth=d.depth,
                    chosen=d.kernel,
                    fastest=fastest,
                    chosen_us=times[d.kernel],
                    fastest_us=times[fastest],
                    nnz_frontier=d.nnz_frontier,
                )
            )

    audit.calibration = {
        k: CalibrationRow(
            kernel=k, decisions=c[0], est_total_us=c[1], measured_total_us=c[2]
        )
        for k, c in cal.items()
    }
    audit.regrets.sort(key=lambda r: r.regret_us, reverse=True)
    audit.total_regret_us = sum(r.regret_us for r in audit.regrets)
    return audit


@dataclass(frozen=True)
class LaunchDrift:
    """Predicted-vs-actual decomposition of one launch's modeled time.

    'Predicted' here is the roofline lower bound -- ``max(compute, memory)``
    without the serial floors -- so drift isolates exactly the terms the
    simple roofline misses: atomic chains and critical warp paths.
    """

    name: str
    tag: str
    time_s: float
    roofline_s: float

    @property
    def drift(self) -> float:
        if self.roofline_s <= 0.0:
            return 1.0 if self.time_s <= 0.0 else float("inf")
        return self.time_s / self.roofline_s


def launch_drift(launches) -> list:
    """Per-launch roofline drift, worst first (overhead-only launches skipped).

    A launch whose time exceeds ``max(compute, memory) + overhead`` was
    serial-floor-bound -- the regime the naive roofline cannot predict --
    and surfaces at the top of this list.
    """
    rows = []
    for launch in launches:
        if launch.exec_time_s <= 0.0:
            continue  # pure-overhead pseudo-launch; nothing to predict
        # The MMA pipe and the inter-device link are throughput ceilings like
        # compute/memory, not serial floors, so both belong in the roofline
        # bound -- without the link arm every bulk transfer would read as
        # mysteriously serial-floor-bound.
        roofline = max(
            launch.compute_time_s, launch.memory_time_s, launch.mma_time_s,
            launch.link_time_s,
        ) + launch.overhead_s
        rows.append(
            LaunchDrift(
                name=launch.name,
                tag=launch.tag,
                time_s=launch.time_s,
                roofline_s=roofline,
            )
        )
    rows.sort(key=lambda r: r.drift, reverse=True)
    return rows
