"""Multi-level differential oracle.

One generated program is judged by running a matrix of cells through the
:mod:`repro.runner` scheduler:

====================  ====================================================
level                 pipeline
====================  ====================================================
``O0``                front end only — no analysis, no optimization, no
                      register allocation (the reference semantics)
``full-nopromo``      the full pipeline with register promotion disabled
``full``              the full default pipeline (MOD/REF + promotion)
``pointer``           full + points-to analysis + pointer promotion
====================  ====================================================

each × every interpreter engine (``threaded``, ``simple``, and the
tier-2 specializing engine), and every cell compiled with
``verify_each_stage=True`` so the IR verifier runs between passes.  The
verdict is built from four invariant families:

* **output equivalence** — every successful cell prints the same bytes
  and exits with the same code;
* **crash consistency** — if the program traps (guarded UB such as
  division by zero), *every* cell must trap with the same message; a
  trap in some variants only is a miscompile;
* **engine equivalence** — for each level, all engines must produce
  bit-identical counters (the compiled engines' batching contract and
  their exact handoff to the reference stepper); a violation names the
  engine pair that split;
* **counter consistency** — loads/stores breakdowns must sum, and
  disjoint instruction classes cannot exceed ``total_ops``.

A fifth, *advisory* check compares memory traffic between ``full`` and
``full-nopromo``: promotion inserting more dynamic loads+stores than it
removes is legal (a zero- or one-trip loop still pays the landing-pad
load and the exit store) but worth flagging, so it is recorded as a
warning rather than a divergence.

Divergences serialize as :class:`repro.diag.ledger.Decision`-style
records so ``repro explain``-era tooling and the fuzz artifacts share one
vocabulary.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..diag.ledger import Decision
from ..inccomp.store import FunctionStore
from ..interp import MachineOptions
from ..opt.promotion import PromotionOptions
from ..pipeline import Analysis, PipelineOptions
from ..runner.scheduler import CellData, CellFailure, CellSpec, run_cells
from .gen import FuzzProgram

ENGINES = ("threaded", "simple", "tier2")

#: levels whose dynamic memory traffic the advisory check compares
_TRAFFIC_PAIR = ("full-nopromo", "full")


def o0_options() -> PipelineOptions:
    """The reference cell: lowered IR straight into the interpreter."""
    return PipelineOptions(
        analysis=Analysis.NONE,
        promotion=False,
        pointer_promotion=False,
        value_numbering=False,
        constant_propagation=False,
        licm=False,
        pre=False,
        dce=False,
        clean=False,
        run_regalloc=False,
        verify_each_stage=True,
    )


def oracle_levels(
    promotion_options: PromotionOptions | None = None,
) -> dict[str, PipelineOptions]:
    """The level → pipeline map (``promotion_options`` lets tests inject a
    deliberately broken promotion pass into the promoting levels)."""
    promo = promotion_options or PromotionOptions()
    return {
        "O0": o0_options(),
        "full-nopromo": PipelineOptions(promotion=False, verify_each_stage=True),
        "full": PipelineOptions(verify_each_stage=True, promotion_options=promo),
        "pointer": PipelineOptions(
            analysis=Analysis.POINTER,
            pointer_promotion=True,
            verify_each_stage=True,
            promotion_options=promo,
        ),
    }


@dataclass(frozen=True)
class OracleConfig:
    """Which slice of the matrix to run and how much fuel to grant."""

    max_steps: int = 5_000_000
    levels: tuple[str, ...] = ("O0", "full-nopromo", "full", "pointer")
    engines: tuple[str, ...] = ENGINES
    promotion_options: PromotionOptions | None = None

    def pipeline_for(self, level: str) -> PipelineOptions:
        return oracle_levels(self.promotion_options)[level]


@dataclass
class Divergence:
    """One violated invariant."""

    kind: str  # output-divergence | crash-divergence | engine-divergence |
    #           counter-invariant
    message: str
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "detail": self.detail}


@dataclass
class OracleReport:
    """The verdict for one program."""

    program: FuzzProgram
    status: str  # "ok" | "trap" | "divergent"
    divergences: list[Divergence] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    cells: dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "divergent"

    def decisions(self) -> list[Decision]:
        """Decision-style provenance (the :mod:`repro.diag` vocabulary)."""
        if not self.divergences:
            action = "trapped" if self.status == "trap" else "passed"
            return [
                Decision(
                    pass_name="fuzz.oracle",
                    function=self.program.name,
                    action=action,
                    detail={"seed": self.program.seed},
                )
            ]
        return [
            Decision(
                pass_name="fuzz.oracle",
                function=self.program.name,
                action="diverged",
                reason=d.kind,
                detail={"seed": self.program.seed, "message": d.message, **d.detail},
            )
            for d in self.divergences
        ]

    def as_dict(self) -> dict:
        return {
            "program": self.program.name,
            "seed": self.program.seed,
            "status": self.status,
            "divergences": [d.as_dict() for d in self.divergences],
            "warnings": list(self.warnings),
            "cells": self.cells,
            "decisions": [d.as_dict() for d in self.decisions()],
        }


def build_oracle_specs(
    name: str, source: str, config: OracleConfig
) -> list[CellSpec]:
    """One spec per (level, engine) cell of the oracle matrix."""
    specs: list[CellSpec] = []
    for level in config.levels:
        options = config.pipeline_for(level)
        for engine in config.engines:
            specs.append(
                CellSpec(
                    workload=name,
                    variant=f"{level}+{engine}",
                    source=source,
                    options=options,
                    machine=MachineOptions(
                        max_steps=config.max_steps, engine=engine
                    ),
                )
            )
    return specs


def classify_outcomes(
    program: FuzzProgram,
    outcomes: dict[str, CellData | CellFailure],
) -> OracleReport:
    """Fold one program's cell outcomes into an :class:`OracleReport`.

    ``outcomes`` maps ``"<level>+<engine>"`` → cell outcome.
    """
    report = OracleReport(program=program, status="ok")
    successes: dict[str, CellData] = {}
    failures: dict[str, CellFailure] = {}
    for variant, outcome in outcomes.items():
        if isinstance(outcome, CellData):
            successes[variant] = outcome
            report.cells[variant] = {
                "exit_code": outcome.exit_code,
                "output_sha": _digest(outcome.output),
                "counters": outcome.counters.as_dict(),
            }
        else:
            failures[variant] = outcome
            report.cells[variant] = {
                "failure": outcome.kind,
                "message": outcome.message,
            }

    # crash consistency -----------------------------------------------------
    if failures and successes:
        report.divergences.append(
            Divergence(
                kind="crash-divergence",
                message=(
                    f"{sorted(failures)} crashed while {sorted(successes)} "
                    "ran to completion"
                ),
                detail={
                    "crashed": {v: f.message for v, f in sorted(failures.items())}
                },
            )
        )
    elif failures:
        messages = {f.message for f in failures.values()}
        if len(messages) == 1:
            report.status = "trap"
        else:
            report.divergences.append(
                Divergence(
                    kind="crash-divergence",
                    message="variants trapped with different faults",
                    detail={
                        "crashed": {
                            v: f.message for v, f in sorted(failures.items())
                        }
                    },
                )
            )

    # output equivalence ----------------------------------------------------
    if successes:
        groups: dict[tuple[int, str], list[str]] = {}
        for variant, data in sorted(successes.items()):
            groups.setdefault((data.exit_code, data.output), []).append(variant)
        if len(groups) > 1:
            baseline_key, baseline_variants = next(iter(groups.items()))
            detail = {
                "groups": [
                    {
                        "variants": variants,
                        "exit_code": key[0],
                        "output_sha": _digest(key[1]),
                        "output_head": key[1][:400],
                    }
                    for key, variants in groups.items()
                ]
            }
            report.divergences.append(
                Divergence(
                    kind="output-divergence",
                    message=(
                        f"{len(groups)} distinct (output, exit) groups; e.g. "
                        f"{baseline_variants} vs the rest"
                    ),
                    detail=detail,
                )
            )

    # engine equivalence ----------------------------------------------------
    by_level: dict[str, dict[str, CellData]] = {}
    for variant, data in successes.items():
        level, _, engine = variant.rpartition("+")
        by_level.setdefault(level, {})[engine] = data
    for level, engines in sorted(by_level.items()):
        if len(engines) < 2:
            continue
        counters = {e: d.counters.as_dict() for e, d in engines.items()}
        first_engine, first = next(iter(counters.items()))
        for engine, other in counters.items():
            if other != first:
                fields = sorted(k for k in first if first[k] != other.get(k))
                report.divergences.append(
                    Divergence(
                        kind="engine-divergence",
                        message=(
                            f"level {level}: {engine} counters differ "
                            f"from {first_engine}"
                        ),
                        detail={
                            "level": level,
                            "engines": [first_engine, engine],
                            "fields": fields,
                            "counters": counters,
                        },
                    )
                )
                break

    # counter consistency ----------------------------------------------------
    for variant, data in sorted(successes.items()):
        c = data.counters
        problems = []
        if c.loads != c.scalar_loads + c.general_loads:
            problems.append("loads != scalar_loads + general_loads")
        if c.stores != c.scalar_stores + c.general_stores:
            problems.append("stores != scalar_stores + general_stores")
        if c.total_ops < c.loads + c.stores + c.branches:
            problems.append("total_ops < loads + stores + branches")
        if min(c.as_dict().values()) < 0:
            problems.append("negative counter")
        if problems:
            report.divergences.append(
                Divergence(
                    kind="counter-invariant",
                    message=f"{variant}: {'; '.join(problems)}",
                    detail={"variant": variant, "counters": c.as_dict()},
                )
            )

    # advisory: promotion should not grow dynamic memory traffic ------------
    base_level, promo_level = _TRAFFIC_PAIR
    for engine in ("threaded",):
        base = successes.get(f"{base_level}+{engine}")
        promo = successes.get(f"{promo_level}+{engine}")
        if base is None or promo is None:
            continue
        if promo.counters.memory_ops() > base.counters.memory_ops():
            report.warnings.append(
                f"promotion increased loads+stores: "
                f"{base.counters.memory_ops()} -> "
                f"{promo.counters.memory_ops()} (legal for zero/low-trip "
                f"loops, worth a look)"
            )

    if report.divergences:
        report.status = "divergent"
    return report


def run_oracle(
    program: FuzzProgram,
    config: OracleConfig | None = None,
    jobs: int = 1,
    fn_store: "FunctionStore | None" = None,
) -> OracleReport:
    """Run the whole matrix for one program and classify the outcomes.

    ``fn_store`` makes the matrix incremental per function: levels share
    nothing with each other (their options differ), but successive
    oracle runs over related sources — a campaign batch, the reducer's
    thousands of probes — reuse every function body they did not touch.
    """
    config = config or OracleConfig()
    specs = build_oracle_specs(program.name, program.source, config)
    # inline runs share one compilation per level across the engine pair
    outcomes = run_cells(
        specs,
        jobs=jobs,
        retries=0,
        compile_cache={} if jobs <= 1 else None,
        fn_store=fn_store,
    )
    return classify_outcomes(
        program, {variant: o for (_, variant), o in outcomes.items()}
    )


def make_divergence_predicate(
    config: OracleConfig | None = None,
    kind: str | None = None,
):
    """A reducer predicate: does ``source`` still exhibit a divergence?

    Invalid programs (the reducer removes lines blindly, so most probes
    fail to compile) make every cell crash identically, which classifies
    as consistent — i.e. the predicate is ``False`` and the candidate is
    rejected, exactly the behavior ddmin needs.  ``kind`` restricts the
    predicate to one divergence kind so reduction cannot drift from a
    miscompile to an unrelated inconsistency.
    """
    config = config or OracleConfig()
    scheduler_log = logging.getLogger("repro.runner.scheduler")
    # one warm memo across every probe: ddmin deletes a few lines per
    # candidate, so most of each probe's functions hit the store
    fn_store = FunctionStore(root=None)

    def predicate(source: str) -> bool:
        # most probes fail to compile by design; the scheduler's per-cell
        # crash warnings are pure noise here, so keep only its errors
        previous = scheduler_log.level
        scheduler_log.setLevel(logging.ERROR)
        try:
            report = run_oracle(
                FuzzProgram(seed=-1, source=source), config, fn_store=fn_store
            )
        finally:
            scheduler_log.setLevel(previous)
        if kind is None:
            return report.status == "divergent"
        return any(d.kind == kind for d in report.divergences)

    return predicate


def write_divergence_artifact(
    report: OracleReport,
    outdir: str | Path,
    reduced_source: str | None = None,
) -> Path:
    """Persist one divergence as an on-disk artifact directory.

    Layout: ``<outdir>/<program>/program.c`` (the offending source),
    ``report.json`` (Decision-style provenance + per-cell observables),
    and ``reduced.c`` when the reducer ran.
    """
    target = Path(outdir) / report.program.name
    target.mkdir(parents=True, exist_ok=True)
    (target / "program.c").write_text(report.program.source)
    (target / "report.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    if reduced_source is not None:
        (target / "reduced.c").write_text(reduced_source)
    return target


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_with_broken_promotion(base: OracleConfig | None = None) -> OracleConfig:
    """An oracle config whose promoting levels run the deliberately
    unsound promotion (``unsafe_ignore_call_ambiguity``) — the known
    miscompile the reducer and the fuzz self-tests are validated against."""
    base = base or OracleConfig()
    return replace(
        base,
        promotion_options=PromotionOptions(unsafe_ignore_call_ambiguity=True),
    )
