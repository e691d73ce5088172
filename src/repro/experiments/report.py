"""One-shot experiment report: every table and ablation, rendered to
markdown-flavoured text.

``python -m repro.experiments.report`` (or ``repro-atpg report``) runs
the whole evaluation for the active profile and writes a single document
— the programmatic counterpart of EXPERIMENTS.md, regenerated from
scratch so reviewers can diff a fresh run against the committed record.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from .. import obs
from ..core import FlowConfig, generation_flow
from ..obs import ledger as ledger_mod
from ..obs.report import write_metrics_json
from . import ablations, suite, table5, table6, table7


def build_report(profile: Optional[str] = None) -> str:
    """Run the full evaluation and return the report text.

    Each table/ablation runs inside a ``report.*`` telemetry span, so a
    surrounding :func:`repro.obs.session` (e.g. ``repro-atpg report
    --metrics-out``) yields a per-section time breakdown alongside the
    pipeline metrics.
    """
    profile = suite.active_profile(profile)
    sections: List[str] = [
        "# repro experiment report",
        "",
        f"profile: **{profile}** "
        f"({', '.join(suite.suite_circuits(profile))})",
        "",
        "Every number regenerates deterministically from the committed "
        "seeds; see EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
    ]

    with obs.stopwatch("report.build") as watch:
        for label, collector, renderer in (
            ("table5", table5.collect, table5.render),
            ("table6", table6.collect, table6.render),
            ("table7", table7.collect, table7.render),
        ):
            with obs.span(f"report.{label}"):
                sections.append("```\n" + renderer(collector(profile)) + "\n```")
            sections.append("")
        for label, collector, renderer in (
            ("scan_knowledge", ablations.ablate_scan_knowledge,
             ablations.render_scan_knowledge),
            ("compaction", ablations.ablate_compaction,
             ablations.render_compaction),
            ("limited_scan", ablations.ablate_limited_scan,
             ablations.render_limited_scan),
            ("restoration_variants", ablations.ablate_restoration_variants,
             ablations.render_restoration_variants),
        ):
            with obs.span(f"report.ablation.{label}"):
                sections.append("```\n" + renderer(collector(profile)) + "\n```")
            sections.append("")
        with obs.span("report.attribution"):
            sections.append("```\n" + attribution_section() + "\n```")
        sections.append("")

    sections.append(f"_generated in {watch.duration:.1f}s_")
    return "\n".join(sections) + "\n"


def attribution_section(circuit_name: str = "s27") -> str:
    """Coverage-curve and per-vector attribution of one flow run.

    Re-runs the generation flow on ``circuit_name`` with a fault ledger
    recording, then renders the cycles-spent / faults-secured breakdown
    (before/after compaction).  The ledger is installed directly — not
    via a nested :func:`repro.obs.session` — so a surrounding session
    keeps collecting metrics and journal events for the run.
    """
    fault_ledger = ledger_mod.FaultLedger()
    previous = ledger_mod.activate(fault_ledger)
    try:
        flow = generation_flow(
            suite.build_circuit(circuit_name),
            FlowConfig(seed=suite.circuit_seed(circuit_name)),
        )
    finally:
        ledger_mod.deactivate(previous)
    return (f"## fault-ledger attribution ({circuit_name})\n\n"
            + ledger_mod.render_attribution(fault_ledger, flow))


def write_report(path, profile: Optional[str] = None) -> str:
    """Build the report and write it to ``path``; returns the text."""
    text = build_report(profile)
    Path(path).write_text(text)
    return text


def main(profile: Optional[str] = None,
         metrics_out: Optional[str] = None) -> str:
    """Build, print and return the report.

    ``metrics_out`` writes the telemetry artifact of the run; when no
    session is active one is opened for the duration of the build.
    """
    needs_session = metrics_out is not None and not obs.enabled()
    scope = obs.session() if needs_session else nullcontext(obs.active())
    with scope as telemetry:
        text = build_report(profile)
        if metrics_out is not None and telemetry is not None:
            write_metrics_json(metrics_out, telemetry,
                               meta={"command": "report"})
    print(text)
    return text


if __name__ == "__main__":
    main()
