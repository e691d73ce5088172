"""OpenMetrics / Prometheus text rendering of metrics artifacts.

The future ATPG-as-a-service daemon needs a scrape surface; batch runs
want the same numbers in node_exporter's textfile collector.  Both are
the same transformation: take any ``repro.obs.metrics/1`` artifact (a
live session snapshot, a ``--metrics-out`` file, or a run-index record
via :func:`repro.obs.history.record_to_artifact`) and render it as
OpenMetrics text — ``repro-atpg metrics-export`` is the CLI face.

Mapping (dots in metric names become underscores, everything gets a
``repro_`` prefix):

* counters → ``counter`` families; the sample name carries the
  mandatory ``_total`` suffix (``faultsim.cycles`` →
  ``repro_faultsim_cycles_total``);
* gauges → ``gauge`` families;
* histograms → ``summary`` families (``_count`` / ``_sum`` samples)
  plus ``_min`` / ``_max`` gauge families when bounds were observed;
* spans → one ``repro_phase_seconds`` gauge family with a ``phase``
  label per span path (and ``repro_phase_calls`` for call counts).

The run-level ``circuit`` dimension rides on every sample as a label.
The output terminates with ``# EOF`` per the OpenMetrics spec.
:func:`parse_openmetrics` is a small strict validator (we may not
depend on ``prometheus_client``) used by the test suite and available
for sanity-checking scrape endpoints.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

#: Every exported family name starts with this.
PREFIX = "repro"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(raw: str, prefix: str = PREFIX) -> str:
    """Canonical OpenMetrics family name for one repro metric."""
    name = _INVALID_CHARS.sub("_", raw.replace(".", "_"))
    name = f"{prefix}_{name}" if prefix else name
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _labels_text(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    parts = [f'{key}="{_escape_label(value)}"'
             for key, value in sorted(labels.items())
             if value is not None and value != ""]
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_openmetrics(
    artifact: Dict,
    labels: Optional[Mapping[str, object]] = None,
    prefix: str = PREFIX,
) -> str:
    """One ``repro.obs.metrics/1`` artifact as OpenMetrics text.

    ``labels`` are extra label pairs stamped on every sample, merged
    over the run-level ``circuit`` dimension from the artifact's
    ``meta`` (skipped when absent)."""
    meta = artifact.get("meta", {}) or {}
    base: Dict[str, object] = {}
    if meta.get("circuit"):
        base["circuit"] = meta["circuit"]
    if labels:
        for key, value in labels.items():
            if not _LABEL_OK.match(key):
                raise ValueError(f"invalid label name {key!r}")
            base[key] = value
    tag = _labels_text(base)

    lines: List[str] = []

    def family(raw: str, kind: str, help_text: str) -> str:
        name = metric_name(raw, prefix)
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"# HELP {name} {help_text}")
        return name

    for raw, value in artifact.get("counters", {}).items():
        name = family(raw, "counter", f"repro counter {raw}")
        lines.append(f"{name}_total{tag} {_fmt(value)}")
    for raw, value in artifact.get("gauges", {}).items():
        name = family(raw, "gauge", f"repro gauge {raw}")
        lines.append(f"{name}{tag} {_fmt(value)}")
    for raw, hist in artifact.get("histograms", {}).items():
        name = family(raw, "summary", f"repro histogram {raw}")
        lines.append(f"{name}_count{tag} {_fmt(hist.get('count', 0))}")
        lines.append(f"{name}_sum{tag} {_fmt(hist.get('total', 0.0))}")
        for bound in ("min", "max"):
            if hist.get(bound) is not None:
                bname = family(f"{raw}.{bound}", "gauge",
                               f"repro histogram {raw} {bound}")
                lines.append(f"{bname}{tag} {_fmt(hist[bound])}")

    spans = list(artifact.get("spans", ()))
    if spans:
        sec = family("phase.seconds", "gauge",
                     "total seconds spent per pipeline phase")
        for span in spans:
            span_tag = _labels_text({**base, "phase": span["path"]})
            lines.append(f"{sec}{span_tag} {_fmt(span['total_seconds'])}")
        calls = family("phase.calls", "gauge",
                       "times each pipeline phase was entered")
        for span in spans:
            span_tag = _labels_text({**base, "phase": span["path"]})
            lines.append(f"{calls}{span_tag} {_fmt(span.get('count', 0))}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_textfile(path: Union[str, Path], text: str) -> None:
    """Atomically install OpenMetrics text at ``path`` (temp file +
    ``os.replace``) — the contract node_exporter's textfile collector
    expects, so scrapers never observe a half-written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Validation (the test suite's format check; no prometheus_client here)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$")
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text: str) -> Dict[str, Dict]:
    """Strictly parse OpenMetrics text; raises ``ValueError`` on any
    format violation.  Returns ``family -> {"type", "help", "samples"}``
    where samples are ``(sample_name, labels, value)`` tuples.

    Checks: terminal ``# EOF`` with nothing after it, every sample
    belongs to a declared family, counter samples carry ``_total``,
    label syntax and escaping are well-formed, values parse as floats.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("missing terminal # EOF")
    families: Dict[str, Dict] = {}
    for lineno, line in enumerate(lines[:-1], 1):
        if line == "# EOF":
            raise ValueError(f"line {lineno}: # EOF before end of input")
        if line.startswith("# TYPE "):
            try:
                name, kind = line[len("# TYPE "):].split(" ")
            except ValueError:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            if kind not in ("counter", "gauge", "summary", "histogram",
                            "info", "stateset", "unknown"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            families[name] = {"type": kind, "help": "", "samples": []}
            continue
        if line.startswith("# HELP "):
            head = line[len("# HELP "):]
            name, _, help_text = head.partition(" ")
            if name not in families:
                raise ValueError(f"line {lineno}: HELP before TYPE: {name}")
            families[name]["help"] = help_text
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample = match.group("name")
        family = _owning_family(sample, families)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample} has no TYPE family")
        if (families[family]["type"] == "counter"
                and not sample.endswith(("_total", "_created"))):
            raise ValueError(
                f"line {lineno}: counter sample {sample} lacks _total")
        labels = _parse_labels(match.group("labels"), lineno)
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value "
                f"{match.group('value')!r}")
        families[family]["samples"].append((sample, labels, value))
    return families


def _owning_family(sample: str, families: Dict[str, Dict]
                   ) -> Optional[str]:
    if sample in families:
        return sample
    for suffix in ("_total", "_created", "_count", "_sum", "_bucket"):
        if sample.endswith(suffix) and sample[:-len(suffix)] in families:
            return sample[:-len(suffix)]
    return None


def _parse_labels(raw: Optional[str], lineno: int
                  ) -> Dict[str, str]:
    if not raw:
        return {}
    body = raw[1:-1]
    if not body:
        return {}
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_PAIR_RE.match(body, pos)
        if not match:
            raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        labels[match.group(1)] = (
            match.group(2).replace(r'\"', '"').replace(r"\n", "\n")
            .replace("\\\\", "\\"))
        pos = match.end()
        if pos < len(body):
            if body[pos] != ",":
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
            pos += 1
    return labels
