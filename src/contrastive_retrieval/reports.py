"""Report rendering.

Every analysis gets two faces: a JSON-ready dict (machine-readable, exact
floats) and an aligned plain-text table (human-readable, rounded). The
sweep additionally renders as a hand-rolled SVG line chart so the output
is byte-deterministic: no plotting library, no embedded timestamps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict

from .analysis import (
    RATING_TIERS,
    CostReport,
    OverlapReport,
    OverlapSlice,
    SweepReport,
    TierStats,
)


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Aligned columns: first column left-aligned, the rest right-aligned."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cell.rjust(widths[i]) for i, cell in enumerate(cells) if i > 0]
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Overlap
# ----------------------------------------------------------------------

def _combined(report: OverlapReport) -> OverlapSlice:
    """The pooled row, which follows the per-dataset rows."""
    return OverlapSlice("Combined", report.n, report.zero_overlap_pct, report.mean_overlap)


def overlap_to_dict(report: OverlapReport) -> dict:
    return {
        "per_dataset": [asdict(s) for s in report.per_dataset],
        "combined": asdict(_combined(report)),
        "per_case": [[item_id, ratio] for item_id, ratio in report.per_case],
    }


def render_overlap_table(report: OverlapReport) -> str:
    rows = [
        [s.name, str(s.n), f"{s.zero_overlap_pct:.1f}%", f"{s.mean_overlap:.2f}"]
        for s in (*report.per_dataset, _combined(report))
    ]
    return _table(["Dataset", "N", "Zero Overlap", "Mean Overlap"], rows)


# ----------------------------------------------------------------------
# Cost
# ----------------------------------------------------------------------

def cost_to_dict(report: CostReport) -> dict:
    return {
        "reference": report.reference,
        "per_method": {method: asdict(row) for method, row in sorted(report.per_method.items())},
    }


def render_cost_table(report: CostReport) -> str:
    rows = []
    for method, row in sorted(report.per_method.items()):
        reduction = "N/A" if row.token_reduction is None else f"{row.token_reduction:.3g}x"
        rows.append(
            [
                method,
                f"{row.llm_calls_mean:.1f}",
                f"{row.output_tokens_mean:.1f}",
                reduction,
            ]
        )
    table = _table(["Method", "LLM Calls", "Output Tokens", "Token Reduction"], rows)
    return table + f"(token reduction relative to {report.reference})\n"


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

def sweep_to_dict(report: SweepReport) -> dict:
    return {
        "points": [[lam, acc] for lam, acc in report.points],
        "baselines": dict(sorted(report.baselines.items())),
    }


def render_sweep_table(report: SweepReport) -> str:
    rows = [[f"{lam:g}", f"{100 * acc:.1f}%"] for lam, acc in report.points]
    for name, acc in sorted(report.baselines.items()):
        rows.append([f"baseline:{name}", f"{100 * acc:.1f}%"])
    return _table(["Lambda", "Accuracy"], rows)


_BASELINE_COLORS = ("#888888", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_SVG_WIDTH, _SVG_HEIGHT = 640, 400


def render_sweep_svg(report: SweepReport) -> str:
    """Line chart of accuracy vs contrastive weight with baseline rules."""
    left, right, top, bottom = 62.0, 16.0, 18.0, 46.0
    plot_w = _SVG_WIDTH - left - right
    plot_h = _SVG_HEIGHT - top - bottom
    lams = [lam for lam, _ in report.points]
    lo, hi = min(lams), max(lams)
    span = (hi - lo) or 1.0

    def x(lam: float) -> float:
        return left + (lam - lo) / span * plot_w

    def y(acc: float) -> float:
        return top + (1.0 - acc) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" x2="{left + plot_w:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yy = y(frac)
        parts.append(
            f'<line x1="{left - 4:.1f}" y1="{yy:.1f}" x2="{left:.1f}" y2="{yy:.1f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.1f}" y="{yy + 4:.1f}" text-anchor="end">{frac:.2f}</text>'
        )
    for lam in lams:
        xx = x(lam)
        parts.append(
            f'<line x1="{xx:.1f}" y1="{top + plot_h:.1f}" x2="{xx:.1f}" '
            f'y2="{top + plot_h + 4:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.1f}" y="{top + plot_h + 18:.1f}" text-anchor="middle">{lam:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{_SVG_HEIGHT - 10:.1f}" '
        f'text-anchor="middle">lambda</text>'
    )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.1f})">accuracy</text>'
    )
    for i, (name, acc) in enumerate(sorted(report.baselines.items())):
        color = _BASELINE_COLORS[i % len(_BASELINE_COLORS)]
        yy = y(acc)
        parts.append(
            f'<line x1="{left:.1f}" y1="{yy:.1f}" x2="{left + plot_w:.1f}" y2="{yy:.1f}" '
            f'stroke="{color}" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{left + plot_w:.1f}" y="{yy - 4:.1f}" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )
    polyline = " ".join(f"{x(lam):.1f},{y(acc):.1f}" for lam, acc in report.points)
    parts.append(f'<polyline points="{polyline}" fill="none" stroke="#1f77b4" stroke-width="2"/>')
    for lam, acc in report.points:
        parts.append(f'<circle cx="{x(lam):.1f}" cy="{y(acc):.1f}" r="3" fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# Stratified accuracy
# ----------------------------------------------------------------------

def strata_to_dict(strata: dict[str, TierStats]) -> dict:
    return {tier: asdict(strata[tier]) for tier in RATING_TIERS if tier in strata}


def render_strata_table(strata: dict[str, TierStats]) -> str:
    rows = [
        [tier, str(s.n), str(s.correct), f"{100 * s.accuracy:.1f}%"]
        for tier in RATING_TIERS
        if (s := strata.get(tier)) is not None
    ]
    return _table(["Tier", "N", "Correct", "Accuracy"], rows)
