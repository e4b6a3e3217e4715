"""Self-contained HTML dashboard for one training run.

``repro report --html`` feeds a run's telemetry JSONL (parsed into a
:class:`~repro.obs.events.RunRecord`) through :func:`render_dashboard` and
gets back a single HTML file with zero external assets: inline SVG charts,
inline CSS, system fonts.  It renders whatever streams the run actually
produced and skips sections whose data is absent, so a metrics-only run
still gets a useful page.

Sections (data permitting):

* a KPI row — rounds, rounds/sec, communication totals, fault/retry
  totals, with a visible warning when spans were dropped from the trace
  ring buffer;
* loss / accuracy / uplink curves from the run's logged series;
* a node × block duration heatmap built from ``node_result`` events;
* a fault & lifecycle timeline (fault kinds, retries, quarantines,
  checkpoints) from the unified event stream;
* the full history table (also the accessibility fallback for every
  chart — values never live in color alone).

Design notes: single y-axis per chart, 2px lines, ≥8px end markers with a
surface ring, hairline gridlines, sequential one-hue ramp for magnitude,
categorical hues assigned in fixed slot order, text in ink tokens (never
series colors), dark mode via ``prefers-color-scheme`` with dedicated dark
color steps.
"""

from __future__ import annotations

import html as _html
import math
from typing import Dict, List, Sequence, Tuple

from .events import RunRecord

__all__ = ["render_dashboard"]

#: categorical slots, light / dark steps (fixed order — never cycled)
_CATEGORICAL = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]

#: one-hue sequential ramp (blue 150→650), light→dark = low→high
_SEQ_RAMP = [
    "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
]

#: fixed row order (and categorical slot assignment) for the timeline
_TIMELINE_KINDS = [
    ("fault_injected", "faults"),
    ("retry", "retries"),
    ("node_error", "node errors"),
    ("straggler_dropped", "stragglers"),
    ("quarantine", "quarantines"),
    ("checkpoint", "checkpoints"),
    ("resume", "resumes"),
    # Fleet runs (dispatch/completion are too dense for a dot row; the
    # sparse lifecycle kinds carry the story)
    ("fleet_timeout", "fleet timeouts"),
    ("fleet_flush", "fleet flushes"),
]

_CSS = """
body { margin: 0; background: var(--page); }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --good: #0ca30c; --warn: #fab219; --crit: #d03b3b;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--ink); max-width: 1080px; margin: 0 auto; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
.subtitle { color: var(--ink-2); font-size: 13px; margin-bottom: 20px; }
.banner {
  background: var(--surface-1); border: 1px solid var(--crit);
  border-radius: 8px; padding: 10px 14px; margin: 0 0 16px;
  font-size: 13px; color: var(--ink);
}
.kpis { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px; min-width: 120px;
}
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 24px; font-weight: 600; margin-top: 2px; }
.tile .note { font-size: 11px; color: var(--muted); margin-top: 2px; }
.charts { display: flex; flex-wrap: wrap; gap: 16px; }
figure {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px 8px; margin: 0;
}
figcaption { font-size: 13px; font-weight: 600; margin-bottom: 6px; }
figcaption .sub { font-weight: 400; color: var(--ink-2); }
svg text { font-family: inherit; font-size: 10px; fill: var(--muted);
           font-variant-numeric: tabular-nums; }
svg .endlabel { fill: var(--ink-2); font-weight: 600; }
svg .rowlabel { fill: var(--ink-2); }
details { margin-top: 20px; }
summary { cursor: pointer; font-size: 13px; color: var(--ink-2); }
table { border-collapse: collapse; font-size: 12px; margin-top: 8px;
        background: var(--surface-1); }
th, td { padding: 4px 10px; text-align: right; border-bottom: 1px solid
         var(--grid); font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
footer { margin-top: 24px; font-size: 11px; color: var(--muted); }
"""


def _esc(text: object) -> str:
    return _html.escape(str(text))


def _compact(value: float) -> str:
    """1,284 / 12.9K / 4.2M style auto-compact number rendering."""
    v = float(value)
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(v) >= cut:
            return f"{v / cut:.1f}{suffix}"
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:.4g}"


def _nice_ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    """~n round-number ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(
        s * mag for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw
    )
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _stat_tile(label: str, value: str, note: str = "") -> str:
    note_html = f'<div class="note">{_esc(note)}</div>' if note else ""
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div>{note_html}</div>'
    )


def _line_chart(
    title: str,
    sub: str,
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    color: str = "var(--series-1)",
    width: int = 460,
    height: int = 200,
) -> str:
    """Single-series line chart: 2px line, ringed end marker, end label."""
    pad_l, pad_r, pad_t, pad_b = 46, 58, 10, 22
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_span = (x_hi - x_lo) or 1.0

    def sx(x: float) -> float:
        return pad_l + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return pad_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(title)}">'
    ]
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
            f'<text x="{pad_l - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_compact(tick)}</text>'
        )
    base_y = pad_t + plot_h
    parts.append(
        f'<line x1="{pad_l}" y1="{base_y}" x2="{width - pad_r}" '
        f'y2="{base_y}" stroke="var(--axis)" stroke-width="1"/>'
    )
    for tick in _nice_ticks(x_lo, x_hi, 5):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{base_y + 14}" '
            f'text-anchor="middle">{_compact(tick)}</text>'
        )
    points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
    )
    # hover targets: an invisible widened dot per sample with a tooltip
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="8" '
            f'fill="transparent"><title>t={_compact(x)}: '
            f"{_compact(y)}</title></circle>"
        )
    ex, ey = sx(xs[-1]), sy(ys[-1])
    parts.append(
        f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" fill="{color}" '
        f'stroke="var(--surface-1)" stroke-width="2"/>'
        f'<text class="endlabel" x="{ex + 8:.1f}" y="{ey + 3:.1f}">'
        f"{_compact(ys[-1])}</text></svg>"
    )
    return (
        f"<figure><figcaption>{_esc(title)} "
        f'<span class="sub">{_esc(sub)}</span></figcaption>'
        + "".join(parts)
        + "</figure>"
    )


def _heatmap(durations: Dict[Tuple[int, int], float]) -> str:
    """Node × block duration grid, one-hue sequential fill, 2px gaps."""
    nodes = sorted({n for n, _ in durations})
    blocks = sorted({b for _, b in durations})
    hi = max(durations.values()) or 1.0
    cell, gap = 22, 2
    pad_l, pad_t, pad_b = 46, 6, 20
    width = pad_l + len(blocks) * (cell + gap) + 12
    height = pad_t + len(nodes) * (cell + gap) + pad_b
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="per-node durations">'
    ]
    for i, node in enumerate(nodes):
        y = pad_t + i * (cell + gap)
        parts.append(
            f'<text class="rowlabel" x="{pad_l - 6}" '
            f'y="{y + cell / 2 + 3:.1f}" text-anchor="end">n{node}</text>'
        )
        for j, block in enumerate(blocks):
            value = durations.get((node, block))
            if value is None:
                continue
            shade = _SEQ_RAMP[
                min(
                    int(value / hi * (len(_SEQ_RAMP) - 1) + 0.5),
                    len(_SEQ_RAMP) - 1,
                )
            ]
            x = pad_l + j * (cell + gap)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'rx="2" fill="{shade}"><title>node {node}, block '
                f"{block}: {value * 1e3:.1f} ms</title></rect>"
            )
    step = max(1, len(blocks) // 8)
    for j, block in enumerate(blocks):
        if j % step:
            continue
        x = pad_l + j * (cell + gap) + cell / 2
        parts.append(
            f'<text x="{x:.1f}" y="{height - 6}" '
            f'text-anchor="middle">{block}</text>'
        )
    parts.append("</svg>")
    return (
        "<figure><figcaption>Local-train duration "
        '<span class="sub">per node × block, darker = slower</span>'
        "</figcaption>" + "".join(parts) + "</figure>"
    )


def _timeline(run: RunRecord) -> str:
    """Lifecycle/fault events as one dot row per kind over blocks."""
    rows = [
        (kind, label, run.events_of(kind))
        for kind, label in _TIMELINE_KINDS
    ]
    rows = [r for r in rows if r[2]]
    if not rows:
        return ""
    blocks = [
        int(e.get("block", e.get("t", 0)))
        for _, _, events in rows
        for e in events
    ]
    b_lo, b_hi = min(blocks), max(blocks)
    span = (b_hi - b_lo) or 1
    row_h, pad_l, pad_t = 24, 104, 8
    width, plot_w = 620, 620 - pad_l - 24
    height = pad_t + row_h * len(rows) + 24
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="event timeline">'
    ]
    for i, (kind, label, events) in enumerate(rows):
        y = pad_t + i * row_h + row_h / 2
        color = f"var(--series-{(i % len(_CATEGORICAL)) + 1})"
        parts.append(
            f'<text class="rowlabel" x="{pad_l - 8}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_esc(label)} ({len(events)})</text>'
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{pad_l + plot_w}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        for event in events:
            block = int(event.get("block", event.get("t", 0)))
            x = pad_l + (block - b_lo) / span * plot_w
            detail = ", ".join(
                f"{k}={event[k]}"
                for k in ("fault", "node", "count", "t")
                if k in event and event[k] is not None
            )
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4.5" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_esc(kind)} @ block {block}'
                f"{': ' + _esc(detail) if detail else ''}</title></circle>"
            )
    base_y = pad_t + row_h * len(rows) + 4
    for tick in _nice_ticks(b_lo, b_hi, 6):
        if tick != int(tick):
            continue
        x = pad_l + (tick - b_lo) / span * plot_w
        parts.append(
            f'<text x="{x:.1f}" y="{base_y + 10}" '
            f'text-anchor="middle">{int(tick)}</text>'
        )
    parts.append("</svg>")
    return (
        "<figure><figcaption>Fault &amp; lifecycle timeline "
        '<span class="sub">by block</span></figcaption>'
        + "".join(parts)
        + "</figure>"
    )


def _history_table(run: RunRecord) -> str:
    """Every logged series as one table — the non-chart view of the run."""
    named = [
        s
        for s in run.series
        if s.get("steps") and not s["name"].startswith("obs_")
    ]
    if not named:
        return ""
    by_step: Dict[int, Dict[str, float]] = {}
    columns: List[str] = []
    for series in named:
        name = series["name"]
        if name not in columns:
            columns.append(name)
        for step, value in zip(series["steps"], series["values"]):
            by_step.setdefault(int(step), {})[name] = value
    head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
    body = []
    for step in sorted(by_step):
        cells = "".join(
            f"<td>{_compact(by_step[step][c]) if c in by_step[step] else '–'}</td>"
            for c in columns
        )
        body.append(f"<tr><td>{step}</td>{cells}</tr>")
    return (
        "<details><summary>Run history table "
        f"({len(by_step)} steps)</summary><table><tr><th>step</th>"
        f"{head}</tr>{''.join(body)}</table></details>"
    )


def _sum_counter(run: RunRecord, name: str) -> float:
    return sum(
        float(r.get("value", 0.0))
        for r in run.counters
        if r.get("name") == name
    )


def _kpi_row(run: RunRecord) -> str:
    tiles: List[str] = []
    rounds = _sum_counter(run, "fl_rounds_total")
    fit_spans = [s for s in run.spans if s.get("name") == "fit"]
    if rounds:
        tiles.append(_stat_tile("Rounds", _compact(rounds)))
    if rounds and fit_spans:
        fit_s = float(fit_spans[-1]["end"]) - float(fit_spans[-1]["start"])
        if fit_s > 0:
            tiles.append(
                _stat_tile(
                    "Rounds / sec", f"{rounds / fit_s:.2f}",
                    f"fit took {fit_s:.2f}s",
                )
            )
    run_end = run.events_of("run_end")
    if run_end:
        tiles.append(
            _stat_tile(
                "Uplink", _compact(run_end[-1].get("uplink_bytes", 0)) + "B"
            )
        )
        tiles.append(
            _stat_tile(
                "Downlink",
                _compact(run_end[-1].get("downlink_bytes", 0)) + "B",
            )
        )
    faults = _sum_counter(run, "fl_faults_total")
    if faults:
        tiles.append(
            _stat_tile(
                "Faults injected", _compact(faults),
                f"{_compact(_sum_counter(run, 'fl_retries_total'))} retries",
            )
        )
    if not tiles:
        return ""
    return f'<div class="kpis">{"".join(tiles)}</div>'


def render_dashboard(run: RunRecord, title: str = "Federated run") -> str:
    """One run's telemetry as a self-contained HTML page."""
    meta = run.meta or {}
    run_start = run.events_of("run_start")
    sub_bits = []
    if run_start:
        first = run_start[0]
        sub_bits.append(f"algorithm {first.get('algorithm', '?')}")
        sub_bits.append(f"{first.get('nodes', '?')} nodes")
        sub_bits.append(f"executor {first.get('executor', '?')}")
    if meta.get("seed") is not None:
        sub_bits.append(f"seed {meta['seed']}")
    if meta.get("git_sha"):
        sub_bits.append(f"commit {str(meta['git_sha'])[:10]}")
    if meta.get("timestamp_iso"):
        sub_bits.append(str(meta["timestamp_iso"]))

    sections: List[str] = []
    dropped = _sum_counter(run, "obs_spans_dropped_total")
    if dropped:
        sections.append(
            f'<div class="banner">&#9888;&#65039; <b>{int(dropped)} spans '
            "dropped</b> from the trace ring buffer — raise "
            "<code>span_ring_size</code> to keep the full trace.</div>"
        )
    sections.append(_kpi_row(run))

    charts: List[str] = []
    for name, label in (
        ("loss", "Training loss"),
        ("global_loss", "Global loss"),
        ("global_meta_loss", "Global meta-loss"),
        ("accuracy", "Accuracy"),
        ("query_loss", "Query loss"),
        ("uplink_bytes", "Uplink volume"),
    ):
        series = run.find_series(name)
        if series and series.get("steps"):
            charts.append(
                _line_chart(
                    label,
                    "by iteration",
                    [float(s) for s in series["steps"]],
                    [float(v) for v in series["values"]],
                )
            )
    durations: Dict[Tuple[int, int], float] = {}
    for event in run.events_of("node_result"):
        if event.get("duration_s") is not None:
            key = (int(event["node"]), int(event["block"]))
            durations[key] = durations.get(key, 0.0) + float(
                event["duration_s"]
            )
    if durations:
        charts.append(_heatmap(durations))
    timeline = _timeline(run)
    if timeline:
        charts.append(timeline)
    if charts:
        sections.append(f'<div class="charts">{"".join(charts)}</div>')
    sections.append(_history_table(run))
    sections.append(
        f"<footer>{len(run.events)} events &middot; {len(run.spans)} spans "
        f"&middot; {len(run.counters)} counters &middot; generated by "
        "repro report --html</footer>"
    )

    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title>"
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        f"<style>{_CSS}</style></head><body>"
        f'<div class="viz-root"><h1>{_esc(title)}</h1>'
        f'<div class="subtitle">{_esc(" · ".join(sub_bits))}</div>'
        + "".join(s for s in sections if s)
        + "</div></body></html>"
    )
