"""Self-contained HTML dashboard for a GMonitor summary.

Renders a ``repro.monitor.summary/v1`` document into one standalone HTML
file: inline CSS + inline SVG only, no external scripts, stylesheets or
fonts — the file opens offline and survives being committed next to the
trace artifacts.  Sections: cluster health banner, SLO burn-down, alert
timeline, per-device engine-utilization heatmap, and sparklines for every
retained series.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.anomaly import changepoints, slope_of

__all__ = ["render_dashboard", "write_dashboard"]

_MAX_SPARKLINES = 60
_SPARK_W, _SPARK_H = 260, 36
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 24px; background: #fafafa; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 15px; margin-top: 28px;
     border-bottom: 1px solid #ddd; padding-bottom: 4px; }
table { border-collapse: collapse; font-size: 12px; }
th, td { padding: 3px 10px; border-bottom: 1px solid #eee;
         text-align: left; white-space: nowrap; }
.badge { display: inline-block; padding: 2px 10px; border-radius: 10px;
         color: #fff; font-weight: 600; font-size: 13px; }
.ok { background: #2a9d3e; } .warn { background: #e0a010; }
.bad { background: #d03030; }
.grid { display: flex; flex-wrap: wrap; gap: 10px; }
.card { background: #fff; border: 1px solid #e5e5e5; border-radius: 4px;
        padding: 6px 10px; }
.card .k { font-size: 11px; color: #666; font-family: monospace; }
.muted { color: #888; font-size: 12px; }
svg text { font-family: monospace; }
"""


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.4g}"


def _series_values(points: List[List[Any]]) -> List[Tuple[int, float]]:
    out = []
    for idx, v in points:
        if isinstance(v, dict):
            v = v.get("p99", v.get("count", 0.0))
        out.append((idx, float(v)))
    return out


def _trend_glyph(points: List[Tuple[int, float]]) -> str:
    """Direction arrow for the trailing-window slope of a series."""
    tail = [v for _, v in points[-8:]]
    if len(tail) < 3:
        return ""
    s = slope_of(tail)
    scale = max(1e-9, max(abs(v) for v in tail))
    if abs(s) < 0.01 * scale:
        arrow, color = "&#8594;", "#888"       # → flat
    elif s > 0:
        arrow, color = "&#8599;", "#d03030"    # ↗ rising
    else:
        arrow, color = "&#8600;", "#2a9d3e"    # ↘ falling
    return (f'<text x="2" y="10" font-size="10" fill="{color}">'
            f'{arrow}<title>trailing slope {s:.3g}/window</title>'
            f'</text>')


def _sparkline(points: List[Tuple[int, float]], lo_idx: int,
               hi_idx: int) -> str:
    """One polyline SVG over the window range [lo_idx, hi_idx].

    Overlays the anomaly detectors from :mod:`repro.obs.anomaly`:
    mean-shift changepoints as red dots, the trailing-window slope as a
    direction arrow in the top-left corner.
    """
    if not points:
        return ""
    span = max(1, hi_idx - lo_idx)
    vmax = max(v for _, v in points)
    vmin = min(0.0, min(v for _, v in points))
    vspan = (vmax - vmin) or 1.0
    coords = []
    xy = {}
    for idx, v in points:
        x = (idx - lo_idx) / span * (_SPARK_W - 4) + 2
        y = _SPARK_H - 4 - (v - vmin) / vspan * (_SPARK_H - 8)
        coords.append(f"{x:.1f},{y:.1f}")
        xy[idx] = (x, y)
    markers = []
    if len(points) >= 8:
        for cp in changepoints(points):
            if cp in xy:
                x, y = xy[cp]
                markers.append(
                    f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" '
                    f'fill="#d03030"><title>mean shift at window '
                    f'{cp}</title></circle>')
    return (
        f'<svg width="{_SPARK_W}" height="{_SPARK_H}">'
        f'<polyline points="{" ".join(coords)}" fill="none" '
        f'stroke="#3465a4" stroke-width="1.2"/>{"".join(markers)}'
        f'{_trend_glyph(points)}'
        f'<text x="{_SPARK_W - 2}" y="10" text-anchor="end" font-size="9" '
        f'fill="#888">max {_fmt(vmax)}</text></svg>')


def _health_badge(score: float) -> str:
    cls = "ok" if score >= 85 else ("warn" if score >= 50 else "bad")
    return f'<span class="badge {cls}">{score:.0f}</span>'


def _window_range(doc: Dict[str, Any]) -> Tuple[int, int]:
    lo, hi = None, None
    for s in doc.get("series", []):
        for idx, _v in s.get("points", []):
            lo = idx if lo is None else min(lo, idx)
            hi = idx if hi is None else max(hi, idx)
    if lo is None:
        return 0, 1
    return lo, max(hi, lo + 1)


def _alert_timeline(doc: Dict[str, Any]) -> str:
    alerts = doc.get("alerts", [])
    if not alerts:
        return '<p class="muted">no alerts fired</p>'
    t_end = float(doc.get("generated_at_s", 0.0)) or max(
        float(a.get("resolved_at_s") or a["fired_at_s"]) for a in alerts)
    t0 = min(float(a["fired_at_s"]) for a in alerts)
    span = max(t_end - t0, 1e-9)
    width, row_h = 640, 18
    rows = []
    for i, a in enumerate(alerts):
        fired = float(a["fired_at_s"])
        resolved = a.get("resolved_at_s")
        x0 = (fired - t0) / span * (width - 220) + 200
        x1 = ((float(resolved) if resolved is not None else t_end) - t0) \
            / span * (width - 220) + 200
        color = "#d03030" if a["severity"] == "critical" else "#e0a010"
        y = i * row_h + 4
        label = html.escape(f'{a["rule"]} [{a["series"]}]')[:38]
        state = "" if resolved is not None else " (unresolved)"
        rows.append(
            f'<text x="0" y="{y + 10}" font-size="10">{label}{state}</text>'
            f'<rect x="{x0:.1f}" y="{y}" '
            f'width="{max(x1 - x0, 2):.1f}" height="12" fill="{color}" '
            f'rx="2" opacity="{1.0 if resolved is None else 0.75}"/>')
    h = len(alerts) * row_h + 24
    axis = (f'<text x="200" y="{h - 4}" font-size="9" fill="#888">'
            f't={_fmt(t0)}s</text>'
            f'<text x="{width - 4}" y="{h - 4}" font-size="9" fill="#888" '
            f'text-anchor="end">t={_fmt(t_end)}s</text>')
    svg = f'<svg width="{width}" height="{h}">{"".join(rows)}{axis}</svg>'
    # Flight-recorder bundles are written next to the dashboard's
    # artifacts; relative links keep the file self-contained offline.
    bundled = [a for a in alerts if a.get("bundle")]
    if bundled:
        items = "".join(
            f'<li><code>{html.escape(a["rule"])}</code> fired @ '
            f'{float(a["fired_at_s"]):.2f}s &#8594; '
            f'<a href="{html.escape(a["bundle"])}">'
            f'{html.escape(a["bundle"])}</a></li>'
            for a in bundled)
        svg += (f'<p class="muted">post-mortem bundles:</p>'
                f'<ul class="muted">{items}</ul>')
    return svg


def _slo_section(doc: Dict[str, Any]) -> str:
    slos = doc.get("slos", [])
    if not slos:
        return '<p class="muted">no SLOs tracked</p>'
    # Budget burn-down per SLO from the slo.events / slo.bad series.
    series = {(s["name"], s["labels"].get("slo")): s["points"]
              for s in doc.get("series", [])
              if s["name"] in ("slo.events", "slo.bad")}
    rows = ['<table><tr><th>SLO</th><th>kind</th><th>target</th>'
            '<th>events</th><th>bad</th><th>burn rate</th>'
            '<th>budget left</th><th>status</th><th>burn-down</th></tr>']
    for slo in slos:
        name = slo["name"]
        burn = slo.get("burn_rate", 0.0)
        burndown = _burndown_svg(
            series.get(("slo.events", name), []),
            series.get(("slo.bad", name), []),
            slo.get("allowed_bad_frac", 0.0))
        status = ('<span class="badge bad">violated</span>'
                  if slo.get("violated")
                  else '<span class="badge ok">ok</span>')
        target = slo.get("target")
        if slo["kind"] == "latency" and target is not None:
            target_txt = f'p{int(slo.get("percentile", 0.99) * 100)} ≤ ' \
                         f'{_fmt(target)}s'
        elif slo["kind"] == "latency":
            target_txt = "(tracking only)"
        else:
            target_txt = f'≥ {target:.3%} ok'
        rows.append(
            f'<tr><td>{html.escape(name)}</td><td>{slo["kind"]}</td>'
            f'<td>{target_txt}</td><td>{slo.get("events", 0)}</td>'
            f'<td>{slo.get("bad", 0)}</td><td>{burn:.3g}</td>'
            f'<td>{slo.get("budget_remaining_frac", 0.0):.1%}</td>'
            f'<td>{status}</td><td>{burndown}</td></tr>')
    rows.append("</table>")
    return "".join(rows)


def _burndown_svg(events_pts: List[List[Any]], bad_pts: List[List[Any]],
                  allowed_frac: float) -> str:
    """Remaining error budget over windows (1.0 → 0.0)."""
    if not events_pts:
        return ""
    bad_by_idx = {idx: float(v) for idx, v in bad_pts}
    cum_events = cum_bad = 0.0
    pts = []
    for idx, v in events_pts:
        cum_events += float(v)
        cum_bad += bad_by_idx.get(idx, 0.0)
        if cum_events and allowed_frac > 0:
            remaining = max(0.0, 1.0 - (cum_bad / cum_events) / allowed_frac)
        else:
            remaining = 1.0
        pts.append((idx, remaining))
    lo, hi = pts[0][0], max(pts[-1][0], pts[0][0] + 1)
    coords = " ".join(
        f"{(i - lo) / (hi - lo) * 156 + 2:.1f},"
        f"{30 - r * 26:.1f}" for i, r in pts)
    return (f'<svg width="160" height="34">'
            f'<line x1="2" y1="4" x2="158" y2="4" stroke="#eee"/>'
            f'<line x1="2" y1="30" x2="158" y2="30" stroke="#eee"/>'
            f'<polyline points="{coords}" fill="none" stroke="#2a9d3e" '
            f'stroke-width="1.5"/></svg>')


def _utilization_heatmap(doc: Dict[str, Any]) -> str:
    """Per-device engine busy fraction per window, as colored cells."""
    window_s = float(doc.get("window_s", 1.0))
    per_device: Dict[str, Dict[int, float]] = {}
    for s in doc.get("series", []):
        if s["name"] != "gpu.kernel.seconds":
            continue
        device = s["labels"].get("device", "?")
        cells = per_device.setdefault(device, {})
        for idx, v in s["points"]:
            cells[idx] = cells.get(idx, 0.0) + float(v)
    if not per_device:
        return '<p class="muted">no GPU engine activity recorded</p>'
    lo, hi = _window_range(doc)
    n = hi - lo + 1
    cell_w = max(2, min(14, 620 // n))
    rows = []
    for r, device in enumerate(sorted(per_device)):
        y = r * 16
        rows.append(f'<text x="0" y="{y + 12}" font-size="10">'
                    f'{html.escape(device)}</text>')
        for idx, busy in sorted(per_device[device].items()):
            frac = min(1.0, busy / window_s)
            # White → deep blue ramp.
            shade = int(235 - frac * 180)
            x = 130 + (idx - lo) * cell_w
            rows.append(f'<rect x="{x}" y="{y + 2}" width="{cell_w}" '
                        f'height="12" fill="rgb({shade},{shade},235)">'
                        f'<title>{device} w{idx}: '
                        f'{frac:.0%} busy</title></rect>')
    h = len(per_device) * 16 + 8
    return f'<svg width="660" height="{h}">{"".join(rows)}</svg>'


def _series_cards(doc: Dict[str, Any]) -> str:
    lo, hi = _window_range(doc)
    cards = []
    series = doc.get("series", [])
    for s in series[:_MAX_SPARKLINES]:
        pts = _series_values(s.get("points", []))
        if not pts:
            continue
        key = s["name"] + (
            "{" + ",".join(f"{k}={v}"
                           for k, v in sorted(s["labels"].items())) + "}"
            if s.get("labels") else "")
        cards.append(f'<div class="card"><div class="k">'
                     f'{html.escape(key)}</div>'
                     f'{_sparkline(pts, lo, hi)}</div>')
    note = ""
    if len(series) > _MAX_SPARKLINES:
        note = (f'<p class="muted">showing {_MAX_SPARKLINES} of '
                f'{len(series)} series — the rest are in the summary '
                f'JSON</p>')
    return f'<div class="grid">{"".join(cards)}</div>{note}'


def render_dashboard(doc: Dict[str, Any],
                     title: str = "GMonitor dashboard") -> str:
    """Render a monitor summary document into standalone HTML."""
    health = doc.get("health", {})
    cluster = float(health.get("cluster", 100.0))
    worker_rows = "".join(
        f"<tr><td>{html.escape(w)}</td><td>{_health_badge(s)}</td></tr>"
        for w, s in sorted(health.get("workers", {}).items()))
    device_rows = "".join(
        f"<tr><td>{html.escape(d)}</td><td>{_health_badge(s)}</td></tr>"
        for d, s in sorted(health.get("devices", {}).items()))
    n_alerts = len(doc.get("alerts", []))
    unresolved = sum(1 for a in doc.get("alerts", [])
                     if a.get("resolved_at_s") is None)
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head><body>
<h1>{html.escape(title)}</h1>
<p>cluster health {_health_badge(cluster)} &nbsp;·&nbsp;
window {_fmt(float(doc.get("window_s", 1.0)))}s ·
{doc.get("windows_closed", 0)} windows ·
sim t={_fmt(float(doc.get("generated_at_s", 0.0)))}s ·
{n_alerts} alert(s), {unresolved} unresolved</p>
<h2>SLOs &amp; error budget</h2>
{_slo_section(doc)}
<h2>Alert timeline</h2>
{_alert_timeline(doc)}
<h2>Engine utilization (per device, per window)</h2>
{_utilization_heatmap(doc)}
<h2>Health</h2>
<div class="grid">
<div class="card"><table><tr><th>worker</th><th>health</th></tr>
{worker_rows or '<tr><td colspan="2" class="muted">none</td></tr>'}
</table></div>
<div class="card"><table><tr><th>device</th><th>health</th></tr>
{device_rows or '<tr><td colspan="2" class="muted">none</td></tr>'}
</table></div>
</div>
<h2>Time series</h2>
{_series_cards(doc)}
</body></html>
"""


def write_dashboard(doc: Dict[str, Any], path: str,
                    title: str = "GMonitor dashboard") -> str:
    """Write the rendered dashboard to ``path``; returns the path."""
    from pathlib import Path
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_dashboard(doc, title=title))
    return str(p)
